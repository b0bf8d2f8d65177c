// Experiment E2/E20 support — core application throughput: single-receiver
// M(I, t) cost against instance size (BM_SingleApply includes the instance
// copy Apply makes; BM_ApplyInPlaceAtSize times M(I, t) alone, which binds
// the instance and reads the receiver's own edges by index) and
// sequential-application cost against receiver-set size; plus the
// combination semantics for contrast.

#include <benchmark/benchmark.h>

#include "algebraic/method_library.h"
#include "bench_obs.h"
#include "core/combination.h"
#include "core/instance_generator.h"
#include "core/sequential.h"

namespace setrec {
namespace {

struct Workload {
  DrinkersSchema schema;
  Instance instance;
  std::unique_ptr<AlgebraicUpdateMethod> add_bar;
  std::vector<Receiver> receivers;

  Workload() : instance(nullptr) {}
};

Workload BuildWorkload(std::int64_t objects_per_class,
                       std::size_t receiver_count) {
  Workload w;
  w.schema = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&w.schema.schema, 7);
  InstanceGenerator::Options options;
  options.min_objects_per_class =
      static_cast<std::uint32_t>(objects_per_class);
  options.max_objects_per_class =
      static_cast<std::uint32_t>(objects_per_class);
  options.edge_probability = 4.0 / static_cast<double>(objects_per_class);
  w.instance = gen.RandomInstance(options);
  w.add_bar = std::move(MakeAddBar(w.schema)).value();
  w.receivers = gen.RandomKeySet(w.instance, w.add_bar->signature(),
                                 receiver_count);
  return w;
}

void BM_SingleApply(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0), 1);
  if (w.receivers.empty()) {
    state.SkipWithError("no receivers");
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = w.add_bar->Apply(w.instance, w.receivers[0]);
    benchmark::DoNotOptimize(out);
  }
  state.counters["objects"] = static_cast<double>(w.instance.num_objects());
  state.counters["edges"] = static_cast<double>(w.instance.num_edges());
}
BENCHMARK(BM_SingleApply)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Unit(benchmark::kMicrosecond);

/// One add_bar M(I, t) in place on an instance of N drinkers, each
/// frequenting two of 100 bars, under a journal that is rolled back after
/// every application, so no instance copy is timed. Method application
/// reads only the receiver's own Df edges, so the time should not grow
/// with N.
void BM_ApplyInPlaceAtSize(benchmark::State& state) {
  constexpr std::uint32_t kBars = 100;
  const auto drinkers = static_cast<std::uint32_t>(state.range(0));
  const DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  Instance instance(&ds.schema);
  for (std::uint32_t b = 0; b < kBars; ++b) {
    (void)instance.AddObject(ObjectId(ds.bar, b));
  }
  for (std::uint32_t d = 0; d < drinkers; ++d) {
    const ObjectId drinker(ds.drinker, d);
    (void)instance.AddObject(drinker);
    (void)instance.AddEdge(drinker, ds.frequents, ObjectId(ds.bar, d % kBars));
    (void)instance.AddEdge(drinker, ds.frequents,
                           ObjectId(ds.bar, (d * 7 + 3) % kBars));
  }
  const auto add_bar = std::move(MakeAddBar(ds)).value();
  const Receiver t = Receiver::Unchecked(
      {ObjectId(ds.drinker, drinkers / 2), ObjectId(ds.bar, 42)});
  ExecContext& ctx = benchobs::ObsContext();
  instance.BeginJournal();
  for (auto _ : state) {
    if (!add_bar->ApplyInPlace(instance, t, ctx).ok()) {
      state.SkipWithError("add_bar failed");
      break;
    }
    instance.Rollback();
  }
  instance.EndJournal();
  state.counters["df_edges"] =
      static_cast<double>(instance.edges(ds.frequents).size());
}
BENCHMARK(BM_ApplyInPlaceAtSize)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_SequenceLength(benchmark::State& state) {
  Workload w = BuildWorkload(64, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Result<Instance> out = ApplySequence(*w.add_bar, w.instance, w.receivers,
                                         benchobs::ObsContext());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.receivers.size()));
}
BENCHMARK(BM_SequenceLength)
    ->RangeMultiplier(2)
    ->Range(1, 32)
    ->Unit(benchmark::kMillisecond);

void BM_ExhaustiveOrderTest(benchmark::State& state) {
  // Cost of Definition 3.1's |T|! ground-truth check — why Lemma 3.3 and
  // the static procedures matter.
  Workload w = BuildWorkload(8, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto outcome = OrderIndependentOn(*w.add_bar, w.instance, w.receivers,
                                      benchobs::ObsContext());
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ExhaustiveOrderTest)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

void BM_CombinationRefined(benchmark::State& state) {
  Workload w = BuildWorkload(64, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Result<Instance> out =
        ApplyCombinationRefined(*w.add_bar, w.instance, w.receivers);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CombinationRefined)
    ->RangeMultiplier(2)
    ->Range(1, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace setrec
