// Experiment support for the incremental-views claim: the per-update cost
// of keeping a receiver view current must be sublinear in instance size.
// Three benchmark families over the same growing drinkers instance and the
// same fixed-size committed delta:
//
//   BM_FromScratchViewUpdate — the paper-baseline path: apply the delta,
//     then recompute the receiver view by EncodeInstance + Evaluate.
//   BM_IncrementalViewUpdate — the ViewCache path: ApplyDelta (O(|delta|)
//     mirror maintenance) + a demand-driven Read that propagates the delta
//     rules through the view's plan.
//   BM_DeltaAbsorption — ApplyDelta alone: the eager half of the split,
//     which must stay flat as the instance grows.
//
// The acceptance criterion (EXPERIMENTS.md) compares the two update paths
// at the largest size: incremental must win by >= 5x.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "algebraic/method_library.h"
#include "bench_obs.h"
#include "core/instance.h"
#include "core/instance_generator.h"
#include "incremental/view_cache.h"
#include "objrel/encoding.h"
#include "relational/builder.h"
#include "relational/evaluator.h"

namespace setrec {
namespace {

/// The receiver view under maintenance: drinkers frequenting a bar that
/// serves a beer they like — a two-level equi-join chain plus renames and
/// a projection, the shape a set-oriented UPDATE's receiver query takes.
ExprPtr HappyDrinkers() {
  return ra::Project(
      ra::SelectEq(
          ra::SelectEq(
              ra::Product(ra::JoinEq(ra::Rel("Df"), ra::Rel("Bas"), "f", "Ba"),
                          ra::Rename(ra::Rename(ra::Rel("Dl"), "D", "D2"), "l",
                                     "l2")),
              "D", "D2"),
          "s", "l2"),
      {"D"});
}

struct Workload {
  DrinkersSchema schema;
  Instance instance;
  ExprPtr view;
  // A fixed-size committed statement and its inverse: one new drinker who
  // frequents an existing bar and likes an existing beer. Alternating the
  // pair keeps the benchmark state steady across iterations while every
  // iteration still absorbs a real delta.
  InstanceDelta forward;
  InstanceDelta backward;

  Workload() : instance(nullptr) {}
};

Workload BuildWorkload(std::int64_t objects_per_class) {
  Workload w;
  w.schema = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&w.schema.schema, 7);
  InstanceGenerator::Options options;
  options.min_objects_per_class =
      static_cast<std::uint32_t>(objects_per_class);
  options.max_objects_per_class =
      static_cast<std::uint32_t>(objects_per_class);
  // Edge count stays linear in the object count, so "bigger instance"
  // means bigger, not denser.
  options.edge_probability = 8.0 / static_cast<double>(objects_per_class);
  w.instance = gen.RandomInstance(options);
  w.view = HappyDrinkers();

  const ObjectId fresh(w.schema.drinker,
                       static_cast<std::uint32_t>(objects_per_class) + 1);
  w.forward.added_objects.push_back(fresh);
  w.forward.added_edges.push_back(
      Edge{fresh, w.schema.frequents, ObjectId(w.schema.bar, 0)});
  w.forward.added_edges.push_back(
      Edge{fresh, w.schema.likes, ObjectId(w.schema.beer, 0)});
  w.backward.removed_objects = w.forward.added_objects;
  w.backward.removed_edges = w.forward.added_edges;
  return w;
}

void BM_FromScratchViewUpdate(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  bool fwd = true;
  for (auto _ : state) {
    const Status applied =
        ApplyDelta(w.instance, fwd ? w.forward : w.backward);
    if (!applied.ok()) {
      state.SkipWithError("delta application failed");
      return;
    }
    Result<Database> db = EncodeInstance(w.instance);
    if (!db.ok()) {
      state.SkipWithError("encoding failed");
      return;
    }
    Result<Relation> view = Evaluate(w.view, *db, benchobs::ObsOptions());
    if (!view.ok()) {
      state.SkipWithError("evaluation failed");
      return;
    }
    benchmark::DoNotOptimize(view);
    fwd = !fwd;
  }
  state.counters["objects"] = static_cast<double>(w.instance.num_objects());
  state.counters["edges"] = static_cast<double>(w.instance.num_edges());
}
BENCHMARK(BM_FromScratchViewUpdate)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Unit(benchmark::kMicrosecond);

void BM_IncrementalViewUpdate(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  ViewCacheOptions options;
  options.metrics = benchobs::ObsMetrics();
  options.tracer = benchobs::ObsTracer();
  ViewCache cache(&w.schema.schema, options);
  if (!cache.Prime(w.instance).ok() ||
      !cache.Register("happy", w.view).ok() || !cache.Read("happy").ok()) {
    state.SkipWithError("cache setup failed");
    return;
  }
  bool fwd = true;
  for (auto _ : state) {
    const Status applied = cache.ApplyDelta(fwd ? w.forward : w.backward);
    if (!applied.ok()) {
      state.SkipWithError("delta absorption failed");
      return;
    }
    Result<std::shared_ptr<const Relation>> view = cache.Read("happy");
    if (!view.ok()) {
      state.SkipWithError("cached read failed");
      return;
    }
    benchmark::DoNotOptimize(view);
    fwd = !fwd;
  }
  state.counters["objects"] = static_cast<double>(w.instance.num_objects());
  state.counters["edges"] = static_cast<double>(w.instance.num_edges());
  state.counters["refreshes"] =
      static_cast<double>(cache.stats().refreshes);
  state.counters["fallbacks"] =
      static_cast<double>(cache.stats().fallbacks);
}
BENCHMARK(BM_IncrementalViewUpdate)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Unit(benchmark::kMicrosecond);

void BM_DeltaAbsorption(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  ViewCache cache(&w.schema.schema);
  if (!cache.Prime(w.instance).ok()) {
    state.SkipWithError("prime failed");
    return;
  }
  bool fwd = true;
  for (auto _ : state) {
    const Status applied = cache.ApplyDelta(fwd ? w.forward : w.backward);
    if (!applied.ok()) {
      state.SkipWithError("delta absorption failed");
      return;
    }
    fwd = !fwd;
  }
  state.counters["objects"] = static_cast<double>(w.instance.num_objects());
}
BENCHMARK(BM_DeltaAbsorption)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace setrec
