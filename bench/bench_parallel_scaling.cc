// Experiment E25 — multi-core scaling of parallel application. Three
// curves over the Section 7 payroll workload, |T| = 2^3 ... 2^12:
//
//   * Sequential        — ApplySequence: one E evaluation per receiver.
//   * Parallel/1 worker — ParallelApply: one par(E) evaluation per
//                         statement, on the calling thread.
//   * Parallel/N workers (BM_ParallelSharded) — the same call through the
//                         ExecOptions entry point, asking for a persistent
//                         ThreadPool of DefaultWorkerCount() workers.
//                         ParallelApply ignores num_workers and pool, so
//                         this curve shows what asking for workers costs
//                         and buys: nothing, within noise.
//
// The three compute bit-identical results (see parallel_runtime_test).
// The N-worker curve is timed by wall clock, as every row that is handed
// a pool should be. Read the absolute numbers against the host
// (EXPERIMENTS.md records which hardware produced the committed artifact).

#include <benchmark/benchmark.h>

#include "algebraic/parallel.h"
#include "bench_obs.h"
#include "core/sequential.h"
#include "core/thread_pool.h"
#include "sql/table.h"

namespace setrec {
namespace {

struct Workload {
  PayrollSchema schema;
  Instance instance;
  std::unique_ptr<AlgebraicUpdateMethod> method;
  std::vector<Receiver> receivers;

  Workload() : instance(nullptr) {}
};

Workload BuildWorkload(std::int64_t n_employees) {
  Workload w;
  w.schema = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n_employees);
       ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % 16), std::nullopt});
  }
  for (std::uint32_t s = 0; s < 16; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  w.instance = std::move(BuildPayrollInstance(w.schema, employees, {},
                                              raises))
                   .value();
  w.method = std::move(MakeSalaryFromNewSal(w.schema)).value();
  const auto salaries = std::move(ReadSalaries(w.schema, w.instance)).value();
  for (auto [id, salary] : salaries) {
    w.receivers.push_back(Receiver::Unchecked(
        {ObjectId(w.schema.emp, id), ObjectId(w.schema.val, salary)}));
  }
  return w;
}

void BM_Sequential(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  for (auto _ : state) {
    Result<Instance> out = ApplySequence(*w.method, w.instance, w.receivers,
                                         benchobs::ObsContext());
    if (!out.ok()) state.SkipWithError("sequential application failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.receivers.size()));
}

void BM_ParallelOneShard(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  for (auto _ : state) {
    Result<Instance> out = ParallelApply(*w.method, w.instance, w.receivers,
                                         benchobs::ObsOptions());
    if (!out.ok()) state.SkipWithError("parallel application failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.receivers.size()));
}

void BM_ParallelSharded(benchmark::State& state) {
  Workload w = BuildWorkload(state.range(0));
  ThreadPool pool(ThreadPool::DefaultWorkerCount());
  // The unified ExecOptions entry point — the traced quickstart path.
  ExecOptions options = benchobs::ObsOptions();
  options.num_workers = pool.num_workers();
  options.pool = &pool;
  for (auto _ : state) {
    Result<Instance> out =
        ParallelApply(*w.method, w.instance, w.receivers, options);
    if (!out.ok()) state.SkipWithError("pooled application failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.receivers.size()));
  state.counters["workers"] =
      static_cast<double>(pool.num_workers());
}

BENCHMARK(BM_Sequential)->RangeMultiplier(2)->Range(8, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelOneShard)->RangeMultiplier(2)->Range(8, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelSharded)->RangeMultiplier(2)->Range(8, 4096)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace setrec
