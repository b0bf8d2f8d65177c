// Experiment E-REC — recovery cost: time for DurableStore::Open to rebuild
// the committed state from (a) a pure WAL replay of N commits, (b) a
// checkpoint plus a short replay tail, and the raw WAL scan cost those sit
// on. This quantifies the snapshot cadence trade-off: how much replay time a
// checkpoint buys at the price of writing the full instance. The write side
// is timed too: commit latency, and its flatness across store sizes.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "core/instance.h"
#include "core/schema.h"
#include "store/durable_store.h"
#include "store/wal.h"

namespace setrec {
namespace {

struct Workload {
  Schema schema;
  ClassId a = 0, b = 0;
  PropertyId f = 0;

  Workload() {
    a = schema.AddClass("A").value();
    b = schema.AddClass("B").value();
    f = schema.AddProperty("f", a, b).value();
  }

  /// One commit's mutation: add an A/B pair plus an edge, retire the
  /// previous A object — a steady-state workload whose deltas stay small.
  Status Step(Instance& inst, std::uint32_t k) const {
    SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(a, k)));
    SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(b, k % 17)));
    SETREC_RETURN_IF_ERROR(
        inst.AddEdge(ObjectId(a, k), f, ObjectId(b, k % 17)));
    if (k > 1) {
      SETREC_RETURN_IF_ERROR(inst.RemoveObject(ObjectId(a, k - 1)));
    }
    return Status::OK();
  }
};

/// Populates a fresh store directory with `commits` committed statements and
/// returns its path. `snapshot_every` = 0 keeps everything in the WAL.
std::string PrepareDir(const Workload& w, const std::string& tag,
                       std::uint32_t commits, std::uint64_t snapshot_every) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_bench_recovery" / tag;
  std::filesystem::remove_all(dir);
  DurableStoreOptions options;
  options.snapshot_every_n_commits = snapshot_every;
  auto store =
      std::move(DurableStore::Open(dir.string(), &w.schema, options)).value();
  for (std::uint32_t k = 1; k <= commits; ++k) {
    Status s = store->Mutate([&w, k](Instance& inst, ExecContext&) {
      return w.Step(inst, k);
    });
    if (!s.ok()) std::abort();
  }
  return dir.string();
}

void BM_RecoveryFullReplay(benchmark::State& state) {
  const Workload w;
  const auto commits = static_cast<std::uint32_t>(state.range(0));
  const std::string dir =
      PrepareDir(w, "replay" + std::to_string(commits), commits, 0);
  RecoveryReport report;
  for (auto _ : state) {
    auto store = DurableStore::Open(dir, &w.schema, {}, &report);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(state.iterations() * commits);
  state.counters["replayed_records"] =
      static_cast<double>(report.replayed_records);
  state.counters["wal_bytes"] = static_cast<double>(
      std::filesystem::file_size(std::filesystem::path(dir) / "wal.log"));
}
BENCHMARK(BM_RecoveryFullReplay)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryFromCheckpoint(benchmark::State& state) {
  // Same workload, but a checkpoint every 32 commits: recovery loads the
  // newest snapshot and replays only the tail.
  const Workload w;
  const auto commits = static_cast<std::uint32_t>(state.range(0));
  const std::string dir =
      PrepareDir(w, "ckpt" + std::to_string(commits), commits, 32);
  RecoveryReport report;
  for (auto _ : state) {
    auto store = DurableStore::Open(dir, &w.schema, {}, &report);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(state.iterations() * commits);
  state.counters["replayed_records"] =
      static_cast<double>(report.replayed_records);
  state.counters["snapshot_seq"] =
      static_cast<double>(report.snapshot_sequence);
}
BENCHMARK(BM_RecoveryFromCheckpoint)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_WalScan(benchmark::State& state) {
  // The raw log-scan floor under recovery: framing, CRC, and payload copy,
  // without parsing or applying the deltas.
  const Workload w;
  const auto commits = static_cast<std::uint32_t>(state.range(0));
  const std::string dir =
      PrepareDir(w, "scan" + std::to_string(commits), commits, 0);
  const std::string wal =
      (std::filesystem::path(dir) / "wal.log").string();
  for (auto _ : state) {
    Result<WalReplay> replay = ReadWal(wal);
    benchmark::DoNotOptimize(replay);
  }
  state.SetItemsProcessed(state.iterations() * commits);
}
BENCHMARK(BM_WalScan)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_CommitLatency(benchmark::State& state) {
  // The write-side cost a durable commit adds: diff, print, append, fsync.
  const Workload w;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_bench_recovery" /
      "commit";
  std::filesystem::remove_all(dir);
  auto store =
      std::move(DurableStore::Open(dir.string(), &w.schema)).value();
  std::uint32_t k = 0;
  for (auto _ : state) {
    ++k;
    Status s = store->Mutate([&w, k](Instance& inst, ExecContext&) {
      return w.Step(inst, k);
    });
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitLatency)->Unit(benchmark::kMicrosecond);

void BM_CommitLatencyAtSize(benchmark::State& state) {
  // The O(|delta|) commit gate: one-edge Mutate commits on stores of
  // growing size. The statement journals its one edge, so everything but
  // the instance lookups is independent of the store size and the latency
  // stays flat across the sweep. Wall clock: the fsync is most of it.
  const Workload w;
  const auto objects = static_cast<std::uint32_t>(state.range(0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_bench_recovery" /
      ("commit-at-" + std::to_string(objects));
  std::filesystem::remove_all(dir);
  auto store =
      std::move(DurableStore::Open(dir.string(), &w.schema)).value();
  const std::uint32_t pairs = objects / 2;
  Instance initial(&w.schema);
  for (std::uint32_t k = 0; k < pairs; ++k) {
    if (!initial.AddObject(ObjectId(w.a, k)).ok() ||
        !initial.AddObject(ObjectId(w.b, k)).ok() ||
        !initial.AddEdge(ObjectId(w.a, k), w.f, ObjectId(w.b, k)).ok()) {
      std::abort();
    }
  }
  if (!store
           ->Mutate([&initial](Instance& inst, ExecContext&) {
             inst = initial;
             return Status::OK();
           })
           .ok()) {
    std::abort();
  }
  std::uint32_t k = 0;
  for (auto _ : state) {
    // Toggle one edge A(k) -> B(k+1): added on even passes, removed on odd.
    const ObjectId source(w.a, (k / 2) % pairs);
    const ObjectId target(w.b, ((k / 2) + 1) % pairs);
    ++k;
    Status s = store->Mutate([&](Instance& inst, ExecContext&) {
      return inst.HasEdge(source, w.f, target)
                 ? inst.RemoveEdge(source, w.f, target)
                 : inst.AddEdge(source, w.f, target);
    });
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["objects"] = static_cast<double>(store->instance().num_objects());
  store.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CommitLatencyAtSize)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace setrec
