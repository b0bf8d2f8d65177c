// Experiment E-TXN — transaction throughput: commit rate and abort rate of
// the concurrent transaction layer at 1..8 client threads, for (a) a
// certified-commutative workload (add_bar over per-worker drinkers, admitted
// lock-free via the Theorem 5.12 certificate) and (b) a deliberately
// conflicting MVCC mix where every transaction writes the same (drinker,
// property) slot, so first-committer-wins aborts, retries and possibly the
// serial-mode degradation all show up in the counters. BM_MvccCommitAtSize
// times one-edge MVCC commits on stores of 1k to 100k objects.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebraic/method_library.h"
#include "core/instance.h"
#include "store/durable_store.h"
#include "txn/commutativity_cache.h"
#include "txn/txn_manager.h"

namespace setrec {
namespace {

constexpr std::uint32_t kMaxWorkers = 8;
constexpr std::uint32_t kBars = 1u << 14;
constexpr std::uint32_t kTxnsPerWorker = 16;

/// A seeded drinkers store in a fresh temp directory: one drinker per
/// potential worker plus a shared pool of bar objects large enough that a
/// bounded-iteration run never wraps into duplicate (empty-delta) edges.
struct TxnBench {
  DrinkersSchema ds;
  std::unique_ptr<AlgebraicUpdateMethod> add_bar;
  std::unique_ptr<DurableStore> store;
  CommutativityCache cache;
  std::unique_ptr<TxnManager> mgr;
  std::atomic<std::uint32_t> next_bar{0};

  explicit TxnBench(const std::string& tag) {
    ds = std::move(MakeDrinkersSchema()).value();
    add_bar = std::move(MakeAddBar(ds)).value();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "setrec_bench_txn" / tag;
    std::filesystem::remove_all(dir);
    store = std::move(DurableStore::Open(dir.string(), &ds.schema)).value();
    Status seeded = store->Mutate([this](Instance& inst, ExecContext&) {
      for (std::uint32_t d = 0; d < kMaxWorkers; ++d) {
        SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(ds.drinker, d)));
      }
      for (std::uint32_t b = 0; b < kBars; ++b) {
        SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(ds.bar, b)));
      }
      return Status::OK();
    });
    if (!seeded.ok()) std::abort();
    TxnOptions topt;
    topt.retry.base_delay = std::chrono::nanoseconds(0);
    mgr = std::make_unique<TxnManager>(store.get(), &cache, topt);
  }
};

void ReportStats(benchmark::State& state, const TxnManager::Stats& stats) {
  const double attempts =
      static_cast<double>(stats.commits + stats.aborts);
  state.counters["commits"] = static_cast<double>(stats.commits);
  state.counters["aborts"] = static_cast<double>(stats.aborts);
  state.counters["conflicts"] = static_cast<double>(stats.conflicts);
  state.counters["retries"] = static_cast<double>(stats.retries);
  state.counters["group_commits"] = static_cast<double>(stats.group_commits);
  state.counters["degrades"] = static_cast<double>(stats.degrades);
  state.counters["abort_rate"] =
      attempts == 0 ? 0.0 : static_cast<double>(stats.aborts) / attempts;
  state.counters["commit_rate"] = benchmark::Counter(
      static_cast<double>(stats.commits), benchmark::Counter::kIsRate);
}

/// Certified-commutative admission: worker t applies add_bar to its own
/// drinker with a globally fresh bar, so every transaction rides the O(1)
/// certificate check and the group-commit pipeline with zero conflicts.
void BM_TxnCertifiedCommits(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  TxnBench bench("certified" + std::to_string(workers));
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t t = 0; t < workers; ++t) {
      pool.emplace_back([&bench, t] {
        for (std::uint32_t i = 0; i < kTxnsPerWorker; ++i) {
          const std::uint32_t b =
              bench.next_bar.fetch_add(1, std::memory_order_relaxed) % kBars;
          Receiver r = Receiver::Unchecked(
              {ObjectId(bench.ds.drinker, t), ObjectId(bench.ds.bar, b)});
          Status s = bench.mgr->Apply(*bench.add_bar, {std::move(r)});
          if (!s.ok()) std::abort();
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() * workers * kTxnsPerWorker);
  ReportStats(state, bench.mgr->stats());
}
BENCHMARK(BM_TxnCertifiedCommits)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);

/// The adversarial mix: every transaction mutates drinker 0's frequents
/// slot, so concurrent attempts always overlap under first-committer-wins.
/// Aborts, retries and serial-mode degradation are the product under test —
/// the abort_rate / degrades counters say what the storm cost.
void BM_TxnConflictingCommits(benchmark::State& state) {
  const auto workers = static_cast<std::uint32_t>(state.range(0));
  TxnBench bench("conflicting" + std::to_string(workers));
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t t = 0; t < workers; ++t) {
      pool.emplace_back([&bench] {
        for (std::uint32_t i = 0; i < kTxnsPerWorker; ++i) {
          const std::uint32_t b =
              bench.next_bar.fetch_add(1, std::memory_order_relaxed) % kBars;
          Status s = bench.mgr->Mutate(
              [&bench, b](Instance& inst, ExecContext&) {
                return inst.AddEdge(ObjectId(bench.ds.drinker, 0),
                                    bench.ds.frequents,
                                    ObjectId(bench.ds.bar, b));
              });
          // kRetryExhausted is a legal outcome of a storm; anything else
          // fatal would invalidate the measurement.
          if (!s.ok() && s.code() != StatusCode::kRetryExhausted) {
            std::abort();
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  state.SetItemsProcessed(state.iterations() * workers * kTxnsPerWorker);
  ReportStats(state, bench.mgr->stats());
}
BENCHMARK(BM_TxnConflictingCommits)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);

/// The MVCC commit gate: one-edge TxnManager::Mutate commits on stores of
/// growing size. The snapshot shares the store's chunks and the write
/// clones only the chunk it touches, so the latency stays flat across the
/// sweep as BM_CommitLatencyAtSize's does; `cloned_items` is the items
/// cloned per commit. Wall clock: the fsync is most of it.
void BM_MvccCommitAtSize(benchmark::State& state) {
  const auto objects = static_cast<std::uint32_t>(state.range(0));
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_bench_txn" /
      ("mvcc-at-" + std::to_string(objects));
  std::filesystem::remove_all(dir);
  auto store = std::move(DurableStore::Open(dir.string(), &ds.schema)).value();
  const std::uint32_t pairs = objects / 2;
  if (!store
           ->Mutate([&](Instance& inst, ExecContext&) {
             for (std::uint32_t k = 0; k < pairs; ++k) {
               SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(ds.drinker, k)));
               SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(ds.bar, k)));
             }
             for (std::uint32_t k = 0; k < pairs; ++k) {
               SETREC_RETURN_IF_ERROR(inst.AddEdge(ObjectId(ds.drinker, k),
                                                   ds.frequents,
                                                   ObjectId(ds.bar, k)));
             }
             return Status::OK();
           })
           .ok()) {
    std::abort();
  }
  CommutativityCache cache;
  TxnManager mgr(store.get(), &cache);
  const Counter& cloned = InstanceCosts().cloned_items;
  const std::uint64_t cloned_before = cloned.value();
  std::uint32_t k = 0;
  for (auto _ : state) {
    // Toggle one edge D(k) -> Ba(k+1): added on even passes, removed on odd.
    const ObjectId drinker(ds.drinker, (k / 2) % pairs);
    const ObjectId bar(ds.bar, ((k / 2) + 1) % pairs);
    ++k;
    Status s = mgr.Mutate([&](Instance& inst, ExecContext&) {
      return inst.HasEdge(drinker, ds.frequents, bar)
                 ? inst.RemoveEdge(drinker, ds.frequents, bar)
                 : inst.AddEdge(drinker, ds.frequents, bar);
    });
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["objects"] =
      static_cast<double>(store->instance().num_objects());
  state.counters["cloned_items"] =
      static_cast<double>(cloned.value() - cloned_before) /
      static_cast<double>(std::max<benchmark::IterationCount>(
          state.iterations(), 1));
  store.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MvccCommitAtSize)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace setrec
