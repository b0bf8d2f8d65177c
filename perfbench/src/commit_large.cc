// commit_large: the transaction engine on a large drinkers store. kThreads
// closed-loop threads send tiny transactions through one TxnManager, mixing
// its three shapes: certified Apply of add_bar to a few receivers, MVCC
// Mutate of one edge with a small share aimed at a shared slot, and a §7
// Update with a narrow receiver query. Latency classes: every commit
// (primary), certified Apply commits (secondary) and MVCC commits, Mutate
// or Update (tertiary). An automatic checkpoint cadence gives several
// checkpoint cycles per run.
//
// One load thread: with two or four, a commit's latency included waiting
// on the other threads' commits and group commits, and on a shared host
// that wait moved the latency medians by up to a quarter of themselves
// across seeds. Group commit and the conflict path are therefore idle in
// this workload.

#include <array>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "store/durable_store.h"
#include "text/parser.h"
#include "txn/commutativity_cache.h"
#include "txn/txn_manager.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using setrec::Instance;
using setrec::ObjectId;
using setrec::Receiver;

constexpr std::size_t kThreads = 1;

struct Sizes {
  std::uint32_t drinkers, bars, beers, hot;
  std::uint64_t checkpoint_every;
  std::size_t apply_receivers;
};

Sizes SizesFor(const RunOptions& options) {
  if (options.smoke) return {200, 200, 100, 4, 16, 3};
  return {10000, 10000, 5000, 8, 100, 2};
}

struct Store {
  setrec::DrinkersSchema ds;
  std::unique_ptr<setrec::AlgebraicUpdateMethod> add_bar;
  setrec::ExprPtr narrow_query;
  std::vector<ObjectId> hot;  // hot[0] owns the shared slot
  fs::path dir;
  setrec::MetricsRegistry* metrics = nullptr;
  std::unique_ptr<setrec::DurableStore> store;
  std::unique_ptr<setrec::CommutativityCache> cache;
  std::unique_ptr<setrec::TxnManager> txn;
  // Each load thread's place in its cycle of shapes, kept across rounds.
  std::array<std::uint64_t, kThreads> next_op{};

  void StartTxn() {
    setrec::TxnOptions txn_options;
    txn_options.metrics = metrics;
    txn = std::make_unique<setrec::TxnManager>(store.get(), cache.get(),
                                               txn_options);
  }
};

std::unique_ptr<Store> SetUp(const RunOptions& options, int index,
                             setrec::MetricsRegistry* metrics) {
  const Sizes sizes = SizesFor(options);
  auto s = std::make_unique<Store>();
  s->ds = Must(setrec::MakeDrinkersSchema(), "drinkers schema");
  s->add_bar = Must(setrec::MakeAddBar(s->ds), "add_bar");
  s->narrow_query = Must(setrec::ParseExpression(kHotPairsQuery), "query");
  const Instance initial =
      GenerateDrinkers(s->ds, {sizes.drinkers, sizes.bars, sizes.beers, sizes.hot},
                       options.seed, &s->hot);
  s->dir = fs::path(options.data_dir) / ("commit_large-" + std::to_string(index));
  fs::remove_all(s->dir);
  s->metrics = metrics;
  setrec::DurableStoreOptions store_options;
  store_options.snapshot_every_n_commits = sizes.checkpoint_every;
  store_options.metrics = metrics;
  s->store = Must(setrec::DurableStore::Open(s->dir.string(), &s->ds.schema,
                                             store_options),
                  "open store");
  Must(s->store->Mutate([&](Instance& instance, setrec::ExecContext&) {
         instance = initial;
         return setrec::Status::OK();
       }),
       "load store");
  Must(s->store->Checkpoint(), "initial checkpoint");
  s->cache = std::make_unique<setrec::CommutativityCache>();
  // Certify add_bar before load, as a deployment would at method install.
  if (!s->cache->Commutes(*s->add_bar, *s->add_bar)) {
    throw std::runtime_error("add_bar is not certified commutative");
  }
  s->StartTxn();
  return s;
}

struct Phase {
  Samples apply, mvcc;
  Completions commits_done;
  std::uint64_t commits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Clock::time_point start;

  void Merge(const Phase& other) {
    apply.Merge(other.apply);
    mvcc.Merge(other.mvcc);
    commits_done.Merge(other.commits_done);
    commits += other.commits;
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// One load round; `round` picks the round's own stream of inputs.
Phase RunLoad(const RunOptions& options, Store& s, int round, double seconds,
              SpanTracer* tracer) {
  const Sizes sizes = SizesFor(options);
  std::vector<Phase> per_thread(kThreads);
  Phase total;
  total.start = Clock::now();
  const auto deadline = total.start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Phase& mine = per_thread[t];
      Rng rng(options.seed * 1000003u + static_cast<std::uint64_t>(round) * 64u +
              t);
      std::uint64_t& i = s.next_op[t];
      for (bool first = true; first || Clock::now() < deadline;
           first = false, ++i) {
        setrec::Status status;
        // Shapes mix 2:2:1 in a fixed cycle, so every run commits the same
        // shares of each; threads start the cycle at different points.
        const std::uint64_t shape = (i + t) % 5;
        RotateCpu();
        const Clock::time_point op_start = Clock::now();
        if (shape < 2) {
          std::vector<Receiver> receivers;
          for (std::size_t k = 0; k < sizes.apply_receivers; ++k) {
            receivers.push_back(Receiver::Unchecked(
                {ObjectId(s.ds.drinker, rng.Below(sizes.drinkers)),
                 ObjectId(s.ds.bar, rng.Below(sizes.bars))}));
          }
          Span op(tracer, "op.apply");
          Span span(tracer, "txn.apply");
          status = s.txn->Apply(*s.add_bar, std::move(receivers));
          mine.apply.Add(MsSince(op_start));
        } else if (shape < 4) {
          // One in twenty mutations toggles an edge in the shared slot.
          const ObjectId drinker =
              (i / 5) % 10 == t % 10 && shape == 2
                  ? s.hot.front()
                  : ObjectId(s.ds.drinker, rng.Below(sizes.drinkers));
          const ObjectId bar(s.ds.bar, rng.Below(sizes.bars));
          const setrec::PropertyId f = s.ds.frequents;
          Span op(tracer, "op.mutate");
          Span span(tracer, "txn.mutate");
          status = s.txn->Mutate([&](Instance& instance, setrec::ExecContext&) {
            return instance.HasEdge(drinker, f, bar)
                       ? instance.RemoveEdge(drinker, f, bar)
                       : instance.AddEdge(drinker, f, bar);
          });
          mine.mvcc.Add(MsSince(op_start));
        } else {
          Span op(tracer, "op.update");
          Span span(tracer, "txn.update");
          status = s.txn->Update(s.ds.frequents, s.narrow_query);
          mine.mvcc.Add(MsSince(op_start));
        }
        ++mine.attempted;
        if (status.ok()) {
          ++mine.commits;
          mine.commits_done.Add();
        } else {
          ++mine.failed;
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const Phase& p : per_thread) total.Merge(p);
  return total;
}

void Account(const Phase& phase, Report& report) {
  report.attempted += phase.attempted;
  report.failed += phase.failed;
  if (phase.failed != 0) {
    report.correct = false;
    report.Note("CHECK FAILED: " + std::to_string(phase.failed) +
                " transactions were not acknowledged");
  }
}

/// Recovery of the store's directory as the load left it. Seal() ends the
/// load's commits the same way every time (see SealForRecovery) and keeps
/// the acknowledged state; Reopen() copies the directory and times
/// DurableStore::Open on the copy, checking the recovered state.
class Recovery {
 public:
  Recovery(Store& s, const RunOptions& options)
      : s_(s), copy_(fs::path(options.data_dir) / "recovery-copy") {}
  ~Recovery() { fs::remove_all(copy_); }

  void Seal() {
    s_.txn.reset();
    SealForRecovery(*s_.store, {ObjectId(s_.ds.drinker, 1), s_.ds.frequents,
                                ObjectId(s_.ds.bar, 1)});
    acknowledged_ = s_.store->SnapshotState(&sequence_);
    s_.StartTxn();
  }

  void Reopen(setrec::RecoveryReport* recovery = nullptr) {
    fs::remove_all(copy_);
    fs::copy(s_.dir, copy_, fs::copy_options::recursive);
    const Clock::time_point start = Clock::now();
    auto reopened = setrec::DurableStore::Open(copy_.string(), &s_.ds.schema,
                                               {}, recovery);
    times_.Add(MsSince(start));
    equal_ = equal_ && reopened.ok() &&
             (*reopened)->instance() == acknowledged_ &&
             (*reopened)->last_sequence() == sequence_;
  }

  const Samples& times() const { return times_; }

  void Check(Report& report) const {
    report.Check(equal_,
                 "commit_large: reopened store equals the last acknowledged state",
                 times_.size());
  }

 private:
  Store& s_;
  fs::path copy_;
  Instance acknowledged_{nullptr};
  std::uint64_t sequence_ = 0;
  Samples times_;
  bool equal_ = true;
};

// The untraced run alternates kRounds load rounds with recovery rounds,
// which take kRecoveryShare of the run.
constexpr int kRounds = 10;
constexpr double kRecoveryShare = 0.25;

}  // namespace

void RunCommitLarge(const RunOptions& options, Report& report) {
  const Sizes sizes = SizesFor(options);
  char line[200];
  std::snprintf(line, sizeof line,
                "commit_large: %u drinkers, %u bars, %u beers, %zu closed-loop "
                "threads, checkpoint every %llu commits, fsync per group commit",
                sizes.drinkers, sizes.bars, sizes.beers, kThreads,
                static_cast<unsigned long long>(sizes.checkpoint_every));
  report.Note(line);

  if (!options.trace) {
    std::unique_ptr<Store> s;
    int setups = 0;
    const double setup_s = TimeSetups([&] {
      if (s != nullptr) {
        const fs::path old = s->dir;
        s.reset();
        fs::remove_all(old);
      }
      s = SetUp(options, setups++, nullptr);
    });
    Phase total;
    Samples rates;
    Recovery recovery(*s, options);
    int round = 0;
    bool sealed = false;
    Interleave(
        kRounds, options.seconds * (1.0 - kRecoveryShare),
        options.seconds * kRecoveryShare,
        [&](double seconds) {
          const Phase phase = RunLoad(options, *s, round++, seconds, nullptr);
          phase.commits_done.SliceRates(phase.start, 4, rates);
          total.Merge(phase);
          sealed = false;
        },
        [&] {
          if (!sealed) recovery.Seal();
          sealed = true;
          RotateCpu();
          recovery.Reopen();
          Unpin();
        });
    Account(total, report);
    recovery.Check(report);
    report.Set("setup_s", setup_s, "s");
    Samples all = total.apply;
    all.Merge(total.mvcc);
    SetLatencyMetrics(report, "primary", "commit, every shape", all);
    SetLatencyMetrics(report, "secondary", "certified Apply commit", total.apply);
    SetLatencyMetrics(report, "tertiary", "MVCC Mutate or Update commit",
                      total.mvcc);
    report.Set("ops_s", rates.Median(), "1/s");
    report.Set("recovery_ms", recovery.times().Median(), "ms");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced mode: an untraced half on one store, then a traced half on a
  // fresh one whose store and transaction manager feed a registry.
  double untraced_p50 = 0.0;
  {
    std::unique_ptr<Store> s = SetUp(options, 0, nullptr);
    const Phase phase = RunLoad(options, *s, 0, options.seconds / 2, nullptr);
    Account(phase, report);
    Samples all = phase.apply;
    all.Merge(phase.mvcc);
    untraced_p50 = all.Median();
  }
  SpanTracer tracer;
  setrec::MetricsRegistry metrics;
  std::unique_ptr<Store> s = SetUp(options, 1, &metrics);
  const std::uint64_t fsyncs0 = metrics.engine.wal_fsyncs.value();
  const std::uint64_t commits0 = metrics.engine.store_commits.value();
  const Phase phase = RunLoad(options, *s, 0, options.seconds / 2, &tracer);
  Account(phase, report);
  Samples all = phase.apply;
  all.Merge(phase.mvcc);
  SetObsMetrics(report, untraced_p50, all.Median(), tracer);
  const setrec::TxnManager::Stats stats = s->txn->stats();
  const double fsyncs_per_commit =
      static_cast<double>(metrics.engine.wal_fsyncs.value() - fsyncs0) /
      static_cast<double>(
          std::max<std::uint64_t>(1, metrics.engine.store_commits.value() -
                                         commits0));

  // Probes run on the generated instance, so their counts repeat exactly.
  std::vector<ObjectId> hot;
  const Instance initial = GenerateDrinkers(
      s->ds, {sizes.drinkers, sizes.bars, sizes.beers, sizes.hot}, options.seed,
      &hot);
  const ProbeInputs in = DrinkersProbeInputs(s->ds, initial, *s->add_bar,
                                             kHotPairsQuery, options.seed + 17);
  setrec::RecoveryReport recovery;
  {
    Recovery reopen(*s, options);
    reopen.Seal();
    reopen.Reopen(&recovery);
    reopen.Check(report);
  }
  RunLayerProbes(options, in, tracer, report);

  const auto attempts = stats.commits + stats.aborts + stats.retries;
  report.Set("txn.group_size",
             stats.group_commits == 0
                 ? 0.0
                 : static_cast<double>(stats.commits) /
                       static_cast<double>(stats.group_commits),
             "ratio");
  const auto admissions = stats.commutative_admissions + stats.mvcc_admissions;
  report.Set("txn.commutative_share",
             admissions == 0 ? 0.0
                             : static_cast<double>(stats.commutative_admissions) /
                                   static_cast<double>(admissions),
             "ratio");
  report.Set("txn.conflict_ratio",
             attempts == 0 ? 0.0
                           : static_cast<double>(stats.conflicts) /
                                 static_cast<double>(attempts),
             "ratio");
  report.Set("txn.retries",
             stats.commits == 0 ? 0.0
                                : static_cast<double>(stats.retries) /
                                      static_cast<double>(stats.commits),
             "ratio");
  report.Set("wal.fsyncs_per_commit", fsyncs_per_commit, "ratio");
  std::snprintf(line, sizeof line,
                "commit_large traced half: %llu commits, %llu groups, %llu "
                "conflicts, %llu retries, %llu records replayed at reopen",
                static_cast<unsigned long long>(stats.commits),
                static_cast<unsigned long long>(stats.group_commits),
                static_cast<unsigned long long>(stats.conflicts),
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(recovery.replayed_records));
  report.Note(line);
  tracer.WriteTable(report, "commit_large");
}

}  // namespace perfbench
