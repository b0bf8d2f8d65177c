// Tests for the concurrent transaction layer (txn/): commutativity-certified
// admission backed by the Theorem 5.12 decision procedure, the MVCC fallback
// with first-committer-wins validation, bounded-backoff retries, group
// commit into the durable store's WAL, and degradation to serial admission
// under conflict storms. The acceptance core is twofold: any interleaving of
// certified-commutative transactions must yield a bit-identical final
// instance at 1/2/8 workers, and every injected crash point in the group
// commit path must recover to a committed prefix with a parseable
// flight-recorder dump on each terminal failure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebraic/method_library.h"
#include "core/exec_options.h"
#include "core/fault_injection.h"
#include "core/instance.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "relational/builder.h"
#include "sql/table.h"
#include "store/durable_store.h"
#include "text/printer.h"
#include "txn/commutativity_cache.h"
#include "txn/txn_manager.h"

namespace setrec {
namespace {

// -- Filesystem helpers (same contract as store_test) ------------------------

std::string MakeTempDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_txn_test" /
      (std::string(info->test_suite_name()) + "." + info->name() + "." + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string TxnFlightFile(const std::string& dir) {
  return (std::filesystem::path(dir) / "flight-txn.jsonl").string();
}

std::string CommitFlightFile(const std::string& dir) {
  return (std::filesystem::path(dir) / "flight-commit.jsonl").string();
}

/// Asserts that `path` names a parseable flight-recorder dump.
void AssertFlightDump(const std::string& path) {
  ASSERT_FALSE(path.empty()) << "no flight dump was referenced";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "flight dump missing: " << path;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << path;
    EXPECT_EQ(line.front(), '{') << path << ": " << line;
    EXPECT_EQ(line.back(), '}') << path << ": " << line;
    for (const char c : line) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20u)
          << "raw control character in flight dump " << path;
    }
    if (lines == 0) {
      EXPECT_EQ(line.rfind("{\"type\":\"flight\",\"reason\":\"", 0), 0u)
          << path << " does not start with the flight header: " << line;
    }
    ++lines;
  }
  EXPECT_GE(lines, 2u) << path << " holds no events";
}

Instance ApplyRef(const AlgebraicUpdateMethod& method, const Instance& in,
                  const std::vector<Receiver>& receivers) {
  ExecOptions opts;
  return std::move(SequentialApply(method, in, receivers, opts)).value();
}

// -- CommutativityCache -------------------------------------------------------

class CommutativityCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { ds_ = std::move(MakeDrinkersSchema()).value(); }

  DrinkersSchema ds_;
};

TEST_F(CommutativityCacheTest, SelfPairsAreCertifiedByTheOracle) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  auto favorite = std::move(MakeFavoriteBar(ds_)).value();
  CommutativityCache cache;

  // add_bar is absolutely order independent (Example 5.5): certified.
  EXPECT_TRUE(cache.Commutes(*add_bar, *add_bar));
  auto cert = cache.CertificateFor("add_bar");
  ASSERT_NE(cert, nullptr);
  EXPECT_TRUE(cert->order_independent);
  EXPECT_EQ(cert->kind, OrderIndependenceKind::kAbsolute);
  EXPECT_EQ(cert->method_name, "add_bar");
  EXPECT_FALSE(cert->tests.empty());

  // favorite_bar is key-order independent only (Example 3.2): transactions
  // over arbitrary receiver sets do not commute, and the retained
  // certificate documents the refusal.
  EXPECT_FALSE(cache.Commutes(*favorite, *favorite));
  auto fcert = cache.CertificateFor("favorite_bar");
  ASSERT_NE(fcert, nullptr);
  EXPECT_FALSE(fcert->order_independent);
}

TEST_F(CommutativityCacheTest, VerdictsAndCertificatesAreReusedAcrossTxns) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  CommutativityCache cache;

  EXPECT_TRUE(cache.Commutes(*add_bar, *add_bar));
  const auto first = cache.stats();
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.hits, 0u);
  const auto cert = cache.CertificateFor("add_bar");
  ASSERT_NE(cert, nullptr);

  // A second transaction asking the same question is an O(1) hit sharing
  // the same certificate object — the oracle never reruns.
  EXPECT_TRUE(cache.Commutes(*add_bar, *add_bar));
  const auto second = cache.stats();
  EXPECT_EQ(second.misses, 1u);
  EXPECT_EQ(second.hits, 1u);
  EXPECT_EQ(cache.CertificateFor("add_bar").get(), cert.get());
}

TEST_F(CommutativityCacheTest, CrossPairsUseTheSyntacticIsolationCondition) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();      // writes + reads Df
  auto clear_bars = std::move(MakeClearBars(ds_)).value();  // writes Df
  // all_beers [D]: l := ρ_{Be→l}(Be) — writes Dl, reads only the class
  // relation Be. Disjoint from everything touching f.
  auto all_beers =
      std::move(AlgebraicUpdateMethod::Make(
                    &ds_.schema, MethodSignature({ds_.drinker}), "all_beers",
                    {UpdateStatement{ds_.likes,
                                     ra::Rename(ra::Rel("Be"), "Be", "l")}}))
          .value();
  // beers_from_bars [D]: l := ρ_{s→l}(π_s(π_f(self ⋈ Df) ⋈ Bas)) — *reads*
  // Df (everything served at my bars) while writing Dl, so it must not
  // overlap a writer of Df.
  auto beers_from_bars =
      std::move(AlgebraicUpdateMethod::Make(
                    &ds_.schema, MethodSignature({ds_.drinker}),
                    "beers_from_bars",
                    {UpdateStatement{
                        ds_.likes,
                        ra::Rename(
                            ra::Project(
                                ra::JoinEq(
                                    ra::Project(ra::JoinEq(ra::Rel("self"),
                                                           ra::Rel("Df"),
                                                           "self", "D"),
                                                {"f"}),
                                    ra::Rel("Bas"), "f", "Ba"),
                                {"s"}),
                            "s", "l")}}))
          .value();
  CommutativityCache cache;

  // Disjoint writes, no cross reads: commutes.
  EXPECT_TRUE(cache.Commutes(*add_bar, *all_beers));
  // Both write Df: never.
  EXPECT_FALSE(cache.Commutes(*add_bar, *clear_bars));
  // beers_from_bars reads Df, which clear_bars writes: never (in either
  // argument order — the cache key is canonical).
  EXPECT_FALSE(cache.Commutes(*beers_from_bars, *clear_bars));
  EXPECT_FALSE(cache.Commutes(*clear_bars, *beers_from_bars));
  // The symmetric query was a cache hit, not a re-decision.
  EXPECT_GE(cache.stats().hits, 1u);
  // Cross-pair verdicts retain no certificate.
  EXPECT_EQ(cache.CertificateFor("all_beers"), nullptr);
}

TEST_F(CommutativityCacheTest, InvalidateOrphansVerdictsOnRedefinition) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  CommutativityCache cache;

  EXPECT_TRUE(cache.Commutes(*add_bar, *add_bar));
  ASSERT_NE(cache.CertificateFor("add_bar"), nullptr);

  // Redefining "add_bar" bumps its epoch: the cached verdict and its
  // certificate are no longer reachable, and the next query re-decides.
  cache.Invalidate("add_bar");
  EXPECT_EQ(cache.CertificateFor("add_bar"), nullptr);
  const auto before = cache.stats();
  EXPECT_TRUE(cache.Commutes(*add_bar, *add_bar));
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_NE(cache.CertificateFor("add_bar"), nullptr);
}

TEST_F(CommutativityCacheTest, ConcurrentPopulationAgreesAndIsRaceFree) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  auto clear_bars = std::move(MakeClearBars(ds_)).value();
  auto favorite = std::move(MakeFavoriteBar(ds_)).value();
  CommutativityCache cache;

  // 8 threads hammer the same three questions from a cold cache: racing
  // first-misses must converge on one verdict per pair (the oracle is
  // deterministic) without a data race (TSan covers this suite).
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        EXPECT_TRUE(cache.Commutes(*add_bar, *add_bar));
        EXPECT_FALSE(cache.Commutes(*add_bar, *clear_bars));
        EXPECT_FALSE(cache.Commutes(*favorite, *favorite));
      }
    });
  }
  for (std::thread& t : pool) t.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds * 3);
  // Every thread saw a populated cache after its first round.
  EXPECT_GE(stats.hits,
            static_cast<std::uint64_t>(kThreads) * 3 * (kRounds - 1));
  ASSERT_NE(cache.CertificateFor("add_bar"), nullptr);
}

// -- Interleaving invariance (acceptance) -------------------------------------

/// For every seed: K certified-commutative add_bar transactions over a random
/// instance, run at 1, 2 and 8 client threads, must produce an instance
/// bit-identical to the serial reference — operator== AND the canonical text
/// rendering — and the same state must survive recovery.
class TxnInterleavingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnInterleavingTest, CommutativeTxnsAreBitIdenticalAtAnyParallelism) {
  const std::uint64_t seed = GetParam();
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();

  InstanceGenerator gen(&ds.schema, seed);
  InstanceGenerator::Options gopt;
  gopt.min_objects_per_class = 2;
  gopt.max_objects_per_class = 4;
  const Instance initial = gen.RandomInstance(gopt);
  constexpr std::size_t kTxns = 12;
  std::vector<std::vector<Receiver>> txns;
  txns.reserve(kTxns);
  for (std::size_t i = 0; i < kTxns; ++i) {
    txns.push_back(gen.RandomReceiverSet(initial, add_bar->signature(), 3));
  }

  // The serial reference: transactions applied one after another in index
  // order. Absolute order independence promises every other serialization
  // agrees.
  Instance reference = initial;
  for (const std::vector<Receiver>& t : txns) {
    reference = ApplyRef(*add_bar, reference, t);
  }

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::string dir = MakeTempDir("w" + std::to_string(workers));
    auto store = std::move(DurableStore::Open(dir, &ds.schema)).value();
    ASSERT_TRUE(store
                    ->Mutate([&initial](Instance& inst, ExecContext&) {
                      inst = initial;
                      return Status::OK();
                    })
                    .ok());
    CommutativityCache cache;
    TxnManager mgr(store.get(), &cache);

    std::atomic<std::size_t> next{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < kTxns;
             i = next.fetch_add(1)) {
          if (!mgr.Apply(*add_bar, txns[i]).ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    EXPECT_EQ(failures.load(), 0) << workers << " workers";

    const Instance live = store->SnapshotState();
    EXPECT_TRUE(live == reference) << workers << " workers, seed " << seed;
    EXPECT_EQ(InstanceToText(live), InstanceToText(reference))
        << workers << " workers, seed " << seed;

    // Every transaction was admitted on the certified-commutative path.
    const TxnManager::Stats stats = mgr.stats();
    EXPECT_EQ(stats.commits, kTxns);
    EXPECT_EQ(stats.commutative_admissions, kTxns);
    EXPECT_EQ(stats.mvcc_admissions, 0u);
    EXPECT_EQ(stats.conflicts, 0u);
    EXPECT_GE(stats.group_commits, 1u);

    // Durability: a reopen replays to the same bit-identical state.
    store.reset();
    auto reopened = std::move(DurableStore::Open(dir, &ds.schema)).value();
    EXPECT_TRUE(reopened->instance() == reference)
        << workers << " workers, seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnInterleavingTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// -- Payroll workload at 1/2/8 workers ----------------------------------------

/// The Section 7 raise as disjoint-key MVCC transactions: one transaction per
/// employee, racing at 1/2/8 workers. Key-order independence of the salary
/// statement (Proposition 5.8) plus disjoint write footprints make every
/// interleaving land on the same final payroll.
TEST(TxnPayrollTest, DisjointKeyRaisesCommitIdenticallyAtAnyParallelism) {
  ExecContext ctx;
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  auto raise = std::move(MakeSalaryFromNewSal(ps)).value();
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt},
      {4, 200, std::nullopt}, {5, 100, std::nullopt}, {6, 200, std::nullopt}};
  std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
  const Instance db =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();

  // The key set {[e, salary(e)]} — one receiver per employee.
  auto receivers = std::move(ReceiversFromQuery(ra::Rel("EmpSalary"), db,
                                                raise->signature(), ctx))
                       .value();
  ASSERT_EQ(receivers.size(), employees.size());

  Instance reference = db;
  for (const Receiver& r : receivers) {
    reference = ApplyRef(*raise, reference, {r});
  }

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::string dir = MakeTempDir("w" + std::to_string(workers));
    auto store = std::move(DurableStore::Open(dir, &ps.schema)).value();
    ASSERT_TRUE(store
                    ->Mutate([&db](Instance& inst, ExecContext&) {
                      inst = db;
                      return Status::OK();
                    })
                    .ok());
    CommutativityCache cache;
    TxnManager mgr(store.get(), &cache);

    std::atomic<std::size_t> next{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < receivers.size();
             i = next.fetch_add(1)) {
          if (!mgr.Apply(*raise, {receivers[i]}).ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    EXPECT_EQ(failures.load(), 0);

    const Instance live = store->SnapshotState();
    EXPECT_TRUE(live == reference) << workers << " workers";
    EXPECT_EQ(InstanceToText(live), InstanceToText(reference));
    auto salaries = std::move(ReadSalaries(ps, live)).value();
    ASSERT_EQ(salaries.size(), employees.size());
    for (const auto& [id, salary] : salaries) {
      EXPECT_EQ(salary, id % 2 == 1 ? 150u : 250u) << "employee " << id;
    }

    // The salary statement is key-order but not absolutely order
    // independent, so every transaction took the MVCC path; disjoint
    // employee keys mean none of them ever conflicted.
    const TxnManager::Stats stats = mgr.stats();
    EXPECT_EQ(stats.commits, receivers.size());
    EXPECT_EQ(stats.mvcc_admissions, receivers.size());
    EXPECT_EQ(stats.commutative_admissions, 0u);
    EXPECT_EQ(stats.conflicts, 0u);

    store.reset();
    auto reopened = std::move(DurableStore::Open(dir, &ps.schema)).value();
    EXPECT_TRUE(reopened->instance() == reference) << workers << " workers";
  }
}

// -- MVCC: conflicts, retries, exhaustion -------------------------------------

class TxnMvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::move(MakeDrinkersSchema()).value();
    dir_ = MakeTempDir("store");
    DurableStoreOptions sopt;
    sopt.recorder = &recorder_;
    store_ = std::move(DurableStore::Open(dir_, &ds_.schema, sopt)).value();
    ASSERT_TRUE(store_
                    ->Mutate([this](Instance& inst, ExecContext&) {
                      SETREC_RETURN_IF_ERROR(
                          inst.AddObject(ObjectId(ds_.drinker, 0)));
                      for (std::uint32_t b = 0; b < 10; ++b) {
                        SETREC_RETURN_IF_ERROR(
                            inst.AddObject(ObjectId(ds_.bar, b)));
                      }
                      return Status::OK();
                    })
                    .ok());
  }

  TxnOptions ManagerOptions(std::uint32_t max_attempts) {
    TxnOptions options;
    options.retry.max_attempts = max_attempts;
    options.retry.base_delay = std::chrono::nanoseconds(0);
    options.recorder = &recorder_;
    options.metrics = &metrics_;
    return options;
  }

  /// A Mutate transaction writing f(d0) += {bar(mine)} whose body lets a
  /// rival transaction commit f(d0) += {bar(first_rival + attempt)} first —
  /// a guaranteed first-committer-wins conflict on the (d0, f) slot.
  /// `rivals` bounds how many attempts get sabotaged.
  Status ConflictedTxn(TxnManager& mgr, std::uint32_t mine,
                       std::uint32_t first_rival, std::uint32_t rivals,
                       std::atomic<std::uint32_t>* attempts) {
    return mgr.Mutate([&mgr, this, mine, first_rival, rivals, attempts](
                          Instance& inst, ExecContext&) -> Status {
      const std::uint32_t attempt = attempts->fetch_add(1);
      if (attempt < rivals) {
        Status rival = mgr.Mutate(
            [this, first_rival, attempt](Instance& ri, ExecContext&) {
              return ri.AddEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                                ObjectId(ds_.bar, first_rival + attempt));
            });
        EXPECT_TRUE(rival.ok()) << rival.ToString();
      }
      return inst.AddEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                          ObjectId(ds_.bar, mine));
    });
  }

  DrinkersSchema ds_;
  std::string dir_;
  FlightRecorder recorder_;
  MetricsRegistry metrics_;
  std::unique_ptr<DurableStore> store_;
};

TEST_F(TxnMvccTest, FirstCommitterWinsConflictAbortsAndRetriesToSuccess) {
  CommutativityCache cache;
  TxnManager mgr(store_.get(), &cache, ManagerOptions(/*max_attempts=*/3));

  std::atomic<std::uint32_t> attempts{0};
  Status s = ConflictedTxn(mgr, /*mine=*/0, /*first_rival=*/1, /*rivals=*/1,
                           &attempts);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Attempt 1 lost first-committer-wins to the rival; attempt 2 ran on a
  // fresh snapshot and sailed through.
  EXPECT_EQ(attempts.load(), 2u);
  const TxnManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.commits, 2u);  // the rival and the retried transaction
  EXPECT_EQ(stats.aborts, 0u);
  EXPECT_EQ(metrics_.CounterNamed("txn.conflicts").value(), 1u);

  // Both writes survived: snapshot isolation lost no update.
  const Instance live = store_->SnapshotState();
  EXPECT_TRUE(live.HasEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                           ObjectId(ds_.bar, 0)));
  EXPECT_TRUE(live.HasEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                           ObjectId(ds_.bar, 1)));
}

TEST_F(TxnMvccTest, ExhaustedRetriesReportRetryExhaustedAndDumpFlight) {
  CommutativityCache cache;
  TxnManager mgr(store_.get(), &cache, ManagerOptions(/*max_attempts=*/2));

  // Every attempt is sabotaged: the schedule runs dry while the failure is
  // still retryable, so the terminal status is kRetryExhausted.
  std::atomic<std::uint32_t> attempts{0};
  Status s = ConflictedTxn(mgr, /*mine=*/0, /*first_rival=*/1, /*rivals=*/9,
                           &attempts);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kRetryExhausted);
  EXPECT_NE(s.message().find("gave up after 2 attempts"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(s.IsRetryable());  // terminal: callers must not loop
  EXPECT_EQ(attempts.load(), 2u);

  const TxnManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.conflicts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.aborts, 1u);
  EXPECT_EQ(stats.commits, 2u);  // the two rivals

  // The terminal abort dumped a parseable flight recording.
  AssertFlightDump(TxnFlightFile(dir_));
  // The abandoned write really is absent; the rivals' writes are present.
  const Instance live = store_->SnapshotState();
  EXPECT_FALSE(live.HasEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                            ObjectId(ds_.bar, 0)));
  EXPECT_TRUE(live.HasEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                           ObjectId(ds_.bar, 1)));
}

TEST_F(TxnMvccTest, ReadOnlyTransactionsCommitWithoutARecord) {
  CommutativityCache cache;
  TxnManager mgr(store_.get(), &cache, ManagerOptions(1));
  const std::uint64_t seq_before = store_->last_sequence();

  ASSERT_TRUE(mgr.Mutate([](Instance& inst, ExecContext&) {
                   // Look, don't touch.
                   return inst.num_objects() > 0 ? Status::OK()
                                                 : Status::Internal("empty");
                 }).ok());
  EXPECT_EQ(mgr.stats().commits, 1u);
  // An empty delta never reaches the WAL.
  EXPECT_EQ(store_->last_sequence(), seq_before);
}

// -- Degradation state machine ------------------------------------------------

TEST_F(TxnMvccTest, ConflictStormDegradesToSerialModeAndReopens) {
  CommutativityCache cache;
  TxnOptions topt = ManagerOptions(/*max_attempts=*/1);
  topt.conflict_window = 4;
  topt.degrade_threshold = 0.5;
  topt.reopen_threshold = 0.25;
  TxnManager mgr(store_.get(), &cache, topt);
  EXPECT_FALSE(mgr.serial_mode());
  EXPECT_EQ(metrics_.GaugeNamed("txn.serial_mode").value(), 0);

  // Two conflicted transactions (each paired with its rival's success) fill
  // the window at exactly the degrade threshold.
  for (std::uint32_t i = 0; i < 2; ++i) {
    std::atomic<std::uint32_t> attempts{0};
    Status s = ConflictedTxn(mgr, /*mine=*/5 + i, /*first_rival=*/1 + i,
                             /*rivals=*/1, &attempts);
    EXPECT_EQ(s.code(), StatusCode::kRetryExhausted) << s.ToString();
  }
  EXPECT_TRUE(mgr.serial_mode());
  EXPECT_EQ(mgr.stats().degrades, 1u);
  EXPECT_EQ(metrics_.GaugeNamed("txn.serial_mode").value(), 1);

  // Serial admission still commits — degraded, not dead — and the conflict
  // share decays until the engine re-opens concurrent admission.
  for (std::uint32_t i = 0; i < 8 && mgr.serial_mode(); ++i) {
    ASSERT_TRUE(mgr.Mutate([this, i](Instance& inst, ExecContext&) {
                     return inst.AddObject(ObjectId(ds_.drinker, 100 + i));
                   }).ok());
  }
  EXPECT_FALSE(mgr.serial_mode());
  EXPECT_EQ(mgr.stats().reopens, 1u);
  EXPECT_EQ(metrics_.GaugeNamed("txn.serial_mode").value(), 0);
}

// -- Group commit & mixed concurrency -----------------------------------------

TEST(TxnGroupCommitTest, ConcurrentDisjointTransactionsAllCommitDurably) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  const std::string dir = MakeTempDir("store");
  MetricsRegistry metrics;
  auto store = std::move(DurableStore::Open(dir, &ds.schema)).value();
  CommutativityCache cache;
  TxnOptions topt;
  topt.metrics = &metrics;
  topt.retry.base_delay = std::chrono::nanoseconds(0);
  TxnManager mgr(store.get(), &cache, topt);

  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kPerThread = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const std::uint32_t idx = t * kPerThread + i;
        Status s = mgr.Mutate([&ds, idx](Instance& inst, ExecContext&) {
          return inst.AddObject(ObjectId(ds.drinker, idx));
        });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  ASSERT_EQ(failures.load(), 0);

  constexpr std::uint64_t kTxns = kThreads * kPerThread;
  const TxnManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.commits, kTxns);
  EXPECT_EQ(stats.conflicts, 0u);  // disjoint objects never collide
  // Every commit flushed through a batch; batching can only merge, never
  // drop or duplicate.
  EXPECT_GE(stats.group_commits, 1u);
  EXPECT_LE(stats.group_commits, kTxns);
  EXPECT_EQ(metrics.CounterNamed("txn.commits").value(), kTxns);
  EXPECT_EQ(metrics.HistogramNamed("txn.group_size").sum(), kTxns);
  EXPECT_EQ(metrics.HistogramNamed("txn.group_size").count(),
            stats.group_commits);

  EXPECT_EQ(store->SnapshotState().num_objects(), kTxns);
  EXPECT_EQ(store->last_sequence(), kTxns);  // one WAL record per commit
  const Instance live = store->SnapshotState();
  store.reset();
  auto reopened = std::move(DurableStore::Open(dir, &ds.schema)).value();
  EXPECT_TRUE(reopened->instance() == live);
}

/// Certified-commutative Apply() transactions racing MVCC mutations on a
/// shared slot: conflicts, retries and (possibly) a degrade/reopen cycle are
/// all legal here — what must hold is that every transaction eventually
/// commits and the final instance is the deterministic union of all writes.
/// Run under TSan by `./ci chaos`.
TEST(TxnStressTest, CommutativeAndMvccTransactionsInterleaveSafely) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  const std::string dir = MakeTempDir("store");
  auto store = std::move(DurableStore::Open(dir, &ds.schema)).value();

  constexpr std::uint32_t kDrinkers = 4;
  constexpr std::uint32_t kBars = 4;
  constexpr std::uint32_t kBeers = 2;
  const auto build_objects = [&](Instance& inst) -> Status {
    for (std::uint32_t d = 0; d < kDrinkers; ++d) {
      SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(ds.drinker, d)));
    }
    for (std::uint32_t b = 0; b < kBars; ++b) {
      SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(ds.bar, b)));
    }
    for (std::uint32_t b = 0; b < kBeers; ++b) {
      SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(ds.beer, b)));
    }
    return Status::OK();
  };
  ASSERT_TRUE(store
                  ->Mutate([&](Instance& inst, ExecContext&) {
                    return build_objects(inst);
                  })
                  .ok());

  CommutativityCache cache;
  TxnOptions topt;
  topt.retry.max_attempts = 16;
  topt.retry.base_delay = std::chrono::nanoseconds(0);
  TxnManager mgr(store.get(), &cache, topt);

  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  // 4 commutative writers: add_bar over (d, b) receiver pairs.
  for (std::uint32_t t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint32_t b = 0; b < kBars; ++b) {
        Receiver r = Receiver::Unchecked(
            {ObjectId(ds.drinker, t), ObjectId(ds.bar, b)});
        if (!mgr.Apply(*add_bar, {std::move(r)}).ok()) failures.fetch_add(1);
      }
    });
  }
  // 4 MVCC writers hammering the same (d0, l) slot — conflict storm fodder.
  for (std::uint32_t t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < 4; ++i) {
        Status s = mgr.Mutate([&ds, t, i](Instance& inst, ExecContext&) {
          return inst.AddEdge(ObjectId(ds.drinker, 0), ds.likes,
                              ObjectId(ds.beer, (t + i) % kBeers));
        });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  ASSERT_EQ(failures.load(), 0);

  // The deterministic union of every write, regardless of interleaving.
  Instance expected(&ds.schema);
  ASSERT_TRUE(build_objects(expected).ok());
  for (std::uint32_t d = 0; d < 4; ++d) {
    for (std::uint32_t b = 0; b < kBars; ++b) {
      ASSERT_TRUE(expected
                      .AddEdge(ObjectId(ds.drinker, d), ds.frequents,
                               ObjectId(ds.bar, b))
                      .ok());
    }
  }
  for (std::uint32_t be = 0; be < kBeers; ++be) {
    ASSERT_TRUE(expected
                    .AddEdge(ObjectId(ds.drinker, 0), ds.likes,
                             ObjectId(ds.beer, be))
                    .ok());
  }
  EXPECT_TRUE(store->SnapshotState() == expected);
  EXPECT_EQ(mgr.stats().commits, 32u);

  const Instance live = store->SnapshotState();
  store.reset();
  auto reopened = std::move(DurableStore::Open(dir, &ds.schema)).value();
  EXPECT_TRUE(reopened->instance() == live);
}

// -- Admission routing --------------------------------------------------------

TEST(TxnAdmissionTest, KeyOrderOnlyMethodsAreRoutedToMvcc) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  const std::string dir = MakeTempDir("store");
  auto store = std::move(DurableStore::Open(dir, &ds.schema)).value();
  ASSERT_TRUE(store
                  ->Mutate([&](Instance& inst, ExecContext&) {
                    SETREC_RETURN_IF_ERROR(
                        inst.AddObject(ObjectId(ds.drinker, 0)));
                    return inst.AddObject(ObjectId(ds.bar, 0));
                  })
                  .ok());
  CommutativityCache cache;
  TxnManager mgr(store.get(), &cache);

  Receiver r =
      Receiver::Unchecked({ObjectId(ds.drinker, 0), ObjectId(ds.bar, 0)});
  ASSERT_TRUE(mgr.Apply(*favorite, {std::move(r)}).ok());
  // favorite_bar is last-writer-wins: absolute certification fails, so the
  // transaction must have gone through snapshot isolation.
  const TxnManager::Stats stats = mgr.stats();
  EXPECT_EQ(stats.mvcc_admissions, 1u);
  EXPECT_EQ(stats.commutative_admissions, 0u);
  EXPECT_TRUE(store->SnapshotState().HasEdge(
      ObjectId(ds.drinker, 0), ds.frequents, ObjectId(ds.bar, 0)));
}

TEST(TxnAdmissionTest, SetOrientedUpdateRunsUnderSnapshotIsolation) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt}};
  std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
  const Instance db =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();
  // "select EmpId, New from Employee, NewSal where Salary = Old".
  const ExprPtr query = ra::Project(
      ra::JoinEq(ra::Rel("EmpSalary"),
                 ra::Project(ra::JoinEq(ra::Rel("NSOld"),
                                        ra::Rename(ra::Rel("NSNew"), "NS",
                                                   "NS2"),
                                        "NS", "NS2"),
                             {"Old", "New"}),
                 "Salary", "Old"),
      {"Emp", "New"});

  const std::string dir = MakeTempDir("store");
  auto store = std::move(DurableStore::Open(dir, &ps.schema)).value();
  ASSERT_TRUE(store
                  ->Mutate([&db](Instance& inst, ExecContext&) {
                    inst = db;
                    return Status::OK();
                  })
                  .ok());
  CommutativityCache cache;
  TxnManager mgr(store.get(), &cache);

  ASSERT_TRUE(mgr.Update(ps.salary, query).ok());
  EXPECT_EQ(mgr.stats().mvcc_admissions, 1u);
  EXPECT_EQ(mgr.stats().commutative_admissions, 0u);

  auto salaries = std::move(ReadSalaries(ps, store->SnapshotState())).value();
  ASSERT_EQ(salaries.size(), 3u);
  EXPECT_EQ(salaries[0], (std::pair<std::uint32_t, std::uint32_t>{1, 150}));
  EXPECT_EQ(salaries[1], (std::pair<std::uint32_t, std::uint32_t>{2, 250}));
  EXPECT_EQ(salaries[2], (std::pair<std::uint32_t, std::uint32_t>{3, 150}));

  const Instance live = store->SnapshotState();
  store.reset();
  auto reopened = std::move(DurableStore::Open(dir, &ps.schema)).value();
  EXPECT_TRUE(reopened->instance() == live);
}

// -- The crash matrix over group commit (acceptance) --------------------------

/// Shared scaffolding: a seeded drinkers store and three add_bar
/// transactions with precomputed expected states_[0..3] — states_[k] is the
/// instance after k committed transactions, each of which appends exactly
/// one WAL record through the group-commit path.
class TxnCrashMatrixTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kTxns = 3;

  void SetUp() override {
    ds_ = std::move(MakeDrinkersSchema()).value();
    add_bar_ = std::move(MakeAddBar(ds_)).value();

    Instance initial(&ds_.schema);
    for (std::uint32_t d = 0; d < 3; ++d) {
      ASSERT_TRUE(initial.AddObject(ObjectId(ds_.drinker, d)).ok());
    }
    for (std::uint32_t b = 0; b < 3; ++b) {
      ASSERT_TRUE(initial.AddObject(ObjectId(ds_.bar, b)).ok());
    }
    states_.push_back(initial);
    for (std::uint32_t k = 0; k < kTxns; ++k) {
      std::vector<Receiver> receivers;
      for (std::uint32_t b = 0; b < 2; ++b) {
        receivers.push_back(Receiver::Unchecked(
            {ObjectId(ds_.drinker, k), ObjectId(ds_.bar, b)}));
      }
      txns_.push_back(receivers);
      states_.push_back(ApplyRef(*add_bar_, states_.back(), receivers));
      ASSERT_FALSE(states_[k + 1] == states_[k]) << "txn " << k << " no-op";
    }
  }

  /// The WAL record size (16-byte header + payload) transaction k appends.
  std::size_t RecordSize(std::size_t k) const {
    return 16 + DeltaToText(DiffInstances(states_[k], states_[k + 1]),
                            ds_.schema)
                    .size();
  }

  /// Opens a store under `injector`, seeds states_[0], then pushes all
  /// transactions through a TxnManager, recording each result.
  struct RunResult {
    std::vector<Status> results;
    bool broken = false;
  };
  RunResult Run(const std::string& dir, FaultInjector* injector,
                FlightRecorder* recorder) {
    DurableStoreOptions sopt;
    sopt.injector = injector;
    sopt.recorder = recorder;
    auto store = std::move(DurableStore::Open(dir, &ds_.schema, sopt)).value();
    EXPECT_TRUE(store
                    ->Mutate([this](Instance& inst, ExecContext&) {
                      inst = states_[0];
                      return Status::OK();
                    })
                    .ok());
    CommutativityCache cache;
    TxnOptions topt;
    topt.recorder = recorder;
    TxnManager mgr(store.get(), &cache, topt);
    RunResult run;
    for (std::size_t i = 0; i < kTxns; ++i) {
      run.results.push_back(mgr.Apply(*add_bar_, txns_[i]));
    }
    run.broken = store->broken();
    return run;
  }

  Instance Recover(const std::string& dir, RecoveryReport* report) {
    auto store =
        std::move(DurableStore::Open(dir, &ds_.schema, {}, report)).value();
    return store->instance();
  }

  DrinkersSchema ds_;
  std::unique_ptr<AlgebraicUpdateMethod> add_bar_;
  std::vector<std::vector<Receiver>> txns_;
  std::vector<Instance> states_;
};

/// A certified transaction applies its method at the commit point under the
/// store's per-attempt context, so the store's row budget governs each
/// method application's evaluation: add_bar's join of drinker 0 with its two
/// bars exceeds max_rows = 1, and the transaction fails without touching
/// the instance or the WAL.
TEST_F(TxnCrashMatrixTest, CertifiedApplyHonorsTheStoreRowBudget) {
  const std::string dir = MakeTempDir("rows");
  FlightRecorder recorder;
  DurableStoreOptions sopt;
  sopt.limits.max_rows = 1;
  sopt.recorder = &recorder;
  auto store = std::move(DurableStore::Open(dir, &ds_.schema, sopt)).value();
  ASSERT_TRUE(store
                  ->Mutate([this](Instance& inst, ExecContext&) {
                    inst = states_[1];
                    return Status::OK();
                  })
                  .ok());
  const std::uint64_t sequence = store->last_sequence();
  const std::uintmax_t wal_bytes =
      std::filesystem::file_size(std::filesystem::path(dir) / "wal.log");

  CommutativityCache cache;
  TxnOptions topt;
  topt.recorder = &recorder;
  TxnManager mgr(store.get(), &cache, topt);
  const std::vector<Receiver> third_bar = {
      Receiver::Unchecked({ObjectId(ds_.drinker, 0), ObjectId(ds_.bar, 2)})};
  Status s = mgr.Apply(*add_bar_, third_bar);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row budget exhausted"), std::string::npos)
      << s.ToString();
  // Every attempt would charge the same rows: one attempt, and the budget
  // status itself rather than kRetryExhausted.
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_EQ(mgr.stats().retries, 0u);
  EXPECT_EQ(mgr.stats().commutative_admissions, 1u);
  EXPECT_EQ(mgr.stats().commits, 0u);
  EXPECT_FALSE(store->broken());
  EXPECT_TRUE(store->SnapshotState() == states_[1]);
  EXPECT_EQ(store->last_sequence(), sequence);
  EXPECT_EQ(std::filesystem::file_size(std::filesystem::path(dir) / "wal.log"),
            wal_bytes);
  store.reset();
  EXPECT_TRUE(Recover(dir, nullptr) == states_[1]);
}

/// The same stop under MVCC: a set-oriented update whose receiver query
/// joins drinker 0's two bars runs over the transaction's own row budget of
/// one row. The manager runs one attempt and returns the budget status, and
/// neither the instance nor the WAL changes.
TEST_F(TxnCrashMatrixTest, MvccUpdateHonorsTheTransactionRowBudget) {
  const std::string dir = MakeTempDir("update-rows");
  FlightRecorder recorder;
  DurableStoreOptions sopt;
  sopt.recorder = &recorder;
  auto store = std::move(DurableStore::Open(dir, &ds_.schema, sopt)).value();
  ASSERT_TRUE(store
                  ->Mutate([this](Instance& inst, ExecContext&) {
                    inst = states_[1];
                    return Status::OK();
                  })
                  .ok());
  const std::uint64_t sequence = store->last_sequence();
  const std::uintmax_t wal_bytes =
      std::filesystem::file_size(std::filesystem::path(dir) / "wal.log");

  CommutativityCache cache;
  TxnOptions topt;
  topt.recorder = &recorder;
  topt.limits.max_rows = 1;
  TxnManager mgr(store.get(), &cache, topt);
  const ExprPtr bars_of_each_drinker = ra::Project(
      ra::JoinEq(ra::Rel("Df"), ra::Rel("Ba"), "f", "Ba"), {"D", "Ba"});
  Status s = mgr.Update(ds_.frequents, bars_of_each_drinker);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("row budget exhausted"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(mgr.stats().mvcc_admissions, 1u);
  EXPECT_EQ(mgr.stats().retries, 0u);
  EXPECT_EQ(mgr.stats().commits, 0u);
  EXPECT_FALSE(store->broken());
  EXPECT_TRUE(store->SnapshotState() == states_[1]);
  EXPECT_EQ(store->last_sequence(), sequence);
  EXPECT_EQ(std::filesystem::file_size(std::filesystem::path(dir) / "wal.log"),
            wal_bytes);
}

/// Storage faults at every commit of the sequence: the WAL append of
/// transaction k torn at offset 0, mid-record and full-record, and its fsync
/// partially applied. Every scenario must (a) fail transaction k terminally
/// with a flight dump, (b) poison the store, and (c) recover to a committed
/// prefix — states_[k] normally, states_[k+1] in the fully-durable-but-
/// unacknowledged corner. Never a hybrid.
TEST_F(TxnCrashMatrixTest, StorageFaultAtEveryCommitRecoversACommittedPrefix) {
  // The seed commit consumes storage ops 1 (append) and 2 (sync);
  // transaction k's group commit consumes ops 3+2k and 4+2k.
  for (std::size_t k = 0; k < kTxns; ++k) {
    const std::uint64_t append_op = 3 + 2 * k;
    const std::size_t record = RecordSize(k);
    struct Case {
      std::string tag;
      FaultInjector injector;
      std::size_t expected_state;
    };
    std::vector<Case> cases;
    for (const std::size_t offset : {std::size_t{0}, record / 2, record}) {
      cases.push_back({"torn" + std::to_string(k) + "o" +
                           std::to_string(offset),
                       FaultInjector::TornWriteAt(append_op, offset),
                       // A tear at the full record size leaves the commit
                       // durable but unacknowledged: recovery surfaces it —
                       // still a statement boundary, never a hybrid.
                       offset == record ? k + 1 : k});
    }
    cases.push_back({"fsync" + std::to_string(k),
                     FaultInjector::PartialFsyncAt(append_op + 1), k});

    for (Case& c : cases) {
      const std::string dir = MakeTempDir(c.tag);
      FlightRecorder recorder;
      RunResult run = Run(dir, &c.injector, &recorder);

      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_TRUE(run.results[i].ok()) << c.tag << " txn " << i;
      }
      for (std::size_t i = k; i < kTxns; ++i) {
        // The faulted transaction and everything after it fail terminally
        // (the store is poisoned until reopened) — never retried into a
        // half-committed state.
        EXPECT_EQ(run.results[i].code(), StatusCode::kFailedPrecondition)
            << c.tag << " txn " << i << ": " << run.results[i].ToString();
      }
      EXPECT_TRUE(run.broken) << c.tag;

      // Both terminal-failure dumps are parseable: the transaction layer's
      // and the store's own commit dump.
      AssertFlightDump(TxnFlightFile(dir));
      AssertFlightDump(CommitFlightFile(dir));

      RecoveryReport report;
      const Instance recovered = Recover(dir, &report);
      EXPECT_TRUE(recovered == states_[c.expected_state])
          << c.tag << ": recovery left a state that is not the expected "
          << "committed prefix";
      // The recovered prefix covers every acknowledged transaction.
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_TRUE(states_[i + 1].IsSubInstanceOf(recovered))
            << c.tag << ": acked commit " << i << " lost";
      }
    }
  }
}

/// Exec faults: the first transaction killed at EVERY cooperative probe its
/// group-commit statement traverses. The abort must be clean (store usable,
/// pre-transaction state intact, flight dump written) and the same
/// transaction must succeed immediately afterwards.
TEST_F(TxnCrashMatrixTest, CrashAtEveryExecProbeAbortsCleanlyAndRecovers) {
  // Observe run: count the probes between seeding and the end of txn 0.
  std::uint64_t probes_before = 0, probes_after = 0;
  {
    const std::string dir = MakeTempDir("observe");
    FaultInjector observer;
    DurableStoreOptions sopt;
    sopt.injector = &observer;
    auto store = std::move(DurableStore::Open(dir, &ds_.schema, sopt)).value();
    ASSERT_TRUE(store
                    ->Mutate([this](Instance& inst, ExecContext&) {
                      inst = states_[0];
                      return Status::OK();
                    })
                    .ok());
    CommutativityCache cache;
    TxnManager mgr(store.get(), &cache);
    probes_before = observer.probes_seen();
    ASSERT_TRUE(mgr.Apply(*add_bar_, txns_[0]).ok());
    probes_after = observer.probes_seen();
  }
  ASSERT_GT(probes_after, probes_before);

  for (std::uint64_t n = probes_before + 1; n <= probes_after; ++n) {
    const std::string dir = MakeTempDir("probe" + std::to_string(n));
    FaultInjector inj = FaultInjector::FireAtNthProbe(n);
    FlightRecorder recorder;
    DurableStoreOptions sopt;
    sopt.injector = &inj;
    sopt.recorder = &recorder;
    auto store = std::move(DurableStore::Open(dir, &ds_.schema, sopt)).value();
    ASSERT_TRUE(store
                    ->Mutate([this](Instance& inst, ExecContext&) {
                      inst = states_[0];
                      return Status::OK();
                    })
                    .ok())
        << "probe " << n;
    CommutativityCache cache;
    TxnOptions topt;
    topt.recorder = &recorder;
    TxnManager mgr(store.get(), &cache, topt);

    Status s = mgr.Apply(*add_bar_, txns_[0]);
    ASSERT_FALSE(s.ok()) << "probe " << n;
    EXPECT_EQ(s.code(), StatusCode::kInternal) << "probe " << n;
    // An exec fault is not a storage fault: the store stays usable and the
    // pre-transaction state is intact.
    EXPECT_FALSE(store->broken()) << "probe " << n;
    EXPECT_TRUE(store->SnapshotState() == states_[0])
        << "partial mutation survived a fault at probe " << n;
    EXPECT_EQ(mgr.stats().aborts, 1u) << "probe " << n;
    AssertFlightDump(TxnFlightFile(dir));

    // The probe counter has moved past n: the same transaction now commits.
    ASSERT_TRUE(mgr.Apply(*add_bar_, txns_[0]).ok()) << "probe " << n;
    EXPECT_TRUE(store->SnapshotState() == states_[1]) << "probe " << n;
    store.reset();

    RecoveryReport report;
    const Instance recovered = Recover(dir, &report);
    EXPECT_TRUE(recovered == states_[1])
        << "recovery leaked a torn hybrid at probe " << n;
  }
}

}  // namespace
}  // namespace setrec
