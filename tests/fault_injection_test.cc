// Tests for the deterministic fault-injection harness (core/fault_injection.h)
// and the all-or-nothing guarantee it proves: a fault injected at ANY probe
// point of a set-oriented SQL statement unwinds cleanly and leaves the
// instance bit-identical to its pre-statement snapshot, and a fault at any
// probe of the containment kernel propagates as a typed error, never a crash
// or a partial result.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "conjunctive/chase.h"
#include "conjunctive/containment.h"
#include "core/exec_context.h"
#include "core/fault_injection.h"
#include "relational/builder.h"
#include "sql/engine.h"
#include "sql/table.h"

namespace setrec {
namespace {

// -- The injector itself -----------------------------------------------------

TEST(FaultInjectorTest, ObserveOnlyNeverFires) {
  FaultInjector inj;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(inj.Probe("test/point").ok());
  }
  EXPECT_EQ(inj.probes_seen(), 100u);
  EXPECT_EQ(inj.faults_fired(), 0u);
}

TEST(FaultInjectorTest, FiresExactlyAtTheNthProbe) {
  FaultInjector inj =
      FaultInjector::FireAtNthProbe(3, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(inj.Probe("a").ok());
  EXPECT_TRUE(inj.Probe("b").ok());
  Status s = inj.Probe("c");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  // The message pinpoints the firing site.
  EXPECT_NE(s.message().find("c"), std::string::npos);
  EXPECT_TRUE(inj.Probe("d").ok());  // fires once, not from then on
  EXPECT_EQ(inj.probes_seen(), 4u);
  EXPECT_EQ(inj.faults_fired(), 1u);
}

TEST(FaultInjectorTest, ZeroNeverFires) {
  FaultInjector inj = FaultInjector::FireAtNthProbe(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.Probe("p").ok());
  }
  EXPECT_EQ(inj.faults_fired(), 0u);
}

TEST(FaultInjectorTest, ResetKeepsTheConfiguration) {
  FaultInjector inj = FaultInjector::FireAtNthProbe(2);
  EXPECT_TRUE(inj.Probe("p").ok());
  EXPECT_EQ(inj.Probe("p").code(), StatusCode::kInternal);
  inj.Reset();
  EXPECT_EQ(inj.probes_seen(), 0u);
  EXPECT_EQ(inj.faults_fired(), 0u);
  // Same trigger after the reset: fires at the 2nd probe again.
  EXPECT_TRUE(inj.Probe("p").ok());
  EXPECT_EQ(inj.Probe("p").code(), StatusCode::kInternal);
}

TEST(FaultInjectorTest, SeededModeIsReproducible) {
  auto fire_pattern = [](std::uint64_t seed) {
    FaultInjector inj = FaultInjector::FireWithProbability(seed, 0.5);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(!inj.Probe("p").ok());
    }
    return fired;
  };
  std::vector<bool> a = fire_pattern(42);
  EXPECT_EQ(a, fire_pattern(42));
  // p = 0.5 over 200 probes: some fire, some do not.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjectorTest, RecordingEnumeratesProbeNames) {
  FaultInjector inj;
  inj.set_recording(true);
  EXPECT_TRUE(inj.Probe("first").ok());
  EXPECT_TRUE(inj.Probe("second").ok());
  EXPECT_EQ(inj.recorded_probes(),
            (std::vector<std::string>{"first", "second"}));
  inj.Reset();
  EXPECT_TRUE(inj.recorded_probes().empty());
}

TEST(FaultInjectorTest, StorageProbeFiresOnlyAtTheNthStorageOp) {
  FaultInjector inj = FaultInjector::TornWriteAt(3, 42);
  EXPECT_EQ(inj.StorageProbe("wal/append").kind, StorageFaultKind::kNone);
  EXPECT_EQ(inj.StorageProbe("wal/sync").kind, StorageFaultKind::kNone);
  const StorageFaultPlan plan = inj.StorageProbe("wal/append");
  EXPECT_EQ(plan.kind, StorageFaultKind::kTornWrite);
  EXPECT_EQ(plan.byte_offset, 42u);
  EXPECT_EQ(inj.StorageProbe("wal/append").kind, StorageFaultKind::kNone);
  EXPECT_EQ(inj.storage_ops_seen(), 4u);
  EXPECT_EQ(inj.storage_faults_fired(), 1u);
  // Storage ops and exec probes are counted on separate axes: a storage
  // configuration never fires on the exec-probe path and vice versa.
  EXPECT_TRUE(inj.Probe("exec/point").ok());
  EXPECT_EQ(inj.probes_seen(), 1u);
  EXPECT_EQ(inj.faults_fired(), 0u);
}

TEST(FaultInjectorTest, CountersAreExactUnderConcurrentProbes) {
  // A shared injector is hammered from several threads (as a foreground
  // commit path and a background checkpoint thread would); the atomic
  // counters must not lose increments, and count-triggered mode must fire
  // exactly once no matter which thread hits the trigger ordinal.
  constexpr int kThreads = 4;
  constexpr int kProbesPerThread = 5000;
  FaultInjector inj = FaultInjector::FireAtNthProbe(kThreads * 1000);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kProbesPerThread; ++i) {
        if (!inj.Probe("mt/point").ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        inj.StorageProbe("mt/storage");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(inj.probes_seen(),
            static_cast<std::uint64_t>(kThreads) * kProbesPerThread);
  EXPECT_EQ(inj.storage_ops_seen(),
            static_cast<std::uint64_t>(kThreads) * kProbesPerThread);
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(inj.faults_fired(), 1u);
}

// -- All-or-nothing SQL statements under injected faults ---------------------

class PayrollFaults : public ::testing::Test {
 protected:
  void SetUp() override { ps_ = std::move(MakePayrollSchema()).value(); }

  /// The Section 7 receiver query "select EmpId, New from Employee, NewSal
  /// where Salary = Old" — a key set over the fixture data below.
  ExprPtr SalaryUpdateQuery() const {
    return ra::Project(
        ra::JoinEq(ra::Rel("EmpSalary"),
                   ra::Project(ra::JoinEq(ra::Rel("NSOld"),
                                          ra::Rename(ra::Rel("NSNew"), "NS",
                                                     "NS2"),
                                          "NS", "NS2"),
                               {"Old", "New"}),
                   "Salary", "Old"),
        {"Emp", "New"});
  }

  Instance BuildDb() const {
    std::vector<EmployeeRow> employees = {
        {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt}};
    std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
    return std::move(BuildPayrollInstance(ps_, employees, {{100, 300}}, raises))
        .value();
  }

  PayrollSchema ps_;
};

TEST_F(PayrollFaults, SetOrientedUpdateRollsBackAtEveryProbePoint) {
  const Instance original = BuildDb();
  const ExprPtr query = SalaryUpdateQuery();

  // Dry run with an observe-only recording injector: learn how many probes
  // the statement traverses and that the clean run actually mutates.
  Instance clean = original;
  FaultInjector observer;
  observer.set_recording(true);
  ExecContext observe_ctx;
  observe_ctx.set_fault_injector(&observer);
  ASSERT_TRUE(
      SetOrientedUpdateInPlace(clean, ps_.salary, query, {.ctx = &observe_ctx})
          .ok());
  EXPECT_FALSE(clean == original);
  const std::uint64_t n_probes = observer.probes_seen();
  ASSERT_GT(n_probes, 0u);
  // The apply loop's probe points are among the recorded ones.
  const auto& names = observer.recorded_probes();
  EXPECT_NE(std::find(names.begin(), names.end(), "sql/update/receiver"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sql/update/edge"),
            names.end());

  // Now fire a fault at EVERY one of those probes, under two failure codes:
  // an arbitrary internal error and a governance trip. In every case the
  // statement must fail with exactly the injected code and the instance must
  // be bit-identical to the pre-statement snapshot.
  for (StatusCode code :
       {StatusCode::kInternal, StatusCode::kDeadlineExceeded}) {
    for (std::uint64_t k = 1; k <= n_probes; ++k) {
      Instance attempt = original;
      FaultInjector inj = FaultInjector::FireAtNthProbe(k, code);
      ExecContext ctx;
      ctx.set_fault_injector(&inj);
      Status s =
          SetOrientedUpdateInPlace(attempt, ps_.salary, query, {.ctx = &ctx});
      ASSERT_FALSE(s.ok()) << "probe " << k;
      EXPECT_EQ(s.code(), code) << "probe " << k;
      EXPECT_TRUE(attempt == original)
          << "partial mutation survived a fault at probe " << k;
    }
  }
}

TEST_F(PayrollFaults, SetOrientedDeleteRollsBackAtEveryProbePoint) {
  const Instance original = BuildDb();
  const RowPredicate pred = SalaryInFire(ps_);

  Instance clean = original;
  FaultInjector observer;
  ExecContext observe_ctx;
  observe_ctx.set_fault_injector(&observer);
  ASSERT_TRUE(
      SetOrientedDeleteInPlace(clean, ps_.emp, pred, {.ctx = &observe_ctx})
          .ok());
  EXPECT_FALSE(clean == original);  // salary 100 is in Fire: rows deleted
  const std::uint64_t n_probes = observer.probes_seen();
  ASSERT_GT(n_probes, 0u);

  for (StatusCode code :
       {StatusCode::kInternal, StatusCode::kResourceExhausted}) {
    for (std::uint64_t k = 1; k <= n_probes; ++k) {
      Instance attempt = original;
      FaultInjector inj = FaultInjector::FireAtNthProbe(k, code);
      ExecContext ctx;
      ctx.set_fault_injector(&inj);
      Status s =
          SetOrientedDeleteInPlace(attempt, ps_.emp, pred, {.ctx = &ctx});
      ASSERT_FALSE(s.ok()) << "probe " << k;
      EXPECT_EQ(s.code(), code) << "probe " << k;
      EXPECT_TRUE(attempt == original)
          << "partial mutation survived a fault at probe " << k;
    }
  }
}

// -- Clean unwinding of the read-only kernels --------------------------------

TEST(ContainmentFaultsTest, FaultAtEveryProbeUnwindsAsATypedError) {
  // A small chain query: enough structure to traverse the chase, the
  // representative-valuation enumeration, and the homomorphism membership
  // search, but few enough probes to exhaustively fault each one.
  constexpr ClassId kP = 0;
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation("E", std::move(RelationScheme::Make(
                                                  {{"x", kP}, {"y", kP}}))
                                        .value())
                  .ok());
  ConjunctiveQuery q;
  VarId a = q.NewVar(kP), b = q.NewVar(kP), c = q.NewVar(kP),
        d = q.NewVar(kP);
  q.AddConjunct("E", {a, b});
  q.AddConjunct("E", {b, c});
  q.AddConjunct("E", {c, d});
  q.set_summary({a});
  PositiveQuery pq{std::move(RelationScheme::Make({{"v", kP}})).value(), {q}};

  FaultInjector observer;
  observer.set_recording(true);
  ExecContext observe_ctx;
  observe_ctx.set_fault_injector(&observer);
  Result<ContainmentResult> clean =
      CheckContainment(pq, pq, DependencySet{}, catalog, /*simplify=*/false,
                       observe_ctx);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->contained);  // q ⊆ q
  const std::uint64_t n_probes = observer.probes_seen();
  ASSERT_GT(n_probes, 0u);
  const auto& names = observer.recorded_probes();
  EXPECT_NE(std::find(names.begin(), names.end(), "chase/round"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "representative/valuation"),
            names.end());

  for (std::uint64_t k = 1; k <= n_probes; ++k) {
    FaultInjector inj = FaultInjector::FireAtNthProbe(k);
    ExecContext ctx;
    ctx.set_fault_injector(&inj);
    Result<ContainmentResult> r = CheckContainment(
        pq, pq, DependencySet{}, catalog, /*simplify=*/false, ctx);
    ASSERT_FALSE(r.ok()) << "probe " << k;
    EXPECT_EQ(r.status().code(), StatusCode::kInternal) << "probe " << k;
  }
}

}  // namespace
}  // namespace setrec
