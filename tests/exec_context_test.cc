// Tests for cooperative resource governance (core/exec_context.h): step
// budgets, wall-clock deadlines, row and memory caps, cancellation — and
// their end-to-end effect on the worst-case-exponential kernels: the chase,
// the Klug containment test, the permutation oracle, the Theorem 5.12
// decision procedure (which must degrade to a sound kUnknown), and every
// single method application inside a sequential one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "conjunctive/chase.h"
#include "conjunctive/containment.h"
#include "core/exec_context.h"
#include "core/sequential.h"
#include "sql/table.h"
#include "text/parser.h"

namespace setrec {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr ClassId kP = 0;

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

Catalog GraphCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation("E", MakeScheme({{"x", kP}, {"y", kP}})).ok());
  return catalog;
}

TEST(ExecContextTest, PermissiveContextNeverTrips) {
  ExecContext ctx;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ctx.CheckPoint("test/loop").ok());
  }
  EXPECT_EQ(ctx.steps(), 1000u);
  EXPECT_FALSE(ctx.limited());
}

TEST(ExecContextTest, StepBudgetTripsDeterministically) {
  ExecContext ctx(ExecContext::StepBudget(5));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ctx.CheckPoint("test/loop").ok());
  }
  Status s = ctx.CheckPoint("test/loop");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("test/loop"), std::string::npos);
  EXPECT_TRUE(ctx.has_step_budget());
  EXPECT_TRUE(ctx.limited());
}

TEST(ExecContextTest, DeadlineTripsWithinBoundedTime) {
  ExecContext ctx(ExecContext::Deadline(milliseconds(5)));
  EXPECT_TRUE(ctx.has_deadline());
  const auto start = steady_clock::now();
  Status s = Status::OK();
  // A runaway loop: only the deadline can stop it.
  for (std::uint64_t i = 0; i < (1u << 30) && s.ok(); ++i) {
    s = ctx.CheckPoint("test/spin");
  }
  const auto elapsed = steady_clock::now() - start;
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(ExecContextTest, RowBudgetTrips) {
  ExecContext::Limits limits;
  limits.max_rows = 10;
  ExecContext ctx(limits);
  ASSERT_TRUE(ctx.ChargeRows(10, "test/rows").ok());
  Status s = ctx.ChargeRows(1, "test/rows");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.rows(), 11u);
}

TEST(ExecContextTest, MemoryHighWaterTracksChargeAndRelease) {
  ExecContext::Limits limits;
  limits.max_memory_bytes = 100;
  ExecContext ctx(limits);
  ASSERT_TRUE(ctx.ChargeMemory(60, "test/mem").ok());
  ctx.ReleaseMemory(60);
  ASSERT_TRUE(ctx.ChargeMemory(80, "test/mem").ok());
  EXPECT_EQ(ctx.memory_in_use(), 80u);
  EXPECT_EQ(ctx.memory_high_water(), 80u);
  Status s = ctx.ChargeMemory(30, "test/mem");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(ExecContextTest, CancellationInternalAndExternal) {
  ExecContext ctx;
  ASSERT_TRUE(ctx.CheckPoint("test/pre").ok());
  ctx.RequestCancel();
  EXPECT_EQ(ctx.CheckPoint("test/post").code(), StatusCode::kCancelled);

  std::atomic<bool> flag{false};
  ExecContext bound;
  bound.BindCancelFlag(&flag);
  ASSERT_TRUE(bound.CheckPoint("test/pre").ok());
  flag.store(true);
  EXPECT_EQ(bound.CheckPoint("test/post").code(), StatusCode::kCancelled);
}

// -- Governed kernels --------------------------------------------------------

TEST(GovernedKernelsTest, ChaseStopsOnStepBudget) {
  // A dense query whose fd rule has many pairs to scan: q over E(x, y_i)
  // with E: x→y merges all the y's one pair per round.
  ConjunctiveQuery q;
  VarId x = q.NewVar(kP);
  for (int i = 0; i < 16; ++i) {
    q.AddConjunct("E", {x, q.NewVar(kP)});
  }
  q.set_summary({x});
  DependencySet deps;
  deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});

  ExecContext ctx(ExecContext::StepBudget(3));
  Result<ConjunctiveQuery> chased = ChaseQuery(q, deps, GraphCatalog(), ctx);
  ASSERT_FALSE(chased.ok());
  EXPECT_EQ(chased.status().code(), StatusCode::kResourceExhausted);

  // The same input finishes under a permissive context.
  ExecContext permissive;
  EXPECT_TRUE(ChaseQuery(q, deps, GraphCatalog(), permissive).ok());
}

/// A chain query with `n` same-domain variables: the representative-set
/// enumeration behind CheckContainment is Bell(n)-sized — adversarial input
/// for the containment kernel.
PositiveQuery ChainQuery(int n) {
  ConjunctiveQuery q;
  std::vector<VarId> vars;
  for (int i = 0; i < n; ++i) vars.push_back(q.NewVar(kP));
  for (int i = 0; i + 1 < n; ++i) {
    q.AddConjunct("E", {vars[static_cast<std::size_t>(i)],
                        vars[static_cast<std::size_t>(i) + 1]});
  }
  q.set_summary({vars[0]});
  return PositiveQuery{MakeScheme({{"v", kP}}), {std::move(q)}};
}

/// A union that contains ChainQuery(n) but that no strict homomorphism
/// maps into it: the chain with x0 ≠ x1, and the chain with x1 merged into
/// x0. Every valuation of the chain is a member of one of the two, so
/// CheckContainment(ChainQuery(n), SplitChainQuery(n)) pays for all Bell(n)
/// representative valuations.
PositiveQuery SplitChainQuery(int n) {
  PositiveQuery q = ChainQuery(n);
  ConjunctiveQuery apart = q.disjuncts[0];
  apart.AddNonEquality(0, 1);
  ConjunctiveQuery merged;
  std::vector<VarId> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(i == 1 ? vars[0] : merged.NewVar(kP));
  }
  for (int i = 0; i + 1 < n; ++i) {
    merged.AddConjunct("E", {vars[static_cast<std::size_t>(i)],
                             vars[static_cast<std::size_t>(i) + 1]});
  }
  merged.set_summary({vars[0]});
  q.disjuncts = {std::move(apart), std::move(merged)};
  return q;
}

TEST(GovernedKernelsTest, ContainmentStopsOnStepBudget) {
  PositiveQuery q1 = ChainQuery(12);
  PositiveQuery q2 = SplitChainQuery(12);
  ExecContext ctx(ExecContext::StepBudget(1000));
  Result<ContainmentResult> r =
      CheckContainment(q1, q2, DependencySet{}, GraphCatalog(),
                       /*simplify=*/false, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernedKernelsTest, ContainmentStopsOnDeadline) {
  // Bell(12) ≈ 4.2M representative partitions: far beyond a 5ms deadline,
  // so the call must come back with kDeadlineExceeded — and promptly.
  PositiveQuery q1 = ChainQuery(12);
  PositiveQuery q2 = SplitChainQuery(12);
  ExecContext ctx(ExecContext::Deadline(milliseconds(5)));
  const auto start = steady_clock::now();
  Result<ContainmentResult> r =
      CheckContainment(q1, q2, DependencySet{}, GraphCatalog(),
                       /*simplify=*/false, ctx);
  const auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(GovernedKernelsTest, ContainmentStopsOnCancellation) {
  PositiveQuery q = ChainQuery(12);
  ExecContext ctx;
  ctx.RequestCancel();
  Result<ContainmentResult> r =
      CheckContainment(q, q, DependencySet{}, GraphCatalog(),
                       /*simplify=*/false, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

// -- The permutation oracle (satellite: uniform oversized-set handling) ------

class DrinkersOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::move(MakeDrinkersSchema()).value();
    method_ = std::move(MakeFavoriteBar(ds_)).value();
    instance_ = std::move(ParseInstance(R"(
      instance {
        object D(1);
        object Ba(1); object Ba(2); object Ba(3); object Ba(4);
        object Ba(5); object Ba(6); object Ba(7); object Ba(8);
      }
    )",
                                        &ds_.schema))
                    .value();
    for (std::uint32_t i = 1; i <= 8; ++i) {
      receivers_.push_back(Receiver::Unchecked(
          {ObjectId(ds_.drinker, 1), ObjectId(ds_.bar, i)}));
    }
  }

  DrinkersSchema ds_;
  std::unique_ptr<AlgebraicUpdateMethod> method_;
  Instance instance_{&ds_.schema};
  std::vector<Receiver> receivers_;
};

TEST_F(DrinkersOracle, OversizedSetFailsUpFrontWithoutALimit) {
  // 8 receivers > the default guard of 7: with a permissive context the
  // |T|! enumeration is refused up front — uniformly as kResourceExhausted,
  // not as an argument error.
  ExecContext permissive;
  Result<OrderIndependenceOutcome> r =
      OrderIndependentOn(*method_, instance_, receivers_, permissive);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("step budget or deadline"),
            std::string::npos);
}

TEST_F(DrinkersOracle, OversizedSetIsAttemptedUnderABudget) {
  // With a step budget the guard steps aside and the budget governs the
  // attempt instead; favorite_bar disagrees on the very first two orders,
  // so even a modest budget suffices to find the witness.
  ExecContext ctx(ExecContext::StepBudget(100000));
  Result<OrderIndependenceOutcome> r =
      OrderIndependentOn(*method_, instance_, receivers_, ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->order_independent);
}

TEST_F(DrinkersOracle, TinyBudgetStopsThePermutationOracle) {
  ExecContext ctx(ExecContext::StepBudget(2));
  Result<OrderIndependenceOutcome> r =
      OrderIndependentOn(*method_, instance_, receivers_, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// -- Method application under the caller's context --------------------------

TEST(GovernedApplicationTest, SequentialApplyChargesEachApplicationsRows) {
  // Section 7's B' over 16 employees: every M(I, t) joins its salary with
  // NewSal, one row per receiver. The caller's row budget governs M_seq, so
  // it must govern those joins too and stop the second one.
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  for (std::uint32_t i = 0; i < 16; ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % 4), std::nullopt});
  }
  std::vector<NewSalRow> raises;
  for (std::uint32_t s = 0; s < 4; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  const Instance instance =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();
  auto method = std::move(MakeSalaryFromNewSal(ps)).value();
  const auto salaries = std::move(ReadSalaries(ps, instance)).value();
  std::vector<Receiver> receivers;
  for (auto [id, salary] : salaries) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps.emp, id), ObjectId(ps.val, salary)}));
  }
  ASSERT_EQ(receivers.size(), 16u);

  ExecContext::Limits limits;
  limits.max_rows = 1;
  ExecContext ctx(limits);
  Result<Instance> out =
      SequentialApply(*method, instance, receivers, {.ctx = &ctx});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.status().message().find("evaluator/join-row"),
            std::string::npos)
      << out.status().ToString();
  EXPECT_EQ(ctx.rows(), 2u);
}

// -- Three-valued decision (sound degradation) -------------------------------

TEST(BoundedDecisionTest, DecidesWhenTheBudgetSuffices) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  ExecContext permissive;
  EXPECT_EQ(std::move(DecideOrderIndependenceBounded(
                          *add_bar, OrderIndependenceKind::kAbsolute,
                          {.ctx = &permissive}))
                .value(),
            OrderIndependenceVerdict::kIndependent);

  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  ExecContext permissive2;
  EXPECT_EQ(std::move(DecideOrderIndependenceBounded(
                          *favorite, OrderIndependenceKind::kAbsolute,
                          {.ctx = &permissive2}))
                .value(),
            OrderIndependenceVerdict::kDependent);
}

TEST(BoundedDecisionTest, ExhaustedBudgetIsUnknownNotAVerdict) {
  // add_bar IS order independent, but a starved decision run must not claim
  // so: it degrades to kUnknown (sound: treat as potentially dependent).
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  ExecContext ctx(ExecContext::StepBudget(50));
  EXPECT_EQ(std::move(DecideOrderIndependenceBounded(
                          *add_bar, OrderIndependenceKind::kAbsolute,
                          {.ctx = &ctx}))
                .value(),
            OrderIndependenceVerdict::kUnknown);
}

TEST(BoundedDecisionTest, CancellationIsNotFoldedIntoUnknown) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  ExecContext ctx;
  ctx.RequestCancel();
  Result<OrderIndependenceVerdict> r = DecideOrderIndependenceBounded(
      *add_bar, OrderIndependenceKind::kAbsolute, {.ctx = &ctx});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(BoundedDecisionTest, NonPositiveMethodsStillErrorNotUnknown) {
  // The InvalidArgument for non-positive methods is a property of the
  // input, not of the budget: it must not degrade to kUnknown.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto negative = std::move(ParseMethod(R"(
    method drop_all [D, Ba] {
      f := diff(project[f](join[self = D](self, Df)),
                rename[arg1 -> f](arg1));
    }
  )",
                                        &ds.schema))
                      .value();
  ExecContext ctx(ExecContext::StepBudget(50));
  Result<OrderIndependenceVerdict> r = DecideOrderIndependenceBounded(
      *negative, OrderIndependenceKind::kAbsolute, {.ctx = &ctx});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace setrec
