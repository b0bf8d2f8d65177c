// Tests for the multi-core execution surface: the hashed relational
// kernels and — the load-bearing property — bit-identical determinism of
// ParallelApply across worker counts (it evaluates each par(E) once, on
// the calling thread, whatever ExecOptions::num_workers and ::pool say, so
// these suites pin that the worker options change nothing).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/thread_pool.h"
#include "relational/builder.h"
#include "sql/table.h"
#include "text/printer.h"

namespace setrec {
namespace {

// ---------------------------------------------------------------------------
// Hashed relational kernels
// ---------------------------------------------------------------------------

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

constexpr ClassId kP = 0;
constexpr ClassId kQ = 1;
ObjectId P(std::uint32_t i) { return ObjectId(kP, i); }
ObjectId Q(std::uint32_t i) { return ObjectId(kQ, i); }

TEST(HashedRelationTest, TupleHashAgreesWithEquality) {
  TupleHash h;
  EXPECT_EQ(h(Tuple{P(1), Q(2)}), h(Tuple{P(1), Q(2)}));
  EXPECT_NE(h(Tuple{P(1), Q(2)}), h(Tuple{Q(2), P(1)}));  // order matters
  EXPECT_NE(h(Tuple{P(1)}), h(Tuple{P(1), P(1)}));        // arity matters
}

TEST(HashedRelationTest, SortedTuplesEnumeratesCanonicalOrder) {
  Relation r(MakeScheme({{"x", kP}, {"y", kQ}}));
  ASSERT_TRUE(r.Insert(Tuple{P(2), Q(0)}).ok());
  ASSERT_TRUE(r.Insert(Tuple{P(0), Q(1)}).ok());
  ASSERT_TRUE(r.Insert(Tuple{P(0), Q(0)}).ok());
  std::vector<const Tuple*> sorted = r.SortedTuples();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(*sorted[0], (Tuple{P(0), Q(0)}));
  EXPECT_EQ(*sorted[1], (Tuple{P(0), Q(1)}));
  EXPECT_EQ(*sorted[2], (Tuple{P(2), Q(0)}));
}

TEST(HashedRelationTest, InsertValidatedSkipsDomainChecks) {
  Relation r(MakeScheme({{"x", kP}}));
  r.Reserve(2);
  r.InsertValidated(Tuple{P(7)});
  r.InsertValidated(Tuple{P(7)});  // duplicate is still a set no-op
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Tuple{P(7)}));
}

TEST(HashedRelationTest, DatabaseEqualityIsDeepAfterSharedStorage) {
  Database a;
  Database b;
  Relation r(MakeScheme({{"x", kP}}));
  ASSERT_TRUE(r.Insert(Tuple{P(1)}).ok());
  a.Put("R", Relation(r));
  b.Put("R", std::move(r));
  EXPECT_TRUE(a == b);  // same content, distinct shared_ptrs
  Database c = a;       // shallow copy shares storage
  EXPECT_TRUE(a == c);
}

// ---------------------------------------------------------------------------
// ParallelApply determinism — the tentpole property
// ---------------------------------------------------------------------------

/// Applies `method` to (instance, receivers) at several worker counts and
/// asserts all the results are bit-identical (content equality AND the
/// canonical text serialization, which pins down edge-for-edge identity).
void ExpectWorkerCountInvariant(const AlgebraicUpdateMethod& method,
                                const Instance& instance,
                                std::span<const Receiver> receivers,
                                ThreadPool* pool) {
  Result<Instance> base = ParallelApply(method, instance, receivers);
  ASSERT_TRUE(base.ok()) << base.status().message();
  const std::string base_text = InstanceToText(*base);
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    Result<Instance> sharded = ParallelApply(
        method, instance, receivers, {.num_workers = workers, .pool = pool});
    ASSERT_TRUE(sharded.ok()) << sharded.status().message();
    EXPECT_EQ(*base, *sharded) << method.name() << " with " << workers
                               << " workers";
    EXPECT_EQ(base_text, InstanceToText(*sharded))
        << method.name() << " with " << workers << " workers";
  }
}

TEST(ParallelApplyDeterminismTest, PayrollWorkloadIsWorkerCountInvariant) {
  // The Section 7 payroll update: every employee re-salaried through
  // NewSal, 100 receivers with no receiving object in common.
  PayrollSchema schema = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < 100; ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % 16), std::nullopt});
  }
  for (std::uint32_t s = 0; s < 16; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  Instance instance =
      std::move(BuildPayrollInstance(schema, employees, {}, raises)).value();
  auto method = std::move(MakeSalaryFromNewSal(schema)).value();
  std::vector<Receiver> receivers;
  const auto salaries = std::move(ReadSalaries(schema, instance)).value();
  for (auto [id, salary] : salaries) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(schema.emp, id), ObjectId(schema.val, salary)}));
  }
  ASSERT_GE(receivers.size(), 100u);
  ThreadPool pool(4);
  ExpectWorkerCountInvariant(*method, instance, receivers, &pool);
}

class RandomizedDeterminismTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedDeterminismTest, RandomReceiverSetsAreWorkerCountInvariant) {
  // Arbitrary receiver sets — NOT key sets — so receivers sharing a
  // receiving object with different arguments land in the corpus. Those
  // interact through π_{self,arg}(rec), the join par(E) makes on self.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 3;
  options.max_objects_per_class = 8;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());

  ThreadPool pool(4);
  for (const auto& method : methods) {
    std::vector<Receiver> receivers =
        gen.RandomReceiverSet(instance, method->signature(), 12);
    if (receivers.empty()) continue;
    ExpectWorkerCountInvariant(*method, instance, receivers, &pool);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDeterminismTest,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(ParallelApplyDeterminismTest, TransientPoolMatchesBorrowedPool) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, 99);
  InstanceGenerator::Options options;
  options.min_objects_per_class = 4;
  options.max_objects_per_class = 6;
  Instance instance = gen.RandomInstance(options);
  auto method = std::move(MakeAddBar(ds)).value();
  std::vector<Receiver> receivers =
      gen.RandomReceiverSet(instance, method->signature(), 8);
  ASSERT_FALSE(receivers.empty());

  Result<Instance> seq = ParallelApply(*method, instance, receivers);
  ASSERT_TRUE(seq.ok());
  // num_workers > 1 without a pool: still one evaluation on this thread.
  Result<Instance> transient =
      ParallelApply(*method, instance, receivers, {.num_workers = 3});
  ASSERT_TRUE(transient.ok());
  EXPECT_EQ(*seq, *transient);
}

TEST(ParallelApplyGovernanceTest, BudgetExhaustionMidFanOutLeavesInputAlone) {
  PayrollSchema schema = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < 64; ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % 8), std::nullopt});
  }
  for (std::uint32_t s = 0; s < 8; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  Instance instance =
      std::move(BuildPayrollInstance(schema, employees, {}, raises)).value();
  const Instance snapshot = instance;
  auto method = std::move(MakeSalaryFromNewSal(schema)).value();
  std::vector<Receiver> receivers;
  const auto salaries = std::move(ReadSalaries(schema, instance)).value();
  for (auto [id, salary] : salaries) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(schema.emp, id), ObjectId(schema.val, salary)}));
  }

  // First measure the unrestricted cost, then set a budget that trips
  // mid-application (after validation, inside the par(E) evaluation or
  // the edge merge).
  ThreadPool pool(4);
  ExecContext free_ctx;
  ASSERT_TRUE(ParallelApply(*method, instance, receivers,
                            {.ctx = &free_ctx, .num_workers = 4, .pool = &pool})
                  .ok());
  const std::uint64_t full_cost = free_ctx.steps();
  ASSERT_GT(full_cost, 200u);

  ExecContext tight{ExecContext::StepBudget(full_cost / 2)};
  Result<Instance> out =
      ParallelApply(*method, instance, receivers,
                    {.ctx = &tight, .num_workers = 4, .pool = &pool});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  // The input instance is untouched — governance failures never corrupt.
  EXPECT_EQ(instance, snapshot);
  EXPECT_EQ(InstanceToText(instance), InstanceToText(snapshot));
}

TEST(ParallelApplyGovernanceTest, CancellationAbortsTheFanOut) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, 7);
  InstanceGenerator::Options options;
  options.min_objects_per_class = 4;
  options.max_objects_per_class = 6;
  Instance instance = gen.RandomInstance(options);
  auto method = std::move(MakeAddBar(ds)).value();
  std::vector<Receiver> receivers =
      gen.RandomReceiverSet(instance, method->signature(), 8);
  ASSERT_FALSE(receivers.empty());

  ThreadPool pool(2);
  ExecContext ctx;
  ctx.RequestCancel();
  Result<Instance> out =
      ParallelApply(*method, instance, receivers,
                    {.ctx = &ctx, .num_workers = 2, .pool = &pool});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace setrec
