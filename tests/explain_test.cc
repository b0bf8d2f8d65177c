// Tests for the explainable-execution layer: EXPLAIN operator trees (golden
// texts pinned below), EXPLAIN ANALYZE with its worker-count-invariant
// logical counters (the acceptance property: bit-identical at 1/2/8 workers
// on the payroll workload and the 16-seed randomized corpus), and decision
// certificates with their JSONL / text renderings.

#include "obs/explain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/thread_pool.h"
#include "objrel/encoding.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "sql/improve.h"
#include "sql/table.h"
#include "text/printer.h"

namespace setrec {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Serializes everything *logical* about an analyzed plan — per-node rows,
/// build/probe counts and memo hits in preorder, plus the logical counter
/// map — and nothing temporal. Two runs agree exactly when these strings
/// are equal; this is the "bit-identical at any worker count" check.
void AppendLogicalStats(const PlanNode& node, std::string& out) {
  out += node.op + "[" + node.detail + "]" + node.scheme +
         " rows=" + std::to_string(node.actual_rows) +
         " build=" + std::to_string(node.build_rows) +
         " probes=" + std::to_string(node.probe_rows) +
         " hits=" + std::to_string(node.cache_hits) + "\n";
  for (const PlanNode& child : node.children) {
    AppendLogicalStats(child, out);
  }
}

std::string LogicalFingerprint(const ExplainPlan& plan) {
  std::string out;
  for (const PlanNode& root : plan.roots) AppendLogicalStats(root, out);
  for (const auto& [name, value] : plan.counters) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

/// A line of JSONL is usable when it is one object per line with no raw
/// control characters — the property the JsonEscape funnel guarantees.
void ExpectJsonObjectLine(const std::string& line) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character in JSONL line: " << line;
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN golden plans
// ---------------------------------------------------------------------------

TEST(ExplainExpressionTest, JoinChainConditionsAreClassified) {
  // A four-condition σ-chain over a product renders as the single fused
  // HashJoin the evaluator executes, with each condition in its role: the
  // cross equality is the hash key, per-side conditions become build/probe
  // filters, and the cross non-equality is residual.
  Catalog catalog;
  const ClassId k = 1;
  ASSERT_TRUE(catalog
                  .AddRelation("R", std::move(RelationScheme::Make(
                                                  {{"a", k}, {"b", k}}))
                                        .value())
                  .ok());
  ASSERT_TRUE(catalog
                  .AddRelation("S", std::move(RelationScheme::Make(
                                                  {{"c", k}, {"d", k}}))
                                        .value())
                  .ok());
  ExprPtr chain = ra::SelectEq(
      ra::SelectNeq(
          ra::SelectEq(
              ra::SelectNeq(ra::Product(ra::Rel("R"), ra::Rel("S")), "a",
                            "b"),
              "c", "d"),
          "a", "d"),
      "a", "c");
  ExplainPlan plan =
      std::move(ExplainExpression(chain, catalog)).value();
  ASSERT_EQ(plan.roots.size(), 1u);
  const PlanNode& join = plan.roots[0];
  EXPECT_EQ(join.op, "HashJoin");
  EXPECT_EQ(join.detail,
            "keys: a=c; probe filter: a≠b; build filter: c=d; residual: a≠d");
  EXPECT_EQ(join.scheme, "(a, b, c, d)");
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.children[0].op, "Scan R");
  EXPECT_EQ(join.children[1].op, "Scan S");
  EXPECT_FALSE(plan.analyzed);
  EXPECT_TRUE(plan.counters.empty());
}

TEST(ExplainExpressionTest, UnknownRelationFailsLikeInferScheme) {
  Catalog catalog;
  EXPECT_FALSE(ExplainExpression(ra::Rel("Nope"), catalog).ok());
}

class ExplainPayrollTest : public ::testing::Test {
 protected:
  void SetUp() override { ps_ = std::move(MakePayrollSchema()).value(); }

  /// The Section 7 receiver query of update (B): "select EmpId, New from
  /// Employee, NewSal where Salary = Old".
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

  Instance SmallDb() const {
    std::vector<EmployeeRow> employees = {{1, 100, std::nullopt},
                                          {2, 200, std::nullopt},
                                          {3, 100, std::nullopt}};
    std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
    return std::move(BuildPayrollInstance(ps_, employees, {}, raises))
        .value();
  }

  /// The parallel_runtime_test payroll workload: 100 employees over 16
  /// salary levels, each re-salaried through NewSal.
  Instance LargeDb() const {
    std::vector<EmployeeRow> employees;
    std::vector<NewSalRow> raises;
    for (std::uint32_t i = 0; i < 100; ++i) {
      employees.push_back(EmployeeRow{i, 1000 + (i % 16), std::nullopt});
    }
    for (std::uint32_t s = 0; s < 16; ++s) {
      raises.push_back(NewSalRow{1000 + s, 2000 + s});
    }
    return std::move(BuildPayrollInstance(ps_, employees, {}, raises))
        .value();
  }

  std::vector<Receiver> SalaryReceivers(const Instance& instance) const {
    std::vector<Receiver> receivers;
    const auto salaries = std::move(ReadSalaries(ps_, instance)).value();
    for (auto [id, salary] : salaries) {
      receivers.push_back(Receiver::Unchecked(
          {ObjectId(ps_.emp, id), ObjectId(ps_.val, salary)}));
    }
    return receivers;
  }

  PayrollSchema ps_;
};

TEST_F(ExplainPayrollTest, GoldenSetOrientedUpdateB) {
  const Instance db = SmallDb();
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, SalaryUpdateQuery(),
                                   /*analyze=*/false))
                         .value();
  EXPECT_EQ(plan.ToText(),
            "EXPLAIN: set-oriented UPDATE Salary\n"
            "ReceiverQuery [phase 1: evaluated against the pre-statement "
            "state] :: (Emp, New)\n"
            "  -> Project [Emp, New] :: (Emp, New)\n"
            "     -> HashJoin [keys: Salary=Old] :: (Emp, Salary, Old, "
            "New)\n"
            "        -> Scan EmpSalary :: (Emp, Salary)\n"
            "        -> Project [Old, New] :: (Old, New)\n"
            "           -> HashJoin [keys: NS=NS2] :: (NS, Old, NS2, New)\n"
            "              -> Scan NSOld :: (NS, Old)\n"
            "              -> Rename [NS→NS2] :: (NS2, New)\n"
            "                 -> Scan NSNew :: (NS, New)\n"
            "Apply [Salary := arg1 over the receiver key set] :: "
            "(Emp, New)\n")
      << plan.ToText();
}

TEST_F(ExplainPayrollTest, GoldenManagerTwoPhaseQuery) {
  // The end-of-Section-7 improvement of the order-dependent manager
  // variant (C): ImproveCursorUpdate derives the two-phase receiver query
  // that evaluates everything against the pre-statement state. Its plan is
  // the second pinned SQL scenario.
  auto method = std::move(MakeSalaryFromManagersNewSal(ps_)).value();
  ExprPtr mgr_new = std::move(ImproveCursorUpdate(
                                  *method,
                                  /*rec_source=*/
                                  ra::Rename(ra::Project(ra::Rel("Emp"),
                                                         {"Emp"}),
                                             "Emp", "self"),
                                  /*verify=*/false))
                        .value()
                        .receiver_query;
  const Instance db = SmallDb();
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, mgr_new,
                                   /*analyze=*/false))
                         .value();
  const std::string text = plan.ToText();
  // The receiver-free joins (EmpSalary, NewSal) are hoisted out of par(E),
  // so the rec source is joined with them by key, never by self.
  EXPECT_EQ(text, R"golden(EXPLAIN: set-oriented UPDATE Salary
ReceiverQuery [phase 1: evaluated against the pre-statement state] :: (self, New)
  -> Project [self, New] :: (self, New)
     -> HashJoin [keys: Sal2=Old] :: (self, Emp, Manager, Emp2, Sal2, Old, New)
        -> HashJoin [keys: Manager=Emp2] :: (self, Emp, Manager, Emp2, Sal2)
           -> HashJoin [keys: self=Emp] :: (self, Emp, Manager)
              -> Project [self] :: (self)
                 -> Rename [Emp→self] :: (self)
                    -> Project [Emp] :: (Emp)
                       -> Scan Emp :: (Emp)
              -> Scan EmpManager :: (Emp, Manager)
           -> Rename [Salary→Sal2] :: (Emp2, Sal2)
              -> Rename [Emp→Emp2] :: (Emp2, Salary)
                 -> Scan EmpSalary :: (Emp, Salary)
        -> Project [Old, New] :: (Old, New)
           -> HashJoin [keys: NS=NS2] :: (NS, Old, NS2, New)
              -> Scan NSOld :: (NS, Old)
              -> Rename [NS→NS2] :: (NS2, New)
                 -> Scan NSNew :: (NS, New)
Apply [Salary := arg1 over the receiver key set] :: (self, New)
)golden");
}

TEST_F(ExplainPayrollTest, GoldenImprovedSalaryUpdateB) {
  // ImproveCursorUpdate on B′ emits the Section 7 query "select EmpId, New
  // from Employee, NewSal where Salary = Old": the rec source joined by key
  // with the hoisted NewSal join.
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  const ExprPtr rec_source = ra::Rename(
      ra::Rename(ra::Rel("EmpSalary"), "Emp", "self"), "Salary", "arg1");
  ExprPtr query = std::move(ImproveCursorUpdate(*method, rec_source,
                                                /*verify=*/false))
                      .value()
                      .receiver_query;
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   SmallDb(), ps_.salary, query,
                                   /*analyze=*/false))
                         .value();
  EXPECT_EQ(plan.ToText(), R"golden(EXPLAIN: set-oriented UPDATE Salary
ReceiverQuery [phase 1: evaluated against the pre-statement state] :: (self, New)
  -> Project [self, New] :: (self, New)
     -> HashJoin [keys: arg1=Old] :: (self, arg1, Old, New)
        -> Project [self, arg1] :: (self, arg1)
           -> Rename [Salary→arg1] :: (self, arg1)
              -> Rename [Emp→self] :: (self, Salary)
                 -> Scan EmpSalary :: (Emp, Salary)
        -> Project [Old, New] :: (Old, New)
           -> HashJoin [keys: NS=NS2] :: (NS, Old, NS2, New)
              -> Scan NSOld :: (NS, Old)
              -> Rename [NS→NS2] :: (NS2, New)
                 -> Scan NSNew :: (NS, New)
Apply [Salary := arg1 over the receiver key set] :: (self, New)
)golden");
}

TEST_F(ExplainPayrollTest, GoldenParallelApplyPipeline) {
  // The par(E) pipeline (Definition 6.1) of the payroll workload's method:
  // one ParStatement per update statement, the rec relation joined in.
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  ExplainPlan plan = std::move(ExplainParallelApply(*method, SmallDb(), {},
                                                    /*analyze=*/false))
                         .value();
  const std::string text = plan.ToText();
  EXPECT_EQ(plan.roots.size(), method->statements().size());
  ASSERT_FALSE(plan.roots.empty());
  EXPECT_EQ(plan.roots[0].op, "ParStatement");
  EXPECT_EQ(plan.roots[0].detail, "Salary := par(E)");
  // The pipeline reads rec — the receiver relation is what par(E) adds.
  EXPECT_NE(text.find("Scan rec"), std::string::npos) << text;
  // Deterministic: rendering twice pins the same golden text.
  ExplainPlan again = std::move(ExplainParallelApply(*method, SmallDb(), {},
                                                     /*analyze=*/false))
                          .value();
  EXPECT_EQ(text, again.ToText());
}

TEST_F(ExplainPayrollTest, ToJsonIsOneParseableLine) {
  const Instance db = SmallDb();
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, SalaryUpdateQuery(),
                                   /*analyze=*/false))
                         .value();
  const std::string json = plan.ToJson();
  ExpectJsonObjectLine(json);
  EXPECT_NE(json.find("\"op\":\"HashJoin\""), std::string::npos);
  EXPECT_NE(json.find("\"analyzed\":false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE — logical counters, worker-count invariance
// ---------------------------------------------------------------------------

TEST_F(ExplainPayrollTest, AnalyzeSetOrientedUpdateReportsTheRun) {
  const Instance db = LargeDb();
  const std::string before = InstanceToText(db);
  ExplainPlan plan = std::move(ExplainSetOrientedUpdate(
                                   db, ps_.salary, SalaryUpdateQuery(),
                                   /*analyze=*/true))
                         .value();
  // ANALYZE ran on a scratch copy; the caller's instance is untouched.
  EXPECT_EQ(InstanceToText(db), before);

  EXPECT_TRUE(plan.analyzed);
  ASSERT_EQ(plan.roots.size(), 2u);
  const PlanNode& query = plan.roots[0];
  const PlanNode& apply = plan.roots[1];
  EXPECT_TRUE(query.analyzed);
  EXPECT_EQ(query.actual_rows, 100u);  // one (EmpId, New) row per employee
  EXPECT_TRUE(apply.analyzed);
  EXPECT_EQ(apply.actual_rows, 100u);  // one receiver per row

  // The fused join's counts surfaced on its node and in the counter map.
  const PlanNode& join = query.children[0].children[0];
  ASSERT_EQ(join.op, "HashJoin");
  EXPECT_TRUE(join.analyzed);
  EXPECT_EQ(join.probe_rows, 100u);  // probe side: EmpSalary
  EXPECT_EQ(join.build_rows, 16u);   // build side: the (Old, New) pairs
  EXPECT_EQ(plan.counters.at("sequential.receivers"), 100u);
  // The set-oriented path applies sequentially; the dependency-graph
  // counter belongs to the parallel runtime and stays zero here.
  EXPECT_EQ(plan.counters.at("apply.edges"), 0u);
  EXPECT_GT(plan.counters.at("evaluator.rows"), 0u);
  EXPECT_GT(plan.counters.at("evaluator.join_probes"), 0u);
  EXPECT_GT(plan.counters.at("evaluator.join_build_rows"), 0u);
  // Every logical counter is present (zero-valued ones included).
  for (const std::string& name : LogicalCounterNames()) {
    EXPECT_EQ(plan.counters.count(name), 1u) << name;
  }
}

TEST_F(ExplainPayrollTest, AnalyzeCountersAreWorkerCountInvariant) {
  const Instance db = LargeDb();
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  const std::vector<Receiver> receivers = SalaryReceivers(db);
  ASSERT_GE(receivers.size(), 100u);

  ExplainPlan base = std::move(ExplainParallelApply(*method, db, receivers,
                                                    /*analyze=*/true))
                         .value();
  EXPECT_GT(base.counters.at("evaluator.rows"), 0u);
  const std::string fingerprint = LogicalFingerprint(base);

  ThreadPool pool(4);
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    ExecOptions options;
    options.num_workers = workers;
    options.pool = &pool;
    ExplainPlan sharded =
        std::move(ExplainParallelApply(*method, db, receivers,
                                       /*analyze=*/true, options))
            .value();
    EXPECT_EQ(fingerprint, LogicalFingerprint(sharded))
        << "logical counters drifted at " << workers << " workers";
  }

  // The same invariance through the set-oriented UPDATE entry point.
  ExplainPlan update_base =
      std::move(ExplainSetOrientedUpdate(db, ps_.salary, SalaryUpdateQuery(),
                                         /*analyze=*/true))
          .value();
  for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    ExecOptions options;
    options.num_workers = workers;
    options.pool = &pool;
    ExplainPlan sharded = std::move(ExplainSetOrientedUpdate(
                                        db, ps_.salary, SalaryUpdateQuery(),
                                        /*analyze=*/true, options))
                              .value();
    EXPECT_EQ(LogicalFingerprint(update_base), LogicalFingerprint(sharded))
        << "UPDATE counters drifted at " << workers << " workers";
  }
}

TEST_F(ExplainPayrollTest, AnalyzeRejectsWhatParallelApplyRejects) {
  // Employee 7 is not in the instance: ParallelApply refuses the receiver,
  // and ANALYZE must refuse it the same way instead of analyzing a run that
  // never executes.
  const Instance db = SmallDb();
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  std::vector<Receiver> receivers = SalaryReceivers(db);
  receivers.push_back(Receiver::Unchecked(
      {ObjectId(ps_.emp, 7), ObjectId(ps_.val, 100)}));
  const Status applied =
      ParallelApply(*method, db, receivers, ExecOptions{}).status();
  const Status analyzed =
      ExplainParallelApply(*method, db, receivers, /*analyze=*/true).status();
  ASSERT_EQ(applied.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(analyzed.code(), applied.code());
  EXPECT_EQ(analyzed.message(), applied.message());
}

TEST_F(ExplainPayrollTest, AnalyzeCountersEqualParallelApplys) {
  const Instance db = LargeDb();
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  const std::vector<Receiver> receivers = SalaryReceivers(db);
  ThreadPool pool(4);
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    MetricsRegistry metrics;
    ExecOptions options;
    options.metrics = &metrics;
    options.num_workers = workers;
    options.pool = &pool;
    ASSERT_TRUE(ParallelApply(*method, db, receivers, options).ok());
    ExecOptions explain_options;
    explain_options.num_workers = workers;
    explain_options.pool = &pool;
    ExplainPlan plan = std::move(ExplainParallelApply(*method, db, receivers,
                                                      /*analyze=*/true,
                                                      explain_options))
                           .value();
    EXPECT_EQ(plan.counters, LogicalCounters(metrics))
        << "at " << workers << " workers";
    EXPECT_EQ(plan.counters.at("apply.edges"), receivers.size());
  }
}

TEST(ExplainAnalyzeTest, PartitionedProbeKeepsLogicalCountsExact) {
  // A 2,048-row probe side analyzed with and without an 8-worker pool. The
  // evaluator probes on the calling thread either way (no pool partitions
  // it), so the pooled run must charge exactly the same logical counts.
  const ClassId k = 1;
  Relation r(std::move(RelationScheme::Make({{"a", k}, {"b", k}})).value());
  for (std::uint32_t i = 0; i < 2048; ++i) {
    ASSERT_TRUE(r.Insert(Tuple({ObjectId(k, i), ObjectId(k, i % 64)})).ok());
  }
  Relation s(std::move(RelationScheme::Make({{"c", k}, {"d", k}})).value());
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        s.Insert(Tuple({ObjectId(k, i), ObjectId(k, 4096 + i)})).ok());
  }
  Database db;
  db.Put("R", std::move(r));
  db.Put("S", std::move(s));
  const ExprPtr join = ra::JoinEq(ra::Rel("R"), ra::Rel("S"), "b", "c");

  ExplainPlan base = std::move(ExplainExpressionAnalyze(join, db)).value();
  ASSERT_EQ(base.roots.size(), 1u);
  EXPECT_EQ(base.roots[0].op, "HashJoin");
  EXPECT_EQ(base.roots[0].probe_rows, 2048u);
  EXPECT_EQ(base.roots[0].build_rows, 64u);
  EXPECT_EQ(base.roots[0].actual_rows, 2048u);
  EXPECT_EQ(base.counters.at("evaluator.join_probes"), 2048u);
  EXPECT_EQ(base.counters.at("evaluator.join_build_rows"), 64u);

  ThreadPool pool(8);
  ExecOptions options;
  options.num_workers = 8;
  options.pool = &pool;
  ExplainPlan parallel =
      std::move(ExplainExpressionAnalyze(join, db, options)).value();
  EXPECT_EQ(LogicalFingerprint(base), LogicalFingerprint(parallel));
}

/// Every node's operator and backend, in preorder.
std::vector<std::string> Backends(const PlanNode& node) {
  std::vector<std::string> out{node.op + ": " + node.backend};
  for (const PlanNode& child : node.children) {
    for (std::string& line : Backends(child)) out.push_back(std::move(line));
  }
  return out;
}

TEST(ExplainAnalyzeTest, PoolDoesNotChangeTheAutoBackend) {
  // Inputs past kAuto's vectorization threshold, analyzed with and without
  // a 4-worker pool: nothing reads the pool, so kAuto picks the same backend
  // for every node and the logical counts agree.
  const ClassId k = 1;
  Relation r(std::move(RelationScheme::Make({{"a", k}, {"b", k}})).value());
  for (std::uint32_t i = 0; i < 8192; ++i) {
    ASSERT_TRUE(r.Insert(Tuple({ObjectId(k, i), ObjectId(k, i % 64)})).ok());
  }
  Relation s(std::move(RelationScheme::Make({{"c", k}, {"d", k}})).value());
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        s.Insert(Tuple({ObjectId(k, i), ObjectId(k, 8192 + i)})).ok());
  }
  Database db;
  db.Put("R", std::move(r));
  db.Put("S", std::move(s));
  ASSERT_GE(8192u + 64u, Evaluator::kAutoVectorizeInputRows);
  const ExprPtr join = ra::JoinEq(ra::Rel("R"), ra::Rel("S"), "b", "c");

  ExplainPlan plain = std::move(ExplainExpressionAnalyze(join, db)).value();
  ASSERT_EQ(plain.roots.size(), 1u);
  EXPECT_EQ(plain.roots[0].op, "HashJoin");
  EXPECT_EQ(plain.roots[0].actual_rows, 8192u);

  ThreadPool pool(4);
  ExecOptions options;
  options.num_workers = 4;
  options.pool = &pool;
  ExplainPlan pooled =
      std::move(ExplainExpressionAnalyze(join, db, options)).value();
  ASSERT_EQ(pooled.roots.size(), 1u);
  EXPECT_EQ(Backends(plain.roots[0]), Backends(pooled.roots[0]));
  EXPECT_EQ(LogicalFingerprint(plain), LogicalFingerprint(pooled));
}

TEST(ExplainAnalyzeTest, BoundDatabasesShowIndexBuilds) {
  // 4,096 drinkers with two bars each: Df alone passes kAuto's threshold.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  Instance instance(&ds.schema);
  for (std::uint32_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(instance.AddObject(ObjectId(ds.bar, b)).ok());
  }
  for (std::uint32_t d = 0; d < 4096; ++d) {
    const ObjectId drinker(ds.drinker, d);
    ASSERT_TRUE(instance.AddObject(drinker).ok());
    for (std::uint32_t b : {d % 64, (d + 1) % 64}) {
      ASSERT_TRUE(
          instance.AddEdge(drinker, ds.frequents, ObjectId(ds.bar, b)).ok());
    }
  }
  const auto add_bar = std::move(MakeAddBar(ds)).value();
  const MethodContext& context = add_bar->context();
  const ExprPtr& f = add_bar->statements()[0].expression;
  const Receiver t =
      Receiver::Unchecked({ObjectId(ds.drinker, 7), ObjectId(ds.bar, 9)});

  // Bound: the join reads drinker 7's two Df rows by index, and kAuto,
  // which counts only what the plan loads, keeps the interpreter.
  Database bound = std::move(BindInstance(instance, context.catalog,
                                          add_bar->ReadRelations()))
                       .value();
  ASSERT_TRUE(InstallReceiverRelations(bound, context, t, false).ok());
  const ExplainPlan indexed =
      std::move(ExplainExpressionAnalyze(f, bound)).value();
  EXPECT_NE(indexed.ToText().find(
                "-> HashJoin [keys: self=D; build: index Df.D] :: (self, D, "
                "f) (rows=2 build=2 probes=1 backend=interpreter "),
            std::string::npos)
      << indexed.ToText();
  EXPECT_EQ(indexed.counters.at("evaluator.join_build_rows"), 2u);

  // Encoded: the same join builds its table from all of Df, on the engine
  // kAuto picks for 8,192 input rows.
  Database encoded =
      std::move(EncodeInstance(instance, add_bar->ReadRelations())).value();
  ASSERT_TRUE(InstallReceiverRelations(encoded, context, t, false).ok());
  const ExplainPlan hashed =
      std::move(ExplainExpressionAnalyze(f, encoded)).value();
  EXPECT_NE(hashed.ToText().find("-> HashJoin [keys: self=D] :: (self, D, f) "
                                 "(rows=2 build=8192 probes=1 "
                                 "backend=vectorized "),
            std::string::npos)
      << hashed.ToText();
  EXPECT_EQ(hashed.counters.at("evaluator.rows"),
            indexed.counters.at("evaluator.rows"));
  EXPECT_EQ(hashed.counters.at("evaluator.join_probes"),
            indexed.counters.at("evaluator.join_probes"));

  // A catalog-lowered plan never shows an index build.
  const ExplainPlan plain =
      std::move(ExplainExpression(f, context.catalog)).value();
  EXPECT_EQ(plain.ToText().find("index"), std::string::npos);
}

/// The 16-seed corpus of parallel_runtime_test, re-run through EXPLAIN
/// ANALYZE: for every drinkers method and random receiver set, the logical
/// fingerprint at 2 and 8 workers equals the single-worker one.
class ExplainSeededCorpusTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExplainSeededCorpusTest, CountersAreWorkerCountInvariant) {
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
    ExplainPlan base = std::move(ExplainParallelApply(*method, instance,
                                                      receivers,
                                                      /*analyze=*/true))
                           .value();
    const std::string fingerprint = LogicalFingerprint(base);
    for (std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
      ExecOptions opts;
      opts.num_workers = workers;
      opts.pool = &pool;
      ExplainPlan sharded =
          std::move(ExplainParallelApply(*method, instance, receivers,
                                         /*analyze=*/true, opts))
              .value();
      EXPECT_EQ(fingerprint, LogicalFingerprint(sharded))
          << method->name() << " drifted at " << workers << " workers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplainSeededCorpusTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Decision certificates
// ---------------------------------------------------------------------------

TEST(CertificateTest, AddBarCertificateRecordsEveryContainedTest) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  DecisionCertificate cert =
      std::move(DecideOrderIndependenceCertified(
                    *add_bar, OrderIndependenceKind::kAbsolute))
          .value();
  EXPECT_TRUE(cert.order_independent);
  EXPECT_EQ(cert.method_name, add_bar->name());
  // Two directions per updated property, all contained, each with its
  // budget accounting.
  ASSERT_EQ(cert.tests.size(), 2 * cert.report.properties.size());
  ASSERT_FALSE(cert.tests.empty());
  for (std::size_t i = 0; i < cert.tests.size(); ++i) {
    const ContainmentCertificate& t = cert.tests[i];
    EXPECT_EQ(t.direction, i % 2 == 0 ? "tt⊆ts" : "ts⊆tt");
    EXPECT_TRUE(t.contained);
    EXPECT_TRUE(t.counterexample.empty());
    EXPECT_GE(t.containment_tests, 1u);
    EXPECT_GT(t.steps, 0u);
  }
  // The certified verdict agrees with the plain decision procedure.
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *add_bar, OrderIndependenceKind::kAbsolute))
                  .value());
}

TEST(CertificateTest, FavoriteBarRefutationNamesItsCounterexample) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  DecisionCertificate cert =
      std::move(DecideOrderIndependenceCertified(
                    *favorite, OrderIndependenceKind::kAbsolute))
          .value();
  EXPECT_FALSE(cert.order_independent);
  bool refuted = false;
  for (const ContainmentCertificate& t : cert.tests) {
    if (t.contained) {
      EXPECT_TRUE(t.counterexample.empty());
      continue;
    }
    refuted = true;
    // The refutation carries the witness and the canonical database.
    EXPECT_NE(t.counterexample.find("witness"), std::string::npos)
        << t.counterexample;
    EXPECT_NE(t.counterexample.find("canonical database"), std::string::npos);
  }
  EXPECT_TRUE(refuted);

  // Key-order independence of the same method holds, and its certificate
  // says so with every test contained.
  DecisionCertificate key_cert =
      std::move(DecideOrderIndependenceCertified(
                    *favorite, OrderIndependenceKind::kKeyOrder))
          .value();
  EXPECT_TRUE(key_cert.order_independent);
  for (const ContainmentCertificate& t : key_cert.tests) {
    EXPECT_TRUE(t.contained);
  }
}

TEST(CertificateTest, JsonlAndTextRenderingsAreParseable) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  DecisionCertificate cert =
      std::move(DecideOrderIndependenceCertified(
                    *favorite, OrderIndependenceKind::kAbsolute))
          .value();

  std::ostringstream out;
  WriteCertificateJsonl(cert, out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ExpectJsonObjectLine(line);
    if (count == 0) {
      EXPECT_NE(line.find("\"type\":\"decision-certificate\""),
                std::string::npos);
      EXPECT_NE(line.find("\"order_independent\":false"), std::string::npos);
      EXPECT_NE(line.find("\"kind\":\"absolute\""), std::string::npos);
    } else {
      EXPECT_NE(line.find("\"type\":\"containment-test\""),
                std::string::npos);
    }
    ++count;
  }
  EXPECT_EQ(count, 1 + cert.tests.size());

  const std::string text = CertificateToText(cert);
  EXPECT_NE(text.find("NOT ORDER INDEPENDENT"), std::string::npos);
  EXPECT_NE(text.find("REFUTED"), std::string::npos);
  EXPECT_NE(text.find(favorite->name()), std::string::npos);
}

TEST(CertificateTest, NonPositiveMethodsAreRejected) {
  // The footnote-8 parity gadget uses difference, so Theorem 5.12's
  // decision procedure (and hence its certificate) does not apply.
  PairSchema s = std::move(MakePairSchema()).value();
  auto parity = std::move(MakeParityMethod(s)).value();
  ASSERT_FALSE(parity->IsPositiveMethod());
  EXPECT_EQ(DecideOrderIndependenceCertified(
                *parity, OrderIndependenceKind::kAbsolute)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// The Theorem 5.12 certificates of the ten E13 method/kind pairs, pinned
/// byte for byte: verdicts, per-test steps, chase rounds, homomorphism
/// candidates and counterexample texts. Any change to the containment
/// search (its order, its checkpoints, its counters) shows up here.
constexpr char kE13Certificates[] = R"golden({"type":"decision-certificate","method":"add_bar","kind":"absolute","order_independent":true,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"f","direction":"tt⊆ts","contained":true,"steps":841,"containment_tests":1,"chase_rounds":105,"hom_candidates":395,"counterexample":""}
{"type":"containment-test","property":0,"property_name":"f","direction":"ts⊆tt","contained":true,"steps":844,"containment_tests":1,"chase_rounds":104,"hom_candidates":400,"counterexample":""}
{"type":"decision-certificate","method":"add_bar","kind":"key-order","order_independent":true,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"f","direction":"tt⊆ts","contained":true,"steps":395,"containment_tests":1,"chase_rounds":64,"hom_candidates":144,"counterexample":""}
{"type":"containment-test","property":0,"property_name":"f","direction":"ts⊆tt","contained":true,"steps":390,"containment_tests":1,"chase_rounds":63,"hom_candidates":141,"counterexample":""}
{"type":"decision-certificate","method":"favorite_bar","kind":"absolute","order_independent":false,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"f","direction":"tt⊆ts","contained":false,"steps":314,"containment_tests":1,"chase_rounds":50,"hom_candidates":100,"counterexample":"witness (c0#0, c1#1) produced by the left query only; canonical database:\n  Ba = {(c1#1), (c1#2)}\n  D = {(c0#0)}\n  arg1 = {(c1#2)}\n  arg1' = {(c1#1)}\n  self = {(c0#0)}\n  self' = {(c0#0)}\n"}
{"type":"containment-test","property":0,"property_name":"f","direction":"ts⊆tt","contained":false,"steps":319,"containment_tests":1,"chase_rounds":50,"hom_candidates":105,"counterexample":"witness (c0#0, c1#1) produced by the left query only; canonical database:\n  Ba = {(c1#1), (c1#2)}\n  D = {(c0#0)}\n  arg1 = {(c1#1)}\n  arg1' = {(c1#2)}\n  self = {(c0#0)}\n  self' = {(c0#0)}\n"}
{"type":"decision-certificate","method":"favorite_bar","kind":"key-order","order_independent":true,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"f","direction":"tt⊆ts","contained":true,"steps":183,"containment_tests":1,"chase_rounds":30,"hom_candidates":58,"counterexample":""}
{"type":"containment-test","property":0,"property_name":"f","direction":"ts⊆tt","contained":true,"steps":182,"containment_tests":1,"chase_rounds":30,"hom_candidates":57,"counterexample":""}
{"type":"decision-certificate","method":"delete_bar","kind":"absolute","order_independent":true,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"f","direction":"tt⊆ts","contained":true,"steps":511,"containment_tests":1,"chase_rounds":66,"hom_candidates":250,"counterexample":""}
{"type":"containment-test","property":0,"property_name":"f","direction":"ts⊆tt","contained":true,"steps":509,"containment_tests":1,"chase_rounds":66,"hom_candidates":248,"counterexample":""}
{"type":"decision-certificate","method":"likes_serves_bar","kind":"absolute","order_independent":true,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"f","direction":"tt⊆ts","contained":true,"steps":328,"containment_tests":1,"chase_rounds":58,"hom_candidates":118,"counterexample":""}
{"type":"containment-test","property":0,"property_name":"f","direction":"ts⊆tt","contained":true,"steps":320,"containment_tests":1,"chase_rounds":58,"hom_candidates":110,"counterexample":""}
{"type":"decision-certificate","method":"copy_extend","kind":"absolute","order_independent":false,"properties":2,"tests":4}
{"type":"containment-test","property":0,"property_name":"a","direction":"tt⊆ts","contained":false,"steps":945,"containment_tests":1,"chase_rounds":115,"hom_candidates":365,"counterexample":"witness (c0#0, c0#0) produced by the left query only; canonical database:\n  C = {(c0#0), (c0#1)}\n  arg1 = {(c0#0)}\n  arg1' = {(c0#1)}\n  arg2 = {(c0#0)}\n  arg2' = {(c0#0)}\n  self = {(c0#0)}\n  self' = {(c0#0)}\n"}
{"type":"containment-test","property":0,"property_name":"a","direction":"ts⊆tt","contained":false,"steps":939,"containment_tests":1,"chase_rounds":114,"hom_candidates":361,"counterexample":"witness (c0#0, c0#0) produced by the left query only; canonical database:\n  C = {(c0#0), (c0#1)}\n  arg1 = {(c0#1)}\n  arg1' = {(c0#0)}\n  arg2 = {(c0#0)}\n  arg2' = {(c0#0)}\n  self = {(c0#0)}\n  self' = {(c0#0)}\n"}
{"type":"containment-test","property":1,"property_name":"b","direction":"tt⊆ts","contained":true,"steps":8660,"containment_tests":1,"chase_rounds":172,"hom_candidates":5578,"counterexample":""}
{"type":"containment-test","property":1,"property_name":"b","direction":"ts⊆tt","contained":true,"steps":8894,"containment_tests":1,"chase_rounds":171,"hom_candidates":5814,"counterexample":""}
{"type":"decision-certificate","method":"copy_extend","kind":"key-order","order_independent":true,"properties":2,"tests":4}
{"type":"containment-test","property":0,"property_name":"a","direction":"tt⊆ts","contained":true,"steps":317,"containment_tests":1,"chase_rounds":51,"hom_candidates":82,"counterexample":""}
{"type":"containment-test","property":0,"property_name":"a","direction":"ts⊆tt","contained":true,"steps":315,"containment_tests":1,"chase_rounds":50,"hom_candidates":82,"counterexample":""}
{"type":"containment-test","property":1,"property_name":"b","direction":"tt⊆ts","contained":true,"steps":529,"containment_tests":1,"chase_rounds":74,"hom_candidates":182,"counterexample":""}
{"type":"containment-test","property":1,"property_name":"b","direction":"ts⊆tt","contained":true,"steps":524,"containment_tests":1,"chase_rounds":73,"hom_candidates":179,"counterexample":""}
{"type":"decision-certificate","method":"set_salary","kind":"key-order","order_independent":true,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"Salary","direction":"tt⊆ts","contained":true,"steps":243,"containment_tests":1,"chase_rounds":34,"hom_candidates":70,"counterexample":""}
{"type":"containment-test","property":0,"property_name":"Salary","direction":"ts⊆tt","contained":true,"steps":242,"containment_tests":1,"chase_rounds":34,"hom_candidates":69,"counterexample":""}
{"type":"decision-certificate","method":"set_salary_from_manager","kind":"key-order","order_independent":false,"properties":1,"tests":2}
{"type":"containment-test","property":0,"property_name":"Salary","direction":"tt⊆ts","contained":false,"steps":204,"containment_tests":1,"chase_rounds":21,"hom_candidates":99,"counterexample":"witness (c0#0, c1#1) produced by the left query only; canonical database:\n  Emp = {(c0#0), (c0#2)}\n  EmpManager = {(c0#0, c0#2)}\n  EmpSalary = {(c0#2, c1#1)}\n  NS = {(c2#3)}\n  NSNew = {(c2#3, c1#1)}\n  NSOld = {(c2#3, c1#1)}\n  Val = {(c1#1)}\n  self = {(c0#0)}\n  self' = {(c0#2)}\n"}
{"type":"containment-test","property":0,"property_name":"Salary","direction":"ts⊆tt","contained":false,"steps":194,"containment_tests":1,"chase_rounds":21,"hom_candidates":90,"counterexample":"witness (c0#0, c1#1) produced by the left query only; canonical database:\n  Emp = {(c0#0), (c0#2)}\n  EmpManager = {(c0#0, c0#2)}\n  EmpSalary = {(c0#2, c1#1)}\n  NS = {(c2#3)}\n  NSNew = {(c2#3, c1#1)}\n  NSOld = {(c2#3, c1#1)}\n  Val = {(c1#1)}\n  self = {(c0#2)}\n  self' = {(c0#0)}\n"}
)golden";

TEST(CertificateTest, E13CertificatesArePinnedByteForByte) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  PairSchema pairs = std::move(MakePairSchema()).value();
  PayrollSchema payroll = std::move(MakePayrollSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  auto favorite_bar = std::move(MakeFavoriteBar(ds)).value();
  auto delete_bar = std::move(MakeDeleteBar(ds)).value();
  auto likes_serves = std::move(MakeLikesServesBar(ds)).value();
  auto copy_extend = std::move(MakeCopyExtendMethod(pairs)).value();
  auto payroll_b = std::move(MakeSalaryFromNewSal(payroll)).value();
  auto payroll_c = std::move(MakeSalaryFromManagersNewSal(payroll)).value();
  constexpr auto kAbs = OrderIndependenceKind::kAbsolute;
  constexpr auto kKey = OrderIndependenceKind::kKeyOrder;
  const std::vector<std::pair<const AlgebraicUpdateMethod*,
                              OrderIndependenceKind>>
      cases = {{add_bar.get(), kAbs},      {add_bar.get(), kKey},
               {favorite_bar.get(), kAbs}, {favorite_bar.get(), kKey},
               {delete_bar.get(), kAbs},   {likes_serves.get(), kAbs},
               {copy_extend.get(), kAbs},  {copy_extend.get(), kKey},
               {payroll_b.get(), kKey},    {payroll_c.get(), kKey}};
  std::ostringstream out;
  for (const auto& [method, kind] : cases) {
    Result<DecisionCertificate> cert =
        DecideOrderIndependenceCertified(*method, kind);
    ASSERT_TRUE(cert.ok()) << cert.status().ToString();
    WriteCertificateJsonl(*cert, out);
  }
  EXPECT_EQ(out.str(), kE13Certificates);
}

}  // namespace
}  // namespace setrec
