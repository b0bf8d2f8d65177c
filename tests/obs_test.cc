// Tests for the observability layer (src/obs/) and the unified ExecOptions
// surface: span recording and parentage across Fork() fan-outs, metric
// counters under concurrency (the TSan target), determinism of the
// worker-count-invariant instruments across 1/2/8 workers, the ExecScope
// attach/detach contract, the commit-hook veto path of the ExecOptions SQL
// overloads, and the memoized Relation::SortedTuples view.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/exec_options.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/builder.h"
#include "relational/relation.h"
#include "sql/engine.h"
#include "sql/table.h"

namespace setrec {
namespace {

// -- Spans and the tracer ----------------------------------------------------

TEST(TraceSpanTest, NullTracerSpanIsInert) {
  TraceSpan none;
  EXPECT_FALSE(none.active());
  TraceSpan null_tracer(nullptr, "ignored");
  EXPECT_FALSE(null_tracer.active());
  null_tracer.End();  // idempotent no-op
  EXPECT_EQ(null_tracer.id(), 0u);
}

TEST(TracerTest, RecordsNestedSpansWithParentage) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "outer");
    EXPECT_EQ(tracer.CurrentSpanId(), outer.id());
    {
      TraceSpan inner(&tracer, "inner");
      EXPECT_EQ(tracer.CurrentSpanId(), inner.id());
    }
    EXPECT_EQ(tracer.CurrentSpanId(), outer.id());
  }
  EXPECT_EQ(tracer.CurrentSpanId(), 0u);

  const std::vector<SpanEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(tracer.total_spans(), 2u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  // Events are ordered by start time: outer starts first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_LE(events[1].dur_ns, events[0].dur_ns);
}

TEST(TracerTest, ParentHintRootsForkedThreads) {
  // A worker thread has no open span of its own; its first span must attach
  // under the span that forked it, via the hint Fork() captured.
  Tracer tracer;
  std::uint64_t fanout_id = 0;
  {
    TraceSpan fanout(&tracer, "fanout");
    fanout_id = fanout.id();
    ExecContext parent;
    parent.set_tracer(&tracer);
    ExecContext child = parent.Fork();
    EXPECT_EQ(child.trace_parent(), fanout_id);
    std::thread worker([&child] {
      TraceSpan shard = StartSpan(child, "shard");
      (void)shard;
    });
    worker.join();
  }
  for (const SpanEvent& e : tracer.Events()) {
    if (std::string_view(e.name) == "shard") {
      EXPECT_EQ(e.parent, fanout_id);
      return;
    }
  }
  FAIL() << "shard span not recorded";
}

TEST(TracerTest, StageTotalsAggregateAcrossSpans) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    TraceSpan s(&tracer, "stage-a");
  }
  { TraceSpan s(&tracer, "stage-b"); }
  const auto totals = tracer.StageTotals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals.at("stage-a").count, 3u);
  EXPECT_EQ(totals.at("stage-b").count, 1u);
}

TEST(TracerTest, TreeSignatureDedupsIdenticalSiblings) {
  // 1 shard span vs 3 structurally identical ones: same signature — that is
  // the worker-count invariance the determinism tests lean on.
  const auto build = [](int shards) {
    auto tracer = std::make_unique<Tracer>();
    TraceSpan apply(tracer.get(), "apply");
    for (int i = 0; i < shards; ++i) {
      TraceSpan shard(tracer.get(), "shard");
      TraceSpan eval(tracer.get(), "eval");
    }
    return tracer;
  };
  const auto one = build(1);
  const auto three = build(3);
  EXPECT_EQ(one->TreeSignature(), three->TreeSignature());
  EXPECT_NE(one->TreeSignature(), "");
  // A structurally different tree signs differently.
  Tracer other;
  { TraceSpan apply(&other, "apply"); }
  EXPECT_NE(other.TreeSignature(), one->TreeSignature());
}

TEST(TracerTest, ChromeTraceAndSummaryAreWellFormed) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "outer");
    TraceSpan inner(&tracer, "inner");
  }
  std::ostringstream chrome;
  tracer.WriteChromeTrace(chrome);
  const std::string json = chrome.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);

  std::ostringstream summary;
  tracer.WriteSummary(summary);
  EXPECT_NE(summary.str().find("outer"), std::string::npos);
  EXPECT_NE(summary.str().find("inner"), std::string::npos);
}

// -- Metrics -----------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterUpdatesAreExact) {
  // The TSan target: engine counters and named instruments hammered from
  // many threads must race-free and lose nothing.
  MetricsRegistry registry;
  Counter& named = registry.CounterNamed("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &named] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.engine.eval_rows.Add(1);
        registry.engine.shard_merge_ns.Observe(static_cast<std::uint64_t>(i));
        named.Add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(registry.engine.eval_rows.value(), expected);
  EXPECT_EQ(registry.engine.shard_merge_ns.count(), expected);
  EXPECT_EQ(named.value(), expected);
}

TEST(MetricsTest, NamedInstrumentsAreStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.CounterNamed("x");
  Counter& b = registry.CounterNamed("x");
  EXPECT_EQ(&a, &b);
  a.Add(2);
  EXPECT_EQ(b.value(), 2u);
  Gauge& g = registry.GaugeNamed("depth");
  g.Set(-3);
  EXPECT_EQ(registry.GaugeNamed("depth").value(), -3);
}

TEST(MetricsTest, SnapshotAndTextCoverEngineInstruments) {
  MetricsRegistry registry;
  registry.engine.chase_rounds.Add(5);
  registry.engine.commit_ns.Observe(1000);
  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  ASSERT_TRUE(snap.counters.contains("chase.rounds"));
  EXPECT_EQ(snap.counters.at("chase.rounds"), 5u);
  ASSERT_TRUE(snap.histograms.contains("store.commit_ns"));
  EXPECT_EQ(snap.histograms.at("store.commit_ns").count, 1u);
  EXPECT_EQ(snap.histograms.at("store.commit_ns").sum, 1000u);

  std::ostringstream text;
  registry.WriteText(text);
  EXPECT_NE(text.str().find("chase.rounds 5"), std::string::npos);
}

TEST(MetricsTest, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 0u);
  EXPECT_EQ(Histogram::BucketOf(2), 1u);
  EXPECT_EQ(Histogram::BucketOf(3), 1u);
  EXPECT_EQ(Histogram::BucketOf(4), 2u);
  EXPECT_EQ(Histogram::BucketOf(1024), 10u);
  Histogram h;
  h.Observe(4);
  h.Observe(5);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 9u);
}

// -- ExecOptions / ExecScope -------------------------------------------------

TEST(ExecOptionsTest, ScopeAttachesSinksToBorrowedContextAndDetaches) {
  Tracer tracer;
  MetricsRegistry metrics;
  ExecContext ctx;
  ExecOptions options;
  options.ctx = &ctx;
  options.tracer = &tracer;
  options.metrics = &metrics;
  {
    ExecScope scope(options);
    EXPECT_EQ(&scope.ctx(), &ctx);
    EXPECT_EQ(ctx.tracer(), &tracer);
    EXPECT_EQ(ctx.metrics(), &metrics);
  }
  // The borrowed context is returned exactly as it came.
  EXPECT_EQ(ctx.tracer(), nullptr);
  EXPECT_EQ(ctx.metrics(), nullptr);
}

TEST(ExecOptionsTest, ScopeKeepsAnExistingAttachment) {
  Tracer own;
  Tracer offered;
  ExecContext ctx;
  ctx.set_tracer(&own);
  ExecOptions options;
  options.ctx = &ctx;
  options.tracer = &offered;
  {
    ExecScope scope(options);
    EXPECT_EQ(ctx.tracer(), &own);  // the context's attachment wins
  }
  EXPECT_EQ(ctx.tracer(), &own);  // and is not detached on exit
}

TEST(ExecOptionsTest, ScopeMaterializesAFreshContextWhenNoneGiven) {
  Tracer tracer;
  ExecOptions options;
  options.tracer = &tracer;
  ExecScope scope(options);
  EXPECT_EQ(scope.ctx().tracer(), &tracer);
  EXPECT_FALSE(scope.ctx().limited());
}

// -- Payroll workload helpers ------------------------------------------------

struct PayrollWorkload {
  PayrollSchema schema;
  Instance instance;
  std::unique_ptr<AlgebraicUpdateMethod> method;
  std::vector<Receiver> receivers;

  PayrollWorkload() : instance(&schema.schema) {}
};

PayrollWorkload BuildPayroll(std::uint32_t n_employees) {
  PayrollWorkload w;
  w.schema = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < n_employees; ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % 8), std::nullopt});
  }
  for (std::uint32_t s = 0; s < 8; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  w.instance =
      std::move(BuildPayrollInstance(w.schema, employees, {}, raises)).value();
  w.method = std::move(MakeSalaryFromNewSal(w.schema)).value();
  const auto salaries = std::move(ReadSalaries(w.schema, w.instance)).value();
  for (auto [id, salary] : salaries) {
    w.receivers.push_back(Receiver::Unchecked(
        {ObjectId(w.schema.emp, id), ObjectId(w.schema.val, salary)}));
  }
  return w;
}

/// Schema of an ObservedRun before a run assigns its instance (an Instance
/// needs a schema; a null one trips its assert in Debug builds).
const Schema& PlaceholderSchema() {
  static const Schema* schema = new Schema();
  return *schema;
}

struct ObservedRun {
  Instance out;
  std::uint64_t eval_rows = 0;
  std::uint64_t apply_edges = 0;
  std::string tree_signature;

  ObservedRun() : out(&PlaceholderSchema()) {}
};

ObservedRun RunParallelObserved(const PayrollWorkload& w,
                                std::size_t num_workers) {
  Tracer tracer;
  MetricsRegistry metrics;
  ExecContext ctx;
  ExecOptions options;
  options.ctx = &ctx;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.num_workers = num_workers;
  ObservedRun run;
  run.out = std::move(ParallelApply(*w.method, w.instance, w.receivers,
                                    options))
                .value();
  run.eval_rows = metrics.engine.eval_rows.value();
  run.apply_edges = metrics.engine.apply_edges.value();
  run.tree_signature = tracer.TreeSignature();
  return run;
}

// -- Determinism of the observed quantities across worker counts -------------

TEST(ObsDeterminismTest, PayrollInvariantsAcross128Workers) {
  const PayrollWorkload w = BuildPayroll(48);
  ASSERT_FALSE(w.receivers.empty());
  const ObservedRun one = RunParallelObserved(w, 1);
  const ObservedRun two = RunParallelObserved(w, 2);
  const ObservedRun eight = RunParallelObserved(w, 8);
  // Same answer (par(E) decomposes along the self slices) ...
  EXPECT_TRUE(two.out == one.out);
  EXPECT_TRUE(eight.out == one.out);
  // ... same worker-count-invariant counters (rows flowing through the
  // probes and edges applied at the merge do not depend on sharding) ...
  EXPECT_EQ(two.eval_rows, one.eval_rows);
  EXPECT_EQ(eight.eval_rows, one.eval_rows);
  EXPECT_EQ(two.apply_edges, one.apply_edges);
  EXPECT_EQ(eight.apply_edges, one.apply_edges);
  EXPECT_GT(one.apply_edges, 0u);
  // ... and the same span tree modulo timestamps and sibling multiplicity.
  EXPECT_EQ(two.tree_signature, one.tree_signature);
  EXPECT_EQ(eight.tree_signature, one.tree_signature);
}

TEST(ObsDeterminismTest, RandomCorpusInvariantsAcrossWorkerCounts) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
    InstanceGenerator gen(&ds.schema, seed);
    InstanceGenerator::Options gopt;
    gopt.min_objects_per_class = 12;
    gopt.max_objects_per_class = 12;
    gopt.edge_probability = 0.3;
    const Instance instance = gen.RandomInstance(gopt);
    const auto add_bar = std::move(MakeAddBar(ds)).value();
    const std::vector<Receiver> receivers =
        gen.RandomKeySet(instance, add_bar->signature(), 6);
    if (receivers.empty()) continue;

    ObservedRun runs[2];
    const std::size_t workers[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      Tracer tracer;
      MetricsRegistry metrics;
      ExecContext ctx;
      ExecOptions options;
      options.ctx = &ctx;
      options.tracer = &tracer;
      options.metrics = &metrics;
      options.num_workers = workers[i];
      runs[i].out =
          std::move(ParallelApply(*add_bar, instance, receivers, options))
              .value();
      runs[i].eval_rows = metrics.engine.eval_rows.value();
      runs[i].apply_edges = metrics.engine.apply_edges.value();
      runs[i].tree_signature = tracer.TreeSignature();
    }
    EXPECT_TRUE(runs[1].out == runs[0].out) << "seed " << seed;
    EXPECT_EQ(runs[1].eval_rows, runs[0].eval_rows) << "seed " << seed;
    EXPECT_EQ(runs[1].apply_edges, runs[0].apply_edges) << "seed " << seed;
    EXPECT_EQ(runs[1].tree_signature, runs[0].tree_signature)
        << "seed " << seed;
  }
}

TEST(ObsDeterminismTest, SequentialApplyReportsReceiversAndSpans) {
  const PayrollWorkload w = BuildPayroll(16);
  Tracer tracer;
  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.set_tracer(&tracer);
  ctx.set_metrics(&metrics);
  ASSERT_TRUE(ApplySequence(*w.method, w.instance, w.receivers, ctx).ok());
  EXPECT_EQ(metrics.engine.sequential_receivers.value(), w.receivers.size());
  const auto totals = tracer.StageTotals();
  ASSERT_TRUE(totals.contains("sequential/apply"));
  EXPECT_EQ(totals.at("sequential/apply").count, 1u);
}

TEST(ObsDeterminismTest, SequentialApplyNestsEvaluatorSpansUnderApply) {
  // Each M(I, t) of a traced M_seq evaluates under the caller's context:
  // its join spans nest under sequential/apply and its rows reach the
  // caller's registry.
  const PayrollWorkload w = BuildPayroll(16);
  Tracer tracer;
  MetricsRegistry metrics;
  ASSERT_TRUE(SequentialApply(*w.method, w.instance, w.receivers,
                              {.tracer = &tracer, .metrics = &metrics})
                  .ok());
  EXPECT_GT(metrics.engine.eval_rows.value(), 0u);

  const std::vector<SpanEvent> events = tracer.Events();
  std::map<std::uint64_t, const SpanEvent*> by_id;
  for (const SpanEvent& e : events) by_id[e.id] = &e;
  std::size_t joins = 0;
  for (const SpanEvent& e : events) {
    if (std::string(e.name) != "evaluator/join") continue;
    ++joins;
    const SpanEvent* ancestor = &e;
    while (ancestor->parent != 0 &&
           std::string(ancestor->name) != "sequential/apply") {
      ancestor = by_id.at(ancestor->parent);
    }
    EXPECT_STREQ(ancestor->name, "sequential/apply");
  }
  // Two joins per application: NewSal's NSOld ⋈ NSNew, then arg1 with it.
  EXPECT_EQ(joins, 2 * w.receivers.size());
}

// -- ExecOptions overloads of the SQL statements -----------------------------

TEST(ExecOptionsTest, SqlUpdateHonorsCommitHookVeto) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt}};
  std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
  const Instance original =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();
  const ExprPtr query = ra::Project(
      ra::JoinEq(ra::Rel("EmpSalary"),
                 ra::Project(ra::JoinEq(ra::Rel("NSOld"),
                                        ra::Rename(ra::Rel("NSNew"), "NS",
                                                   "NS2"),
                                        "NS", "NS2"),
                             {"Old", "New"}),
                 "Salary", "Old"),
      {"Emp", "New"});

  // Veto: the statement must report the hook's error and leave the instance
  // bit-identical, after the hook saw the genuine, non-empty delta.
  Instance vetoed = original;
  bool hook_ran = false;
  ExecOptions veto;
  veto.commit_hook = [&](const InstanceDelta& delta) {
    hook_ran = true;
    EXPECT_TRUE(delta == DiffInstances(original, vetoed));
    EXPECT_FALSE(delta.empty());
    return Status::Internal("veto");
  };
  Status s = SetOrientedUpdateInPlace(vetoed, ps.salary, query, veto);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_TRUE(hook_ran);
  EXPECT_TRUE(vetoed == original);

  // Approve (default hook) with sinks attached: commits and reports spans.
  Instance committed = original;
  Tracer tracer;
  ExecOptions ok_options;
  ok_options.tracer = &tracer;
  ASSERT_TRUE(
      SetOrientedUpdateInPlace(committed, ps.salary, query, ok_options).ok());
  EXPECT_FALSE(committed == original);
  EXPECT_TRUE(tracer.StageTotals().contains("sql/set-update"));
}

TEST(ExecOptionsTest, SqlDeleteOverloadTracesAndDeletes) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt}};
  const Instance original =
      std::move(BuildPayrollInstance(ps, employees, {{100, 300}}, {})).value();
  Instance instance = original;
  Tracer tracer;
  MetricsRegistry metrics;
  ExecOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  ASSERT_TRUE(
      SetOrientedDeleteInPlace(instance, ps.emp, SalaryInFire(ps), options)
          .ok());
  EXPECT_FALSE(instance == original);  // salary 100 is in Fire
  EXPECT_TRUE(tracer.StageTotals().contains("sql/set-delete"));
}

// -- Memoized sorted view ----------------------------------------------------

Relation SmallRelation(ClassId cls, std::initializer_list<std::uint32_t> ids) {
  RelationScheme scheme =
      std::move(RelationScheme::Make({{"A", cls}})).value();
  Relation rel(std::move(scheme));
  for (std::uint32_t id : ids) {
    EXPECT_TRUE(rel.Insert(Tuple({ObjectId(cls, id)})).ok());
  }
  return rel;
}

TEST(RelationMemoTest, SortedTuplesIsStableAndInvalidatedByMutation) {
  const ClassId cls(1);
  Relation rel = SmallRelation(cls, {3, 1, 2});
  const std::vector<const Tuple*> first = rel.SortedTuples();
  ASSERT_EQ(first.size(), 3u);
  // Memoized: a second call returns the identical pointer vector.
  EXPECT_EQ(rel.SortedTuples(), first);
  // Sorted ascending.
  EXPECT_TRUE(*first[0] < *first[1]);
  EXPECT_TRUE(*first[1] < *first[2]);

  // Mutation invalidates: the new tuple shows up, still sorted.
  ASSERT_TRUE(rel.Insert(Tuple({ObjectId(cls, 0)})).ok());
  const std::vector<const Tuple*> after = rel.SortedTuples();
  ASSERT_EQ(after.size(), 4u);
  EXPECT_TRUE(*after[0] < *after[1]);
  EXPECT_EQ(after[0]->at(0).index(), 0u);
}

TEST(RelationMemoTest, CopiesDoNotShareTheCachedView) {
  const ClassId cls(1);
  Relation rel = SmallRelation(cls, {2, 1});
  const std::vector<const Tuple*> original_view = rel.SortedTuples();
  Relation copy = rel;  // must not inherit pointers into rel's tuple set
  const std::vector<const Tuple*> copy_view = copy.SortedTuples();
  ASSERT_EQ(copy_view.size(), 2u);
  for (const Tuple* t : copy_view) {
    EXPECT_TRUE(copy.Contains(*t));
    // The copy's view points into the copy, not into the source.
    EXPECT_NE(t, original_view[0]);
    EXPECT_NE(t, original_view[1]);
  }
  // Mutating the source leaves the copy's view untouched.
  ASSERT_TRUE(rel.Insert(Tuple({ObjectId(cls, 9)})).ok());
  EXPECT_EQ(copy.SortedTuples().size(), 2u);
}

TEST(RelationMemoTest, ConcurrentSortedTuplesReadsAreSafe) {
  // Parallel shards call SortedTuples() on shared read-only base relations;
  // the memoization must be race-free (exercised under TSan via the
  // `parallel` label).
  const ClassId cls(1);
  Relation rel = SmallRelation(cls, {5, 3, 8, 1, 9, 2});
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&rel, &ok] {
      for (int i = 0; i < 200; ++i) {
        const std::vector<const Tuple*> view = rel.SortedTuples();
        if (view.size() != 6 || !(*view[0] < *view[5])) {
          ok.store(false);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace setrec
