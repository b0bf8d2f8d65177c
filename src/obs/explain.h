#ifndef SETREC_OBS_EXPLAIN_H_
#define SETREC_OBS_EXPLAIN_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "algebraic/algebraic_method.h"
#include "core/exec_options.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "obs/metrics.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace setrec {

/// One operator of a rendered plan. The tree mirrors what the evaluator
/// *executes*, not the raw syntax tree: a σ-chain over a Cartesian product
/// renders as the single HashJoin the evaluator fuses it into (with the
/// chain's conditions classified into keys and filters), because that is
/// the operator whose build/probe counts ANALYZE reports.
struct PlanNode {
  std::string op;      // "Scan Df", "HashJoin", "Project", "Union", ...
  std::string detail;  // operator-specific annotation (keys, filters, attrs)
  std::string scheme;  // rendered output scheme, e.g. "(self, f)"

  /// Execution statistics, meaningful only when `analyzed` (EXPLAIN
  /// ANALYZE). All counts except wall_ns are logical — identical under
  /// every backend (see EvalNodeStats).
  bool analyzed = false;
  std::uint64_t actual_rows = 0;  // output rows
  std::uint64_t build_rows = 0;   // hash-join build-side insertions
  std::uint64_t probe_rows = 0;   // hash-join probe-side tuples
  std::uint64_t cache_hits = 0;   // memo hits (DAG-shaped expressions)
  std::uint64_t wall_ns = 0;      // inclusive wall time
  /// Which backend computed this operator on the analyzed run:
  /// "interpreter" or "vectorized" (see EvalNodeStats::backend).
  /// Empty for plain EXPLAIN and for synthetic (non-evaluator) nodes.
  std::string backend;

  std::vector<PlanNode> children;
};

/// A rendered EXPLAIN / EXPLAIN ANALYZE plan: one or more operator trees
/// (multi-phase statements render one root per phase) plus, for ANALYZE,
/// the logical engine counters the run charged.
struct ExplainPlan {
  std::string title;
  bool analyzed = false;
  std::vector<PlanNode> roots;
  /// Logical (backend-invariant) engine counters charged by the analyzed
  /// run; empty for plain EXPLAIN. See LogicalCounterNames().
  std::map<std::string, std::uint64_t> counters;

  /// pgsql-style indented text. Deterministic for plain EXPLAIN (golden
  /// tests pin it); ANALYZE lines carry wall times and are not golden.
  std::string ToText() const;
  /// One-line JSON object (strings escaped per obs/json_escape.h).
  std::string ToJson() const;
};

/// The engine counters that are *logical*: bit-identical under every
/// backend for a deterministic run. Everything else the registry holds
/// (histogram sample counts, cache/wal/store traffic) depends on execution
/// shape and is deliberately excluded.
const std::vector<std::string>& LogicalCounterNames();

/// Filters a registry snapshot down to LogicalCounterNames().
std::map<std::string, std::uint64_t> LogicalCounters(
    const MetricsRegistry& metrics);

/// EXPLAIN: renders the operator tree of `expr` with output schemes
/// type-checked against `catalog`. Fails where InferScheme would.
Result<ExplainPlan> ExplainExpression(const ExprPtr& expr,
                                      const Catalog& catalog);

/// EXPLAIN ANALYZE: evaluates `expr` against `database` under the options'
/// sinks and annotates every operator with actual rows, join build/probe
/// counts, memo hits and wall time. When the effective context has no
/// metrics registry, a private one is used, so `counters` is always
/// populated.
Result<ExplainPlan> ExplainExpressionAnalyze(const ExprPtr& expr,
                                             const Database& database,
                                             const ExecOptions& options = {});

/// EXPLAIN [ANALYZE] for the Section 7 set-oriented UPDATE: renders the
/// two-phase pipeline — the receiver query evaluated against the
/// pre-statement state, then the key-order independent `a := arg1`
/// application. ANALYZE runs both phases (on a scratch copy; `instance` is
/// never mutated).
Result<ExplainPlan> ExplainSetOrientedUpdate(const Instance& instance,
                                             PropertyId property,
                                             const ExprPtr& receiver_query,
                                             bool analyze,
                                             const ExecOptions& options = {});

/// EXPLAIN [ANALYZE] for parallel application: renders the par(E) pipeline
/// of every statement of `method` (Definition 6.1) over the `rec` receiver
/// relation. ANALYZE runs what ParallelApply runs with the same options —
/// PrepareParallelApply's receiver checks (an invalid receiver fails with
/// ParallelApply's status), its read-set database, one evaluation of every
/// pipeline on the calling thread and the edge replacement on a scratch
/// copy — so its logical counters equal ParallelApply's, and `instance` is
/// never mutated.
Result<ExplainPlan> ExplainParallelApply(const AlgebraicUpdateMethod& method,
                                         const Instance& instance,
                                         std::span<const Receiver> receivers,
                                         bool analyze,
                                         const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_OBS_EXPLAIN_H_
