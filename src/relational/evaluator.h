#ifndef SETREC_RELATIONAL_EVALUATOR_H_
#define SETREC_RELATIONAL_EVALUATOR_H_

#include <memory>
#include <optional>
#include <unordered_map>

#include "core/exec_backend.h"
#include "core/exec_context.h"
#include "core/exec_options.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"

namespace setrec {

namespace vectorized {
class Engine;
}  // namespace vectorized

/// Per-expression-node execution statistics, filled in when a sink map is
/// attached to the evaluator (the EXPLAIN ANALYZE path). Keyed by node
/// identity (`const Expr*`), matching the evaluator's memo cache: a node
/// evaluated once and reused records one evaluation plus cache_hits.
/// All fields are *logical* counts except wall_ns: join probes are counted
/// as probe-side tuples, so every backend reports the same numbers.
struct EvalNodeStats {
  std::uint64_t rows = 0;        // output rows of this node
  std::uint64_t build_rows = 0;  // hash-join build-side insertions
  std::uint64_t probe_rows = 0;  // hash-join probe-side tuples probed
  std::uint64_t cache_hits = 0;  // memo hits for this node
  std::uint64_t wall_ns = 0;     // time in this node, children included
  // Which backend computed this node: "interpreter" (tuple-at-a-time
  // operator) or "vectorized" (columnar batch operator). Purely
  // descriptive — every logical field above is backend-invariant. Static
  // strings only.
  const char* backend = "interpreter";
};

/// Evaluates relational algebra expressions against a Database. The
/// evaluator memoizes results per expression node, so DAG-shaped expressions
/// (as produced by the Theorem 5.6 substitution and the par(E) rewriting)
/// evaluate each shared subexpression once. An Evaluator is bound to one
/// database snapshot; create a fresh one after any mutation.
///
/// Evaluation is governed by `ctx`: every join/product output row is charged
/// against the row budget and every materialized tuple against the memory
/// cap, so a runaway Cartesian product fails fast with kResourceExhausted
/// instead of exhausting the machine. It runs on the calling thread.
class Evaluator {
 public:
  /// kAuto picks the vectorized backend only when the base relations the
  /// plan loads hold at least this many rows in total (a relation read only
  /// through index builds does not count): below it, transposing inputs
  /// into columns costs more than batching saves.
  static constexpr std::size_t kAutoVectorizeInputRows = 4096;

  Evaluator(const Database* database, ExecContext& ctx);

  // The constructor and destructor are out of line: the vectorized engine
  // member is incomplete here.
  ~Evaluator();

  /// Evaluates `expr`. Its schemes are checked by lowering it against the
  /// bound database's relations (relational/plan.h), once per root and
  /// before any budget is charged, so a standalone catalog is not required.
  /// Returns a copy of the memoized result; callers that only read should
  /// prefer EvalShared.
  Result<Relation> Eval(const ExprPtr& expr);

  /// Evaluates `expr` and returns the memoized result behind shared
  /// immutable storage: repeat evaluations of the same node (and leaf
  /// relations, which alias the bound Database's storage) cost a hash
  /// lookup plus a refcount bump, never a deep copy.
  Result<std::shared_ptr<const Relation>> EvalShared(const ExprPtr& expr);

  /// Attaches a per-node statistics sink (borrowed; may be null to detach).
  /// While attached, every Eval records output rows, join build/probe
  /// counts, memo hits and wall time per expression node — the raw material
  /// for EXPLAIN ANALYZE. Adds a map lookup per node evaluation, nothing on
  /// the per-tuple path.
  void set_node_stats(std::unordered_map<const Expr*, EvalNodeStats>* sink) {
    node_stats_ = sink;
  }

  /// Selects the execution backend (core/exec_backend.h). Must be called
  /// before the first Eval: the kAuto decision latches on first use so that
  /// every expression this evaluator touches runs under one backend — the
  /// memo cache, and therefore the cache-hit counters, have one semantic
  /// domain. Results and logical counters are backend-invariant either way.
  void set_backend(ExecBackend backend) { backend_ = backend; }
  ExecBackend backend() const { return backend_; }

 private:
  /// The memoized evaluation of one plan node, keyed by its expression.
  Result<std::shared_ptr<const Relation>> EvalNode(const PhysicalNode& node);
  Result<std::shared_ptr<const Relation>> EvalSharedUncached(
      const PhysicalNode& node);
  Result<Relation> EvalUncached(const PhysicalNode& node);

  /// Join fusion: evaluates a σ-chain over a Cartesian product as a hash
  /// join instead of materializing the product. The paper's expressions
  /// are built almost exclusively from theta-joins (σ_{aθb}(l × r)), and the
  /// par(E) rewriting joins receiver-dependent operands on self, so without
  /// fusion intermediate results grow with the square of the receiver-set
  /// size.
  Result<Relation> EvalSelectionChain(const PhysicalNode& node);

  /// Whether the plan below `root` should run on the vectorized backend.
  /// Forced backends answer directly; kAuto latches its cost decision on
  /// the first call: vectorization wins once the inputs the plan loads
  /// reach kAutoVectorizeInputRows.
  bool UseVectorized(const PhysicalNode& root);

  const Database* database_;
  PhysicalPlan plan_;  // the one lowering both backends walk
  ExecContext* ctx_;
  ExecBackend backend_ = ExecBackend::kAuto;
  std::optional<bool> auto_vectorize_;  // kAuto decision, latched
  std::unique_ptr<vectorized::Engine> engine_;  // lazily built
  std::unordered_map<const Expr*, std::shared_ptr<const Relation>> cache_;
  std::unordered_map<const Expr*, EvalNodeStats>* node_stats_ = nullptr;
};

/// One-shot evaluation: backend selection, governing context and
/// observability sinks all arrive through `options` (a default-constructed
/// ExecOptions means permissive, unobserved, kAuto backend; a caller
/// holding a context passes `{.ctx = &ctx}`).
Result<Relation> Evaluate(const ExprPtr& expr, const Database& database,
                          const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_RELATIONAL_EVALUATOR_H_
