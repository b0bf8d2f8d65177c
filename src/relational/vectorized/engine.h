#ifndef SETREC_RELATIONAL_VECTORIZED_ENGINE_H_
#define SETREC_RELATIONAL_VECTORIZED_ENGINE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/exec_context.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"
#include "relational/vectorized/batch.h"

namespace setrec::vectorized {

/// Sum of the sizes of the distinct base relations the plan below `root`
/// loads: every scan counts, except one reached only as the right operand
/// of index builds, whose rows the join fetches by key. Sizes come from
/// `database` without materializing a bound relation. The kAuto backend
/// policy compares this against a threshold: transposing inputs into
/// columns is a per-evaluation cost that only pays off once the batched
/// kernels have enough rows to chew through.
std::size_t EstimatedInputRows(const PhysicalNode& root,
                               const Database& database);

/// The vectorized backend. An Engine is bound to one Database snapshot and
/// one ExecContext, exactly like the Evaluator that owns it, and walks the
/// plan that Evaluator lowered the way the interpreter does: memoized per
/// expression node, operands left then right, a π_∅ guard first with its
/// empty short-circuit, and no right operand for an index build. Only the
/// per-operator work runs columnwise. So it keeps the interpreter's
/// observable contract: identical results, identical error statuses,
/// identical logical metrics (evaluator.rows / join_probes /
/// join_build_rows), identical memo cache-hit counts and EvalNodeStats
/// shape.
class Engine {
 public:
  Engine(const Database* database, ExecContext* ctx)
      : database_(database), ctx_(ctx) {}

  /// Evaluates the plan below `root`, which must be lowered against this
  /// engine's Database. `stats` may be null; when given it receives the
  /// same per-node statistics the interpreter records.
  Result<std::shared_ptr<const Relation>> Execute(
      const PhysicalNode& root,
      std::unordered_map<const Expr*, EvalNodeStats>* stats);

 private:
  struct MemoEntry {
    std::shared_ptr<const ColumnTable> table;
    // Row form, materialized lazily (only the root of an Execute needs it;
    // interior results stay columnar). Leaf entries alias the Database's
    // shared storage, exactly like the interpreter's leaf memo.
    std::shared_ptr<const Relation> rel;
  };

  /// The memoized evaluation of one plan node, keyed by its expression.
  Result<std::shared_ptr<const ColumnTable>> EvalNode(
      const PhysicalNode& node);
  Result<MemoEntry> EvalUncached(const PhysicalNode& node);
  /// One operator over its evaluated operands (`right` is null for unary
  /// operators and index builds).
  Result<ColumnTable> RunOp(const PhysicalNode& node, const ColumnTable& left,
                            const ColumnTable* right);
  Result<ColumnTable> RunHashJoin(const PhysicalNode& node,
                                  const ColumnTable& left,
                                  const ColumnTable* right);

  const Database* database_;
  ExecContext* ctx_;
  // Stats sink of the Execute in flight; null when stats are detached.
  std::unordered_map<const Expr*, EvalNodeStats>* stats_ = nullptr;
  std::unordered_map<const Expr*, MemoEntry> memo_;
  // Transposed base relations by name: a relation several scans read is
  // transposed once.
  std::unordered_map<std::string, std::shared_ptr<const ColumnTable>> loads_;
};

}  // namespace setrec::vectorized

#endif  // SETREC_RELATIONAL_VECTORIZED_ENGINE_H_
