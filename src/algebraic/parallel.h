#ifndef SETREC_ALGEBRAIC_PARALLEL_H_
#define SETREC_ALGEBRAIC_PARALLEL_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "algebraic/algebraic_method.h"
#include "core/exec_context.h"
#include "core/exec_options.h"
#include "relational/evaluator.h"

namespace setrec {

/// Name of the receiver-set relation of Section 6, with scheme
/// self arg1 ... argk.
inline constexpr const char kRecRelation[] = "rec";

/// The scheme of `rec` for a signature: attributes self, arg1, ..., argk
/// with the signature's class domains.
Result<RelationScheme> RecScheme(const MethodSignature& signature);

/// The catalog against which par(E) expressions type-check: the method
/// catalog minus the singleton receiver relations, plus `rec`.
Result<Catalog> ParCatalog(const MethodContext& context);

/// The par(E) rewriting (Definition 6.1): produces a relational algebra
/// expression over the object relations plus `rec` such that
/// par(E)(I, T) = ∪_{t∈T} {t(self)} × E(I, t) whenever T is a key set
/// (Lemma 6.7). The result scheme is E's scheme with self prepended.
///
/// A subexpression is *receiver-free* when it references neither self nor
/// any arg_i. Such a subplan has the same value for every receiver, so the
/// rewriting evaluates it once instead of threading a copy of the receiver
/// through it:
///   * self becomes π_self(rec), arg_i becomes π_{self,arg_i}(rec);
///   * a receiver-free E becomes π_self(rec) × E as a whole;
///   * a product with a receiver-free factor C becomes par(other) × C, a
///     plain product (when C is the left factor, a projection restores the
///     scheme self, attrs(C), attrs(other));
///   * a product of two receiver-dependent factors becomes a natural join
///     on self;
///   * every projection also retains self; selections, renames, unions and
///     differences apply to the rewritten operands.
/// The hoisting rules are identities, not approximations, for any `rec`:
/// par(C) = π_self(rec) × C for receiver-free C, and the self column of
/// par(E1) is always a subset of π_self(rec), so the literal natural join
/// par(E1) ⋈_self (π_self(rec) × C) equals par(E1) × C. A receiver-free
/// π_∅ guard therefore stays a π_∅ factor, which keeps the evaluator's
/// empty-guard short-circuit. Renaming self (to or from), anywhere in E, is
/// rejected with kInvalidArgument — the attribute is reserved.
Result<ExprPtr> ParTransform(const ExprPtr& expr, const MethodContext& context);

/// What one parallel application evaluates, prepared from its inputs.
/// ParallelApply and EXPLAIN ANALYZE both build it with
/// PrepareParallelApply, so the analyzed evaluation is the executed one.
struct ParallelPlan {
  /// The canonical receiver set, every receiver valid over the instance.
  std::vector<Receiver> receivers;
  /// The encoding of the relations the statements read, plus `rec` holding
  /// `receivers`.
  Database database;
  /// par(E) of each statement of the method, in statement order.
  std::vector<ExprPtr> statements;
};

/// Canonicalizes and validates `receivers` (kFailedPrecondition when one is
/// not valid over `instance`), encodes the method's read set, instantiates
/// rec and rewrites every statement with ParTransform.
Result<ParallelPlan> PrepareParallelApply(const AlgebraicUpdateMethod& method,
                                          const Instance& instance,
                                          std::span<const Receiver> receivers,
                                          ExecContext& ctx);

/// Runs a prepared parallel application: evaluates every par(E) of `plan`
/// once, on one Evaluator on the calling thread (so receiver-free subplans
/// shared between statements are evaluated once), then replaces, on a copy
/// of `instance`, the a-edges of every receiving object by the objects
/// par(E) links to it. With no receivers nothing is evaluated and the copy
/// is returned unchanged. `node_stats`, when set, receives the evaluator's
/// per-node statistics (EXPLAIN ANALYZE); `sink`, when set, receives the
/// delta.
Result<Instance> RunParallelApply(
    const AlgebraicUpdateMethod& method, const Instance& instance,
    const ParallelPlan& plan, ExecBackend backend, ExecContext& ctx,
    std::unordered_map<const Expr*, EvalNodeStats>* node_stats = nullptr,
    DeltaSink* sink = nullptr);

/// Parallel application M_par(I, T) (Definition 6.2): instantiates rec with
/// the whole receiver set at once, evaluates one par(E) expression per
/// statement, and replaces, for every receiving object occurring in T, its
/// a-edges by the objects par(E) links to it. Every receiver must be valid
/// over `instance`. Duplicate receivers are deduplicated (T is a set).
/// The par(E) evaluations (under options.backend) and the
/// edge-replacement loops run under the context `options` resolves to
/// (row/memory budgets apply to the joins the rewriting introduces); its
/// view cache, when set, receives the delta.
///
/// Each par(E) is evaluated exactly once per call, on the calling thread,
/// and edge replacements are applied there in canonical receiver order.
/// options.num_workers and options.pool are ignored, so results, error
/// statuses and logical counters are identical at every worker count,
/// which the determinism tests pin down bit-for-bit.
Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_ALGEBRAIC_PARALLEL_H_
