#ifndef SETREC_SQL_ENGINE_H_
#define SETREC_SQL_ENGINE_H_

#include <functional>
#include <optional>
#include <span>

#include "algebraic/method_library.h"
#include "core/exec_context.h"
#include "core/exec_options.h"  // CommitHook lives here now
#include "core/instance.h"

namespace setrec {

/// A row predicate for DELETE statements, evaluated against the *current*
/// instance state (which is what makes cursor semantics order-sensitive).
using RowPredicate =
    std::function<Result<bool>(const Instance&, ObjectId row)>;

/// Cursor-based DELETE (Section 7): visits the rows of `cls` in `order`
/// (default: sorted), re-evaluates `pred` against the evolving instance and
/// removes a satisfying row (with its incident edges) immediately, before
/// inspecting the next row.
Result<Instance> CursorDelete(const Instance& instance, ClassId cls,
                              const RowPredicate& pred,
                              std::span<const ObjectId> order,
                              ExecContext& ctx);

/// CursorDelete applied directly to `instance`. On failure `instance`
/// holds the rows deleted so far; callers that need all-or-nothing run it
/// under RunJournaled.
Status CursorDeleteInPlace(Instance& instance, ClassId cls,
                           const RowPredicate& pred,
                           std::span<const ObjectId> order, ExecContext& ctx);

/// Set-oriented DELETE: first identifies every row satisfying `pred` against
/// the *input* instance, then removes them all together — the two-phase
/// semantics of the standalone SQL statement.
Result<Instance> SetOrientedDelete(const Instance& instance, ClassId cls,
                                   const RowPredicate& pred,
                                   ExecContext& ctx);

/// In-place set-oriented DELETE with all-or-nothing semantics: removes the
/// doomed rows incrementally under the instance's mutation journal, hands
/// the journaled delta to `options.commit_hook`, and on ANY failure
/// (governance, injected fault, structural error, or a hook veto) rolls the
/// journal back, so a failed statement leaves `instance` bit-identical to
/// its pre-statement state. Without a commit hook, a committed delta is
/// then published to `options.view_cache`, when set; with one, the hook's
/// owner publishes it once the commit is durable.
Status SetOrientedDeleteInPlace(Instance& instance, ClassId cls,
                                const RowPredicate& pred,
                                const ExecOptions& options = {});

/// Runs CursorDelete under every permutation of the rows (bounded by
/// `max_rows`!) and reports whether all outcomes agree; when they do not,
/// `disagreement` holds a second outcome differing from `first`.
struct CursorOrderReport {
  bool order_independent = false;
  std::optional<Instance> first;
  std::optional<Instance> disagreement;
};
Result<CursorOrderReport> TestCursorDeleteOrders(
    const Instance& instance, ClassId cls, const RowPredicate& pred,
    std::size_t max_rows, ExecContext& ctx);

/// Section 7 predicates over the payroll tables.
/// "Salary in table Fire" — used by the correct cursor delete.
RowPredicate SalaryInFire(const PayrollSchema& schema);
/// "exists E1 with E1.EmpId = Manager and E1.Salary in table Fire" — the
/// manager variant whose cursor form is order dependent (an employee
/// survives when their manager was visited and deleted first).
RowPredicate ManagerSalaryInFire(const PayrollSchema& schema);

/// Cursor-based UPDATE: sequential application of `method` to the receiver
/// list in the given order (update (B)/(C) of Section 7 are instances of
/// this with the library methods).
Result<Instance> CursorUpdate(const AlgebraicUpdateMethod& method,
                              const Instance& instance,
                              std::span<const Receiver> order,
                              ExecContext& ctx);

/// CursorUpdate applied directly to `instance` (ApplySequenceInPlace). On
/// failure `instance` holds the receivers applied so far; callers that
/// need all-or-nothing run it under RunJournaled.
Status CursorUpdateInPlace(const AlgebraicUpdateMethod& method,
                           Instance& instance, std::span<const Receiver> order,
                           ExecContext& ctx);

/// The trivial modification update "a := arg1" of type [C, B] that underlies
/// every set-oriented UPDATE statement (Section 7): key-order independent by
/// Proposition 5.8.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAssignArgMethod(
    const Schema* schema, PropertyId property);

/// In-place set-oriented UPDATE with all-or-nothing semantics: computes the
/// receiver key set with `receiver_query` against the input state (phase
/// one), then rewrites the a-edges of every receiving row incrementally
/// under the instance's mutation journal and hands the journaled delta to
/// `options.commit_hook` (phase two) — the effect of applying `a := arg1`
/// to the key set. `receiver_query`'s scheme must be (receiving class,
/// target class of `property`). On ANY failure — a governance stop, an
/// injected fault at any probe point, a structural error, or a hook veto —
/// the journal is rolled back before the error returns, so `instance` is
/// bit-identical to its pre-statement state.
///
/// When `options.view_cache` is an incremental view cache
/// (incremental/view_cache.h), phase one is served from it, falling back to
/// from-scratch receiver evaluation on any cache error. Without a commit
/// hook the committed delta is published to it either way; with one, the
/// hook's owner publishes it once the commit is durable.
Status SetOrientedUpdateInPlace(Instance& instance, PropertyId property,
                                const ExprPtr& receiver_query,
                                const ExecOptions& options = {});

/// Set-oriented UPDATE on a copy of `instance` (SetOrientedUpdateInPlace).
Result<Instance> SetOrientedUpdate(const Instance& instance,
                                   PropertyId property,
                                   const ExprPtr& receiver_query,
                                   const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_SQL_ENGINE_H_
