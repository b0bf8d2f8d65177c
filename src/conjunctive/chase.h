#ifndef SETREC_CONJUNCTIVE_CHASE_H_
#define SETREC_CONJUNCTIVE_CHASE_H_

#include "conjunctive/conjunctive_query.h"
#include "core/exec_context.h"
#include "relational/dependencies.h"
#include "relational/schema.h"

namespace setrec {

/// The typed chase of a conjunctive query with respect to functional and
/// full inclusion dependencies (Appendix A):
///
///   fd rule  — for σ = R : X → A and conjuncts R(u), R(v) with u[X] = v[X]
///              but u[A] ≠ v[A], substitute the larger variable by the least
///              one under the ordering that puts distinguished variables
///              first. If the two variables are ≠-constrained the query
///              becomes ⊥ (trivially false).
///   ind rule — for σ = R[X] ⊆ S and a conjunct R(u), add the conjunct
///              S(u[X]) when missing.
///
/// The process always terminates for this dependency class (full inds add
/// conjuncts over existing variables only; fd steps strictly reduce the
/// number of distinct variables) and is Church–Rosser, so the result is
/// canonical. By Lemma A.2 the chased query is Σ-equivalent to the input.
///
/// Disjointness dependencies need no rule: the typed variable model makes
/// them unviolable.
///
/// The result is compacted (contiguous variable ids); summary positions are
/// preserved.
///
/// Every chase round and every fd-pair / ind-candidate scan is a `ctx`
/// checkpoint, so a step budget or deadline bounds the (polynomial but
/// potentially large) fixpoint with a typed kResourceExhausted /
/// kDeadlineExceeded instead of an unbounded stall.
Result<ConjunctiveQuery> ChaseQuery(ConjunctiveQuery query,
                                    const DependencySet& deps,
                                    const Catalog& catalog,
                                    ExecContext& ctx);

}  // namespace setrec

#endif  // SETREC_CONJUNCTIVE_CHASE_H_
