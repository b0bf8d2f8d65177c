#ifndef SETREC_CONJUNCTIVE_CONTAINMENT_H_
#define SETREC_CONJUNCTIVE_CONTAINMENT_H_

#include <optional>

#include "conjunctive/conjunctive_query.h"
#include "conjunctive/representative.h"
#include "core/exec_context.h"
#include "relational/dependencies.h"

namespace setrec {

/// Outcome of a containment test, with a counterexample when it fails: a
/// database satisfying the dependencies on which some tuple is produced by
/// the left query but not the right one.
struct ContainmentResult {
  bool contained = false;
  std::optional<Database> counterexample;
  std::optional<Tuple> counterexample_tuple;
};

/// Decides q1 ⊆_Σ q2 for positive queries under functional and full
/// inclusion dependencies (Lemma 5.13). The procedure combines the three
/// classical ingredients as Appendix A does, with one shortcut between the
/// chase and Klug's enumeration:
///
///   1. union (Sagiv–Yannakakis): test each disjunct of q1 separately;
///   2. dependencies (Johnson–Klug, Lemma A.3): chase the disjunct first;
///   3. cover (Chandra–Merlin): after the first representative valuation
///      (step 4) is found to be a member, look once for a disjunct of q2
///      that maps into the chased disjunct by a strict homomorphism
///      (HasHomomorphism with strict_neq): summary onto summary, every
///      conjunct onto a conjunct, every ≠ onto a ≠. Composed with any
///      representative valuation it is a membership witness, so such a
///      disjunct is contained and its enumeration stops there;
///   4. non-equalities (Klug, Theorem A.1): enumerate representative
///      valuations of the chased disjunct and test membership of the summary
///      image in q2 on each canonical instance.
///
/// The cover decides nothing Klug's test would not: verdicts, errors and
/// the first counterexample are those of the plain enumeration. It is not
/// tried while a later valuation could still fail on a malformed disjunct
/// of q2 (unbound, or of another summary arity), and a governance stop
/// inside it is the call's status. The metrics count representative
/// valuations visited (`containment.valuations`, FD-rejected ones
/// included) and chased disjuncts the cover settled
/// (`containment.covered`).
///
/// One refinement is needed for completeness: a representative valuation may
/// merge the left-hand sides of a functional dependency without merging its
/// right-hand side; such a canonical instance violates Σ, denotes no legal
/// database, and must be skipped. (Full inclusion dependencies hold in every
/// canonical instance by chase construction, and disjointness holds by
/// typing, so only the FDs need this filter.)
///
/// Both inputs are first run through SimplifyPositiveQuery unless
/// `simplify` is false (exposed for the ablation benchmark — the Theorem
/// 5.6 reduction produces unions with heavily subsumed branches, and
/// pruning them shrinks both the outer disjunct loop and the inner
/// membership tests).
///
/// The chase, the representative-valuation enumeration, and the inner
/// membership searches all run under `ctx`; with a step budget or deadline
/// the worst-case-exponential procedure returns kResourceExhausted /
/// kDeadlineExceeded instead of running away.
Result<ContainmentResult> CheckContainment(const PositiveQuery& q1,
                                           const PositiveQuery& q2,
                                           const DependencySet& deps,
                                           const Catalog& catalog,
                                           bool simplify,
                                           ExecContext& ctx);

/// Semantic-preserving pruning of a union of conjunctive queries:
/// trivially-false disjuncts are dropped, and a disjunct q_j is dropped
/// whenever another live disjunct q_i maps homomorphically into it with
/// summaries aligned and every non-equality of q_i landing on a
/// ≠-constrained pair of q_j — the Chandra–Merlin condition, which remains
/// *sufficient* for q_j ⊆ q_i in the presence of non-equalities (and
/// subsumption composes, so pruning in one pass is sound).
///
/// Simplification is an optimization only, so governance errors inside a
/// subsumption test simply leave that disjunct unpruned (conservative and
/// sound) rather than failing the caller.
PositiveQuery SimplifyPositiveQuery(PositiveQuery query,
                                    ExecContext& ctx);

/// Convenience: the boolean verdict of CheckContainment.
Result<bool> ContainedUnder(const PositiveQuery& q1, const PositiveQuery& q2,
                            const DependencySet& deps, const Catalog& catalog,
                            ExecContext& ctx);

/// q1 ≡_Σ q2 (mutual containment).
Result<bool> EquivalentUnder(const PositiveQuery& q1, const PositiveQuery& q2,
                             const DependencySet& deps,
                             const Catalog& catalog,
                             ExecContext& ctx);

}  // namespace setrec

#endif  // SETREC_CONJUNCTIVE_CONTAINMENT_H_
