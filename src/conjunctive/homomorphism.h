#ifndef SETREC_CONJUNCTIVE_HOMOMORPHISM_H_
#define SETREC_CONJUNCTIVE_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "conjunctive/conjunctive_query.h"
#include "core/exec_context.h"
#include "relational/relation.h"

namespace setrec {

// All searches in this header are worst-case exponential backtracking; each
// explored node is an ExecContext checkpoint, so budgets/deadlines/
// cancellation unwind them cleanly with a typed Status.

/// Evaluates a conjunctive query over a database by backtracking search for
/// satisfying valuations ("typed valuations" in Appendix A): every conjunct
/// must map to a database tuple and every non-equality must hold. The query
/// must be *safe* — every variable occurs in some conjunct — which all
/// queries produced by TranslateToPositiveQuery are. Returns the set of
/// summary tuples. `scheme` gives the output relation scheme.
Result<Relation> EvaluateConjunctiveQuery(const ConjunctiveQuery& query,
                                          const RelationScheme& scheme,
                                          const Database& database,
                                          ExecContext& ctx);

/// Membership test s ∈ q(I) without materializing q(I): binds the summary
/// variables to `s` first, then searches for an extension. This is the inner
/// loop of the Klug containment test (Theorem A.1).
Result<bool> TupleInConjunctiveQuery(const ConjunctiveQuery& query,
                                     const Tuple& s, const Database& database,
                                     ExecContext& ctx);

/// Membership in a positive query: s ∈ Q(I) iff s ∈ q'(I) for some disjunct
/// q' (Sagiv–Yannakakis).
Result<bool> TupleInPositiveQuery(const PositiveQuery& query, const Tuple& s,
                                  const Database& database,
                                  ExecContext& ctx);

/// Evaluates a positive query (union of its disjuncts' results).
Result<Relation> EvaluatePositiveQuery(const PositiveQuery& query,
                                       const Database& database,
                                       ExecContext& ctx);

/// Classical homomorphism test (Chandra–Merlin): is there a mapping ψ from
/// `from`'s variables to `to`'s variables, preserving each variable's
/// domain, with ψ(conjuncts(from)) ⊆ conjuncts(to) and ψ(summary(from)) =
/// summary(to) position by position? For equality conjunctive queries this
/// holds iff `to` ⊆ `from` (the Homomorphism Theorem); with non-equalities
/// a strict one (below) is only sufficient, which is why the general test
/// goes through representative instances.
///
/// Every non-equality x ≠ y of `from` constrains ψ:
///   * non-strict (`strict_neq` false): ψ(x) and ψ(y) are distinct
///     variables of `to`;
///   * strict (`strict_neq` true): in addition, ψ(x) ≠ ψ(y) is a
///     non-equality of `to`. Only then does ψ composed with any valuation
///     of `to` that keeps `to`'s non-equalities keep `from`'s, so only a
///     strict homomorphism shows `to` ⊆ `from`.
/// A trivially false `from` maps anywhere (true); a trivially false `to`
/// receives nothing (false). Summaries of different arity are an
/// InvalidArgument.
Result<bool> HasHomomorphism(const ConjunctiveQuery& from,
                             const ConjunctiveQuery& to, bool strict_neq,
                             ExecContext& ctx);

// -- The valuation search kernel ---------------------------------------------
//
// The Database entry points above and CheckContainment's compiled membership
// test (containment.cc) share one backtracking kernel. It reads a database
// as a per-relation fact view: one FactRows per relation slot, so the same
// search runs over a Database's SortedTuples() and over the image facts of a
// representative valuation, without building a Database for the latter.

/// The facts of one relation as the kernel reads them: one pointer per row,
/// in canonical (lexicographic) order, each at the relation's arity
/// consecutive values. The rows borrow their storage from the caller.
using FactRows = std::vector<const ObjectId*>;

/// A conjunctive query resolved against a fact view: conjunct i (in
/// conjuncts() order) ranges over the rows of slot `slots[i]`.
struct BoundQuery {
  const ConjunctiveQuery* query = nullptr;
  std::vector<const Conjunct*> conjuncts;
  std::vector<std::uint32_t> slots;
  std::vector<std::pair<VarId, VarId>> non_equalities;
};

/// The slot and scheme of one relation of a fact view, or the lookup error.
using ResolveRelation =
    std::function<Result<std::pair<std::uint32_t, const RelationScheme*>>(
        const std::string& relation)>;

/// Resolves every conjunct of `query` through `resolve` and checks what the
/// kernel relies on, failing as the Database entry points always have: the
/// resolver's error for a missing relation, InvalidArgument for a conjunct
/// whose arity differs from its relation's, and InvalidArgument for a
/// variable that occurs in no conjunct (unless `summary_bound` and it is a
/// summary variable, which the membership test binds up front).
Result<BoundQuery> BindQuery(const ConjunctiveQuery& query, bool summary_bound,
                             const ResolveRelation& resolve);

/// Search work summed locally and charged to the registry in one step.
struct SearchCounters {
  std::uint64_t candidates = 0;  // homomorphism.candidates
  std::uint64_t pruned = 0;      // homomorphism.pruned

  /// Adds the sums to `metrics` (when non-null) and resets them.
  void Flush(MetricsRegistry* metrics);
};

/// Invoked with each satisfying valuation; returns false to stop.
using OnSolution =
    std::function<bool(const std::vector<std::optional<ObjectId>>& binding)>;

/// The backtracking kernel: extends `binding` (nullopt = unbound) until
/// every conjunct of `bound` maps to one of its candidate rows in `facts`
/// and every non-equality holds, calling `on_solution` for each such
/// valuation. Conjuncts are tried in conjuncts() order and rows in `facts`
/// order, so which valuation is found first is deterministic. Each explored
/// node is one "homomorphism/valuation-node" checkpoint; each tried row adds
/// one candidate to `counters`, each rejected row one pruned. `binding` is
/// restored before returning. Returns OK or the governance failure.
Status SearchValuations(const BoundQuery& bound, std::span<const FactRows> facts,
                        std::vector<std::optional<ObjectId>>& binding,
                        const OnSolution& on_solution,
                        SearchCounters& counters, ExecContext& ctx);

}  // namespace setrec

#endif  // SETREC_CONJUNCTIVE_HOMOMORPHISM_H_
