#ifndef SETREC_CONJUNCTIVE_REPRESENTATIVE_H_
#define SETREC_CONJUNCTIVE_REPRESENTATIVE_H_

#include <functional>
#include <utility>
#include <vector>

#include "conjunctive/conjunctive_query.h"
#include "core/exec_context.h"
#include "relational/relation.h"

namespace setrec {

/// Klug's representative valuations (Appendix A / Theorem A.1). Two
/// non-equality-preserving valuations are equivalent when they identify the
/// same pairs of variables; a representative per equivalence class can be
/// described by a partition of the query's variables into blocks, where
///   * only variables of the same domain may share a block (typed
///     valuations over disjoint domains), and
///   * ≠-constrained variables never share a block.
///
/// `block_of[v]` gives the block index of variable v; blocks are numbered
/// globally, so distinct blocks receive distinct canonical values.

/// Enumerates every representative partition, invoking `fn` with the
/// block_of vector; stops early when fn returns false. The number of
/// partitions is a product of (restricted) Bell numbers per domain — small
/// thanks to typing, but still exponential; callers should chase and compact
/// queries first (the ∅→self FDs of the Theorem 5.6 reduction collapse many
/// variables). Every explored partition node is a `ctx` checkpoint; on
/// budget/deadline exhaustion or cancellation the enumeration unwinds and
/// the governance Status is returned.
Status ForEachRepresentativeValuation(
    const ConjunctiveQuery& query,
    const std::function<bool(const std::vector<VarId>& block_of)>& fn,
    ExecContext& ctx);

/// Counts the representative valuations of `query` (bench support).
std::size_t CountRepresentativeValuations(const ConjunctiveQuery& query);

/// A canonical ("magic") instance for a query under a representative
/// partition, together with the image of the summary.
struct CanonicalInstance {
  Database database;
  Tuple summary;
};

/// The canonical value of variable v under a representative partition:
/// ObjectId(domain(v), block_of[v]).
inline ObjectId CanonicalValue(const ConjunctiveQuery& query,
                               const std::vector<VarId>& block_of, VarId v) {
  return ObjectId(query.var_domain(v), block_of[v]);
}

/// Checks that every conjunct of `query` fits its relation in `catalog`:
/// the relation exists (NotFound otherwise), and the conjunct's arity and
/// variable domains match its scheme (InvalidArgument otherwise). These are
/// exactly the conditions under which BuildCanonicalInstance succeeds, for
/// every partition.
Status CheckCanonicalInstance(const ConjunctiveQuery& query,
                              const Catalog& catalog);

/// Builds θ(c(query)) as a Database covering *all* relations of `catalog`
/// (unreferenced ones are empty), with every variable at its
/// CanonicalValue. Fails as CheckCanonicalInstance does.
Result<CanonicalInstance> BuildCanonicalInstance(
    const ConjunctiveQuery& query, const std::vector<VarId>& block_of,
    const Catalog& catalog);

}  // namespace setrec

#endif  // SETREC_CONJUNCTIVE_REPRESENTATIVE_H_
