#ifndef SETREC_OBJREL_ENCODING_H_
#define SETREC_OBJREL_ENCODING_H_

#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/receiver.h"
#include "core/schema.h"
#include "relational/dependencies.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace setrec {

/// The relational representation of object bases (Section 5.1). For a
/// schema S the corresponding relational database schema contains, for each
/// class name C, the unary relation scheme C (attribute C with domain Δ_C),
/// and for each edge (C, a, B), the binary relation scheme "Ca" with
/// attributes C (domain Δ_C) and a (domain Δ_B). Relation "Ca" is named by
/// concatenating the class and property names, exactly as the paper writes
/// Df for Drinker.frequents.

/// Name of the binary relation representing property `p` ("Ca").
std::string PropertyRelationName(const Schema& schema, PropertyId p);

/// Builds the relational catalog corresponding to `schema`. Fails if the
/// concatenated relation names collide (e.g. class "A" + property "BC"
/// versus class "AB" + property "C"); rename schema elements to resolve.
Result<Catalog> EncodeCatalog(const Schema& schema);

/// The integrity constraints the encoding induces (Section 5.1): for each
/// edge (C, a, B), the full inclusion dependencies Ca[C] ⊆ C and Ca[a] ⊆ B,
/// plus pairwise disjointness of all class relations. (Disjointness also
/// holds structurally in this typed model.)
DependencySet InducedDependencies(const Schema& schema);

/// Encodes an object-base instance as a relational database instance.
/// Costs O(|instance|); counted in InstanceCosts().encodes, and its rows in
/// InstanceCosts().encoded_rows.
Result<Database> EncodeInstance(const Instance& instance);

/// Encodes only the relations named in `relations`; names that are not
/// relations of the encoding (e.g. `self`, `arg1`) are ignored. An
/// expression reads only its ReferencedRelations, so evaluating it over
/// this encoding gives the same result and the same error status as over
/// the full one, at a cost proportional to the relations it reads. Its rows
/// count in InstanceCosts().encoded_rows.
Result<Database> EncodeInstance(const Instance& instance,
                                std::span<const std::string> relations);

/// Binds the relations named in `relations` (other names are ignored, as
/// above) without encoding the property relations: each is a borrowed
/// view of instance.edges(p) (Database::Bind), which a join keyed on its
/// source column reads by index, and which materializes only when an
/// evaluation reads it whole (counted in InstanceCosts().encoded_rows).
/// Class relations are encoded. Schemes come from `catalog`, which must
/// hold EncodeCatalog's schemes (a MethodContext's catalog does), so no
/// catalog is built per call. Evaluating an expression over the result
/// gives the same result and error status as over EncodeInstance(instance,
/// relations). The database borrows `instance`: it must not be read after
/// the instance is mutated or destroyed.
Result<Database> BindInstance(const Instance& instance, const Catalog& catalog,
                              std::span<const std::string> relations);

/// Decodes a relational database back into an object-base instance of
/// `schema`. Fails if the database does not satisfy the induced inclusion
/// dependencies (dangling property tuples) or misses a relation. Together
/// with EncodeInstance this realizes Proposition 5.1's exact correspondence.
Result<Instance> DecodeInstance(const Database& database,
                                const Schema& schema);

/// The receivers a query result lists for a method of `signature`: checks
/// the result's arity and column domains against the signature
/// (kInvalidArgument) and returns its tuples in sorted order — the
/// canonical order, since sequential application may depend on
/// enumeration order. Receivers are not checked against any instance.
Result<std::vector<Receiver>> ReceiversFromRelation(
    const Relation& result, const MethodSignature& signature);

}  // namespace setrec

#endif  // SETREC_OBJREL_ENCODING_H_
