#ifndef SETREC_RELATIONAL_VECTORIZED_BATCH_H_
#define SETREC_RELATIONAL_VECTORIZED_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ids.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace setrec::vectorized {

/// Rows processed per operator batch: large enough that per-batch
/// overhead (budget charges, virtual-free inner loops) amortizes, small
/// enough that a batch of packed values stays cache-resident.
inline constexpr std::size_t kBatchWidth = 1024;

/// One packed tuple value. Every attribute value is an ObjectId — the
/// paper's relational representation stores only object surrogates — and an
/// ObjectId is (class, index), so a value packs losslessly into 64 bits.
/// Packing is order-preserving per class, and the class tag occupies the
/// high half, so equality of packed values is exactly ObjectId equality.
using PackedValue = std::uint64_t;

inline constexpr PackedValue Pack(ObjectId o) {
  return (static_cast<std::uint64_t>(o.class_id()) << 32) | o.index();
}

inline constexpr ObjectId Unpack(PackedValue v) {
  return ObjectId(static_cast<ClassId>(v >> 32),
                  static_cast<std::uint32_t>(v));
}

/// Structure-of-arrays tuple storage: one contiguous vector of packed
/// values per attribute, all of length `rows`. Nullary relations (the π_∅
/// guard results) are represented by zero columns and rows ∈ {0, 1}, so
/// `rows` is explicit rather than derived from a column. Row order is an
/// implementation detail, exactly as the row engine's hash-set iteration
/// order is; set semantics are restored at the Relation boundary.
struct ColumnTable {
  RelationScheme scheme;
  std::vector<std::vector<PackedValue>> columns;
  std::size_t rows = 0;

  std::size_t arity() const { return scheme.arity(); }
};

/// An empty table over `scheme` with one (pre-sized) column per attribute.
ColumnTable MakeTable(RelationScheme scheme, std::size_t reserve_rows = 0);

/// Transposes a row relation into columnar form. O(rows × arity).
ColumnTable FromRelation(const Relation& relation);

/// Transposes back into a row relation, inserting in kBatchWidth-sized
/// validated batches (the table's rows are known to conform to its scheme,
/// and batching keeps the sorted-view memo invalidation per batch).
Relation ToRelation(const ColumnTable& table);

}  // namespace setrec::vectorized

#endif  // SETREC_RELATIONAL_VECTORIZED_BATCH_H_
