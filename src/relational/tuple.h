#ifndef SETREC_RELATIONAL_TUPLE_H_
#define SETREC_RELATIONAL_TUPLE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/ids.h"

namespace setrec {

/// A relational tuple. Values are ObjectIds: the relational representation
/// of an object base (Section 5.1) stores only objects, and every attribute
/// carries a class domain, so a tuple is a typed vector of object
/// identities. Nullary tuples (the single tuple of a 0-ary relation, used by
/// π_∅ guard expressions) are supported.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<ObjectId> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<ObjectId> values) : values_(values) {}

  std::size_t arity() const { return values_.size(); }
  ObjectId at(std::size_t i) const { return values_[i]; }
  const std::vector<ObjectId>& values() const { return values_; }

  /// Concatenation, used by Cartesian product.
  Tuple Concat(const Tuple& other) const;

  /// Projection onto the given positional indices, in the given order.
  Tuple Project(std::span<const std::size_t> indices) const;
  Tuple Project(std::span<const std::uint32_t> indices) const;

  friend auto operator<=>(const Tuple&, const Tuple&) = default;

 private:
  std::vector<ObjectId> values_;
};

/// Hash functor for the hashed relational kernels (Relation storage, join
/// indexes). Each ObjectId is packed into 64 bits, finalized with the
/// splitmix64 mixer, and folded in with a multiply-xor combine; seeding
/// with the arity separates the nullary tuple from empty prefixes.
struct TupleHash {
  std::size_t operator()(const Tuple& t) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ t.arity();
    for (const ObjectId& o : t.values()) {
      std::uint64_t v =
          (static_cast<std::uint64_t>(o.class_id()) << 32) | o.index();
      v ^= v >> 30;
      v *= 0xbf58476d1ce4e5b9ull;
      v ^= v >> 27;
      v *= 0x94d049bb133111ebull;
      v ^= v >> 31;
      h = (h ^ v) * 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace setrec

#endif  // SETREC_RELATIONAL_TUPLE_H_
