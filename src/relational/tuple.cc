#include "relational/tuple.h"

namespace setrec {

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<ObjectId> out;
  out.reserve(values_.size() + other.values_.size());
  out.insert(out.end(), values_.begin(), values_.end());
  out.insert(out.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(out));
}

namespace {
template <typename Index>
std::vector<ObjectId> Pick(const std::vector<ObjectId>& values,
                           std::span<const Index> indices) {
  std::vector<ObjectId> out;
  out.reserve(indices.size());
  for (Index i : indices) out.push_back(values[i]);
  return out;
}
}  // namespace

Tuple Tuple::Project(std::span<const std::size_t> indices) const {
  return Tuple(Pick(values_, indices));
}

Tuple Tuple::Project(std::span<const std::uint32_t> indices) const {
  return Tuple(Pick(values_, indices));
}

}  // namespace setrec
