#include "relational/relation.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"

namespace setrec {

Status Relation::Insert(Tuple tuple) {
  if (tuple.arity() != scheme_.arity()) {
    return Status::InvalidArgument("tuple arity does not match scheme");
  }
  for (std::size_t i = 0; i < tuple.arity(); ++i) {
    if (tuple.at(i).class_id() != scheme_.attribute(i).domain) {
      return Status::InvalidArgument(
          "tuple value violates attribute domain at position " +
          std::to_string(i) + " (attribute " + scheme_.attribute(i).name +
          ")");
    }
  }
  tuples_.insert(std::move(tuple));
  InvalidateSortedCache();
  return Status::OK();
}

std::vector<const Tuple*> Relation::SortedTuples() const {
  std::lock_guard<std::mutex> lock(sorted_mu_);
  if (!sorted_valid_) {
    sorted_.clear();
    sorted_.reserve(tuples_.size());
    for (const Tuple& t : tuples_) sorted_.push_back(&t);
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Tuple* a, const Tuple* b) { return *a < *b; });
    sorted_valid_ = true;
  }
  return sorted_;
}

BoundRelation::Rows BoundRelation::RowsWithFirst(ObjectId key) const {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  return {pairs_->lower_bound({key, ObjectId(0, 0)}),
          pairs_->upper_bound({key, ObjectId(kMax, kMax)})};
}

const std::shared_ptr<const Relation>& BoundRelation::Materialized() const {
  std::call_once(once_, [this] {
    Relation rel(scheme_);
    for (const auto& [first, second] : *pairs_) {
      rel.InsertValidated(Tuple{first, second});
    }
    if (materialized_rows_ != nullptr) materialized_rows_->Add(rel.size());
    materialized_ = std::make_shared<const Relation>(std::move(rel));
  });
  return materialized_;
}

void Database::Put(std::string name, Relation relation) {
  relations_.insert_or_assign(
      std::move(name),
      Slot{std::make_shared<const Relation>(std::move(relation)), nullptr});
}

void Database::PutShared(std::string name,
                         std::shared_ptr<const Relation> relation) {
  relations_.insert_or_assign(std::move(name),
                              Slot{std::move(relation), nullptr});
}

Status Database::Bind(std::string name, RelationScheme scheme,
                      const SortedPairs* pairs, Counter* materialized_rows) {
  if (scheme.arity() != 2) {
    return Status::InvalidArgument("a bound relation must be binary: " + name);
  }
  relations_.insert_or_assign(
      std::move(name),
      Slot{nullptr, std::make_shared<const BoundRelation>(
                        std::move(scheme), pairs, materialized_rows)});
  return Status::OK();
}

bool Database::Has(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

Result<const Database::Slot*> Database::FindSlot(std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  return &it->second;
}

Result<const Relation*> Database::Find(std::string_view name) const {
  SETREC_ASSIGN_OR_RETURN(const Slot* slot, FindSlot(name));
  return slot->Whole().get();
}

Result<std::shared_ptr<const Relation>> Database::FindShared(
    std::string_view name) const {
  SETREC_ASSIGN_OR_RETURN(const Slot* slot, FindSlot(name));
  return slot->Whole();
}

Result<const RelationScheme*> Database::FindScheme(
    std::string_view name) const {
  SETREC_ASSIGN_OR_RETURN(const Slot* slot, FindSlot(name));
  return slot->bound != nullptr ? &slot->bound->scheme()
                                : &slot->relation->scheme();
}

Result<std::size_t> Database::FindSize(std::string_view name) const {
  SETREC_ASSIGN_OR_RETURN(const Slot* slot, FindSlot(name));
  return slot->bound != nullptr ? slot->bound->size()
                                : slot->relation->size();
}

const BoundRelation* Database::FindBound(std::string_view name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.bound.get();
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, slot] : relations_) out.push_back(name);
  return out;
}

bool operator==(const Database& a, const Database& b) {
  if (a.relations_.size() != b.relations_.size()) return false;
  auto ita = a.relations_.begin();
  auto itb = b.relations_.begin();
  for (; ita != a.relations_.end(); ++ita, ++itb) {
    if (ita->first != itb->first) return false;
    const std::shared_ptr<const Relation>& ra = ita->second.Whole();
    const std::shared_ptr<const Relation>& rb = itb->second.Whole();
    if (ra == rb) continue;  // shared storage
    if (!(*ra == *rb)) return false;
  }
  return true;
}

}  // namespace setrec
