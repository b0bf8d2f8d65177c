#include "relational/schema.h"

#include <utility>

namespace setrec {

Result<RelationScheme> RelationScheme::Make(
    std::vector<Attribute> attributes) {
  // Schemes are narrow: a pairwise scan beats building a set.
  for (std::size_t i = 0; i < attributes.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (attributes[j].name == attributes[i].name) {
        return Status::InvalidArgument("duplicate attribute name: " +
                                       attributes[i].name);
      }
    }
  }
  RelationScheme scheme;
  scheme.attributes_ = std::move(attributes);
  return scheme;
}

bool RelationScheme::HasAttribute(std::string_view name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) return true;
  }
  return false;
}

Result<std::size_t> RelationScheme::IndexOf(std::string_view name) const {
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute named " + std::string(name));
}

Status Catalog::AddRelation(std::string name, RelationScheme scheme) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  auto [it, inserted] = relations_.emplace(std::move(name), std::move(scheme));
  if (!inserted) {
    return Status::AlreadyExists("duplicate relation name: " + it->first);
  }
  return Status::OK();
}

bool Catalog::Has(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

Result<const RelationScheme*> Catalog::Find(std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + std::string(name));
  }
  return &it->second;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [name, scheme] : relations_) out.push_back(name);
  return out;
}

}  // namespace setrec
