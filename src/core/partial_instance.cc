#include "core/partial_instance.h"

#include <cassert>

namespace setrec {

namespace {

template <typename K, typename V>
std::map<K, std::set<V>> MapUnion(const std::map<K, std::set<V>>& a,
                                  const std::map<K, std::set<V>>& b) {
  std::map<K, std::set<V>> out = a;
  for (const auto& [key, values] : b) {
    out[key].insert(values.begin(), values.end());
  }
  return out;
}

template <typename K, typename V>
std::map<K, std::set<V>> MapDifference(const std::map<K, std::set<V>>& a,
                                       const std::map<K, std::set<V>>& b) {
  std::map<K, std::set<V>> out;
  for (const auto& [key, values] : a) {
    std::set<V> kept;
    auto bit = b.find(key);
    if (bit == b.end()) {
      kept = values;
    } else {
      for (const V& v : values) {
        if (!bit->second.contains(v)) kept.insert(v);
      }
    }
    if (!kept.empty()) out.emplace(key, std::move(kept));
  }
  return out;
}

template <typename K, typename V>
std::map<K, std::set<V>> MapIntersection(const std::map<K, std::set<V>>& a,
                                         const std::map<K, std::set<V>>& b) {
  std::map<K, std::set<V>> out;
  for (const auto& [key, values] : a) {
    auto bit = b.find(key);
    if (bit == b.end()) continue;
    std::set<V> kept;
    for (const V& v : values) {
      if (bit->second.contains(v)) kept.insert(v);
    }
    if (!kept.empty()) out.emplace(key, std::move(kept));
  }
  return out;
}

}  // namespace

PartialInstance::PartialInstance(const Schema* schema) : schema_(schema) {
  assert(schema != nullptr);
}

PartialInstance PartialInstance::FromInstance(const Instance& instance) {
  PartialInstance out(&instance.schema());
  for (const auto& [cls, objs] : instance.objects_) {
    out.objects_.emplace(cls, std::set<ObjectId>(objs.begin(), objs.end()));
  }
  for (const auto& [property, pairs] : instance.edges_) {
    out.edges_.emplace(property, std::set<std::pair<ObjectId, ObjectId>>(
                                     pairs.begin(), pairs.end()));
  }
  return out;
}

Status PartialInstance::AddObject(ObjectId object) {
  if (!schema_->HasClass(object.class_id())) {
    return Status::InvalidArgument("object class unknown to schema");
  }
  objects_[object.class_id()].insert(object);
  return Status::OK();
}

Status PartialInstance::AddEdge(ObjectId source, PropertyId property,
                                ObjectId target) {
  if (!schema_->HasProperty(property)) {
    return Status::InvalidArgument("property unknown to schema");
  }
  const Schema::PropertyDef& def = schema_->property(property);
  if (source.class_id() != def.source || target.class_id() != def.target) {
    return Status::InvalidArgument("edge endpoints violate property typing: " +
                                   def.name);
  }
  edges_[property].emplace(source, target);
  return Status::OK();
}

bool PartialInstance::HasObject(ObjectId object) const {
  auto it = objects_.find(object.class_id());
  return it != objects_.end() && it->second.contains(object);
}

bool PartialInstance::HasEdge(ObjectId source, PropertyId property,
                              ObjectId target) const {
  auto it = edges_.find(property);
  return it != edges_.end() && it->second.contains({source, target});
}

std::size_t PartialInstance::num_items() const {
  std::size_t n = 0;
  for (const auto& [cls, objs] : objects_) n += objs.size();
  for (const auto& [property, pairs] : edges_) n += pairs.size();
  return n;
}

PartialInstance PartialInstance::Union(const PartialInstance& other) const {
  PartialInstance out(schema_);
  out.objects_ = MapUnion(objects_, other.objects_);
  out.edges_ = MapUnion(edges_, other.edges_);
  return out;
}

PartialInstance PartialInstance::Difference(
    const PartialInstance& other) const {
  PartialInstance out(schema_);
  out.objects_ = MapDifference(objects_, other.objects_);
  out.edges_ = MapDifference(edges_, other.edges_);
  return out;
}

PartialInstance PartialInstance::Intersection(
    const PartialInstance& other) const {
  PartialInstance out(schema_);
  out.objects_ = MapIntersection(objects_, other.objects_);
  out.edges_ = MapIntersection(edges_, other.edges_);
  return out;
}

Instance PartialInstance::G() const {
  Instance out(schema_);
  for (const auto& [cls, objs] : objects_) {
    for (ObjectId o : objs) {
      Status s = out.AddObject(o);
      assert(s.ok());
      (void)s;
    }
  }
  for (const auto& [property, pairs] : edges_) {
    for (const auto& [source, target] : pairs) {
      if (HasObject(source) && HasObject(target)) {
        Status s = out.AddEdge(source, property, target);
        assert(s.ok());
        (void)s;
      }
    }
  }
  return out;
}

PartialInstance PartialInstance::Restrict(const Instance& instance,
                                          const SchemaItemSet& items) {
  PartialInstance out(&instance.schema());
  for (ClassId c : items.classes()) {
    const auto& objs = instance.objects(c);
    if (!objs.empty()) out.objects_[c].insert(objs.begin(), objs.end());
  }
  for (PropertyId p : items.properties()) {
    const auto& pairs = instance.edges(p);
    if (!pairs.empty()) out.edges_[p].insert(pairs.begin(), pairs.end());
  }
  return out;
}

}  // namespace setrec
