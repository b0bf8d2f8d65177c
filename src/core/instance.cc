#include "core/instance.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>
#include <tuple>

namespace setrec {

namespace {
const ChunkedSet<ObjectId> kEmptyObjects;
const ChunkedSet<std::pair<ObjectId, ObjectId>> kEmptyEdges;
}  // namespace

void CountClonedItems(std::size_t items) {
  InstanceCosts().cloned_items.Add(items);
}

/// The recorded mutations of the open journal scopes, oldest first. Object
/// operations keep their object in `edge.source`; an assignment keeps the
/// delta it applied.
struct Instance::Journal {
  enum class Op : std::uint8_t {
    kAddObject,
    kRemoveObject,
    kAddEdge,
    kRemoveEdge,
    kAssign,
  };
  struct Entry {
    Op op;
    Edge edge;
    std::unique_ptr<const InstanceDelta> assigned;
  };

  void Object(Op op, ObjectId object) {
    entries.push_back(Entry{op, Edge{object, 0, object}, nullptr});
  }
  void EdgeOp(Op op, ObjectId source, PropertyId property, ObjectId target) {
    entries.push_back(Entry{op, Edge{source, property, target}, nullptr});
  }

  std::vector<Entry> entries;
  /// entries.size() when each open scope began, innermost last.
  std::vector<std::size_t> marks;
};

Instance::Instance(const Schema* schema) : schema_(schema) {
  assert(schema != nullptr);
}

Instance::Instance(const Instance& other)
    : schema_(other.schema_), objects_(other.objects_), edges_(other.edges_) {
  InstanceCosts().copies.Add(1);
}

Instance::Instance(Instance&& other) noexcept
    : schema_(other.schema_),
      objects_(std::move(other.objects_)),
      edges_(std::move(other.edges_)) {}

Instance& Instance::operator=(const Instance& other) {
  if (this == &other) return *this;
  if (journal_ != nullptr) JournalAssignment(other);
  schema_ = other.schema_;
  objects_ = other.objects_;
  edges_ = other.edges_;
  InstanceCosts().copies.Add(1);
  return *this;
}

Instance& Instance::operator=(Instance&& other) {
  if (this == &other) return *this;
  if (journal_ != nullptr) JournalAssignment(other);
  schema_ = other.schema_;
  objects_ = std::move(other.objects_);
  edges_ = std::move(other.edges_);
  return *this;
}

Instance::~Instance() = default;

void Instance::JournalAssignment(const Instance& other) {
  journal_->entries.push_back(
      Journal::Entry{Journal::Op::kAssign, Edge{ObjectId(0, 0), 0, ObjectId(0, 0)},
                     std::make_unique<const InstanceDelta>(
                         DiffInstances(*this, other))});
}

Status Instance::AddObject(ObjectId object) {
  if (!schema_->HasClass(object.class_id())) {
    return Status::InvalidArgument("object class unknown to schema");
  }
  const bool inserted = objects_[object.class_id()].insert(object);
  if (inserted && journal_ != nullptr) {
    journal_->Object(Journal::Op::kAddObject, object);
  }
  return Status::OK();
}

Status Instance::AddEdge(ObjectId source, PropertyId property,
                         ObjectId target) {
  if (!schema_->HasProperty(property)) {
    return Status::InvalidArgument("property unknown to schema");
  }
  const Schema::PropertyDef& def = schema_->property(property);
  if (source.class_id() != def.source || target.class_id() != def.target) {
    return Status::InvalidArgument("edge endpoints violate property typing: " +
                                   def.name);
  }
  if (!HasObject(source) || !HasObject(target)) {
    return Status::FailedPrecondition(
        "edge endpoints must be present in the instance");
  }
  const bool inserted = edges_[property].insert({source, target});
  if (inserted && journal_ != nullptr) {
    journal_->EdgeOp(Journal::Op::kAddEdge, source, property, target);
  }
  return Status::OK();
}

Status Instance::RemoveEdge(ObjectId source, PropertyId property,
                            ObjectId target) {
  auto it = edges_.find(property);
  if (it != edges_.end()) {
    if (it->second.erase({source, target}) != 0 && journal_ != nullptr) {
      journal_->EdgeOp(Journal::Op::kRemoveEdge, source, property, target);
    }
    if (it->second.empty()) edges_.erase(it);
  }
  return Status::OK();
}

Status Instance::RemoveObject(ObjectId object) {
  const ClassId cls = object.class_id();
  auto it = objects_.find(cls);
  if (it == objects_.end() || !it->second.contains(object)) {
    return Status::OK();
  }
  // Drop incident edges so the graph stays proper. Typing confines them to
  // properties whose source or target class is the object's class. The
  // scan for incoming edges reads every pair but writes (and so clones)
  // only the chunks it removes from.
  for (auto eit = edges_.begin(); eit != edges_.end();) {
    const PropertyId property = eit->first;
    const Schema::PropertyDef& def = schema_->property(property);
    auto& pairs = eit->second;
    auto drop = [&](const std::pair<ObjectId, ObjectId>& pair) {
      if (journal_ != nullptr) {
        journal_->EdgeOp(Journal::Op::kRemoveEdge, pair.first, property,
                         pair.second);
      }
      return true;
    };
    if (def.source == cls) {
      pairs.erase_run({object, ObjectId(0, 0)}, [&](const auto& pair) {
        return pair.first == object && drop(pair);
      });
    }
    if (def.target == cls) {
      pairs.erase_if([&](const auto& pair) {
        return pair.second == object && drop(pair);
      });
    }
    eit = pairs.empty() ? edges_.erase(eit) : std::next(eit);
  }
  it->second.erase(object);
  if (it->second.empty()) objects_.erase(it);
  if (journal_ != nullptr) journal_->Object(Journal::Op::kRemoveObject, object);
  return Status::OK();
}

Status Instance::ClearEdgesFrom(ObjectId source, PropertyId property) {
  auto it = edges_.find(property);
  if (it == edges_.end()) return Status::OK();
  auto& pairs = it->second;
  pairs.erase_run({source, ObjectId(0, 0)}, [&](const auto& pair) {
    if (pair.first != source) return false;
    if (journal_ != nullptr) {
      journal_->EdgeOp(Journal::Op::kRemoveEdge, source, property, pair.second);
    }
    return true;
  });
  if (pairs.empty()) edges_.erase(it);
  return Status::OK();
}

void Instance::InsertObjectRaw(ObjectId object) {
  objects_[object.class_id()].insert(object);
}

void Instance::EraseObjectRaw(ObjectId object) {
  auto it = objects_.find(object.class_id());
  if (it == objects_.end()) return;
  it->second.erase(object);
  if (it->second.empty()) objects_.erase(it);
}

void Instance::InsertEdgeRaw(const Edge& e) {
  edges_[e.property].insert({e.source, e.target});
}

void Instance::EraseEdgeRaw(const Edge& e) {
  auto it = edges_.find(e.property);
  if (it == edges_.end()) return;
  it->second.erase({e.source, e.target});
  if (it->second.empty()) edges_.erase(it);
}

void Instance::BeginJournal() {
  if (journal_ == nullptr) journal_ = std::make_unique<Journal>();
  journal_->marks.push_back(journal_->entries.size());
}

void Instance::EndJournal() {
  assert(journal_ != nullptr);
  journal_->marks.pop_back();
  if (journal_->marks.empty()) journal_.reset();
}

bool Instance::HasObject(ObjectId object) const {
  auto it = objects_.find(object.class_id());
  return it != objects_.end() && it->second.contains(object);
}

bool Instance::HasEdge(ObjectId source, PropertyId property,
                       ObjectId target) const {
  auto it = edges_.find(property);
  return it != edges_.end() && it->second.contains({source, target});
}

const ChunkedSet<ObjectId>& Instance::objects(ClassId class_id) const {
  auto it = objects_.find(class_id);
  return it == objects_.end() ? kEmptyObjects : it->second;
}

const ChunkedSet<std::pair<ObjectId, ObjectId>>& Instance::edges(
    PropertyId property) const {
  auto it = edges_.find(property);
  return it == edges_.end() ? kEmptyEdges : it->second;
}

std::vector<ObjectId> Instance::Targets(ObjectId source,
                                        PropertyId property) const {
  std::vector<ObjectId> out;
  auto it = edges_.find(property);
  if (it == edges_.end()) return out;
  for (auto lo = it->second.lower_bound({source, ObjectId(0, 0)});
       lo != it->second.end() && lo->first == source; ++lo) {
    out.push_back(lo->second);
  }
  return out;
}

std::size_t Instance::num_objects() const {
  std::size_t n = 0;
  for (const auto& [cls, objs] : objects_) n += objs.size();
  return n;
}

std::size_t Instance::num_edges() const {
  std::size_t n = 0;
  for (const auto& [property, pairs] : edges_) n += pairs.size();
  return n;
}

std::vector<ObjectId> Instance::AllObjects() const {
  std::vector<ObjectId> out;
  out.reserve(num_objects());
  for (const auto& [cls, objs] : objects_) {
    out.insert(out.end(), objs.begin(), objs.end());
  }
  return out;
}

std::vector<Edge> Instance::AllEdges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (const auto& [property, pairs] : edges_) {
    for (const auto& [source, target] : pairs) {
      out.push_back(Edge{source, property, target});
    }
  }
  return out;
}

namespace {

/// AllEdges() emits edges sorted by (property, source, target); Edge's
/// built-in ordering is (source, property, target). set_difference needs the
/// comparator that matches the emitted order.
struct EmittedEdgeOrder {
  bool operator()(const Edge& a, const Edge& b) const {
    return std::tie(a.property, a.source, a.target) <
           std::tie(b.property, b.source, b.target);
  }
};

template <typename T, typename Cmp = std::less<T>>
void SortedDifference(const std::vector<T>& a, const std::vector<T>& b,
                      std::vector<T>& out, Cmp cmp = Cmp{}) {
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out), cmp);
}

}  // namespace

InstanceDelta Instance::JournalDelta() const {
  assert(journal_ != nullptr);
  const auto first = journal_->entries.begin() +
                     static_cast<std::ptrdiff_t>(journal_->marks.back());
  const auto last = journal_->entries.end();
  // A lone assignment already holds its canonical net delta.
  if (last - first == 1 && first->op == Journal::Op::kAssign) {
    return *first->assigned;
  }
  // Every recorded mutation was effective, so an item's first touch tells
  // whether it was present when the scope began; the current state tells
  // whether it is present now. Items whose two answers differ form the net
  // delta.
  std::vector<std::pair<ObjectId, bool>> objects;  // (object, was present)
  std::vector<std::pair<Edge, bool>> edges;
  for (auto it = first; it != last; ++it) {
    switch (it->op) {
      case Journal::Op::kAddObject:
      case Journal::Op::kRemoveObject:
        objects.emplace_back(it->edge.source,
                             it->op == Journal::Op::kRemoveObject);
        break;
      case Journal::Op::kAddEdge:
      case Journal::Op::kRemoveEdge:
        edges.emplace_back(it->edge, it->op == Journal::Op::kRemoveEdge);
        break;
      case Journal::Op::kAssign:
        for (ObjectId o : it->assigned->removed_objects) {
          objects.emplace_back(o, true);
        }
        for (ObjectId o : it->assigned->added_objects) {
          objects.emplace_back(o, false);
        }
        for (const Edge& e : it->assigned->removed_edges) {
          edges.emplace_back(e, true);
        }
        for (const Edge& e : it->assigned->added_edges) {
          edges.emplace_back(e, false);
        }
        break;
    }
  }
  std::stable_sort(objects.begin(), objects.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::stable_sort(edges.begin(), edges.end(),
                   [](const auto& a, const auto& b) {
                     return EmittedEdgeOrder{}(a.first, b.first);
                   });
  InstanceDelta delta;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i != 0 && objects[i].first == objects[i - 1].first) continue;
    const auto& [object, was] = objects[i];
    const bool is = HasObject(object);
    if (was && !is) delta.removed_objects.push_back(object);
    if (!was && is) delta.added_objects.push_back(object);
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i != 0 && edges[i].first == edges[i - 1].first) continue;
    const auto& [e, was] = edges[i];
    const bool is = HasEdge(e.source, e.property, e.target);
    if (was && !is) delta.removed_edges.push_back(e);
    if (!was && is) delta.added_edges.push_back(e);
  }
  return delta;
}

void Instance::Rollback() {
  assert(journal_ != nullptr);
  std::vector<Journal::Entry>& entries = journal_->entries;
  const std::size_t mark = journal_->marks.back();
  while (entries.size() > mark) {
    const Journal::Entry& entry = entries.back();
    switch (entry.op) {
      case Journal::Op::kAddObject:
        // Edges added to the object since were undone before this entry.
        EraseObjectRaw(entry.edge.source);
        break;
      case Journal::Op::kRemoveObject:
        InsertObjectRaw(entry.edge.source);
        break;
      case Journal::Op::kAddEdge:
        EraseEdgeRaw(entry.edge);
        break;
      case Journal::Op::kRemoveEdge:
        InsertEdgeRaw(entry.edge);
        break;
      case Journal::Op::kAssign: {
        const InstanceDelta& d = *entry.assigned;
        for (const Edge& e : d.added_edges) EraseEdgeRaw(e);
        for (ObjectId o : d.added_objects) EraseObjectRaw(o);
        for (ObjectId o : d.removed_objects) InsertObjectRaw(o);
        for (const Edge& e : d.removed_edges) InsertEdgeRaw(e);
        break;
      }
    }
    entries.pop_back();
  }
}

InstanceDelta DiffInstances(const Instance& before, const Instance& after) {
  InstanceCosts().diffs.Add(1);
  InstanceDelta delta;
  const std::vector<ObjectId> before_objects = before.AllObjects();
  const std::vector<ObjectId> after_objects = after.AllObjects();
  SortedDifference(before_objects, after_objects, delta.removed_objects);
  SortedDifference(after_objects, before_objects, delta.added_objects);
  const std::vector<Edge> before_edges = before.AllEdges();
  const std::vector<Edge> after_edges = after.AllEdges();
  SortedDifference(before_edges, after_edges, delta.removed_edges,
                   EmittedEdgeOrder{});
  SortedDifference(after_edges, before_edges, delta.added_edges,
                   EmittedEdgeOrder{});
  return delta;
}

Status ApplyDelta(Instance& instance, const InstanceDelta& delta) {
  // Removals first (edges before objects, though RemoveObject would cascade
  // anyway), then additions (objects before the edges that need them).
  for (const Edge& e : delta.removed_edges) {
    SETREC_RETURN_IF_ERROR(instance.RemoveEdge(e.source, e.property, e.target));
  }
  for (ObjectId o : delta.removed_objects) {
    SETREC_RETURN_IF_ERROR(instance.RemoveObject(o));
  }
  for (ObjectId o : delta.added_objects) {
    SETREC_RETURN_IF_ERROR(instance.AddObject(o));
  }
  for (const Edge& e : delta.added_edges) {
    SETREC_RETURN_IF_ERROR(instance.AddEdge(e));
  }
  return Status::OK();
}

InstanceDelta InverseDelta(const InstanceDelta& delta) {
  InstanceDelta inverse;
  inverse.removed_objects = delta.added_objects;
  inverse.added_objects = delta.removed_objects;
  inverse.removed_edges = delta.added_edges;
  inverse.added_edges = delta.removed_edges;
  return inverse;
}

Status RunJournaled(Instance& instance, const std::function<Status()>& mutate,
                    const std::function<Status(const InstanceDelta&)>& commit,
                    InstanceDelta* committed) {
  instance.BeginJournal();
  Status status = mutate();
  InstanceDelta delta;
  if (status.ok()) {
    delta = instance.JournalDelta();
    if (commit) status = commit(delta);
  }
  if (!status.ok()) instance.Rollback();
  instance.EndJournal();
  if (status.ok() && committed != nullptr) *committed = std::move(delta);
  return status;
}

InstanceCostCounters& InstanceCosts() {
  static InstanceCostCounters counters;
  return counters;
}

bool Instance::IsSubInstanceOf(const Instance& other) const {
  for (const auto& [cls, objs] : objects_) {
    const auto& theirs = other.objects(cls);
    for (ObjectId o : objs) {
      if (!theirs.contains(o)) return false;
    }
  }
  for (const auto& [property, pairs] : edges_) {
    const auto& theirs = other.edges(property);
    for (const auto& pair : pairs) {
      if (!theirs.contains(pair)) return false;
    }
  }
  return true;
}

}  // namespace setrec
