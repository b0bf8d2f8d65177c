#ifndef SETREC_CORE_INSTANCE_H_
#define SETREC_CORE_INSTANCE_H_

#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/chunked_set.h"
#include "core/ids.h"
#include "core/schema.h"
#include "core/status.h"
#include "obs/metrics.h"

namespace setrec {

struct InstanceDelta;

/// A property link (o, e, p) between two objects (Definition 2.2).
struct Edge {
  ObjectId source;
  PropertyId property;
  ObjectId target;

  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// An instance of an object-base schema (Definition 2.2): a finite labeled
/// directed graph whose nodes are objects and whose edges are property links
/// conforming to the schema. An Instance is always a *proper* graph — every
/// edge's endpoints are present (contrast PartialInstance). All mutators
/// preserve this invariant: RemoveObject also removes incident edges.
///
/// Equality is full graph equality (same objects, same edges), which is the
/// notion of sameness used by all order-independence definitions.
///
/// Storage. Each class's objects and each property's (source, target)
/// pairs are a ChunkedSet: sorted chunks shared copy-on-write. So copying an
/// instance costs O(classes + properties) pointer copies and copies no
/// item; a later write to either side clones only the chunk it touches
/// (counted in InstanceCosts().cloned_items).
///
/// Mutation journal. While a journal scope is open (BeginJournal), every
/// *effective* mutation is recorded — a no-op (adding a present item,
/// removing an absent one) records nothing; RemoveObject records each
/// cascaded edge removal; a copy- or move-assignment onto the instance
/// records one DiffInstances(old, new). JournalDelta() then reports the
/// scope's net effect in exactly the canonical form DiffInstances would
/// (so it prints the same WAL text), and Rollback() undoes the scope by
/// applying the recorded inverses in reverse order. Both cost O(|journal|),
/// not O(|instance|): this is what lets a commit pay for its change instead
/// of for the whole instance. Scopes nest; an inner scope's mutations stay
/// recorded in the enclosing scope when it ends. Copies (and moves) never
/// inherit a journal.
class Instance {
 public:
  /// An empty instance of `schema`; the schema must outlive the instance.
  explicit Instance(const Schema* schema);

  /// Shares the graph (see Storage), never the journal. Counted in
  /// InstanceCosts().copies.
  Instance(const Instance& other);
  Instance(Instance&& other) noexcept;
  /// Replaces the graph. A copy is counted in InstanceCosts().copies; on a
  /// journaling instance the replacement is recorded as one DiffInstances.
  Instance& operator=(const Instance& other);
  Instance& operator=(Instance&& other);
  ~Instance();

  const Schema& schema() const { return *schema_; }

  // -- Mutators (all preserve graph validity) --------------------------------

  /// Inserts an object; no-op (OK) if already present. Fails if the object's
  /// class is unknown to the schema.
  Status AddObject(ObjectId object);

  /// Inserts the edge (source, property, target). Fails unless the property
  /// exists, both endpoints are present, and their classes match the
  /// property's declaration. No-op (OK) if the edge already exists.
  Status AddEdge(ObjectId source, PropertyId property, ObjectId target);
  Status AddEdge(const Edge& e) { return AddEdge(e.source, e.property, e.target); }

  /// Removes an edge; no-op (OK) if absent.
  Status RemoveEdge(ObjectId source, PropertyId property, ObjectId target);

  /// Removes an object *and all its incident edges* (so that the result is
  /// again a proper graph); no-op (OK) if absent.
  Status RemoveObject(ObjectId object);

  /// Removes every `property` edge leaving `source`. Used by the algebraic
  /// update semantics (Definition 5.4(5)), which replaces all a-edges leaving
  /// the receiving object.
  Status ClearEdgesFrom(ObjectId source, PropertyId property);

  // -- Queries ----------------------------------------------------------------

  bool HasObject(ObjectId object) const;
  bool HasEdge(ObjectId source, PropertyId property, ObjectId target) const;

  /// The class C of `class_id` — all objects labeled by that class name.
  const ChunkedSet<ObjectId>& objects(ClassId class_id) const;

  /// All (source, target) pairs linked by `property`, in sorted order.
  const ChunkedSet<std::pair<ObjectId, ObjectId>>& edges(
      PropertyId property) const;

  /// Targets of `property` edges leaving `source`, in sorted order.
  std::vector<ObjectId> Targets(ObjectId source, PropertyId property) const;

  std::size_t num_objects() const;
  std::size_t num_edges() const;

  /// Every object of every class, in (class, index) order.
  std::vector<ObjectId> AllObjects() const;
  /// Every edge of every property, in (property, source, target) order.
  std::vector<Edge> AllEdges() const;

  /// True when every object and edge of this instance is also in `other`.
  /// This is the item-set inclusion I ⊆ J used to define inflationary and
  /// deflationary updates (Propositions 4.10 and 4.19).
  bool IsSubInstanceOf(const Instance& other) const;

  friend bool operator==(const Instance& a, const Instance& b) {
    return a.objects_ == b.objects_ && a.edges_ == b.edges_;
  }

  // -- Mutation journal -------------------------------------------------------

  /// Opens a journal scope: from here on every effective mutation is
  /// recorded until the matching EndJournal().
  void BeginJournal();
  /// Closes the innermost scope, keeping its mutations (they remain
  /// recorded in the enclosing scope, if any).
  void EndJournal();
  bool journaling() const { return journal_ != nullptr; }

  /// The net effect of the innermost scope's mutations, sorted exactly as
  /// DiffInstances(state at BeginJournal, current state) emits it. Items
  /// changed and changed back cancel out. Requires an open scope.
  InstanceDelta JournalDelta() const;

  /// Undoes the innermost scope's mutations in reverse order, restoring the
  /// state at its BeginJournal() bit-identically. The scope stays open and
  /// empty. Requires an open scope.
  void Rollback();

 private:
  friend class PartialInstance;
  struct Journal;

  // Unchecked, unjournaled primitives used to undo journaled mutations.
  void InsertObjectRaw(ObjectId object);
  void EraseObjectRaw(ObjectId object);
  void InsertEdgeRaw(const Edge& e);
  void EraseEdgeRaw(const Edge& e);
  /// Records a wholesale replacement of the graph by `other`'s.
  void JournalAssignment(const Instance& other);

  const Schema* schema_;
  // Keyed maps keep iteration deterministic; absent keys mean empty sets.
  std::map<ClassId, ChunkedSet<ObjectId>> objects_;
  std::map<PropertyId, ChunkedSet<std::pair<ObjectId, ObjectId>>> edges_;
  // Null when no journal scope is open.
  std::unique_ptr<Journal> journal_;
};

/// The item-set difference between two instances over the same schema: the
/// physical redo record of a committed statement. Applying a delta to the
/// "before" instance reproduces the "after" instance exactly, which is what
/// the durability layer (store/) persists per commit and replays on
/// recovery. All four vectors are sorted (the order AllObjects/AllEdges
/// produce), making deltas canonical: equal state changes print identically.
struct InstanceDelta {
  std::vector<ObjectId> removed_objects;
  std::vector<ObjectId> added_objects;
  std::vector<Edge> removed_edges;
  std::vector<Edge> added_edges;

  bool empty() const {
    return removed_objects.empty() && added_objects.empty() &&
           removed_edges.empty() && added_edges.empty();
  }
  std::size_t size() const {
    return removed_objects.size() + added_objects.size() +
           removed_edges.size() + added_edges.size();
  }

  friend bool operator==(const InstanceDelta&, const InstanceDelta&) = default;
};

/// Computes the canonical delta taking `before` to `after`. Both instances
/// must be over the same schema.
InstanceDelta DiffInstances(const Instance& before, const Instance& after);

/// Applies a delta in redo order (remove edges, remove objects, add objects,
/// add edges). Fails only when the delta does not fit the instance (e.g. an
/// added edge's endpoint is absent), leaving a prefix applied — callers
/// that need all-or-nothing semantics run it under RunJournaled.
Status ApplyDelta(Instance& instance, const InstanceDelta& delta);

/// The delta undoing `delta`: additions and removals swap roles, so
/// ApplyDelta(after, InverseDelta(DiffInstances(before, after))) restores
/// `before`.
InstanceDelta InverseDelta(const InstanceDelta& delta);

/// Runs `mutate` on `instance` as one all-or-nothing statement. A journal
/// scope records the mutation; on success its net delta goes to `commit`,
/// if one is given — the commit-hook interposition of the durability
/// layer. Any failure, of `mutate` or a veto by `commit`, rolls the
/// instance back through the journal and propagates. `committed`, when
/// non-null, receives the delta of a successful run.
Status RunJournaled(
    Instance& instance, const std::function<Status()>& mutate,
    const std::function<Status(const InstanceDelta&)>& commit,
    InstanceDelta* committed = nullptr);

/// Process-wide counts of the work whose cost grows with the whole
/// instance rather than with a statement's change: Instance copies (copy
/// construction and copy assignment; each shares the graph, see Storage),
/// the items a write copies when it clones a chunk that a copy shares,
/// DiffInstances calls, EncodeInstance calls that encode every relation,
/// and the rows materialized from an instance into relations (by either
/// EncodeInstance overload, BindInstance's class relations, or a bound
/// relation's first whole read; objrel/encoding.h). Counts only grow;
/// tests pin per-commit differences of them.
struct InstanceCostCounters {
  Counter copies;
  Counter cloned_items;
  Counter diffs;
  Counter encodes;
  Counter encoded_rows;
};
InstanceCostCounters& InstanceCosts();

}  // namespace setrec

#endif  // SETREC_CORE_INSTANCE_H_
