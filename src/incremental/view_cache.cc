#include "incremental/view_cache.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "objrel/encoding.h"

namespace setrec {

namespace {

using TupleSet = std::unordered_set<Tuple, TupleHash>;

/// Exact insert/delete delta of one plan node's output: `added` is disjoint
/// from the node's pre-refresh output, `removed` is contained in it.
struct NodeDelta {
  TupleSet added;
  TupleSet removed;

  std::size_t size() const { return added.size() + removed.size(); }
  bool empty() const { return added.empty() && removed.empty(); }

  /// Cancel-aware mutators: adding a tuple whose removal is pending (or
  /// vice versa) annihilates instead of recording both. With them, delta
  /// rules may discover the same (old, new) transition from two directions
  /// — the two-phase join does — and still emit an exact delta.
  void Add(Tuple t) {
    if (removed.erase(t) == 0) added.insert(std::move(t));
  }
  void Remove(Tuple t) {
    if (added.erase(t) == 0) removed.insert(std::move(t));
  }
};

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One registered view: its lowered plan, the delta-state nodes mapped onto
/// it (children precede parents in `nodes`; the root is last), and the
/// per-node memo state the delta rules maintain — materialized outputs,
/// join indexes keyed by the join attributes, and projection support
/// counts.
struct ViewCache::View {
  struct Node {
    enum class Kind {
      kBase,        // leaf: reads the cache's mirror relation
      kUnion,       // left ∪ right
      kDifference,  // left − right
      kJoin,        // σ-chain over a product, fused (bare products too)
      kFilter,      // σ over a non-product child (also the identity wrapper)
      kProject,     // π with support counts
      kRename,      // ρ (tuples pass through; only the scheme changes)
    };

    Kind kind;
    // The plan node maintained here: output scheme and operator payload.
    // The identity wrapper shares the wrapped scan's.
    const PhysicalNode* plan = nullptr;
    std::size_t left = 0;   // child for unary nodes
    std::size_t right = 0;  // second child for binary nodes

    // Materialized output (all kinds except kBase, which aliases the
    // mirror). Handed out by Read() for the root, so refreshes clone before
    // mutating whenever a reader still holds it (copy-on-write).
    std::shared_ptr<Relation> out;
    // kJoin: side tuples passing the local filters, keyed by join key.
    std::unordered_map<Tuple, TupleSet, TupleHash> left_index, right_index;
    // kProject: pre-image count per output tuple.
    std::unordered_map<Tuple, std::size_t, TupleHash> support;
  };

  explicit View(const Catalog& catalog) : lowering(catalog) {}

  std::string name;
  ExprPtr expr;
  std::string expr_text;
  PhysicalPlan lowering;
  std::vector<Node> nodes;  // topological order; root = nodes.back()
  std::unordered_map<const PhysicalNode*, std::size_t> memo;
  std::set<std::string> base_rels;
  std::uint64_t cursor = 0;  // global pending index consumed up to
  bool cold = true;          // needs full rematerialization on next read
  bool stale = false;        // unconsumed pending entries touch base_rels
  std::uint64_t last_read_tick = 0;
};

namespace {

/// Whether `t` passes a join node's conditions of one side's `role`.
bool PassesSide(const Tuple& t, const PhysicalNode& join,
                JoinCond::Role role) {
  for (const JoinCond& c : join.conds) {
    if (c.role == role && (t.at(c.ia) == t.at(c.ib)) != c.equal) return false;
  }
  return true;
}

/// A filter node's σ; the identity wrapper over a scan passes every tuple.
bool PassesFilter(const Tuple& t, const PhysicalNode& filter) {
  return filter.kind != PhysicalNode::Kind::kSelect ||
         (t.at(filter.ia) == t.at(filter.ib)) == filter.equal;
}

bool ResidualOk(const PhysicalNode& join, const Tuple& l, const Tuple& r) {
  for (const JoinCond& c : join.conds) {
    if (c.role != JoinCond::Role::kResidual) continue;
    const ObjectId va = c.a_left ? l.at(c.ia) : r.at(c.ia);
    const ObjectId vb = c.b_left ? l.at(c.ib) : r.at(c.ib);
    if ((va == vb) != c.equal) return false;
  }
  return true;
}

/// The node's output relation for in-place mutation, cloning first when a
/// reader still holds the current storage.
Relation& MutableOut(ViewCache::View::Node& n) {
  if (n.out == nullptr) {
    n.out = std::make_shared<Relation>(*n.plan->scheme);
  } else if (n.out.use_count() > 1) {
    n.out = std::make_shared<Relation>(*n.out);
  }
  return *n.out;
}

void ApplyNodeDelta(ViewCache::View::Node& n, const NodeDelta& d) {
  if (d.empty()) return;
  Relation& out = MutableOut(n);
  for (const Tuple& t : d.removed) out.Erase(t);
  for (const Tuple& t : d.added) out.InsertValidated(t);
}

void IndexInsert(std::unordered_map<Tuple, TupleSet, TupleHash>& index,
                 Tuple key, Tuple t) {
  index[std::move(key)].insert(std::move(t));
}

void IndexErase(std::unordered_map<Tuple, TupleSet, TupleHash>& index,
                const Tuple& key, const Tuple& t) {
  auto it = index.find(key);
  if (it == index.end()) return;
  it->second.erase(t);
  if (it->second.empty()) index.erase(it);
}

/// Governance probe for refresh loops: ungoverned reads (null ctx) probe
/// nothing, governed ones enforce deadline/budget/cancellation per tuple,
/// matching the evaluator's cadence.
Status Probe(ExecContext* ctx, const char* probe_point) {
  return ctx == nullptr ? Status::OK() : ctx->CheckPoint(probe_point);
}

}  // namespace

ViewCache::ViewCache(const Schema* schema, ViewCacheOptions options)
    : schema_(schema), options_(options) {
  Result<Catalog> catalog = EncodeCatalog(*schema_);
  if (!catalog.ok()) {
    init_status_ = catalog.status();
    return;
  }
  catalog_ = std::move(catalog).value();
}

ViewCache::~ViewCache() = default;

std::uint64_t ViewCache::PendingHead() const {
  return pending_base_ + pending_.size();
}

Status ViewCache::Prime(const Instance& instance) {
  std::lock_guard<std::mutex> lock(mu_);
  SETREC_RETURN_IF_ERROR(init_status_);
  if (&instance.schema() != schema_) {
    return Status::InvalidArgument(
        "instance schema differs from the cache's schema");
  }
  TraceSpan span(options_.tracer, "incremental/prime");
  mirror_.clear();
  for (ClassId c = 0; c < schema_->num_classes(); ++c) {
    const std::string& name = schema_->class_name(c);
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme, catalog_.Find(name));
    auto rel = std::make_shared<Relation>(*scheme);
    rel->Reserve(instance.objects(c).size());
    for (ObjectId o : instance.objects(c)) rel->InsertValidated(Tuple{o});
    mirror_[name] = std::move(rel);
  }
  for (PropertyId p = 0; p < schema_->num_properties(); ++p) {
    const std::string name = PropertyRelationName(*schema_, p);
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme, catalog_.Find(name));
    auto rel = std::make_shared<Relation>(*scheme);
    rel->Reserve(instance.edges(p).size());
    for (const auto& [src, dst] : instance.edges(p)) {
      rel->InsertValidated(Tuple{src, dst});
    }
    mirror_[name] = std::move(rel);
  }
  pending_.clear();
  pending_base_ = 0;
  for (auto& [name, view] : views_) {
    view->cursor = 0;
    view->cold = true;
    view->stale = false;
  }
  primed_ = true;
  ++epoch_;
  return Status::OK();
}

Status ViewCache::ApplyDelta(const InstanceDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  SETREC_RETURN_IF_ERROR(init_status_);
  if (!primed_) {
    return Status::FailedPrecondition(
        "ViewCache::ApplyDelta before Prime: no base state to update");
  }
  if (delta.empty()) return Status::OK();
  TraceSpan span(options_.tracer, "incremental/apply-delta");

  // Validation pass first, so a bad delta leaves the mirror untouched. A
  // rejected delta still un-primes the cache: the publisher's instance has
  // already moved past a state we could not absorb, so continuing to serve
  // reads would silently diverge from it. Fail closed until re-Prime.
  const Status valid = [&]() -> Status {
    for (const ObjectId o : delta.removed_objects) {
      if (!schema_->HasClass(o.class_id())) {
        return Status::InvalidArgument(
            "delta removes object of unknown class");
      }
    }
    for (const ObjectId o : delta.added_objects) {
      if (!schema_->HasClass(o.class_id())) {
        return Status::InvalidArgument("delta adds object of unknown class");
      }
    }
    for (const Edge& e : delta.removed_edges) {
      if (!schema_->HasProperty(e.property)) {
        return Status::InvalidArgument(
            "delta removes edge of unknown property");
      }
      const Schema::PropertyDef& def = schema_->property(e.property);
      if (e.source.class_id() != def.source ||
          e.target.class_id() != def.target) {
        return Status::InvalidArgument("delta edge violates property domains");
      }
    }
    for (const Edge& e : delta.added_edges) {
      if (!schema_->HasProperty(e.property)) {
        return Status::InvalidArgument("delta adds edge of unknown property");
      }
      const Schema::PropertyDef& def = schema_->property(e.property);
      if (e.source.class_id() != def.source ||
          e.target.class_id() != def.target) {
        return Status::InvalidArgument("delta edge violates property domains");
      }
    }
    return Status::OK();
  }();
  if (!valid.ok()) {
    primed_ = false;
    return valid;
  }

  // Normalize against the mirror while applying: adds of present tuples and
  // removes of absent ones drop out, so re-feeding an absorbed delta is a
  // no-op.
  PendingEntry entry;
  // Redo order: remove edges, remove objects, add objects, add edges —
  // matching ApplyDelta on instances.
  for (const Edge& e : delta.removed_edges) {
    const std::string name = PropertyRelationName(*schema_, e.property);
    Tuple t{e.source, e.target};
    if (mirror_[name]->Erase(t)) entry[name].removed.push_back(std::move(t));
  }
  for (const ObjectId o : delta.removed_objects) {
    const std::string& name = schema_->class_name(o.class_id());
    Tuple t{o};
    if (mirror_[name]->Erase(t)) entry[name].removed.push_back(std::move(t));
  }
  for (const ObjectId o : delta.added_objects) {
    const std::string& name = schema_->class_name(o.class_id());
    Tuple t{o};
    if (!mirror_[name]->Contains(t)) {
      mirror_[name]->InsertValidated(t);
      entry[name].added.push_back(std::move(t));
    }
  }
  for (const Edge& e : delta.added_edges) {
    const std::string name = PropertyRelationName(*schema_, e.property);
    Tuple t{e.source, e.target};
    if (!mirror_[name]->Contains(t)) {
      mirror_[name]->InsertValidated(t);
      entry[name].added.push_back(std::move(t));
    }
  }
  if (entry.empty()) return Status::OK();  // already absorbed

  pending_.push_back(std::move(entry));
  ++epoch_;
  // Demand-driven invalidation: mark, don't refresh.
  const PendingEntry& appended = pending_.back();
  for (auto& [name, view] : views_) {
    if (view->stale || view->cold) continue;
    for (const auto& [rel, td] : appended) {
      if (view->base_rels.count(rel) > 0) {
        view->stale = true;
        ++stats_.invalidations;
        if (options_.metrics != nullptr) {
          options_.metrics->engine.incremental_invalidations.Add(1);
        }
        break;
      }
    }
  }
  Compact();
  return Status::OK();
}

std::size_t ViewCache::BuildNode(View& view, const PhysicalNode& plan) {
  auto memo_it = view.memo.find(&plan);
  if (memo_it != view.memo.end()) return memo_it->second;

  using Kind = View::Node::Kind;
  View::Node node;
  node.plan = &plan;
  switch (plan.kind) {
    case PhysicalNode::Kind::kScan:
      node.kind = Kind::kBase;
      view.base_rels.insert(plan.expr->relation_name());
      break;
    case PhysicalNode::Kind::kUnion:
      node.kind = Kind::kUnion;
      break;
    case PhysicalNode::Kind::kDifference:
      node.kind = Kind::kDifference;
      break;
    case PhysicalNode::Kind::kProduct:  // a join with no conditions
    case PhysicalNode::Kind::kJoin:
      node.kind = Kind::kJoin;
      break;
    case PhysicalNode::Kind::kSelect:
      node.kind = Kind::kFilter;
      break;
    case PhysicalNode::Kind::kProject:
      node.kind = Kind::kProject;
      break;
    case PhysicalNode::Kind::kRename:
      node.kind = Kind::kRename;
      break;
  }
  if (plan.left != nullptr) node.left = BuildNode(view, *plan.left);
  if (plan.right != nullptr) node.right = BuildNode(view, *plan.right);
  const std::size_t index = view.nodes.size();
  view.nodes.push_back(std::move(node));
  view.memo.emplace(&plan, index);
  return index;
}

Status ViewCache::Register(std::string name, ExprPtr expr) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(std::move(name), std::move(expr),
                        /*evict_for_room=*/false);
}

Status ViewCache::RegisterLocked(std::string name, ExprPtr expr,
                                 bool evict_for_room) {
  SETREC_RETURN_IF_ERROR(init_status_);
  if (expr == nullptr) {
    return Status::InvalidArgument("null view expression");
  }
  std::string text = ExprToString(*expr);
  auto it = views_.find(name);
  if (it != views_.end()) {
    if (it->second->expr_text == text) return Status::OK();  // idempotent
    return Status::AlreadyExists("view " + name +
                                 " is bound to a different expression");
  }
  if (views_.size() >= options_.max_views) {
    if (!evict_for_room) {
      return Status::ResourceExhausted("view cache holds max_views views");
    }
    EvictLeastRecentlyRead();
  }
  auto view = std::make_unique<View>(catalog_);
  view->name = name;
  view->expr = std::move(expr);
  view->expr_text = std::move(text);
  SETREC_ASSIGN_OR_RETURN(const PhysicalNode* plan,
                          view->lowering.Lower(*view->expr));
  const std::size_t root = BuildNode(*view, *plan);
  if (view->nodes[root].kind == View::Node::Kind::kBase) {
    // A bare relation reference would alias the mutable mirror; wrap it in
    // an identity filter so the root always owns immutable output storage.
    View::Node wrapper;
    wrapper.kind = View::Node::Kind::kFilter;
    wrapper.plan = plan;
    wrapper.left = root;
    view->nodes.push_back(std::move(wrapper));
  }
  view->cursor = PendingHead();
  view->cold = true;
  view->last_read_tick = ++read_tick_;
  views_.emplace(std::move(name), std::move(view));
  stats_.registered_views = views_.size();
  return Status::OK();
}

bool ViewCache::Unregister(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  if (it == views_.end()) return false;
  views_.erase(it);
  stats_.registered_views = views_.size();
  Compact();
  return true;
}

const Relation& ViewCache::NodeRel(const View& view,
                                   std::size_t index) const {
  const View::Node& n = view.nodes[index];
  if (n.kind == View::Node::Kind::kBase) {
    return *mirror_.at(n.plan->expr->relation_name());
  }
  return *n.out;
}

Status ViewCache::RebuildView(View& view, ExecContext* ctx) {
  TraceSpan span(options_.tracer, "incremental/rebuild");
  // Cold until the rebuild completes, so a governance stop below leaves the
  // half-built node state marked for rematerialization, never served.
  view.cold = true;
  for (View::Node& n : view.nodes) {
    if (n.kind == View::Node::Kind::kBase) continue;
    // Fresh storage per rebuild: previously handed-out snapshots keep the
    // old relation alive, untouched.
    n.out = std::make_shared<Relation>(*n.plan->scheme);
    Relation& out = *n.out;
    switch (n.kind) {
      case View::Node::Kind::kBase:
        break;
      case View::Node::Kind::kUnion: {
        const Relation& l = NodeRel(view, n.left);
        const Relation& r = NodeRel(view, n.right);
        out.Reserve(l.size() + r.size());
        for (const Tuple& t : l) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/row"));
          out.InsertValidated(t);
        }
        for (const Tuple& t : r) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/row"));
          out.InsertValidated(t);
        }
        break;
      }
      case View::Node::Kind::kDifference: {
        const Relation& l = NodeRel(view, n.left);
        const Relation& r = NodeRel(view, n.right);
        out.Reserve(l.size());
        for (const Tuple& t : l) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/row"));
          if (!r.Contains(t)) out.InsertValidated(t);
        }
        break;
      }
      case View::Node::Kind::kJoin: {
        const Relation& l = NodeRel(view, n.left);
        const Relation& r = NodeRel(view, n.right);
        n.left_index.clear();
        n.right_index.clear();
        const PhysicalNode& join = *n.plan;
        for (const Tuple& t : l) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/build"));
          if (!PassesSide(t, join, JoinCond::Role::kProbeFilter)) continue;
          IndexInsert(n.left_index, t.Project(join.left_key), t);
        }
        for (const Tuple& t : r) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/build"));
          if (!PassesSide(t, join, JoinCond::Role::kBuildFilter)) continue;
          IndexInsert(n.right_index, t.Project(join.right_key), t);
        }
        for (const auto& [key, lts] : n.left_index) {
          auto rit = n.right_index.find(key);
          if (rit == n.right_index.end()) continue;
          for (const Tuple& lt : lts) {
            for (const Tuple& rt : rit->second) {
              SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/probe"));
              if (ResidualOk(join, lt, rt)) out.InsertValidated(lt.Concat(rt));
            }
          }
        }
        break;
      }
      case View::Node::Kind::kFilter: {
        const Relation& c = NodeRel(view, n.left);
        out.Reserve(c.size());
        for (const Tuple& t : c) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/row"));
          if (PassesFilter(t, *n.plan)) out.InsertValidated(t);
        }
        break;
      }
      case View::Node::Kind::kProject: {
        const Relation& c = NodeRel(view, n.left);
        n.support.clear();
        for (const Tuple& t : c) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/row"));
          Tuple p = t.Project(n.plan->cols);
          if (++n.support[p] == 1) out.InsertValidated(std::move(p));
        }
        break;
      }
      case View::Node::Kind::kRename: {
        const Relation& c = NodeRel(view, n.left);
        out.Reserve(c.size());
        for (const Tuple& t : c) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/rebuild/row"));
          out.InsertValidated(t);
        }
        break;
      }
    }
  }
  view.cursor = PendingHead();
  view.cold = false;
  view.stale = false;
  return Status::OK();
}

Result<ViewCache::RefreshOutcome> ViewCache::PropagateView(View& view,
                                                           ExecContext* ctx) {
  TraceSpan span(options_.tracer, "incremental/refresh");
  // The whole propagation runs in this lambda so a governance stop from a
  // probe can mark the view cold (torn node state) in exactly one place.
  Result<RefreshOutcome> outcome = [&]() -> Result<RefreshOutcome> {
  // Coalesce the unconsumed log suffix into one exact net delta per base
  // relation (adds cancel pending removes and vice versa), so a base tuple
  // that churned many times between reads is propagated at most once.
  std::map<std::string, NodeDelta, std::less<>> net;
  for (std::size_t i = view.cursor - pending_base_; i < pending_.size(); ++i) {
    for (const auto& [rel, td] : pending_[i]) {
      if (view.base_rels.count(rel) == 0) continue;
      NodeDelta& nd = net[rel];
      for (const Tuple& t : td.added) nd.Add(t);
      for (const Tuple& t : td.removed) nd.Remove(t);
    }
  }
  view.cursor = PendingHead();
  view.stale = false;
  bool any = false;
  for (const auto& [rel, nd] : net) any = any || !nd.empty();
  if (!any) return RefreshOutcome::kNoChanges;

  std::size_t rows = 0;
  std::vector<NodeDelta> deltas(view.nodes.size());
  for (std::size_t i = 0; i < view.nodes.size(); ++i) {
    View::Node& n = view.nodes[i];
    NodeDelta& d = deltas[i];
    SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/refresh/node"));
    switch (n.kind) {
      case View::Node::Kind::kBase: {
        auto it = net.find(n.plan->expr->relation_name());
        if (it != net.end()) d = it->second;
        break;
      }
      case View::Node::Kind::kUnion: {
        const NodeDelta& dl = deltas[n.left];
        const NodeDelta& dr = deltas[n.right];
        const Relation& l = NodeRel(view, n.left);
        const Relation& r = NodeRel(view, n.right);
        for (const Tuple& t : dl.added) {
          if (!n.out->Contains(t)) d.added.insert(t);
        }
        for (const Tuple& t : dr.added) {
          if (!n.out->Contains(t)) d.added.insert(t);
        }
        for (const Tuple& t : dl.removed) {
          if (!l.Contains(t) && !r.Contains(t)) d.removed.insert(t);
        }
        for (const Tuple& t : dr.removed) {
          if (!l.Contains(t) && !r.Contains(t)) d.removed.insert(t);
        }
        break;
      }
      case View::Node::Kind::kDifference: {
        const NodeDelta& dl = deltas[n.left];
        const NodeDelta& dr = deltas[n.right];
        const Relation& l = NodeRel(view, n.left);
        const Relation& r = NodeRel(view, n.right);
        // Additions: fresh left tuples not (any longer) in the right side,
        // plus surviving left tuples the right side released.
        for (const Tuple& t : dl.added) {
          if (!r.Contains(t)) d.added.insert(t);
        }
        for (const Tuple& t : dr.removed) {
          if (l.Contains(t)) d.added.insert(t);
        }
        // Removals: departed left tuples and newly shadowing right tuples,
        // restricted to what the old output actually contained.
        for (const Tuple& t : dl.removed) {
          if (n.out->Contains(t)) d.removed.insert(t);
        }
        for (const Tuple& t : dr.added) {
          if (n.out->Contains(t)) d.removed.insert(t);
        }
        break;
      }
      case View::Node::Kind::kJoin: {
        const NodeDelta& dl = deltas[n.left];
        const NodeDelta& dr = deltas[n.right];
        const PhysicalNode& join = *n.plan;
        // Phase 1 — left delta against the *old* right index:
        // Δout = ΔL ⋈ R_old, maintaining the left index along the way.
        for (const Tuple& t : dl.removed) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/refresh/probe"));
          if (!PassesSide(t, join, JoinCond::Role::kProbeFilter)) continue;
          Tuple key = t.Project(join.left_key);
          auto rit = n.right_index.find(key);
          if (rit != n.right_index.end()) {
            for (const Tuple& rt : rit->second) {
              if (ResidualOk(join, t, rt)) d.Remove(t.Concat(rt));
            }
          }
          IndexErase(n.left_index, key, t);
        }
        for (const Tuple& t : dl.added) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/refresh/probe"));
          if (!PassesSide(t, join, JoinCond::Role::kProbeFilter)) continue;
          Tuple key = t.Project(join.left_key);
          auto rit = n.right_index.find(key);
          if (rit != n.right_index.end()) {
            for (const Tuple& rt : rit->second) {
              if (ResidualOk(join, t, rt)) d.Add(t.Concat(rt));
            }
          }
          IndexInsert(n.left_index, std::move(key), t);
        }
        // Phase 2 — right delta against the *new* left index:
        // Δout += L_new ⋈ ΔR. The cancel-aware Add/Remove make the
        // (added-left, removed-right) pairs — added in phase 1, dead in
        // the new state — annihilate instead of double-reporting.
        for (const Tuple& t : dr.removed) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/refresh/probe"));
          if (!PassesSide(t, join, JoinCond::Role::kBuildFilter)) continue;
          Tuple key = t.Project(join.right_key);
          auto lit = n.left_index.find(key);
          if (lit != n.left_index.end()) {
            for (const Tuple& lt : lit->second) {
              if (ResidualOk(join, lt, t)) d.Remove(lt.Concat(t));
            }
          }
          IndexErase(n.right_index, key, t);
        }
        for (const Tuple& t : dr.added) {
          SETREC_RETURN_IF_ERROR(Probe(ctx, "incremental/refresh/probe"));
          if (!PassesSide(t, join, JoinCond::Role::kBuildFilter)) continue;
          Tuple key = t.Project(join.right_key);
          auto lit = n.left_index.find(key);
          if (lit != n.left_index.end()) {
            for (const Tuple& lt : lit->second) {
              if (ResidualOk(join, lt, t)) d.Add(lt.Concat(t));
            }
          }
          IndexInsert(n.right_index, std::move(key), t);
        }
        break;
      }
      case View::Node::Kind::kFilter: {
        const NodeDelta& dc = deltas[n.left];
        for (const Tuple& t : dc.added) {
          if (PassesFilter(t, *n.plan)) d.added.insert(t);
        }
        for (const Tuple& t : dc.removed) {
          if (PassesFilter(t, *n.plan)) d.removed.insert(t);
        }
        break;
      }
      case View::Node::Kind::kProject: {
        const NodeDelta& dc = deltas[n.left];
        // Batch the support-count changes per output tuple before deciding
        // membership transitions, so a projection that loses one pre-image
        // and gains another emits no spurious delta.
        std::unordered_map<Tuple, std::int64_t, TupleHash> change;
        for (const Tuple& t : dc.added) ++change[t.Project(n.plan->cols)];
        for (const Tuple& t : dc.removed) --change[t.Project(n.plan->cols)];
        for (auto& [p, c] : change) {
          if (c == 0) continue;
          auto sit = n.support.find(p);
          const std::int64_t old_count =
              sit == n.support.end() ? 0
                                     : static_cast<std::int64_t>(sit->second);
          const std::int64_t new_count = old_count + c;
          if (new_count <= 0) {
            if (sit != n.support.end()) n.support.erase(sit);
          } else if (sit != n.support.end()) {
            sit->second = static_cast<std::size_t>(new_count);
          } else {
            n.support.emplace(p, static_cast<std::size_t>(new_count));
          }
          if (old_count == 0 && new_count > 0) d.added.insert(p);
          if (old_count > 0 && new_count <= 0) d.removed.insert(p);
        }
        break;
      }
      case View::Node::Kind::kRename: {
        d = deltas[n.left];
        break;
      }
    }
    rows += d.size();
    if (ctx != nullptr) {
      SETREC_RETURN_IF_ERROR(
          ctx->ChargeRows(d.size(), "incremental/refresh/rows"));
    }
    if (rows > options_.max_delta_rows_per_refresh) {
      return RefreshOutcome::kOverBudget;  // node state is torn
    }
    ApplyNodeDelta(n, d);
  }
  stats_.delta_rows += rows;
  if (options_.metrics != nullptr) {
    options_.metrics->engine.incremental_delta_rows.Add(rows);
  }
  return RefreshOutcome::kPropagated;
  }();
  if (!outcome.ok()) view.cold = true;
  return outcome;
}

Result<std::shared_ptr<const Relation>> ViewCache::Read(std::string_view name,
                                                        ExecContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadLocked(name, ctx);
}

Result<std::shared_ptr<const Relation>> ViewCache::ReadLocked(
    std::string_view name, ExecContext* ctx) {
  SETREC_RETURN_IF_ERROR(init_status_);
  if (!primed_) {
    return Status::FailedPrecondition(
        "ViewCache::Read before Prime: no base state to materialize from");
  }
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no view named " + std::string(name));
  }
  View& view = *it->second;
  view.last_read_tick = ++read_tick_;
  const std::uint64_t start = NowNs();
  if (view.cold || view.cursor < pending_base_) {
    // Cold start, or the pending log was compacted past this view's cursor
    // (it lagged more than max_pending commits behind): rematerialize.
    const bool forced = !view.cold;
    SETREC_RETURN_IF_ERROR(RebuildView(view, ctx));
    ++stats_.rebuilds;
    if (forced) {
      ++stats_.fallbacks;
      if (options_.metrics != nullptr) {
        options_.metrics->engine.incremental_fallbacks.Add(1);
      }
    }
    if (options_.metrics != nullptr) {
      options_.metrics->engine.incremental_refresh_ns.Observe(NowNs() - start);
    }
  } else if (view.cursor < PendingHead()) {
    SETREC_ASSIGN_OR_RETURN(const RefreshOutcome refreshed,
                            PropagateView(view, ctx));
    switch (refreshed) {
      case RefreshOutcome::kPropagated:
        ++stats_.refreshes;
        if (options_.metrics != nullptr) {
          options_.metrics->engine.incremental_refreshes.Add(1);
          options_.metrics->engine.incremental_refresh_ns.Observe(NowNs() -
                                                                  start);
        }
        break;
      case RefreshOutcome::kOverBudget:
        // Abandoned mid-flight; node state is torn — rematerialize.
        SETREC_RETURN_IF_ERROR(RebuildView(view, ctx));
        ++stats_.rebuilds;
        ++stats_.fallbacks;
        if (options_.metrics != nullptr) {
          options_.metrics->engine.incremental_fallbacks.Add(1);
          options_.metrics->engine.incremental_refresh_ns.Observe(NowNs() -
                                                                  start);
        }
        break;
      case RefreshOutcome::kNoChanges:
        // The unconsumed suffix did not touch this view's relations (or
        // cancelled out exactly): the demand-driven win — no node work.
        ++stats_.hits;
        if (options_.metrics != nullptr) {
          options_.metrics->engine.incremental_hits.Add(1);
        }
        break;
    }
  } else {
    ++stats_.hits;
    if (options_.metrics != nullptr) {
      options_.metrics->engine.incremental_hits.Add(1);
    }
  }
  Compact();
  return std::shared_ptr<const Relation>(view.nodes.back().out);
}

Result<std::shared_ptr<const Relation>> ViewCache::Query(const ExprPtr& expr,
                                                         ExecContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  SETREC_RETURN_IF_ERROR(init_status_);
  if (expr == nullptr) {
    return Status::InvalidArgument("null view expression");
  }
  std::string name = ExprToString(*expr);
  SETREC_RETURN_IF_ERROR(
      RegisterLocked(name, expr, /*evict_for_room=*/true));
  return ReadLocked(name, ctx);
}

void ViewCache::Compact() {
  // Drop the log prefix every registered view has consumed.
  std::uint64_t min_cursor = PendingHead();
  for (const auto& [name, view] : views_) {
    min_cursor = std::min(min_cursor, view->cursor);
  }
  while (pending_base_ < min_cursor && !pending_.empty()) {
    pending_.pop_front();
    ++pending_base_;
  }
  // Bound the log regardless of laggards; views left behind go cold and
  // rebuild on their next read (detected via cursor < pending_base_).
  while (pending_.size() > options_.max_pending) {
    pending_.pop_front();
    ++pending_base_;
  }
}

void ViewCache::EvictLeastRecentlyRead() {
  auto victim = views_.end();
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if (victim == views_.end() ||
        it->second->last_read_tick < victim->second->last_read_tick) {
      victim = it;
    }
  }
  if (victim != views_.end()) {
    views_.erase(victim);
    ++stats_.evictions;
    stats_.registered_views = views_.size();
  }
}

bool ViewCache::primed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return primed_;
}

std::uint64_t ViewCache::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

ViewCache::Stats ViewCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::string> ViewCache::ViewNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, view] : views_) out.push_back(name);
  return out;
}

Result<std::vector<Receiver>> ReceiversFromView(
    ViewCache& cache, const ExprPtr& query, const MethodSignature& signature,
    ExecContext* ctx) {
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> result,
                          cache.Query(query, ctx));
  return ReceiversFromRelation(*result, signature);
}

}  // namespace setrec
