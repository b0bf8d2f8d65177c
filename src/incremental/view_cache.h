#ifndef SETREC_INCREMENTAL_VIEW_CACHE_H_
#define SETREC_INCREMENTAL_VIEW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/exec_options.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "core/schema.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace setrec {

/// Tuning knobs and observability sinks for a ViewCache. Everything is
/// borrowed, not owned; the referents must outlive the cache.
struct ViewCacheOptions {
  /// Cap on buffered delta entries. When the pending log would exceed this,
  /// the oldest entries are dropped; views that had not consumed them go
  /// cold and rematerialize from scratch on their next read.
  std::size_t max_pending = 4096;

  /// Per-refresh propagation budget in delta rows summed over all plan
  /// nodes. A refresh that exceeds it abandons propagation and falls back
  /// to full rematerialization (counted in Stats::fallbacks) — past this
  /// point the incremental work costs more than rebuilding.
  std::size_t max_delta_rows_per_refresh = std::size_t{1} << 20;

  /// Cap on registered views. Query() evicts the least-recently-read view
  /// to stay under it; Register() fails with kResourceExhausted instead
  /// (explicit registrations are pinned by intent).
  std::size_t max_views = 256;

  MetricsRegistry* metrics = nullptr;  // incremental.* instruments
  Tracer* tracer = nullptr;            // incremental/* spans
};

/// Incrementally maintained materialized views over the relational encoding
/// of one object-base instance (Section 5.1), in the discipline of
/// *Demand-Driven Incremental Object Queries* (Liu et al.): committed
/// `InstanceDelta`s are absorbed eagerly into a base-relation mirror in
/// O(|delta|), while registered views are refreshed lazily — a delta only
/// marks dependent views stale, and the delta rules (insert/delete deltas
/// propagated through union/difference/join/select/project/rename nodes,
/// with per-node join indexes and projection support counts) run on the
/// next read of each view. Untouched views cost nothing; a view whose
/// referenced relations saw no changes answers a read in O(1).
///
/// Correctness contract: a Read() of a registered view is bit-identical to
/// from-scratch `Evaluate(expr, EncodeInstance(instance))` over the
/// instance state the cache has been fed (the from-scratch path remains the
/// differential-testing oracle). Fed deltas must be *closed* the way
/// `DiffInstances` produces them: an object removal is accompanied by
/// removals of its incident edges. Deltas are normalized against the
/// mirror, so re-feeding an already-absorbed delta is a harmless no-op —
/// double publication from stacked commit paths cannot corrupt a view.
///
/// Thread safety: all public methods are safe to call concurrently (one
/// internal mutex). Returned relations are immutable snapshots: a refresh
/// never mutates a relation a previous Read() handed out (copy-on-write).
class ViewCache : public DeltaSink {
 public:
  /// Implementation detail (a registered view's lowered plan plus delta
  /// state), defined in the .cc; public only so file-local helpers there
  /// can name its nested types.
  struct View;

  /// Monotonic counters describing the cache's life so far.
  struct Stats {
    std::uint64_t hits = 0;           // reads answered without node work
    std::uint64_t refreshes = 0;      // reads that propagated deltas
    std::uint64_t rebuilds = 0;       // full rematerializations (any cause)
    std::uint64_t fallbacks = 0;      // rebuilds forced by budget/log overrun
    std::uint64_t invalidations = 0;  // view dirty-markings by ApplyDelta
    std::uint64_t delta_rows = 0;     // delta rows propagated through nodes
    std::uint64_t evictions = 0;      // views evicted by the max_views LRU
    std::size_t registered_views = 0;
  };

  /// The schema must outlive the cache. Construction never fails, but a
  /// schema whose encoded relation names collide (see EncodeCatalog) makes
  /// every subsequent operation report the collision.
  explicit ViewCache(const Schema* schema, ViewCacheOptions options = {});
  ~ViewCache();

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// (Re)builds the base-relation mirror from a full instance state and
  /// resets the delta log; every registered view goes cold and
  /// rematerializes on its next read. Called once after recovery (and again
  /// after any out-of-band state replacement, e.g. a replica resync).
  Status Prime(const Instance& instance);

  /// Absorbs one committed delta: updates the mirror in O(|delta|), appends
  /// the normalized per-relation tuple delta to the pending log, bumps the
  /// epoch, and marks views whose referenced relations were touched as
  /// stale. No view is refreshed here — that happens on demand, at Read().
  ///
  /// Fails closed: a delta that does not validate against the schema or the
  /// mirror's current state (beyond the harmless already-absorbed case that
  /// normalization cancels) un-primes the cache — reads then fail with
  /// kFailedPrecondition until the next Prime() — rather than risk serving
  /// views that have silently diverged from the authoritative instance.
  Status ApplyDelta(const InstanceDelta& delta) override;

  ViewCache* AsViewCache() override { return this; }

  /// Registers `expr` as a materialized view under `name`. Validates the
  /// expression against the encoded catalog (unknown relations or scheme
  /// violations fail here, leaving callers to fall back to from-scratch
  /// evaluation). Idempotent for the same name/expression pair; a name
  /// collision with a different expression is kAlreadyExists. Registration
  /// is cheap — the view materializes on first read.
  Status Register(std::string name, ExprPtr expr);

  /// Drops a view; returns whether it existed.
  bool Unregister(std::string_view name);

  /// Returns the view's current contents, refreshing on demand: cold views
  /// rematerialize, stale views propagate the coalesced net delta through
  /// their plan, views with no relevant pending changes return immediately.
  /// Requires a primed cache (kFailedPrecondition otherwise). When `ctx` is
  /// given, refresh work runs under its governance — per-tuple probe points
  /// enforce deadlines, step budgets, cancellation and injected faults
  /// exactly like from-scratch evaluation; an interrupted refresh leaves
  /// the view cold (it rebuilds on the next read) and returns the
  /// governance error.
  Result<std::shared_ptr<const Relation>> Read(std::string_view name,
                                               ExecContext* ctx = nullptr);

  /// Register-if-needed + Read, keyed by the expression's printed form —
  /// the ad-hoc entry point used by the server's query path. Subject to the
  /// max_views LRU. `ctx` governs the refresh as in Read().
  Result<std::shared_ptr<const Relation>> Query(const ExprPtr& expr,
                                                ExecContext* ctx = nullptr);

  bool primed() const;
  /// Bumped by every Prime and every non-empty ApplyDelta.
  std::uint64_t epoch() const;
  Stats stats() const;
  std::vector<std::string> ViewNames() const;

 private:
  /// Normalized per-relation tuple delta of one absorbed InstanceDelta:
  /// exact with respect to the mirror state it was applied to (added tuples
  /// were absent, removed tuples present).
  struct TupleDelta {
    std::vector<Tuple> added;
    std::vector<Tuple> removed;
  };
  using PendingEntry = std::map<std::string, TupleDelta, std::less<>>;

  enum class RefreshOutcome {
    kNoChanges,   // unconsumed suffix did not touch this view: a hit
    kPropagated,  // delta rules ran; the view is current
    kOverBudget,  // abandoned mid-flight; node state is torn — rebuild
  };

  Status RegisterLocked(std::string name, ExprPtr expr, bool evict_for_room);
  Result<std::shared_ptr<const Relation>> ReadLocked(std::string_view name,
                                                     ExecContext* ctx);
  /// Maps `plan` (and its operands) onto delta-state nodes of `view`.
  std::size_t BuildNode(View& view, const PhysicalNode& plan);
  Status RebuildView(View& view, ExecContext* ctx);
  /// Propagates the view's coalesced net delta through its plan. Non-OK =
  /// a governance stop from `ctx`; the view was left cold.
  Result<RefreshOutcome> PropagateView(View& view, ExecContext* ctx);
  const Relation& NodeRel(const View& view, std::size_t index) const;
  std::uint64_t PendingHead() const;
  void Compact();
  void EvictLeastRecentlyRead();

  const Schema* schema_;
  ViewCacheOptions options_;
  Status init_status_;
  Catalog catalog_;

  mutable std::mutex mu_;
  bool primed_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t read_tick_ = 0;
  // Mutable mirror of the encoded instance; always holds every catalog
  // relation once primed. Mutated in place (never handed out).
  std::map<std::string, std::shared_ptr<Relation>, std::less<>> mirror_;
  // Pending log; pending_[i] has global index pending_base_ + i. Views
  // remember the global index they have consumed up to.
  std::deque<PendingEntry> pending_;
  std::uint64_t pending_base_ = 0;
  std::map<std::string, std::unique_ptr<View>, std::less<>> views_;
  Stats stats_;
};

/// Phase-one of a set-oriented update through the cache: evaluates the
/// receiver query as a (registered-on-demand) view and lists its receivers
/// with ReceiversFromRelation, exactly as ReceiversFromQuery does. Callers
/// fall back to the from-scratch path on any error — except governance
/// errors from `ctx`, which they must propagate.
Result<std::vector<Receiver>> ReceiversFromView(
    ViewCache& cache, const ExprPtr& query, const MethodSignature& signature,
    ExecContext* ctx = nullptr);

}  // namespace setrec

#endif  // SETREC_INCREMENTAL_VIEW_CACHE_H_
