#ifndef SETREC_TXN_TXN_MANAGER_H_
#define SETREC_TXN_TXN_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "store/durable_store.h"
#include "store/retry.h"
#include "txn/commutativity_cache.h"

namespace setrec {

struct TxnOptions {
  /// Backoff for aborted transactions (first-committer-wins conflicts and
  /// deadline stops). Unlike the store's statement-level policy,
  /// transaction retries are on by default: a conflict abort is the
  /// expected cost of optimism, not an anomaly. A budget stop
  /// (kResourceExhausted) is returned as it is after one attempt: every
  /// attempt runs the same body under the same limits.
  RetryPolicy retry{.max_attempts = 8};
  /// Statements flushed per group commit (one fsync covers the batch).
  std::size_t max_group_size = 8;
  /// Enter serial-admission mode when the conflict share of the last
  /// `conflict_window` commit attempts reaches this (window must be full).
  double degrade_threshold = 0.5;
  /// Leave serial mode when the share drops to or below this.
  double reopen_threshold = 0.125;
  std::size_t conflict_window = 16;
  /// Per-attempt resource budget for transaction bodies.
  ExecContext::Limits limits;
  /// Observability sinks (borrowed; must outlive the manager). Every
  /// commit, abort, conflict, degrade and reopen is metered under "txn.*"
  /// names and recorded; terminal aborts dump the recorder to
  /// <store dir>/flight-txn.jsonl.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  FlightRecorder* recorder = &FlightRecorder::Global();
};

/// A concurrent transaction layer over DurableStore, scheduling with the
/// paper's order-independence oracle:
///
///   * **Commutative admission (lock-free data path).** Apply() transactions
///     whose method is certified absolutely order independent — and whose
///     pairs with every in-flight commutative transaction the
///     CommutativityCache certifies — skip snapshots and validation
///     entirely: their sequential application runs in place on the
///     store's instance at the serialization point inside group commit,
///     and certification guarantees the final instance is bit-identical
///     for *any* arrival interleaving.
///   * **MVCC fallback.** Everything else runs under snapshot isolation:
///     execute against a versioned copy under a mutation journal (its
///     delta is the write set), then validate
///     first-committer-wins against the version chain of committed
///     InstanceDeltas at commit; an overlapping write footprint aborts with
///     kTxnConflict and retries on a fresh snapshot per the RetryPolicy,
///     giving up with kRetryExhausted plus a flight-recorder dump.
///   * **Group commit.** All commits funnel through a leader/follower batch:
///     the first arrival drains the queue into one DurableStore::CommitBatch
///     (one fsync per batch) and distributes per-statement results. This is
///     also the transaction layer's incremental-view maintenance point: when
///     the store was opened with a ViewCache (DurableStoreOptions.view_cache),
///     CommitBatch publishes each statement's delta to it only after the
///     covering fsync — so a transaction's effects reach materialized views
///     strictly after validation *and* durability, never for an aborted or
///     unacknowledged transaction.
///   * **Degradation.** A sliding window of commit outcomes drives a
///     two-state machine: a sustained conflict storm flips admission to
///     serial mode (every transaction runs exclusively; gauge
///     txn.serial_mode = 1) until the conflict share decays, then re-opens.
///
/// Thread safety: every public method may be called from any thread; the
/// caller-supplied method/query/body must stay valid for the call duration.
class TxnManager {
 public:
  /// `store` and `cache` are borrowed and must outlive the manager.
  TxnManager(DurableStore* store, CommutativityCache* cache,
             TxnOptions options = {});
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// One transaction: apply `method` to `receivers` (sequentially, in
  /// canonical order). Runs on the commutative path when admission
  /// certifies it, else via MVCC.
  Status Apply(const AlgebraicUpdateMethod& method,
               std::vector<Receiver> receivers);

  /// One transaction: set-oriented UPDATE (two-phase query semantics under
  /// snapshot isolation — the receiver set is computed on the snapshot).
  /// Always MVCC: the underlying assign method is last-writer-wins, which
  /// is exactly what absolute order independence rules out.
  Status Update(PropertyId property, const ExprPtr& receiver_query);

  /// One transaction: arbitrary mutation of the snapshot copy. Always MVCC.
  Status Mutate(const std::function<Status(Instance&, ExecContext&)>& body);

  /// True while degraded to serial admission.
  bool serial_mode() const;

  struct Stats {
    std::uint64_t commits = 0;     // acknowledged transactions
    std::uint64_t aborts = 0;      // terminal failures (incl. kRetryExhausted)
    std::uint64_t conflicts = 0;   // first-committer-wins aborts (pre-retry)
    std::uint64_t retries = 0;     // retry attempts granted
    std::uint64_t commutative_admissions = 0;
    std::uint64_t mvcc_admissions = 0;
    std::uint64_t degrades = 0;
    std::uint64_t reopens = 0;
    std::uint64_t group_commits = 0;  // batches flushed
  };
  Stats stats() const;

 private:
  /// Object-granular write footprint of a delta, for first-committer-wins
  /// validation. `referenced` carries edge endpoints: an edge write also
  /// conflicts with a concurrent removal of either endpoint object, so a
  /// validated delta always re-applies cleanly.
  struct Footprint {
    std::set<ObjectId> objects;  // objects added or removed
    std::set<std::pair<ObjectId, PropertyId>> slots;  // edge slots written
    std::set<ObjectId> referenced;  // endpoints of written edges

    static Footprint FromDelta(const InstanceDelta& delta);
    bool Overlaps(const Footprint& other) const;
    bool empty() const { return objects.empty() && slots.empty(); }
  };

  struct CommittedVersion {
    std::uint64_t version = 0;
    Footprint footprint;
  };

  /// One queued commit awaiting the group-commit leader.
  struct PendingCommit {
    DurableStore::Statement statement;
    Status result;
    bool done = false;
    /// Filled by the statement when it commits (leader thread only).
    Footprint footprint;
  };

  struct InflightTxn {
    const AlgebraicUpdateMethod* method = nullptr;
  };

  /// Enqueues `pending` and either becomes the leader (drains the queue in
  /// batches through CommitBatch) or waits for its result.
  void SubmitCommit(PendingCommit& pending);

  /// Runs `body` once under snapshot isolation: snapshot, execute under a
  /// journal, validate-and-commit the journaled delta through the group
  /// pipeline.
  Status AttemptMvcc(const std::function<Status(Instance&, ExecContext&)>& body);

  /// The shared retry loop around one attempt shape.
  Status RunWithRetries(const char* what,
                        const std::function<Status()>& attempt);

  /// True when a committed version > `snapshot_version` overlaps
  /// `footprint`, or an earlier statement of the current batch does.
  bool HasConflict(std::uint64_t snapshot_version,
                   const Footprint& footprint) const;

  /// An MVCC attempt's private copy of the store (a copy-on-write share,
  /// core/instance.h) at `*version`, and the release of that version.
  Instance TakeSnapshot(std::uint64_t* version);
  void ReleaseSnapshot(std::uint64_t version);
  void PruneChainLocked();

  /// Feeds the degradation window and flips serial mode at the thresholds.
  void RecordOutcome(bool conflicted);

  /// The gate held for a whole transaction in serial mode (unowned lock in
  /// concurrent mode).
  std::unique_lock<std::mutex> SerialGate();

  void Configure(ExecContext& ctx) const;
  void Note(const char* name, std::uint64_t a = 0, std::uint64_t b = 0,
            std::string_view detail = {}) const;
  void Bump(std::uint64_t Stats::*field, const char* metric);
  /// Records + dumps a terminal transaction failure to
  /// <store dir>/flight-txn.jsonl.
  void DumpTxnFailure(const char* what, const Status& status) const;

  DurableStore* const store_;
  CommutativityCache* const cache_;
  const TxnOptions options_;

  // -- Admission & degradation state (adm_mu_) --------------------------------
  mutable std::mutex adm_mu_;
  std::vector<InflightTxn> inflight_;   // commutative group members
  std::deque<bool> outcome_window_;     // true = conflicted
  std::size_t window_conflicts_ = 0;
  bool serial_mode_ = false;
  /// Held for the whole transaction in serial mode.
  std::mutex serial_gate_;

  // -- Version chain (chain_mu_) ----------------------------------------------
  mutable std::mutex chain_mu_;
  std::uint64_t version_ = 0;
  std::deque<CommittedVersion> chain_;
  std::multiset<std::uint64_t> active_snapshots_;

  // -- Group commit (queue_mu_) -----------------------------------------------
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingCommit*> queue_;
  bool leader_active_ = false;
  /// Footprints of statements already committed in the batch being flushed;
  /// leader thread only (batch hand-off happens-before via queue_mu_).
  std::vector<Footprint> batch_footprints_;

  // -- Statistics -------------------------------------------------------------
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace setrec

#endif  // SETREC_TXN_TXN_MANAGER_H_
