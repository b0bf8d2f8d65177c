#ifndef SETREC_STORE_DURABLE_STORE_H_
#define SETREC_STORE_DURABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "core/instance.h"
#include "sql/engine.h"
#include "store/retry.h"
#include "store/wal.h"

namespace setrec {

/// What Open() recovered and what it had to drop. "Recovered exactly the
/// last committed state" is the durability contract; this report is the
/// audit trail proving which commits that covers.
struct RecoveryReport {
  /// True when a valid snapshot seeded recovery (else: empty instance).
  bool snapshot_loaded = false;
  std::uint64_t snapshot_sequence = 0;
  /// Snapshot files that failed validation and were passed over.
  std::uint32_t snapshots_skipped = 0;
  /// WAL records applied on top of the snapshot.
  std::uint64_t replayed_records = 0;
  /// Valid records at or below the snapshot sequence (already covered).
  std::uint64_t skipped_records = 0;
  /// Bytes of WAL dropped as a torn tail or trailing corruption.
  std::uint64_t dropped_bytes = 0;
  bool torn_tail = false;
  /// Why replay stopped early, when it did ("bad crc", "short record", ...).
  std::string detail;
  /// Highest sequence in the recovered state; the next commit is stamped
  /// last_sequence + 1.
  std::uint64_t last_sequence = 0;
  /// Flight-recorder JSONL snapshot explaining the most recent failure:
  /// when recovery itself found an anomaly (torn tail, skipped snapshot)
  /// this is the dump recovery wrote; otherwise it points at the dump a
  /// failing commit left behind in the store directory, when one exists.
  /// Empty = clean history, nothing to explain.
  std::string flight_dump_path;
};

struct DurableStoreOptions {
  /// Take a checkpoint automatically after this many effective commits
  /// (0 = only explicit Checkpoint() calls).
  std::uint64_t snapshot_every_n_commits = 0;
  /// Truncate the WAL after a successful checkpoint. Turning this off keeps
  /// the full log, so recovery stays possible even if every snapshot file is
  /// lost — the crash-recovery tests use it to exercise that fallback.
  bool truncate_wal_on_checkpoint = true;
  /// Snapshot files retained after a checkpoint (older ones are pruned).
  std::uint32_t keep_snapshots = 2;
  /// Per-attempt resource budget for statements (default: permissive).
  ExecContext::Limits limits;
  /// Backoff for statements that failed with a retryable governance code
  /// (Commit retries; CommitBatch never does).
  RetryPolicy retry;
  /// Consulted at every exec probe point *and* every WAL append/fsync
  /// (storage faults). Must outlive the store.
  FaultInjector* injector = nullptr;
  /// Observability sinks (borrowed; must outlive the store). The tracer
  /// records store/recovery, store/commit and store/checkpoint spans; the
  /// metrics registry counts commits, checkpoints, WAL appends/bytes/fsyncs
  /// and commit latencies. Both propagate into the per-attempt ExecContext,
  /// so engine spans nest under the commit span.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Flight recorder (always on by default). Every commit attempt records
  /// into it; any *terminal* non-OK statement status — a storage fault, an
  /// injected crash, a non-retryable engine error — dumps a redacted JSONL
  /// snapshot to <dir>/flight-commit.jsonl before the error returns, and
  /// recovery anomalies dump to <dir>/flight-recovery.jsonl (see
  /// RecoveryReport::flight_dump_path). Null disables recording and dumps.
  FlightRecorder* recorder = &FlightRecorder::Global();
  /// Incremental view cache to keep in lockstep with the durable state
  /// (borrowed; must outlive the store). Open() primes it from the
  /// recovered instance after WAL replay, and each commit publishes its
  /// delta only after the covering fsync succeeded — the cache can lag the
  /// durable state (and then fails closed) but can never run ahead of it:
  /// a commit that was never acknowledged is never visible through a view.
  /// The store is the only publisher for the statements it commits: the
  /// SQL engine's statements leave publication to a caller that passes
  /// them a commit hook (ExecOptions::view_cache).
  ViewCache* view_cache = nullptr;
};

/// A crash-consistent wrapper around Instance: every committed SQL-engine
/// statement is persisted as a checksummed WAL record (the statement's
/// canonical InstanceDelta in text form) before it is acknowledged, and
/// periodic snapshots bound replay time. Open() recovers the newest valid
/// snapshot plus the longest valid WAL prefix, tolerating a torn tail.
///
/// Commit protocol — one engine behind Commit (a batch of one) and
/// CommitBatch:
///   1. run each statement in memory under the instance's mutation journal,
///      governed by a fresh ExecContext — nothing is copied. Through the
///      engine's CommitHook the statement appends its journaled delta (its
///      canonical InstanceDelta, built in O(|delta|)) to the WAL, unsynced;
///   2. one fsync covers every record the call appended (a call that
///      appended none skips it) — only then are its statements
///      acknowledged and their deltas published to the view cache, in
///      commit order;
///   3. a storage fault (torn append, failed fsync) voids the whole call
///      (kFailedPrecondition, naming the fault): the appended deltas are
///      undone newest first by applying their inverses, and the store
///      refuses further commits until reopened, exactly as if the process
///      had died at the fault.
/// A statement that fails for any other reason rolls itself back and leaves
/// its batch mates undisturbed. Only Commit retries: retryable governance
/// failures (kResourceExhausted, kDeadlineExceeded) are retried per the
/// RetryPolicy with deterministic backoff; semantic errors, cancellation,
/// and storage faults are not.
///
/// All public methods are serialized by an internal mutex, so a background
/// thread may call Checkpoint() while another commits (the FaultInjector's
/// atomic counters make a shared injector safe too).
class DurableStore {
 public:
  /// A statement body: mutate the instance under `ctx` with a journal scope
  /// open, calling `commit` exactly once with the scope's JournalDelta() on
  /// success, and rolling the journal back (leaving the instance at its
  /// pre-statement state) on any failure, a veto by `commit` included.
  /// RunJournaled has this exact shape, and so have the engine's *InPlace
  /// statements.
  using Statement =
      std::function<Status(Instance&, ExecContext&, const CommitHook&)>;

  /// Opens (creating or recovering) the store in directory `dir`. When
  /// `report` is non-null it receives the recovery audit trail.
  static Result<std::unique_ptr<DurableStore>> Open(
      const std::string& dir, const Schema* schema,
      DurableStoreOptions options = {}, RecoveryReport* report = nullptr);

  ~DurableStore();
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // -- Committed statements ---------------------------------------------------

  /// Set-oriented UPDATE (Section 7), durably committed.
  Status Update(PropertyId property, const ExprPtr& receiver_query);

  /// Set-oriented DELETE, durably committed.
  Status Delete(ClassId cls, const RowPredicate& pred);

  /// Cursor UPDATE: sequential application of `method` in `order`.
  Status ApplyCursorUpdate(const AlgebraicUpdateMethod& method,
                           std::span<const Receiver> order);

  /// Cursor DELETE in `order` (default: sorted rows of `cls`).
  Status ApplyCursorDelete(ClassId cls, const RowPredicate& pred,
                           std::span<const ObjectId> order = {});

  /// Arbitrary mutation as one committed statement: `body` edits the
  /// instance under a journal; on any failure the journal is rolled back;
  /// on success the journaled delta is logged and fsynced before Mutate
  /// returns OK.
  Status Mutate(const std::function<Status(Instance&, ExecContext&)>& body);

  /// Runs a caller-shaped statement through the commit protocol as a batch
  /// of one, retrying it per `options.retry`. `limits` overrides the
  /// store-wide `options.limits` for this one statement: this is how a
  /// network request's deadline reaches the ExecContext governing its
  /// execution — the server clamps the timeout to the request's remaining
  /// time and every engine probe point then enforces it.
  Status Commit(const Statement& statement,
                std::optional<ExecContext::Limits> limits = std::nullopt);

  /// Group commit: runs the statements in order under one lock acquisition
  /// and one fsync — durability cost is one fsync amortized over the batch
  /// instead of one per statement. This is the commit engine without
  /// retries: group-commit callers (the transaction layer) own retries, and
  /// re-running a stale statement inside the batch would commit against
  /// state it never saw.
  ///
  /// A statement that fails for a non-storage reason (semantic error,
  /// exhausted budget) appends nothing and its status lands in `results`.
  /// A storage fault fails the *whole* batch: every slot of `results`
  /// reports it (kFailedPrecondition) — exactly the crash model, where none of the batch was
  /// acknowledged but a prefix of its records may still be replayed on
  /// recovery (statement boundaries are record boundaries, so recovery
  /// always lands on a statement prefix, never a hybrid).
  ///
  /// Returns OK when the batch mechanics succeeded (even if individual
  /// statements failed semantically); `results`, when non-null, is resized
  /// to `statements.size()`.
  Status CommitBatch(std::span<const Statement> statements,
                     std::vector<Status>* results = nullptr);

  // -- Checkpoints ------------------------------------------------------------

  /// Writes a snapshot at the current sequence and (per options) truncates
  /// the WAL and prunes old snapshots. Safe to call from another thread.
  Status Checkpoint();

  // -- Observers --------------------------------------------------------------

  /// Copy of the current committed state (taken under the store mutex).
  /// The copy shares the store's chunks (core/instance.h), so it costs
  /// O(classes + properties) and clones nothing; the store's next write to
  /// a chunk the copy still holds clones that chunk. When `sequence` is
  /// non-null it receives the last acknowledged commit sequence *of that
  /// same state* — one atomic read, so a replication snapshot is always
  /// labeled with exactly the sequence it covers.
  Instance SnapshotState(std::uint64_t* sequence = nullptr) const;

  /// Borrowed view for single-threaded use; not synchronized against a
  /// concurrent Checkpoint/Commit from another thread.
  const Instance& instance() const { return instance_; }

  /// Sequence of the last acknowledged commit (0 = none ever).
  std::uint64_t last_sequence() const;

  /// True after a storage fault: commits are refused until the directory is
  /// reopened (recovered).
  bool broken() const;

  const std::string& dir() const { return dir_; }

 private:
  DurableStore(std::string dir, const Schema* schema,
               DurableStoreOptions options);

  Status CheckpointLocked();
  /// The commit engine (see the class comment): runs `statements` under
  /// `limits`, one status per statement into `results`. Returns non-OK when
  /// the store is poisoned, a storage fault voided the call, or the
  /// automatic checkpoint after it failed.
  Status CommitLocked(std::span<const Statement> statements,
                      const ExecContext::Limits& limits,
                      std::span<Status> results);

  /// Records a terminal (non-retried) commit failure and dumps the flight
  /// recorder to <dir>/flight-commit.jsonl; returns `status` unchanged.
  Status DumpTerminalFailure(const char* what, const Status& status) const;

  const std::string dir_;
  const Schema* schema_;
  DurableStoreOptions options_;
  mutable std::mutex mu_;
  Instance instance_;
  WalWriter wal_;
  std::uint64_t commits_since_checkpoint_ = 0;
};

}  // namespace setrec

#endif  // SETREC_STORE_DURABLE_STORE_H_
