#include "store/durable_store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "incremental/view_cache.h"
#include "store/snapshot.h"
#include "text/parser.h"
#include "text/printer.h"

namespace setrec {

namespace {

constexpr const char* kWalFileName = "wal.log";

std::string WalPath(const std::string& dir) {
  return (std::filesystem::path(dir) / kWalFileName).string();
}

std::string SnapshotPath(const std::string& dir, std::uint64_t sequence) {
  char name[64];
  std::snprintf(name, sizeof name, "snapshot-%020" PRIu64 ".snap", sequence);
  return (std::filesystem::path(dir) / name).string();
}

constexpr const char* kCommitFlightFile = "flight-commit.jsonl";
constexpr const char* kRecoveryFlightFile = "flight-recovery.jsonl";

std::string FlightPath(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

/// Snapshot files present in `dir` with the sequence parsed from the name,
/// newest first. Files that do not match the naming scheme are ignored.
std::vector<std::pair<std::uint64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint64_t sequence = 0;
    if (std::sscanf(name.c_str(), "snapshot-%" SCNu64 ".snap", &sequence) ==
        1) {
      out.emplace_back(sequence, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace

DurableStore::DurableStore(std::string dir, const Schema* schema,
                           DurableStoreOptions options)
    : dir_(std::move(dir)),
      schema_(schema),
      options_(options),
      instance_(schema) {}

DurableStore::~DurableStore() = default;

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir, const Schema* schema, DurableStoreOptions options,
    RecoveryReport* report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create store directory '" + dir +
                            "': " + ec.message());
  }
  std::unique_ptr<DurableStore> store(
      new DurableStore(dir, schema, options));
  TraceSpan recovery_span(options.tracer, "store/recovery");
  RecoveryReport local_report;
  RecoveryReport& rep = report != nullptr ? *report : local_report;
  rep = RecoveryReport{};

  // 1. Newest snapshot that validates; corrupt ones are passed over (and
  //    counted) so one bad checkpoint never blocks recovery.
  for (const auto& [sequence, path] : ListSnapshots(dir)) {
    Result<SnapshotData> snapshot = ReadSnapshot(path, schema);
    if (snapshot.ok()) {
      store->instance_ = std::move(snapshot->instance);
      rep.snapshot_loaded = true;
      rep.snapshot_sequence = snapshot->sequence;
      break;
    }
    ++rep.snapshots_skipped;
  }
  std::uint64_t last_sequence = rep.snapshot_sequence;

  // 2. Replay the longest valid WAL prefix on top of the snapshot. Each
  //    record is an exec probe point, so the fault matrix can crash recovery
  //    *mid-replay* and prove that recovering from the interrupted recovery
  //    still reaches the same committed prefix (replay mutates only the
  //    in-memory instance; the log is untouched until the writer opens).
  SETREC_ASSIGN_OR_RETURN(WalReplay replay, ReadWal(WalPath(dir)));
  rep.torn_tail = replay.torn_tail;
  rep.detail = replay.tail_reason;
  std::uint64_t writer_valid_bytes = replay.valid_bytes;
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    if (options.injector != nullptr) {
      SETREC_RETURN_IF_ERROR(options.injector->Probe("store/recovery/replay"));
    }
    const WalRecord& record = replay.records[i];
    if (record.sequence <= rep.snapshot_sequence) {
      ++rep.skipped_records;  // crash between snapshot publish and truncate
      continue;
    }
    if (record.sequence != last_sequence + 1) {
      // The log resumes past the snapshot's coverage: the intervening
      // records were truncated away and this snapshot cannot bridge them.
      // Recover what the snapshot proves and drop the rest, loudly.
      rep.torn_tail = true;
      rep.detail = "sequence gap after snapshot";
      writer_valid_bytes = i == 0 ? 0 : replay.record_ends[i - 1];
      break;
    }
    Result<InstanceDelta> delta = ParseDelta(record.payload, schema);
    Status applied = delta.ok() ? ApplyDelta(store->instance_, *delta)
                                : delta.status();
    if (!applied.ok()) {
      // CRC-valid but semantically unusable (wrong schema, foreign file):
      // same contract as a torn tail — stop at the last good record.
      rep.torn_tail = true;
      rep.detail = "unreplayable record: " + applied.ToString();
      writer_valid_bytes = i == 0 ? 0 : replay.record_ends[i - 1];
      break;
    }
    last_sequence = record.sequence;
    ++rep.replayed_records;
  }
  rep.dropped_bytes = replay.total_bytes - writer_valid_bytes;
  rep.last_sequence = last_sequence;

  // Leave the recovery audit in the flight recorder, and surface the dump
  // that explains this directory's most recent failure: an anomalous
  // recovery writes its own snapshot; a clean recovery after a commit-time
  // fault points at the dump that commit left behind.
  if (options.recorder != nullptr) {
    options.recorder->Record(FlightRecorder::EventKind::kNote,
                             "store/recovery", rep.replayed_records,
                             rep.last_sequence);
    if (rep.snapshots_skipped != 0) {
      options.recorder->Record(FlightRecorder::EventKind::kNote,
                               "store/recovery-snapshot-skipped",
                               rep.snapshots_skipped);
    }
    if (rep.torn_tail) {
      options.recorder->Record(FlightRecorder::EventKind::kStatus,
                               "store/recovery-torn-tail", rep.dropped_bytes,
                               rep.last_sequence, rep.detail);
    }
    if (rep.torn_tail || rep.snapshots_skipped != 0) {
      const std::string path = FlightPath(dir, kRecoveryFlightFile);
      FlightRecorder::DumpOptions dump;
      const std::string reason =
          "recovery anomaly: " +
          (rep.detail.empty() ? std::string("snapshot skipped") : rep.detail);
      dump.reason = reason;
      if (options.recorder->DumpToFile(path, dump)) {
        rep.flight_dump_path = path;
      }
    }
  }
  if (rep.flight_dump_path.empty()) {
    const std::string commit_dump = FlightPath(dir, kCommitFlightFile);
    std::error_code exists_ec;
    if (std::filesystem::exists(commit_dump, exists_ec)) {
      rep.flight_dump_path = commit_dump;
    }
  }

  // 3. Position the writer after the last good record. The probe sits just
  //    before the only step of recovery that writes to the directory (the
  //    writer truncates the torn tail), covering a crash at that boundary.
  if (options.injector != nullptr) {
    SETREC_RETURN_IF_ERROR(options.injector->Probe("store/recovery/position"));
  }
  SETREC_ASSIGN_OR_RETURN(
      store->wal_, WalWriter::Open(WalPath(dir), writer_valid_bytes,
                                   last_sequence + 1, options.injector));
  store->wal_.set_metrics(options.metrics);
  // Recovery settled the authoritative state; only now may the view cache
  // (re)build its mirror from it. A commit the WAL never acknowledged was
  // dropped above, so its effects can never surface through a view. A
  // failed Prime leaves the cache unprimed and failing closed — advisory.
  if (options.view_cache != nullptr) {
    (void)options.view_cache->Prime(store->instance_);
  }
  return store;
}

Status DurableStore::Commit(const Statement& statement,
                            std::optional<ExecContext::Limits> limits) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan commit_span(options_.tracer, "store/commit");
  if (options_.recorder != nullptr) {
    options_.recorder->Record(FlightRecorder::EventKind::kNote,
                              "store/commit", wal_.next_sequence());
  }
  RetrySchedule schedule(options_.retry);
  for (;;) {
    Status result;
    SETREC_RETURN_IF_ERROR(CommitLocked({&statement, 1},
                                        limits.value_or(options_.limits),
                                        {&result, 1}));
    if (result.ok()) return Status::OK();
    if (!schedule.ShouldRetry(result)) {
      return DumpTerminalFailure("statement failed", result);
    }
    const std::chrono::nanoseconds delay = schedule.NextDelay();
    if (delay > std::chrono::nanoseconds::zero()) {
      std::this_thread::sleep_for(delay);
    }
  }
}

Status DurableStore::CommitBatch(std::span<const Statement> statements,
                                 std::vector<Status>* results) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Status> local_results;
  std::vector<Status>& res = results != nullptr ? *results : local_results;
  res.assign(statements.size(), Status::OK());
  if (statements.empty()) return Status::OK();
  TraceSpan batch_span(options_.tracer, "store/commit-batch");
  if (options_.recorder != nullptr) {
    options_.recorder->Record(FlightRecorder::EventKind::kNote,
                              "store/commit-batch", statements.size(),
                              wal_.next_sequence());
  }
  return CommitLocked(statements, options_.limits, res);
}

Status DurableStore::CommitLocked(std::span<const Statement> statements,
                                  const ExecContext::Limits& limits,
                                  std::span<Status> results) {
  if (wal_.broken()) {
    const Status refused = Status::FailedPrecondition(
        "store hit a storage fault; reopen to recover");
    std::fill(results.begin(), results.end(), refused);
    return refused;
  }
  const auto start = std::chrono::steady_clock::now();
  // Append-only hook: the fsync is hoisted out of the loop below. Deltas
  // are staged, not published — nothing is durable until the one covering
  // fsync succeeds. They are also the call's rollback log: every staged
  // delta is in the instance, and a vetoed statement rolled itself back.
  std::vector<InstanceDelta> staged_deltas;
  Status fault;  // the storage fault, once one struck
  const CommitHook hook = [this, &staged_deltas,
                           &fault](const InstanceDelta& delta) -> Status {
    if (delta.empty()) return Status::OK();  // no-op statement, no record
    fault = wal_.Append(DeltaToText(delta, *schema_)).status();
    if (fault.ok()) staged_deltas.push_back(delta);
    return fault;  // a torn append is a crash: it vetoes the statement
  };
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < statements.size() && fault.ok(); ++i) {
    ExecContext ctx(limits);
    ctx.set_fault_injector(options_.injector);
    ctx.set_tracer(options_.tracer);
    ctx.set_metrics(options_.metrics);
    ctx.set_recorder(options_.recorder);
    results[i] = statements[i](instance_, ctx, hook);
    // A failed statement restored its own pre-state; short of a storage
    // fault, its batch mates are unaffected.
    if (results[i].ok()) ++committed;
  }
  if (fault.ok() && !staged_deltas.empty()) {
    // The durability point itself: traced so a slow disk is visible as a
    // wal/fsync span inside the request's timeline.
    TraceSpan fsync_span(options_.tracer, "wal/fsync");
    fault = wal_.Sync();
  }
  if (!fault.ok()) {
    // A storage fault voids the whole call: undo the staged statements,
    // newest first, by applying their inverses.
    for (auto it = staged_deltas.rbegin(); it != staged_deltas.rend(); ++it) {
      Status undone = ApplyDelta(instance_, InverseDelta(*it));
      (void)undone;  // the inverse of an applied delta always fits
    }
    const Status voided = Status::FailedPrecondition(
        "commit voided by a storage fault (" + fault.message() +
        "); reopen to recover");
    std::fill(results.begin(), results.end(), voided);
    return DumpTerminalFailure("storage fault", voided);
  }
  if (options_.view_cache != nullptr) {
    // Durable as of the fsync above; only now may a view see the deltas, in
    // commit order. Advisory: a cache that cannot absorb a delta fails
    // closed on its own.
    for (const InstanceDelta& delta : staged_deltas) {
      (void)options_.view_cache->ApplyDelta(delta);
    }
  }
  if (options_.metrics != nullptr && committed != 0) {
    options_.metrics->engine.store_commits.Add(committed);
    options_.metrics->engine.commit_ns.Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  commits_since_checkpoint_ += committed;
  if (options_.snapshot_every_n_commits != 0 &&
      commits_since_checkpoint_ >= options_.snapshot_every_n_commits) {
    return CheckpointLocked();
  }
  return Status::OK();
}

Status DurableStore::DumpTerminalFailure(const char* what,
                                         const Status& status) const {
  if (options_.recorder != nullptr) {
    options_.recorder->Record(FlightRecorder::EventKind::kStatus, what,
                              static_cast<std::uint64_t>(status.code()),
                              wal_.next_sequence(), status.message());
    FlightRecorder::DumpOptions dump;
    const std::string reason = std::string(what) + ": " + status.ToString();
    dump.reason = reason;
    (void)options_.recorder->DumpToFile(FlightPath(dir_, kCommitFlightFile),
                                        dump);
  }
  return status;
}

Status DurableStore::Update(PropertyId property,
                            const ExprPtr& receiver_query) {
  return Commit([&](Instance& instance, ExecContext& ctx,
                    const CommitHook& commit) {
    return SetOrientedUpdateInPlace(instance, property, receiver_query,
                                    {.ctx = &ctx, .commit_hook = commit});
  });
}

Status DurableStore::Delete(ClassId cls, const RowPredicate& pred) {
  return Commit(
      [&](Instance& instance, ExecContext& ctx, const CommitHook& commit) {
        return SetOrientedDeleteInPlace(instance, cls, pred,
                                        {.ctx = &ctx, .commit_hook = commit});
      });
}

Status DurableStore::ApplyCursorUpdate(const AlgebraicUpdateMethod& method,
                                       std::span<const Receiver> order) {
  return Commit([&](Instance& instance, ExecContext& ctx,
                    const CommitHook& commit) {
    return RunJournaled(
        instance,
        [&] { return CursorUpdateInPlace(method, instance, order, ctx); },
        commit);
  });
}

Status DurableStore::ApplyCursorDelete(ClassId cls, const RowPredicate& pred,
                                       std::span<const ObjectId> order) {
  return Commit([&](Instance& instance, ExecContext& ctx,
                    const CommitHook& commit) {
    return RunJournaled(
        instance,
        [&] { return CursorDeleteInPlace(instance, cls, pred, order, ctx); },
        commit);
  });
}

Status DurableStore::Mutate(
    const std::function<Status(Instance&, ExecContext&)>& body) {
  return Commit([&](Instance& instance, ExecContext& ctx,
                    const CommitHook& commit) {
    return RunJournaled(
        instance, [&] { return body(instance, ctx); }, commit);
  });
}

Status DurableStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status DurableStore::CheckpointLocked() {
  if (wal_.broken()) {
    return Status::FailedPrecondition(
        "store hit a storage fault; reopen to recover");
  }
  TraceSpan span(options_.tracer, "store/checkpoint");
  const std::uint64_t sequence = wal_.next_sequence() - 1;
  SETREC_RETURN_IF_ERROR(WriteSnapshot(SnapshotPath(dir_, sequence), instance_,
                                       sequence, options_.injector));
  commits_since_checkpoint_ = 0;
  if (options_.metrics != nullptr) {
    options_.metrics->engine.store_checkpoints.Add(1);
  }
  if (!options_.truncate_wal_on_checkpoint) return Status::OK();
  // The snapshot now covers every logged record: start a fresh WAL, then
  // prune snapshots made redundant by the new one.
  SETREC_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(WalPath(dir_), 0, sequence + 1,
                            options_.injector));
  wal_.set_metrics(options_.metrics);
  const auto snapshots = ListSnapshots(dir_);
  for (std::size_t i = options_.keep_snapshots; i < snapshots.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(snapshots[i].second, ec);
  }
  return Status::OK();
}

Instance DurableStore::SnapshotState(std::uint64_t* sequence) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sequence != nullptr) *sequence = wal_.next_sequence() - 1;
  return instance_;
}

std::uint64_t DurableStore::last_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.next_sequence() - 1;
}

bool DurableStore::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.broken();
}

}  // namespace setrec
