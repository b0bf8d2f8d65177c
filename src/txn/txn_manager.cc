#include "txn/txn_manager.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "core/exec_options.h"
#include "core/sequential.h"
#include "sql/engine.h"

namespace setrec {

namespace {

constexpr const char* kTxnFlightFile = "flight-txn.jsonl";

std::string TxnFlightPath(const std::string& dir) {
  return (std::filesystem::path(dir) / kTxnFlightFile).string();
}

}  // namespace

TxnManager::TxnManager(DurableStore* store, CommutativityCache* cache,
                       TxnOptions options)
    : store_(store), cache_(cache), options_(options) {
  if (options_.metrics != nullptr) {
    // Register the mode gauge up front so exports show the healthy state
    // even before the first transaction.
    options_.metrics->GaugeNamed("txn.serial_mode").Set(0);
  }
}

// -- Footprints ---------------------------------------------------------------

TxnManager::Footprint TxnManager::Footprint::FromDelta(
    const InstanceDelta& delta) {
  Footprint fp;
  fp.objects.insert(delta.added_objects.begin(), delta.added_objects.end());
  fp.objects.insert(delta.removed_objects.begin(),
                    delta.removed_objects.end());
  for (const auto* edges : {&delta.added_edges, &delta.removed_edges}) {
    for (const Edge& e : *edges) {
      fp.slots.emplace(e.source, e.property);
      fp.referenced.insert(e.source);
      fp.referenced.insert(e.target);
    }
  }
  return fp;
}

namespace {

template <typename Set>
bool Intersects(const Set& a, const Set& b) {
  // Both sets are ordered; walk them in lockstep.
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

bool TxnManager::Footprint::Overlaps(const Footprint& other) const {
  // Same slot, same written object, or one side rewires an edge whose
  // endpoint the other side removes/adds — all are first-committer-wins
  // conflicts (the last case keeps validated deltas re-applicable).
  return Intersects(slots, other.slots) ||
         Intersects(objects, other.objects) ||
         Intersects(objects, other.referenced) ||
         Intersects(referenced, other.objects);
}

// -- Small helpers ------------------------------------------------------------

void TxnManager::Configure(ExecContext& ctx) const {
  ctx.set_tracer(options_.tracer);
  ctx.set_metrics(options_.metrics);
  ctx.set_recorder(options_.recorder);
}

void TxnManager::Note(const char* name, std::uint64_t a, std::uint64_t b,
                      std::string_view detail) const {
  if (options_.recorder != nullptr) {
    options_.recorder->Record(FlightRecorder::EventKind::kNote, name, a, b,
                              detail);
  }
}

void TxnManager::Bump(std::uint64_t Stats::*field, const char* metric) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.*field += 1;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->CounterNamed(metric).Add(1);
  }
}

void TxnManager::DumpTxnFailure(const char* what, const Status& status) const {
  if (options_.recorder == nullptr) return;
  options_.recorder->Record(FlightRecorder::EventKind::kStatus, what,
                            static_cast<std::uint64_t>(status.code()), 0,
                            status.message());
  FlightRecorder::DumpOptions dump;
  const std::string reason = std::string(what) + ": " + status.ToString();
  dump.reason = reason;
  (void)options_.recorder->DumpToFile(TxnFlightPath(store_->dir()), dump);
}

std::unique_lock<std::mutex> TxnManager::SerialGate() {
  bool serial;
  {
    std::lock_guard<std::mutex> lock(adm_mu_);
    serial = serial_mode_;
  }
  // In degraded mode every transaction runs exclusively; transactions that
  // slipped in before the flip still validate, so overlap stays safe.
  if (serial) return std::unique_lock<std::mutex>(serial_gate_);
  return {};
}

bool TxnManager::serial_mode() const {
  std::lock_guard<std::mutex> lock(adm_mu_);
  return serial_mode_;
}

TxnManager::Stats TxnManager::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

// -- Degradation state machine ------------------------------------------------

void TxnManager::RecordOutcome(bool conflicted) {
  std::lock_guard<std::mutex> lock(adm_mu_);
  outcome_window_.push_back(conflicted);
  if (conflicted) ++window_conflicts_;
  if (outcome_window_.size() > options_.conflict_window) {
    if (outcome_window_.front()) --window_conflicts_;
    outcome_window_.pop_front();
  }
  if (outcome_window_.size() < options_.conflict_window) return;
  const double ratio = static_cast<double>(window_conflicts_) /
                       static_cast<double>(outcome_window_.size());
  if (!serial_mode_ && ratio >= options_.degrade_threshold) {
    serial_mode_ = true;
    Note("txn/degrade", window_conflicts_, outcome_window_.size());
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.degrades;
    }
    if (options_.metrics != nullptr) {
      options_.metrics->CounterNamed("txn.degrades").Add(1);
      options_.metrics->GaugeNamed("txn.serial_mode").Set(1);
    }
  } else if (serial_mode_ && ratio <= options_.reopen_threshold) {
    serial_mode_ = false;
    Note("txn/reopen", window_conflicts_, outcome_window_.size());
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.reopens;
    }
    if (options_.metrics != nullptr) {
      options_.metrics->CounterNamed("txn.reopens").Add(1);
      options_.metrics->GaugeNamed("txn.serial_mode").Set(0);
    }
  }
}

// -- Version chain ------------------------------------------------------------

Instance TxnManager::TakeSnapshot(std::uint64_t* version) {
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    *version = version_;
    active_snapshots_.insert(version_);
  }
  // Read the instance *after* the version: a commit landing in between makes
  // the snapshot strictly newer than its version, which can only cause a
  // spurious conflict (safe), never a missed one.
  return store_->SnapshotState();
}

void TxnManager::ReleaseSnapshot(std::uint64_t version) {
  std::lock_guard<std::mutex> lock(chain_mu_);
  auto it = active_snapshots_.find(version);
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
  PruneChainLocked();
}

void TxnManager::PruneChainLocked() {
  // A chain entry at version v is only consulted by snapshots older than v.
  const std::uint64_t min_active =
      active_snapshots_.empty() ? version_ : *active_snapshots_.begin();
  while (!chain_.empty() && chain_.front().version <= min_active) {
    chain_.pop_front();
  }
}

bool TxnManager::HasConflict(std::uint64_t snapshot_version,
                             const Footprint& footprint) const {
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    for (auto it = chain_.rbegin();
         it != chain_.rend() && it->version > snapshot_version; ++it) {
      if (it->footprint.Overlaps(footprint)) return true;
    }
  }
  // Batch mates that committed earlier in the flush under way are not in the
  // chain yet; leader-thread-only access (hand-off via queue_mu_).
  for (const Footprint& other : batch_footprints_) {
    if (other.Overlaps(footprint)) return true;
  }
  return false;
}

// -- Group commit -------------------------------------------------------------

void TxnManager::SubmitCommit(PendingCommit& pending) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_.push_back(&pending);
  if (leader_active_) {
    queue_cv_.wait(lock, [&] { return pending.done; });
    return;
  }
  leader_active_ = true;
  while (!queue_.empty()) {
    std::vector<PendingCommit*> batch;
    while (!queue_.empty() && batch.size() < options_.max_group_size) {
      batch.push_back(queue_.front());
      queue_.pop_front();
    }
    lock.unlock();
    TraceSpan span(options_.tracer, "txn/group-commit");
    batch_footprints_.clear();
    std::vector<DurableStore::Statement> statements;
    statements.reserve(batch.size());
    for (PendingCommit* p : batch) statements.push_back(p->statement);
    std::vector<Status> results;
    (void)store_->CommitBatch(statements, &results);
    {
      std::lock_guard<std::mutex> chain_lock(chain_mu_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->result = results[i];
        if (results[i].ok() && !batch[i]->footprint.empty()) {
          chain_.push_back({++version_, std::move(batch[i]->footprint)});
        }
      }
      PruneChainLocked();
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.group_commits;
    }
    if (options_.metrics != nullptr) {
      options_.metrics->CounterNamed("txn.group_commits").Add(1);
      options_.metrics->HistogramNamed("txn.group_size")
          .Observe(batch.size());
    }
    lock.lock();
    for (PendingCommit* p : batch) p->done = true;
    queue_cv_.notify_all();
  }
  leader_active_ = false;
}

// -- Transaction execution ----------------------------------------------------

Status TxnManager::RunWithRetries(const char* what,
                                  const std::function<Status()>& attempt) {
  RetrySchedule schedule(options_.retry);
  for (;;) {
    Status status = attempt();
    if (status.ok()) {
      RecordOutcome(false);
      Bump(&Stats::commits, "txn.commits");
      return status;
    }
    if (status.code() == StatusCode::kTxnConflict) {
      RecordOutcome(true);
      Bump(&Stats::conflicts, "txn.conflicts");
      Note("txn/conflict", 0, 0, status.message());
    }
    // A budget stop is final: every attempt runs the same body under a
    // fresh context with the same limits, so only a conflict or a deadline
    // can change between attempts.
    const bool budget_stop = status.code() == StatusCode::kResourceExhausted;
    if (budget_stop || !schedule.ShouldRetry(status)) {
      Bump(&Stats::aborts, "txn.aborts");
      if (!budget_stop && status.IsRetryable()) {
        // The schedule ran dry while the failure stayed retryable: report
        // the terminal form so callers do not loop on their own.
        Status exhausted = Status::RetryExhausted(
            std::string(what) + " gave up after " +
            std::to_string(schedule.attempts_used()) +
            " attempts; last: " + status.ToString());
        DumpTxnFailure("txn/retry-exhausted", exhausted);
        return exhausted;
      }
      DumpTxnFailure("txn/abort", status);
      return status;
    }
    Bump(&Stats::retries, "txn.retries");
    const std::chrono::nanoseconds delay = schedule.NextDelay();
    if (delay > std::chrono::nanoseconds::zero()) {
      std::this_thread::sleep_for(delay);
    }
  }
}

Status TxnManager::AttemptMvcc(
    const std::function<Status(Instance&, ExecContext&)>& body) {
  TraceSpan span(options_.tracer, "txn/mvcc-attempt");
  std::uint64_t snapshot_version = 0;
  Status result = [&]() -> Status {
    InstanceDelta delta;
    {
      // The snapshot is this attempt's private copy: the body runs on it
      // under a journal, which yields the write set without a second copy
      // or a diff. It is dropped before the commit, so the store writes in
      // place the chunks that only the snapshot shared.
      Instance snapshot = TakeSnapshot(&snapshot_version);
      ExecContext ctx(options_.limits);
      Configure(ctx);
      SETREC_RETURN_IF_ERROR(RunJournaled(
          snapshot, [&] { return body(snapshot, ctx); }, {}, &delta));
    }
    if (delta.empty()) return Status::OK();  // read-only transaction
    const Footprint footprint = Footprint::FromDelta(delta);
    PendingCommit pending;
    pending.statement = [this, &delta, &footprint, &pending,
                         snapshot_version](Instance& instance,
                                           ExecContext& ctx,
                                           const CommitHook& commit)
        -> Status {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("txn/validate"));
      if (HasConflict(snapshot_version, footprint)) {
        return Status::TxnConflict(
            "write footprint overlaps a commit after snapshot v" +
            std::to_string(snapshot_version));
      }
      SETREC_RETURN_IF_ERROR(RunJournaled(
          instance, [&] { return ApplyDelta(instance, delta); }, commit));
      pending.footprint = footprint;
      batch_footprints_.push_back(footprint);
      return Status::OK();
    };
    SubmitCommit(pending);
    return pending.result;
  }();
  ReleaseSnapshot(snapshot_version);
  return result;
}

Status TxnManager::Apply(const AlgebraicUpdateMethod& method,
                         std::vector<Receiver> receivers) {
  TraceSpan span(options_.tracer, "txn/apply");
  std::unique_lock<std::mutex> gate = SerialGate();

  bool commutative = false;
  if (!gate.owns_lock() && cache_->Commutes(method, method)) {
    // The self-pair decision above ran outside any lock (the first call per
    // method pays the oracle; afterwards it is an O(1) hit). Under the
    // admission lock only cached or syntactic pair checks remain.
    std::lock_guard<std::mutex> lock(adm_mu_);
    if (!serial_mode_) {
      commutative = true;
      for (const InflightTxn& peer : inflight_) {
        if (!cache_->Commutes(method, *peer.method)) {
          commutative = false;
          break;
        }
      }
      if (commutative) inflight_.push_back({&method});
    }
  }

  const std::vector<Receiver> set = CanonicalReceiverSet(receivers);
  if (commutative) {
    Bump(&Stats::commutative_admissions, "txn.admit_commutative");
    Note("txn/admit-commutative", receivers.size());
    Status result = RunWithRetries("commutative txn", [&]() -> Status {
      PendingCommit pending;
      pending.statement = [this, &method, &set, &pending](
                              Instance& instance, ExecContext& ctx,
                              const CommitHook& commit) -> Status {
        // No snapshot, no validation: certification made the serialization
        // order immaterial, so applying at the commit point, directly to
        // the store's instance, is enough.
        InstanceDelta delta;
        SETREC_RETURN_IF_ERROR(RunJournaled(
            instance,
            [&] { return ApplySequenceInPlace(method, instance, set, ctx); },
            commit, &delta));
        // MVCC transactions still validate against this commit.
        pending.footprint = Footprint::FromDelta(delta);
        batch_footprints_.push_back(pending.footprint);
        return Status::OK();
      };
      SubmitCommit(pending);
      return pending.result;
    });
    {
      std::lock_guard<std::mutex> lock(adm_mu_);
      auto it = std::find_if(
          inflight_.begin(), inflight_.end(),
          [&](const InflightTxn& t) { return t.method == &method; });
      if (it != inflight_.end()) inflight_.erase(it);
    }
    return result;
  }

  Bump(&Stats::mvcc_admissions, "txn.admit_mvcc");
  Note("txn/admit-mvcc", receivers.size());
  return RunWithRetries("method txn", [&] {
    return AttemptMvcc([&](Instance& instance, ExecContext& ctx) {
      return ApplySequenceInPlace(method, instance, set, ctx);
    });
  });
}

Status TxnManager::Update(PropertyId property, const ExprPtr& receiver_query) {
  TraceSpan span(options_.tracer, "txn/update");
  std::unique_lock<std::mutex> gate = SerialGate();
  // Always MVCC: the underlying assign method is last-writer-wins on a
  // shared receiver, the exact shape absolute order independence excludes.
  Bump(&Stats::mvcc_admissions, "txn.admit_mvcc");
  return RunWithRetries("update txn", [&] {
    return AttemptMvcc([&](Instance& instance, ExecContext& ctx) {
      return SetOrientedUpdateInPlace(instance, property, receiver_query,
                                      {.ctx = &ctx});
    });
  });
}

Status TxnManager::Mutate(
    const std::function<Status(Instance&, ExecContext&)>& body) {
  TraceSpan span(options_.tracer, "txn/mutate");
  std::unique_lock<std::mutex> gate = SerialGate();
  Bump(&Stats::mvcc_admissions, "txn.admit_mvcc");
  return RunWithRetries("mutate txn", [&] { return AttemptMvcc(body); });
}

}  // namespace setrec
