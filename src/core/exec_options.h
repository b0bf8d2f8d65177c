#ifndef SETREC_CORE_EXEC_OPTIONS_H_
#define SETREC_CORE_EXEC_OPTIONS_H_

#include <cstddef>
#include <functional>
#include <optional>

#include "core/exec_backend.h"
#include "core/exec_context.h"
#include "core/status.h"

namespace setrec {

class ThreadPool;
class ViewCache;
struct InstanceDelta;

/// Receiver of committed instance deltas. This is the layering seam between
/// the governed entry points (which live in the core and cannot link the
/// incremental library) and `ViewCache` (incremental/view_cache.h), which
/// implements it: call sites publish through the abstract interface, while
/// layers that need the concrete cache (the SQL engine's receiver-view
/// path) recover it via AsViewCache() without RTTI.
class DeltaSink {
 public:
  virtual ~DeltaSink() = default;

  /// Absorbs one committed delta. Publication happens *after* the mutation
  /// it describes durably succeeded; a sink that cannot absorb it must fail
  /// closed (stop serving reads) rather than serve stale state as fresh.
  virtual Status ApplyDelta(const InstanceDelta& delta) = 0;

  /// The concrete incremental view cache, when this sink is one.
  virtual ViewCache* AsViewCache() { return nullptr; }
};

/// A commit hook for mutating statements: invoked exactly once, after the
/// statement's in-memory application succeeded, with the statement's net
/// delta — built by the instance's mutation journal in O(|delta|), equal
/// to DiffInstances(before, after). Returning non-OK *vetoes* the commit:
/// the statement rolls back by applying the journal's inverse and
/// propagates the hook's error. This is the durability layer's
/// interposition point (see store/durable_store.h). An empty hook commits
/// unconditionally.
using CommitHook = std::function<Status(const InstanceDelta& delta)>;

/// The one options struct every governed entry point accepts. It bundles
/// the parameters that used to accrete one by one on each signature
/// (ExecContext*, CommitHook, backend, Tracer* / MetricsRegistry*), so
/// adding an execution concern never changes an API again. All fields are
/// optional; a default-constructed ExecOptions means "permissive,
/// unobserved, commit unconditionally". A caller that holds a context
/// passes it as `{.ctx = &ctx}`.
///
/// Everything here is borrowed, not owned; the referents must outlive the
/// call.
struct ExecOptions {
  /// Governing context. Null = a fresh permissive context per call.
  ExecContext* ctx = nullptr;

  /// Observability sinks, attached to the governing context for the call's
  /// duration. If `ctx` already has a tracer/metrics attached, the
  /// context's attachment wins.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// Flight recorder for the call's duration. Contexts are born recording
  /// into FlightRecorder::Global() (the recorder is always on), so unlike
  /// tracer/metrics this field *overrides* the context's recorder when set —
  /// point it at a private recorder to isolate a run's breadcrumbs, and the
  /// scope restores the previous recorder on exit. Null = keep the
  /// context's current recorder.
  FlightRecorder* recorder = nullptr;

  /// Read by nothing: every governed computation runs on its caller's
  /// thread, so neither field changes a result, a counter or a backend.
  /// They remain only because the repository benchmark (perfbench/) still
  /// sets them, and they go together with its worker settings.
  std::size_t num_workers = 1;
  ThreadPool* pool = nullptr;

  /// Execution backend for relational evaluation (core/exec_backend.h).
  /// kAuto (the default) keeps the interpreter unless the inputs are large
  /// enough to pay for batching; kInterpreter and kVectorized force a
  /// backend. Results, error statuses and logical counters are
  /// backend-invariant, so this is a pure performance knob.
  ExecBackend backend = ExecBackend::kAuto;

  /// Commit interposition for the in-place SQL statements; ignored by
  /// read-only entry points.
  CommitHook commit_hook = {};

  /// Incremental view cache (or any delta sink) to keep in sync with the
  /// call's effects. Mutating entry points publish the committed delta to
  /// it after they succeed — unless `commit_hook` is set: a caller that
  /// passes a hook owns the commit and its publication (DurableStore
  /// publishes only after the covering fsync), so no statement publishes a
  /// delta that is not yet durable. The SQL engine's set-oriented update
  /// also derives its receiver set through the cache either way (falling
  /// back to from-scratch evaluation on any cache miss or error). Null = no
  /// incremental maintenance.
  DeltaSink* view_cache = nullptr;
};

/// Resolves ExecOptions to a concrete ExecContext for the duration of one
/// entry-point call: materializes a fresh permissive context when none was
/// given, and attaches the options' tracer/metrics to it, detaching on
/// destruction anything it attached to a *borrowed* context (so a caller's
/// context is returned exactly as it came).
class ExecScope {
 public:
  explicit ExecScope(const ExecOptions& options) {
    if (options.ctx != nullptr) {
      ctx_ = options.ctx;
    } else {
      ctx_ = &local_.emplace();
    }
    if (options.tracer != nullptr && ctx_->tracer() == nullptr) {
      ctx_->set_tracer(options.tracer);
      attached_tracer_ = true;
    }
    if (options.metrics != nullptr && ctx_->metrics() == nullptr) {
      ctx_->set_metrics(options.metrics);
      attached_metrics_ = true;
    }
    if (options.recorder != nullptr) {
      previous_recorder_ = ctx_->recorder();
      ctx_->set_recorder(options.recorder);
      swapped_recorder_ = true;
    }
  }
  ~ExecScope() {
    if (attached_tracer_) ctx_->set_tracer(nullptr);
    if (attached_metrics_) ctx_->set_metrics(nullptr);
    if (swapped_recorder_) ctx_->set_recorder(previous_recorder_);
  }
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

  ExecContext& ctx() { return *ctx_; }

 private:
  std::optional<ExecContext> local_;
  ExecContext* ctx_ = nullptr;
  FlightRecorder* previous_recorder_ = nullptr;
  bool attached_tracer_ = false;
  bool attached_metrics_ = false;
  bool swapped_recorder_ = false;
};

}  // namespace setrec

#endif  // SETREC_CORE_EXEC_OPTIONS_H_
