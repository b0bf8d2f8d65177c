#ifndef SETREC_CORE_EXEC_CONTEXT_H_
#define SETREC_CORE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "core/fault_injection.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace setrec {

/// Cooperative resource governance for the worst-case-exponential kernels
/// (chase, homomorphism search, representative-set enumeration, permutation
/// oracles, relational evaluation). Every hot loop calls back into an
/// ExecContext at named probe points; the context converts "too much work"
/// into a typed non-OK Status instead of a hang or an OOM:
///
///   * step budget        → kResourceExhausted  (deterministic, portable)
///   * wall-clock deadline → kDeadlineExceeded  (checked every few steps to
///                            keep the clock off the hot path)
///   * row budget          → kResourceExhausted (materialized tuples, the
///                            evaluator's dominant cost)
///   * memory high-water   → kResourceExhausted (cooperatively charged
///                            bytes; an approximation, not an allocator hook)
///   * cancellation        → kCancelled         (internal flag or an
///                            external std::atomic<bool>, so another thread
///                            or a signal handler can abort a computation)
///
/// A default-constructed context is fully permissive. Every governed entry
/// point takes the caller's context, either as a required `ExecContext&` or
/// through `ExecOptions::ctx` (null there means a fresh permissive context
/// for that call); there is no shared fallback context. Checks are
/// cooperative: a context only observes the work that is reported to it,
/// and aborting never corrupts state — all governed code paths unwind
/// through Status propagation (the fault-injection tests prove this at
/// every probe point).
///
/// A context is single-owner mutable state (counters); do not share one
/// between concurrently running computations. The cancellation flag is the
/// one cross-thread channel: RequestCancel()/BindCancelFlag() are safe to
/// use from another thread.
///
/// For fan-out, Fork() creates *child* contexts that charge the same
/// budget: the first Fork migrates the parent's counters into shared atomic
/// storage, and from then on parent and children all account against those
/// atomics, so a step/row/byte cap is enforced exactly across every thread
/// of a parallel computation (the thread whose charge crosses the cap is
/// the one that trips). Cancellation is likewise pooled: RequestCancel on
/// any member cancels the whole family, which is how one failing worker
/// aborts its siblings promptly. Fork() itself must be called while no
/// other thread is charging this context (i.e. before dispatching work);
/// each child is then single-owner on its thread, like any context.
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  struct Limits {
    /// Maximum cooperative steps (CheckPoint calls); 0 = unlimited.
    std::uint64_t max_steps = 0;
    /// Wall-clock allowance from context construction; zero = no deadline.
    std::chrono::nanoseconds timeout{0};
    /// Maximum materialized rows charged via ChargeRows; 0 = unlimited.
    std::uint64_t max_rows = 0;
    /// High-water cap on cooperatively charged bytes; 0 = unlimited.
    std::uint64_t max_memory_bytes = 0;
  };

  /// Permissive: never trips (still counts steps, for observability).
  ExecContext() = default;

  /// Governed: the deadline (if any) starts ticking now.
  explicit ExecContext(const Limits& limits)
      : limits_(limits),
        deadline_(limits.timeout > std::chrono::nanoseconds::zero()
                      ? Clock::now() + limits.timeout
                      : Clock::time_point::max()) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Move is supported so forked children can be stored in containers (one
  /// slot per worker). The moved-from context must not be used again.
  ExecContext(ExecContext&& other) noexcept
      : limits_(other.limits_),
        deadline_(other.deadline_),
        steps_(other.steps_),
        rows_(other.rows_),
        memory_in_use_(other.memory_in_use_),
        memory_high_water_(other.memory_high_water_),
        deadline_countdown_(other.deadline_countdown_),
        cancelled_(other.cancelled_.load(std::memory_order_relaxed)),
        external_cancel_(other.external_cancel_),
        injector_(other.injector_),
        tracer_(other.tracer_),
        metrics_(other.metrics_),
        recorder_(other.recorder_),
        trace_parent_(other.trace_parent_),
        trace_id_(other.trace_id_),
        shared_(std::move(other.shared_)) {}

  /// Creates a child context charging the same budget as this one (see the
  /// class comment). The child shares limits, deadline, fault injector and
  /// cancellation with its parent; counters become family-global.
  ExecContext Fork();

  /// Convenience limit builders.
  static Limits StepBudget(std::uint64_t max_steps) {
    Limits l;
    l.max_steps = max_steps;
    return l;
  }
  static Limits Deadline(std::chrono::nanoseconds timeout) {
    Limits l;
    l.timeout = timeout;
    return l;
  }

  /// The cooperative check every governed loop iteration performs: counts a
  /// step, consults the fault injector, then cancellation, step budget, and
  /// (periodically) the wall clock. `probe_point` is a stable name for the
  /// call site, used by fault injection and error messages.
  Status CheckPoint(const char* probe_point) {
    const std::uint64_t steps_now =
        shared_ != nullptr
            ? shared_->steps.fetch_add(1, std::memory_order_relaxed) + 1
            : ++steps_;
    if (injector_ != nullptr) {
      Status injected = injector_->Probe(probe_point);
      if (!injected.ok()) return RecordFailure(probe_point, injected);
    }
    if (cancel_requested()) {
      return RecordFailure(
          probe_point,
          Status::Cancelled(std::string("cancelled at ") + probe_point));
    }
    if (limits_.max_steps != 0 && steps_now > limits_.max_steps) {
      return RecordFailure(
          probe_point,
          Status::ResourceExhausted(std::string("step budget exhausted at ") +
                                    probe_point));
    }
    if (deadline_ != Clock::time_point::max()) {
      if (deadline_countdown_ == 0) {
        deadline_countdown_ = kDeadlineCheckStride;
        if (Clock::now() >= deadline_) {
          return RecordFailure(
              probe_point,
              Status::DeadlineExceeded(std::string("deadline exceeded at ") +
                                       probe_point));
        }
      } else {
        --deadline_countdown_;
      }
    }
    return Status::OK();
  }

  /// Accounts `rows` materialized tuples (also a checkpoint).
  Status ChargeRows(std::uint64_t rows, const char* probe_point) {
    const std::uint64_t rows_now =
        shared_ != nullptr
            ? shared_->rows.fetch_add(rows, std::memory_order_relaxed) + rows
            : (rows_ += rows);
    if (limits_.max_rows != 0 && rows_now > limits_.max_rows) {
      return RecordFailure(
          probe_point,
          Status::ResourceExhausted(std::string("row budget exhausted at ") +
                                    probe_point));
    }
    return CheckPoint(probe_point);
  }

  /// Accounts `bytes` of cooperative memory and updates the high-water mark
  /// (also a checkpoint).
  Status ChargeMemory(std::uint64_t bytes, const char* probe_point) {
    std::uint64_t in_use;
    if (shared_ != nullptr) {
      in_use = shared_->memory_in_use.fetch_add(bytes,
                                                std::memory_order_relaxed) +
               bytes;
      std::uint64_t hw =
          shared_->memory_high_water.load(std::memory_order_relaxed);
      while (hw < in_use &&
             !shared_->memory_high_water.compare_exchange_weak(
                 hw, in_use, std::memory_order_relaxed)) {
      }
    } else {
      in_use = memory_in_use_ += bytes;
      if (memory_in_use_ > memory_high_water_) {
        memory_high_water_ = memory_in_use_;
      }
    }
    if (limits_.max_memory_bytes != 0 && in_use > limits_.max_memory_bytes) {
      return RecordFailure(
          probe_point,
          Status::ResourceExhausted(
              std::string("memory high-water cap exceeded at ") +
              probe_point));
    }
    return CheckPoint(probe_point);
  }

  /// Returns previously charged bytes (high-water mark is kept).
  void ReleaseMemory(std::uint64_t bytes) {
    if (shared_ != nullptr) {
      std::uint64_t cur =
          shared_->memory_in_use.load(std::memory_order_relaxed);
      std::uint64_t next;
      do {
        next = bytes > cur ? 0 : cur - bytes;
      } while (!shared_->memory_in_use.compare_exchange_weak(
          cur, next, std::memory_order_relaxed));
      return;
    }
    memory_in_use_ = bytes > memory_in_use_ ? 0 : memory_in_use_ - bytes;
  }

  // -- Cancellation ----------------------------------------------------------

  /// Requests cooperative abort; the next CheckPoint returns kCancelled.
  /// Safe to call from another thread. On a forked family, cancels every
  /// member (parent and all children).
  void RequestCancel() {
    cancelled_.store(true, std::memory_order_relaxed);
    if (shared_ != nullptr) {
      shared_->cancelled.store(true, std::memory_order_relaxed);
    }
  }

  /// Binds an external cancellation flag (e.g. owned by a server's request
  /// dispatcher); the context observes it in addition to RequestCancel().
  void BindCancelFlag(const std::atomic<bool>* flag) { external_cancel_ = flag; }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (shared_ != nullptr &&
            shared_->cancelled.load(std::memory_order_relaxed)) ||
           (external_cancel_ != nullptr &&
            external_cancel_->load(std::memory_order_relaxed));
  }

  // -- Fault injection -------------------------------------------------------

  /// Attaches a FaultInjector consulted at every probe point (nullptr
  /// detaches). The injector must outlive its use by the context.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // -- Observability ---------------------------------------------------------

  /// Attaches a Tracer / MetricsRegistry (nullptr detaches; both must
  /// outlive their use). Fork() propagates the attachment, so a fan-out's
  /// workers report into the same sinks. With nothing attached, every
  /// instrumentation site in the engine degrades to a null-pointer test —
  /// the "free when off" contract the benches measure.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  MetricsRegistry* metrics() const { return metrics_; }

  /// The flight recorder receiving this context's span/status breadcrumbs.
  /// Unlike the opt-in tracer/metrics sinks, the recorder is *always on*:
  /// every context records into FlightRecorder::Global() unless pointed at a
  /// private recorder (tests) or detached with nullptr. Recording is
  /// span-grained and failure-grained — never per tuple — so the cost is a
  /// ring-buffer write per stage, not per row.
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }
  FlightRecorder* recorder() const { return recorder_; }

  /// Span under which this context's first spans nest when its thread has
  /// no open span of its own: Fork() captures the forking thread's current
  /// span here, which is what keeps a worker's spans parented under the
  /// fan-out's span even though they start on a fresh pool thread.
  std::uint64_t trace_parent() const { return trace_parent_; }
  void set_trace_parent(std::uint64_t span_id) { trace_parent_ = span_id; }

  /// Distributed trace id this context's spans belong to (0 = untraced).
  /// On the request thread the tracer's installed TraceContext already
  /// carries the family, so this is the *fallback* for spans started on
  /// pool threads: Fork() captures the forking thread's current trace id
  /// here, and StartSpan passes it as the trace hint — the cross-thread
  /// analogue of trace_parent(). Servers set it from the request frame's
  /// trace context (see ExecOptions::trace_id).
  std::uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(std::uint64_t trace_id) { trace_id_ = trace_id; }

  // -- Introspection ---------------------------------------------------------

  const Limits& limits() const { return limits_; }
  bool has_step_budget() const { return limits_.max_steps != 0; }
  bool has_deadline() const { return deadline_ != Clock::time_point::max(); }
  /// True when any limit can trip this context (ignores fault injection).
  bool limited() const {
    return has_step_budget() || has_deadline() || limits_.max_rows != 0 ||
           limits_.max_memory_bytes != 0;
  }
  /// Counters. After Fork() these are family-global (the shared atomics),
  /// so a parent observes the combined work of all its children.
  std::uint64_t steps() const {
    return shared_ != nullptr ? shared_->steps.load(std::memory_order_relaxed)
                              : steps_;
  }
  std::uint64_t rows() const {
    return shared_ != nullptr ? shared_->rows.load(std::memory_order_relaxed)
                              : rows_;
  }
  std::uint64_t memory_in_use() const {
    return shared_ != nullptr
               ? shared_->memory_in_use.load(std::memory_order_relaxed)
               : memory_in_use_;
  }
  std::uint64_t memory_high_water() const {
    return shared_ != nullptr
               ? shared_->memory_high_water.load(std::memory_order_relaxed)
               : memory_high_water_;
  }
  /// True once Fork() has been called (counters live in shared storage).
  bool forked() const { return shared_ != nullptr; }

 private:
  /// Budget state shared by a forked family: every charge lands here, so
  /// caps hold across all threads of a fan-out combined.
  struct SharedBudget {
    std::atomic<std::uint64_t> steps{0};
    std::atomic<std::uint64_t> rows{0};
    std::atomic<std::uint64_t> memory_in_use{0};
    std::atomic<std::uint64_t> memory_high_water{0};
    std::atomic<bool> cancelled{false};
  };

  struct ForkTag {};
  ExecContext(ForkTag, const ExecContext& parent)
      : limits_(parent.limits_),
        deadline_(parent.deadline_),
        external_cancel_(parent.external_cancel_),
        injector_(parent.injector_),
        tracer_(parent.tracer_),
        metrics_(parent.metrics_),
        recorder_(parent.recorder_),
        trace_parent_(parent.tracer_ != nullptr &&
                              parent.tracer_->CurrentSpanId() != 0
                          ? parent.tracer_->CurrentSpanId()
                          : parent.trace_parent_),
        trace_id_(parent.tracer_ != nullptr &&
                          parent.tracer_->CurrentTraceId() != 0
                      ? parent.tracer_->CurrentTraceId()
                      : parent.trace_id_),
        shared_(parent.shared_) {}
  /// The wall clock is read once per this many checkpoints: cheap enough to
  /// keep deadlines responsive, rare enough to keep checkpoints branch-only.
  static constexpr std::uint32_t kDeadlineCheckStride = 64;

  /// Leaves a breadcrumb for a non-OK checkpoint outcome in the flight
  /// recorder (failure paths only — the OK hot path never reaches here).
  Status RecordFailure(const char* probe_point, Status status) {
    if (recorder_ != nullptr) {
      recorder_->Record(FlightRecorder::EventKind::kStatus, probe_point,
                        static_cast<std::uint64_t>(status.code()), 0,
                        status.message());
    }
    return status;
  }

  Limits limits_;
  Clock::time_point deadline_ = Clock::time_point::max();
  std::uint64_t steps_ = 0;
  std::uint64_t rows_ = 0;
  std::uint64_t memory_in_use_ = 0;
  std::uint64_t memory_high_water_ = 0;
  std::uint32_t deadline_countdown_ = 0;
  std::atomic<bool> cancelled_{false};
  const std::atomic<bool>* external_cancel_ = nullptr;
  FaultInjector* injector_ = nullptr;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* recorder_ = &FlightRecorder::Global();
  std::uint64_t trace_parent_ = 0;
  std::uint64_t trace_id_ = 0;
  std::shared_ptr<SharedBudget> shared_;
};

/// Opens a span on the context's tracer (inert when none is attached). The
/// span nests under the thread's innermost open span, falling back to the
/// context's trace_parent() — see ExecContext::Fork(). Every span start also
/// drops a breadcrumb into the context's flight recorder, so a post-mortem
/// dump shows which stages ran last even when no tracer was attached.
inline TraceSpan StartSpan(ExecContext& ctx, const char* name) {
  if (ctx.recorder() != nullptr) {
    ctx.recorder()->Record(FlightRecorder::EventKind::kSpan, name,
                           ctx.trace_parent());
  }
  return TraceSpan(ctx.tracer(), name, ctx.trace_parent(), ctx.trace_id());
}

}  // namespace setrec

#endif  // SETREC_CORE_EXEC_CONTEXT_H_
