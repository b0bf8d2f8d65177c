#ifndef SETREC_CORE_EXEC_CONTEXT_H_
#define SETREC_CORE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

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
/// A governed computation runs on its caller's thread, so a context is
/// single-owner mutable state (counters); do not share one between
/// concurrently running computations. The cancellation flag is the one
/// cross-thread channel: RequestCancel()/BindCancelFlag() are safe to use
/// from another thread.
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
    ++steps_;
    if (injector_ != nullptr) {
      Status injected = injector_->Probe(probe_point);
      if (!injected.ok()) return RecordFailure(probe_point, injected);
    }
    if (cancel_requested()) {
      return RecordFailure(
          probe_point,
          Status::Cancelled(std::string("cancelled at ") + probe_point));
    }
    if (limits_.max_steps != 0 && steps_ > limits_.max_steps) {
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
    rows_ += rows;
    if (limits_.max_rows != 0 && rows_ > limits_.max_rows) {
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
    memory_in_use_ += bytes;
    if (memory_in_use_ > memory_high_water_) {
      memory_high_water_ = memory_in_use_;
    }
    if (limits_.max_memory_bytes != 0 &&
        memory_in_use_ > limits_.max_memory_bytes) {
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
    memory_in_use_ = bytes > memory_in_use_ ? 0 : memory_in_use_ - bytes;
  }

  // -- Cancellation ----------------------------------------------------------

  /// Requests cooperative abort; the next CheckPoint returns kCancelled.
  /// Safe to call from another thread.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Binds an external cancellation flag (e.g. owned by a server's request
  /// dispatcher); the context observes it in addition to RequestCancel().
  void BindCancelFlag(const std::atomic<bool>* flag) { external_cancel_ = flag; }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (external_cancel_ != nullptr &&
            external_cancel_->load(std::memory_order_relaxed));
  }

  // -- Fault injection -------------------------------------------------------

  /// Attaches a FaultInjector consulted at every probe point (nullptr
  /// detaches). The injector must outlive its use by the context.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // -- Observability ---------------------------------------------------------

  /// Attaches a Tracer / MetricsRegistry (nullptr detaches; both must
  /// outlive their use). With nothing attached, every instrumentation site
  /// in the engine degrades to a null-pointer test — the "free when off"
  /// contract the benches measure.
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

  // -- Introspection ---------------------------------------------------------

  const Limits& limits() const { return limits_; }
  bool has_step_budget() const { return limits_.max_steps != 0; }
  bool has_deadline() const { return deadline_ != Clock::time_point::max(); }
  /// True when any limit can trip this context (ignores fault injection).
  bool limited() const {
    return has_step_budget() || has_deadline() || limits_.max_rows != 0 ||
           limits_.max_memory_bytes != 0;
  }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t rows() const { return rows_; }
  std::uint64_t memory_in_use() const { return memory_in_use_; }
  std::uint64_t memory_high_water() const { return memory_high_water_; }

 private:
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
};

/// Opens a span on the context's tracer (inert when none is attached). The
/// span nests under the calling thread's innermost open span. Every span
/// start also drops a breadcrumb into the context's flight recorder, so a
/// post-mortem dump shows which stages ran last even when no tracer was
/// attached.
inline TraceSpan StartSpan(ExecContext& ctx, const char* name) {
  if (ctx.recorder() != nullptr) {
    ctx.recorder()->Record(FlightRecorder::EventKind::kSpan, name);
  }
  return TraceSpan(ctx.tracer(), name);
}

}  // namespace setrec

#endif  // SETREC_CORE_EXEC_CONTEXT_H_
