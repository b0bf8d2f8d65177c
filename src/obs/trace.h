#ifndef SETREC_OBS_TRACE_H_
#define SETREC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace setrec {

class Tracer;

/// Cross-process trace identity. A request family is named by a `trace_id`
/// minted once at the client; it travels in the frame header (net/frame.h)
/// and is adopted by every process the request touches, so spans recorded
/// by *different* Tracers (client, leader, follower) can be merged into one
/// timeline by tools/trace_merge.py. `parent_span` is the sender-side span
/// id the receiver's first span should hang under (recorded as
/// SpanEvent::remote_parent — span ids are only unique per process, so the
/// remote edge is annotation, not local parentage). `sampled` gates
/// propagation: an unsampled request travels with an empty context.
struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = untraced
  std::uint64_t parent_span = 0;
  bool sampled = false;

  bool active() const { return trace_id != 0 && sampled; }
};

/// Installs `ctx` as the calling thread's current trace context on `tracer`
/// for the guard's lifetime (restoring the previous context on exit).
/// While installed, every span started on this thread carries
/// ctx.trace_id, and the outermost such span records ctx.parent_span as
/// its remote parent. Null-tracer or inactive-context guards are inert.
class ScopedTraceContext {
 public:
  ScopedTraceContext() = default;
  ScopedTraceContext(Tracer* tracer, const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  TraceContext saved_;
};

/// RAII span guard. A default-constructed or null-tracer span is inert: the
/// constructor is a single branch and the destructor a branch on a null
/// pointer, so instrumentation sites cost nothing measurable when no Tracer
/// is attached (the null-sink fast path the benches rely on).
///
/// Span names must be string literals (or otherwise outlive the Tracer);
/// they are stored by pointer, never copied.
class TraceSpan {
 public:
  TraceSpan() = default;

  /// Starts a span on `tracer` (no-op when null). The parent is the
  /// innermost span currently open on this thread; when the thread has no
  /// open span — the first span of a forked worker — `parent_hint` is used,
  /// which is how a fan-out's worker spans attach under the span that forked
  /// them (see ExecContext::Fork and StartSpan in core/exec_context.h).
  ///
  /// Trace identity: the thread's installed TraceContext wins (the request
  /// boundary — see ScopedTraceContext), else the innermost open span's
  /// trace id is inherited, else `trace_hint` (a forked worker carrying its
  /// family's id through ExecContext::trace_id()).
  TraceSpan(Tracer* tracer, const char* name, std::uint64_t parent_hint = 0,
            std::uint64_t trace_hint = 0);

  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& other) noexcept
      : tracer_(other.tracer_),
        name_(other.name_),
        id_(other.id_),
        parent_(other.parent_),
        trace_id_(other.trace_id_),
        remote_parent_(other.remote_parent_),
        start_ns_(other.start_ns_) {
    other.tracer_ = nullptr;
  }
  TraceSpan& operator=(TraceSpan&& other) noexcept {
    if (this != &other) {
      End();
      tracer_ = other.tracer_;
      name_ = other.name_;
      id_ = other.id_;
      parent_ = other.parent_;
      trace_id_ = other.trace_id_;
      remote_parent_ = other.remote_parent_;
      start_ns_ = other.start_ns_;
      other.tracer_ = nullptr;
    }
    return *this;
  }

  /// Ends the span now (idempotent; the destructor calls it).
  void End();

  bool active() const { return tracer_ != nullptr; }
  std::uint64_t id() const { return id_; }
  std::uint64_t trace_id() const { return trace_id_; }

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t remote_parent_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// One completed span. Times are nanoseconds since the Tracer's epoch
/// (construction time), so traces from one Tracer are directly comparable.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t id = 0;
  /// Id of the enclosing span (0 = root). Explicit parentage — not inferred
  /// from timestamps — is what keeps the span *tree* well defined when a
  /// fan-out runs children on pool threads.
  std::uint64_t parent = 0;
  /// The request family this span belongs to (0 = untraced). Adopted from
  /// the thread's installed TraceContext at the request boundary and
  /// inherited by every nested and forked span — the key trace_merge.py
  /// groups on.
  std::uint64_t trace_id = 0;
  /// The *sender-side* span id this span continues (0 = none): recorded
  /// only on the span that joins a remote trace (client span id on the
  /// server's request span, leader span id on a follower's replay span).
  /// Annotation, not parentage — span ids are per-process.
  std::uint64_t remote_parent = 0;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Aggregate of all spans sharing a name.
struct StageStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Collects spans into per-thread buffers (one mutex acquisition per span
/// end, always uncontended because each buffer is written by exactly one
/// thread) and merges them at flush time. Raw events are capped per thread
/// (kMaxEventsPerThread); beyond the cap events are dropped from the raw
/// list but still folded into the per-stage aggregates, and the drop count
/// is reported — totals never silently lose time.
///
/// Exports: chrome://tracing JSON ("Complete" events; load via
/// chrome://tracing or ui.perfetto.dev), a text summary per stage, and a
/// worker-count-invariant tree signature for determinism tests.
///
/// Thread safety: spans may begin/end concurrently on any thread. The
/// flush-side readers (Events, StageTotals, Write*, TreeSignature) take the
/// same per-buffer locks, so they are safe to call at any time, but a
/// coherent snapshot requires the traced computation to have joined first.
class Tracer {
 public:
  /// Raw events kept per thread; aggregates are unbounded (tiny).
  static constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Innermost span currently open on the *calling* thread (0 = none).
  /// ExecContext::Fork captures this as the parent hint for worker threads.
  std::uint64_t CurrentSpanId() const;

  /// Trace id in effect on the *calling* thread: the installed
  /// TraceContext's id when one is active, else the innermost open span's
  /// (0 = untraced). ExecContext::Fork captures this so pool-thread spans
  /// stay in their request's family.
  std::uint64_t CurrentTraceId() const;

  /// All completed events, merged across threads, ordered by start time.
  std::vector<SpanEvent> Events() const;

  /// Per-stage aggregates (keyed by span name), merged across threads.
  std::map<std::string, StageStats> StageTotals() const;

  /// Canonical string for the span tree with timestamps erased and sibling
  /// subtrees deduplicated: `name{child;child;...}` with children sorted
  /// and uniqued. Dedup makes the signature invariant under the *multiplicity*
  /// of structurally identical siblings, which is exactly the degree of
  /// freedom a fan-out introduces — 1 worker span or 8 identical ones yield
  /// the same signature, so determinism tests can pin the tree across
  /// worker counts.
  std::string TreeSignature() const;

  /// TreeSignature restricted to the spans of one request family
  /// (SpanEvent::trace_id == trace_id). Spans whose parent lies outside the
  /// family (e.g. a request span under the long-lived session span) become
  /// roots, and — like the unrestricted signature — identical sibling and
  /// root subtrees dedup, so a retried-but-idempotent request family pins
  /// to the same signature whether the server executed it once or twice.
  /// The fault-sweep tests pin this across every frame-fault mode.
  std::string TreeSignatureForTrace(std::uint64_t trace_id) const;

  /// chrome://tracing "Complete" events JSON. Span nesting renders per
  /// thread track; the explicit parent id is carried in args.
  void WriteChromeTrace(std::ostream& out) const;

  /// Human-readable per-stage table, widest total first.
  void WriteSummary(std::ostream& out) const;

  /// Events dropped after a thread buffer filled (still aggregated).
  std::uint64_t dropped_events() const;

  /// Total completed spans (kept + dropped).
  std::uint64_t total_spans() const;

 private:
  friend class TraceSpan;
  friend class ScopedTraceContext;

  /// One open-span stack entry: the span id plus the trace id it carries,
  /// so nested spans inherit their family without a log lookup.
  struct OpenSpan {
    std::uint64_t id = 0;
    std::uint64_t trace_id = 0;
  };

  struct ThreadLog {
    /// Guards events/aggregates/dropped against a concurrent flush; the
    /// owning thread is the only writer.
    mutable std::mutex mu;
    std::vector<SpanEvent> events;
    std::map<const char*, StageStats> aggregates;
    std::uint64_t dropped = 0;
    /// Open-span stack; touched only by the owning thread, no lock needed.
    std::vector<OpenSpan> open;
    /// Trace context installed on the owning thread (ScopedTraceContext);
    /// owning-thread only, like `open`.
    TraceContext ctx;
    std::uint32_t tid = 0;
  };

  /// This thread's buffer, registering it on first use. Cached in
  /// thread-local storage keyed by the tracer's process-unique serial, so
  /// the steady-state cost is a short linear scan and no lock.
  ThreadLog* LogForThisThread();
  const ThreadLog* LogForThisThreadIfAny() const;

  std::uint64_t NowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  const std::uint64_t serial_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

}  // namespace setrec

#endif  // SETREC_OBS_TRACE_H_
