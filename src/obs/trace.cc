#include "obs/trace.h"

#include <algorithm>
#include <iomanip>
#include <set>
#include <unordered_map>

#include "obs/json_escape.h"

namespace setrec {

namespace {

/// Process-unique tracer serials; never reused, so a stale thread-local
/// cache entry for a destroyed tracer can never match a live one.
std::atomic<std::uint64_t> g_next_tracer_serial{1};

/// Per-thread cache of (tracer serial → buffer). Entries for destroyed
/// tracers go stale but never match again; the vector stays tiny because a
/// process creates few tracers.
struct TlsEntry {
  std::uint64_t serial;
  void* log;
};
thread_local std::vector<TlsEntry> t_tracer_logs;

std::atomic<std::uint32_t> g_next_tid{1};
std::uint32_t ThisThreadId() {
  thread_local std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

// -- ScopedTraceContext ------------------------------------------------------

ScopedTraceContext::ScopedTraceContext(Tracer* tracer, const TraceContext& ctx)
    : tracer_(ctx.active() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Tracer::ThreadLog* log = tracer_->LogForThisThread();
  saved_ = log->ctx;
  log->ctx = ctx;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (tracer_ == nullptr) return;
  tracer_->LogForThisThread()->ctx = saved_;
}

// -- TraceSpan ---------------------------------------------------------------

TraceSpan::TraceSpan(Tracer* tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  Tracer::ThreadLog* log = tracer_->LogForThisThread();
  if (log->open.empty()) {
    trace_id_ = log->ctx.active() ? log->ctx.trace_id : 0;
  } else {
    parent_ = log->open.back().id;
    // An installed context wins over inheritance: the request boundary on a
    // session thread sits *under* the long-lived session span, and its
    // spans must join the request's remote family, not the session's.
    trace_id_ =
        log->ctx.active() ? log->ctx.trace_id : log->open.back().trace_id;
  }
  // The span that first joins a remote family (its enclosing span, if any,
  // is not part of it) records the cross-process edge.
  if (log->ctx.active() && trace_id_ == log->ctx.trace_id &&
      (log->open.empty() || log->open.back().trace_id != trace_id_)) {
    remote_parent_ = log->ctx.parent_span;
  }
  id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  log->open.push_back(Tracer::OpenSpan{id_, trace_id_});
  start_ns_ = tracer_->NowNs();
}

void TraceSpan::End() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  const std::uint64_t end_ns = tracer->NowNs();

  Tracer::ThreadLog* log = tracer->LogForThisThread();
  // RAII guards unwind LIFO; tolerate out-of-order ends from moved spans.
  if (!log->open.empty() && log->open.back().id == id_) {
    log->open.pop_back();
  } else {
    auto it = std::find_if(log->open.begin(), log->open.end(),
                           [this](const Tracer::OpenSpan& open) {
                             return open.id == id_;
                           });
    if (it != log->open.end()) log->open.erase(it);
  }

  SpanEvent event;
  event.name = name_;
  event.id = id_;
  event.parent = parent_;
  event.trace_id = trace_id_;
  event.remote_parent = remote_parent_;
  event.tid = log->tid;
  event.start_ns = start_ns_;
  event.dur_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;

  std::lock_guard<std::mutex> lock(log->mu);
  StageStats& agg = log->aggregates[name_];
  agg.count += 1;
  agg.total_ns += event.dur_ns;
  if (log->events.size() < Tracer::kMaxEventsPerThread) {
    log->events.push_back(event);
  } else {
    ++log->dropped;
  }
}

// -- Tracer ------------------------------------------------------------------

Tracer::Tracer()
    : serial_(g_next_tracer_serial.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadLog* Tracer::LogForThisThread() {
  for (const TlsEntry& entry : t_tracer_logs) {
    if (entry.serial == serial_) return static_cast<ThreadLog*>(entry.log);
  }
  auto log = std::make_unique<ThreadLog>();
  log->tid = ThisThreadId();
  ThreadLog* raw = log.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::move(log));
  }
  t_tracer_logs.push_back(TlsEntry{serial_, raw});
  return raw;
}

const Tracer::ThreadLog* Tracer::LogForThisThreadIfAny() const {
  for (const TlsEntry& entry : t_tracer_logs) {
    if (entry.serial == serial_) {
      return static_cast<const ThreadLog*>(entry.log);
    }
  }
  return nullptr;
}

std::uint64_t Tracer::CurrentSpanId() const {
  const ThreadLog* log = LogForThisThreadIfAny();
  return log == nullptr || log->open.empty() ? 0 : log->open.back().id;
}

std::uint64_t Tracer::CurrentTraceId() const {
  const ThreadLog* log = LogForThisThreadIfAny();
  if (log == nullptr) return 0;
  if (log->ctx.active()) return log->ctx.trace_id;
  return log->open.empty() ? 0 : log->open.back().trace_id;
}

std::vector<SpanEvent> Tracer::Events() const {
  std::vector<SpanEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    out.insert(out.end(), log->events.begin(), log->events.end());
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.id < b.id;
  });
  return out;
}

std::map<std::string, StageStats> Tracer::StageTotals() const {
  std::map<std::string, StageStats> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const auto& [name, agg] : log->aggregates) {
      StageStats& merged = out[name];
      merged.count += agg.count;
      merged.total_ns += agg.total_ns;
    }
  }
  return out;
}

namespace {

/// Shared core of TreeSignature / TreeSignatureForTrace: canonical string
/// for the span forest in `events`, timestamps erased, identical sibling
/// (and root) subtrees deduplicated.
std::string SignatureOf(const std::vector<SpanEvent>& events) {
  std::unordered_map<std::uint64_t, std::vector<const SpanEvent*>> children;
  std::unordered_map<std::uint64_t, const SpanEvent*> by_id;
  for (const SpanEvent& e : events) by_id.emplace(e.id, &e);
  std::vector<const SpanEvent*> roots;
  for (const SpanEvent& e : events) {
    // A parent that was itself dropped from the raw buffer promotes its
    // children to roots — the signature degrades, it never dangles.
    if (e.parent != 0 && by_id.count(e.parent) != 0) {
      children[e.parent].push_back(&e);
    } else {
      roots.push_back(&e);
    }
  }
  // Recursion depth equals span nesting depth (shallow by construction).
  auto sig = [&](auto&& self, const SpanEvent& e) -> std::string {
    std::set<std::string> kids;
    for (const SpanEvent* c : children[e.id]) kids.insert(self(self, *c));
    std::string out = e.name;
    out += '{';
    bool first = true;
    for (const std::string& k : kids) {
      if (!first) out += ';';
      out += k;
      first = false;
    }
    out += '}';
    return out;
  };
  std::set<std::string> top;
  for (const SpanEvent* r : roots) top.insert(sig(sig, *r));
  std::string out;
  bool first = true;
  for (const std::string& s : top) {
    if (!first) out += ';';
    out += s;
    first = false;
  }
  return out;
}

}  // namespace

std::string Tracer::TreeSignature() const { return SignatureOf(Events()); }

std::string Tracer::TreeSignatureForTrace(std::uint64_t trace_id) const {
  std::vector<SpanEvent> family;
  for (const SpanEvent& e : Events()) {
    if (e.trace_id == trace_id) family.push_back(e);
  }
  return SignatureOf(family);
}

void Tracer::WriteChromeTrace(std::ostream& out) const {
  const std::vector<SpanEvent> events = Events();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"";
    JsonEscape(out, e.name);
    // chrome://tracing expects microsecond floats; keep ns resolution.
    out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
        << static_cast<double>(e.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0
        << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent
        << ",\"trace_id\":" << e.trace_id
        << ",\"remote_parent\":" << e.remote_parent << "}}";
  }
  // The epoch (steady-clock ns at tracer construction) lets trace_merge.py
  // align traces from tracers born at different times on one machine: an
  // event's absolute time is epoch_steady_ns/1000 + ts.
  out << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":"
      << dropped_events() << ",\"epoch_steady_ns\":"
      << std::chrono::duration_cast<std::chrono::nanoseconds>(
             epoch_.time_since_epoch())
             .count()
      << "}}\n";
}

void Tracer::WriteSummary(std::ostream& out) const {
  const std::map<std::string, StageStats> totals = StageTotals();
  std::vector<std::pair<std::string, StageStats>> rows(totals.begin(),
                                                       totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_ns != b.second.total_ns) {
      return a.second.total_ns > b.second.total_ns;
    }
    return a.first < b.first;
  });
  out << std::left << std::setw(36) << "stage" << std::right << std::setw(12)
      << "count" << std::setw(16) << "total_ms" << std::setw(16) << "mean_us"
      << "\n";
  for (const auto& [name, agg] : rows) {
    const double total_ms = static_cast<double>(agg.total_ns) / 1e6;
    const double mean_us =
        agg.count == 0
            ? 0.0
            : static_cast<double>(agg.total_ns) /
                  (1e3 * static_cast<double>(agg.count));
    out << std::left << std::setw(36) << name << std::right << std::setw(12)
        << agg.count << std::setw(16) << std::fixed << std::setprecision(3)
        << total_ms << std::setw(16) << mean_us << "\n";
  }
  if (dropped_events() != 0) {
    out << "(" << dropped_events()
        << " raw events dropped past the per-thread cap; totals include "
           "them)\n";
  }
}

std::uint64_t Tracer::dropped_events() const {
  std::uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    dropped += log->dropped;
  }
  return dropped;
}

std::uint64_t Tracer::total_spans() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const auto& [name, agg] : log->aggregates) total += agg.count;
  }
  return total;
}

}  // namespace setrec
