#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"

namespace perfbench {

void Report::Check(bool ok, const std::string& what, std::uint64_t ops) {
  checks_run.push_back(what);
  if (!ok) {
    correct = false;
    failed += ops;
    Note("CHECK FAILED: " + what);
  }
}

double Samples::Quantile(double q) const {
  if (ms_.empty()) return 0.0;
  std::vector<double> sorted = ms_;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::TailPercentile() const {
  return static_cast<double>(ms_.size()) * 0.1 >= 10.0 ? 90.0 : 50.0;
}

double MedianMs(int reps, const std::function<void()>& fn) {
  Samples samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.Add(MsSince(start));
  }
  return samples.Median();
}

void Completions::SliceRates(Clock::time_point start, int slices,
                             Samples& rates) const {
  std::vector<Event> events = events_;
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });
  if (events.empty() || slices < 1) return;
  const Clock::duration span = events.back().at - start;
  auto boundary = [&](int slice) { return start + span * slice / slices; };
  Clock::time_point from = start;
  double weight = 0.0;
  int slice = 1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    weight += events[i].weight;
    if (i + 1 < events.size() && events[i + 1].at <= boundary(slice)) continue;
    // The next completion falls in a later slice: close this one here.
    const double seconds =
        std::chrono::duration<double>(events[i].at - from).count();
    if (seconds > 0.0) rates.Add(weight / seconds);
    from = events[i].at;
    weight = 0.0;
    while (i + 1 < events.size() && slice < slices &&
           boundary(slice) < events[i + 1].at) {
      ++slice;
    }
  }
}

void Interleave(int rounds, double load_seconds, double probe_seconds,
                const std::function<void(double)>& load,
                const std::function<void()>& probe) {
  for (int round = 0; round < rounds; ++round) {
    load(load_seconds / rounds);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 2 || MsSince(start) < 1000.0 * probe_seconds / rounds;
         ++i) {
      probe();
    }
  }
}

double TimeSetups(const std::function<void()>& setup) {
  Samples samples;
  double spent_ms = 0.0;
  while (samples.size() < 3 || (spent_ms < 1500.0 && samples.size() < 10001)) {
    const Clock::time_point start = Clock::now();
    setup();
    const double ms = MsSince(start);
    samples.Add(ms);
    spent_ms += ms;
  }
  return samples.Median() / 1000.0;
}

void SetLatencyMetrics(Report& report, const std::string& slot,
                       const std::string& meaning, const Samples& samples) {
  const double p = samples.TailPercentile();
  const double p50 = samples.Median();
  const double tail = samples.Quantile(p / 100.0);
  report.Set(slot + "_p50_ms", p50, "ms");
  report.Set(slot + "_tail_ms", tail, "ms");
  char line[256];
  std::snprintf(line, sizeof line,
                "%-9s %-34s n=%-6zu p10=%.4f ms  p50=%.4f ms  tail=p%g %.4f ms",
                slot.c_str(), meaning.c_str(), samples.size(),
                samples.Quantile(0.1), p50, p, tail);
  report.Note(line);
}

namespace {
thread_local SpanTracer::Span* current_span = nullptr;
}  // namespace

SpanTracer::Span::Span(SpanTracer* tracer, const char* name)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  parent_ = current_span;
  current_span = this;
  start_ = Clock::now();
}

SpanTracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const double total = MsSince(start_);
  current_span = parent_;
  if (parent_ != nullptr) parent_->children_ms_ += total;
  tracer_->Record(name_, total, std::max(0.0, total - children_ms_),
                  parent_ == nullptr);
}

void SpanTracer::Record(const char* name, double total_ms, double self_ms,
                        bool root) {
  std::lock_guard<std::mutex> lock(mu_);
  Row& row = rows_[name];
  ++row.count;
  row.total_ms += total_ms;
  row.self_ms += self_ms;
  row.root = row.root || root;
}

std::map<std::string, SpanTracer::Row> SpanTracer::Rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

double SpanTracer::UnattributedPct() const {
  double root_total = 0.0;
  double root_self = 0.0;
  for (const auto& [name, row] : Rows()) {
    if (!row.root || name.rfind("op.", 0) != 0) continue;
    root_total += row.total_ms;
    root_self += row.self_ms;
  }
  return root_total > 0.0 ? 100.0 * root_self / root_total : 0.0;
}

void SpanTracer::WriteTable(Report& report, const std::string& workload) const {
  report.Note("layer table (" + workload +
              "): span, calls, total ms, self ms, self ms/call");
  for (const auto& [name, row] : Rows()) {
    char line[256];
    std::snprintf(line, sizeof line, "  %-40s %8llu %12.3f %12.3f %12.5f",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ms, row.self_ms,
                  row.count == 0 ? 0.0
                                 : row.self_ms / static_cast<double>(row.count));
    report.Note(line);
  }
  char line[128];
  std::snprintf(line, sizeof line, "  %-40s %.3f %%", "unattributed (op.* self)",
                UnattributedPct());
  report.Note(line);
}

void SetObsMetrics(Report& report, double untraced_primary_ms,
                   double traced_primary_ms, const SpanTracer& tracer) {
  report.Set("obs.overhead_pct",
             untraced_primary_ms > 0.0
                 ? 100.0 * (traced_primary_ms - untraced_primary_ms) /
                       untraced_primary_ms
                 : 0.0,
             "%");
  report.Set("unattributed_pct", tracer.UnattributedPct(), "%");
}

namespace {

const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return allowed;
}

}  // namespace

void RotateCpu() {
  static thread_local int next = 0;
  const cpu_set_t& allowed = AllowedCpus();
  for (int step = 0; step < CPU_SETSIZE; ++step) {
    const int cpu = (next + step) % CPU_SETSIZE;
    if (!CPU_ISSET(cpu, &allowed)) continue;
    next = cpu + 1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
}

void Unpin() {
  pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &AllowedCpus());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string RenderRelation(const setrec::Relation& relation,
                           const setrec::Schema& schema) {
  std::string out;
  for (const setrec::Tuple* tuple : relation.SortedTuples()) {
    for (std::size_t i = 0; i < tuple->arity(); ++i) {
      if (i != 0) out.push_back(' ');
      const setrec::ObjectId o = tuple->at(i);
      out.append(schema.class_name(o.class_id()));
      out.push_back('(');
      out.append(std::to_string(o.index()));
      out.push_back(')');
    }
    out.push_back('\n');
  }
  return out;
}

setrec::InstanceDelta Invert(const setrec::InstanceDelta& delta) {
  setrec::InstanceDelta inverse;
  inverse.removed_objects = delta.added_objects;
  inverse.added_objects = delta.removed_objects;
  inverse.removed_edges = delta.added_edges;
  inverse.added_edges = delta.removed_edges;
  return inverse;
}

std::size_t HostThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

}  // namespace perfbench
