// Shared harness of the setrec repository benchmark: run options, the
// report every workload fills, latency samples, the benchmark-side span
// tracer, and the layer probes every workload runs in its traced mode.
//
// The benchmark measures each layer from outside: spans wrap the calls the
// benchmark itself makes into the library's public functions, and engine
// counters come from a MetricsRegistry attached only in traced mode.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "algebraic/algebraic_method.h"
#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "core/schema.h"
#include "obs/metrics.h"
#include "relational/relation.h"
#include "net/server.h"
#include "store/durable_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short load, for the benchmark's own tests.
  bool smoke = false;
  /// Scratch directory for stores and logs; removed by the caller.
  std::string data_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run produces. Every failed check marks the run incorrect and
/// counts the operations it covered as failed.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
  std::vector<std::string> checks_run;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records an output check; `ops` are the operations it vouches for.
  void Check(bool ok, const std::string& what, std::uint64_t ops = 1);
};

/// Samples of one quantity: latencies of an operation class in
/// milliseconds, or rates.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void Merge(const Samples& other) {
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  }
  std::size_t size() const { return ms_.size(); }
  double Median() const { return Quantile(0.5); }
  double Quantile(double q) const;
  /// The tail percentile: p90, which leaves at least ten samples beyond it
  /// from 100 samples on; p50 below that. Higher percentiles are not used:
  /// on a shared host they measure the neighbours' load, not the program.
  double TailPercentile() const;

 private:
  std::vector<double> ms_;
};

/// Completed work with its completion times, for throughput. A run's
/// throughput is the median rate over consecutive slices of it, so that a
/// few seconds in which the shared host stalls the load do not set it.
class Completions {
 public:
  void Add(double weight = 1.0) { events_.push_back({Clock::now(), weight}); }
  void Merge(const Completions& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  }
  /// Cuts the completions after `start` into `slices` slices of about equal
  /// wall time, each ending at a completion, and adds each slice's rate
  /// (weight completed per second) to `rates`.
  void SliceRates(Clock::time_point start, int slices, Samples& rates) const;

 private:
  struct Event {
    Clock::time_point at;
    double weight;
  };
  std::vector<Event> events_;
};

/// Median of `reps` timed calls of `fn`, in milliseconds.
double MedianMs(int reps, const std::function<void()>& fn);

/// Runs `rounds` rounds of `load(seconds)` each followed by `probe()`
/// repeated (at least twice) until `probe_seconds` have passed, so the
/// probe's samples spread over the whole run instead of one stretch of it.
void Interleave(int rounds, double load_seconds, double probe_seconds,
                const std::function<void(double)>& load,
                const std::function<void()>& probe);

/// Sets <slot>_p50_ms and <slot>_tail_ms from `samples` and notes the tail
/// percentile and sample count.
void SetLatencyMetrics(Report& report, const std::string& slot,
                       const std::string& meaning, const Samples& samples);

/// Benchmark-side spans with self time. Spans nest per thread; a span's
/// self time is its duration minus the durations of its direct children.
/// A span over a null tracer costs one branch.
class SpanTracer {
 public:
  class Span {
   public:
    Span(SpanTracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanTracer* tracer_;
    const char* name_;
    Clock::time_point start_;
    double children_ms_ = 0.0;
    Span* parent_ = nullptr;
  };

  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    bool root = false;
  };

  std::map<std::string, Row> Rows() const;
  /// Share of root-span time that no child span covers, in percent.
  double UnattributedPct() const;
  /// Prints the per-layer table into the report's notes.
  void WriteTable(Report& report, const std::string& workload) const;

 private:
  void Record(const char* name, double total_ms, double self_ms, bool root);

  mutable std::mutex mu_;
  std::map<std::string, Row> rows_;
};

using Span = SpanTracer::Span;

/// Moves the calling thread to the next CPU of the process's allowed set,
/// round-robin. Single-threaded loads call it between operations so that
/// one contended CPU of a shared host does not slow a whole run; Unpin()
/// restores the full set before any threads are spawned.
void RotateCpu();
void Unpin();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Deterministic generator for workload inputs (SplitMix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  std::uint32_t Below(std::uint32_t n) {
    return static_cast<std::uint32_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Renders a relation the way the network service renders query results
/// (sorted tuples, ClassName(index) per value), so from-scratch results
/// compare byte for byte with served ones.
std::string RenderRelation(const setrec::Relation& relation,
                           const setrec::Schema& schema);

/// The workload's own inputs, handed to the layer probes.
struct ProbeInputs {
  const setrec::Schema* schema = nullptr;
  const setrec::Instance* instance = nullptr;
  const setrec::AlgebraicUpdateMethod* method = nullptr;
  /// A key set over `instance` for `method` (parallel application).
  std::vector<setrec::Receiver> receivers;
  /// A short receiver sequence (sequential application, single Apply).
  std::vector<setrec::Receiver> seq_receivers;
  /// The workload's receiver or read query, in the text format.
  std::string query_text;
  /// A small delta that applies to `instance`, and its inverse.
  setrec::InstanceDelta delta;
  setrec::InstanceDelta inverse;
};

/// Runs every layer probe on `inputs` and sets the probe-derived per-layer
/// metrics. Call before setting load-derived ones, which then override.
void RunLayerProbes(const RunOptions& options, const ProbeInputs& inputs,
                    SpanTracer& tracer, Report& report);

/// Traced-vs-untraced overhead and unattributed share (obs.* metrics).
void SetObsMetrics(Report& report, double untraced_primary_ms,
                   double traced_primary_ms, const SpanTracer& tracer);

/// Ends a durable run the same way every time: a checkpoint, then 32
/// commits that toggle `edge`, so recovery replays a fixed WAL tail over a
/// snapshot of the final state and its cost does not depend on how many
/// commits the load happened to make since its last checkpoint.
void SealForRecovery(setrec::DurableStore& store, const setrec::Edge& edge);

/// Dials `server` over a fresh in-process connection pair.
setrec::Dialer DialerFor(setrec::Server* server);

/// Inverse of a delta (swaps additions and removals).
setrec::InstanceDelta Invert(const setrec::InstanceDelta& delta);

// Workloads. Each sets up (several times, reporting the median set-up
// time), runs its load for options.seconds, checks its outputs and fills
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
void RunPayrollApply(const RunOptions& options, Report& report);
void RunCommitLarge(const RunOptions& options, Report& report);
void RunServiceMix(const RunOptions& options, Report& report);
void RunCertify(const RunOptions& options, Report& report);

/// Set-up failures abort the run: there is nothing to measure.
template <typename T>
T Must(setrec::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(result).value();
}
inline void Must(const setrec::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

/// The E13 method library: every method/kind pair the Theorem 5.12
/// decision procedure is swept over, with the paper's classification.
class MethodLibrary {
 public:
  struct Case {
    std::string name;  // "<method>.<kind>", e.g. "add_bar.absolute"
    const setrec::AlgebraicUpdateMethod* method = nullptr;
    setrec::OrderIndependenceKind kind = setrec::OrderIndependenceKind::kAbsolute;
    bool expected = false;  // order independent of that kind
    bool heavy = false;     // the copy_extend pairs, which dominate a sweep
  };

  MethodLibrary();
  const std::vector<Case>& cases() const { return cases_; }

 private:
  std::unique_ptr<setrec::DrinkersSchema> drinkers_;
  std::unique_ptr<setrec::PairSchema> pairs_;
  std::unique_ptr<setrec::PayrollSchema> payroll_;
  std::vector<std::unique_ptr<setrec::AlgebraicUpdateMethod>> methods_;
  std::vector<Case> cases_;
};

/// One cold sweep: decides every case in `order`, timing each decision
/// (inside an "algebraic.decide" span) and checking each verdict.
struct SweepResult {
  std::vector<double> case_ms;  // indexed like MethodLibrary::cases()
  bool verdicts_ok = true;
  std::string mismatch;
  std::uint64_t raw_branches = 0;     // union width before pruning
  std::uint64_t pruned_branches = 0;  // union width after pruning
};
SweepResult RunSweep(const MethodLibrary& library,
                     const std::vector<std::size_t>& order,
                     setrec::MetricsRegistry* metrics, SpanTracer* tracer);

/// A drinkers instance: every drinker frequents two random bars and every
/// bar serves one beer. Only `hot` drinkers like a beer, each a rare one
/// served by a single bar, so kHotPairsQuery yields a small key set.
struct DrinkersSizes {
  std::uint32_t drinkers, bars, beers, hot;
};
setrec::Instance GenerateDrinkers(const setrec::DrinkersSchema& ds,
                                  const DrinkersSizes& sizes, std::uint64_t seed,
                                  std::vector<setrec::ObjectId>* hot);

/// Layer-probe inputs over a generated drinkers instance: `add_bar` over a
/// key set of 32 drinkers spread across the instance (bars drawn from
/// `seed`), its first three receivers as the sequence, and a delta adding
/// one frequents edge the instance lacks. The instance, schema and method
/// must outlive the result.
ProbeInputs DrinkersProbeInputs(const setrec::DrinkersSchema& ds,
                                const setrec::Instance& instance,
                                const setrec::AlgebraicUpdateMethod& add_bar,
                                std::string query_text, std::uint64_t seed);

/// (drinker, bar) pairs where the bar serves a beer the drinker likes: the
/// narrow receiver query of the §7 updates on drinkers instances.
inline constexpr char kHotPairsQuery[] = "project[D, Ba](join[l = s](Dl, Bas))";

/// Times `setup` at least three times and until 1.5 s have been spent (at
/// most 10001 times) and returns the median in seconds; `setup` keeps the
/// last product for the run.
double TimeSetups(const std::function<void()>& setup);

/// Worker and client count: four (the reference host's nproc), fewer on a
/// smaller host.
std::size_t HostThreads();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
