#ifndef SETREC_OBS_METRICS_H_
#define SETREC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace setrec {

/// Monotonic event count. All operations are relaxed atomics: metrics are
/// statistics, not synchronization.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Power-of-two bucketed histogram of non-negative samples (bucket i counts
/// samples in [2^(i-1), 2^i), bucket 0 counts zeros and ones). Fixed-size
/// and lock-free, so Observe is safe from any thread.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void Observe(std::uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimates the q-th quantile (0 < q <= 1) from the pow2 buckets: the
  /// bucket holding the ceil(q*count)-th smallest sample answers with its
  /// midpoint (bucket 0 — zeros and ones — answers 1). The estimate is off
  /// by at most a factor of two, which is exactly the precision a
  /// latency-tail export needs; it is deterministic for a fixed sample
  /// multiset, so tests pin exact values. Returns 0 on an empty histogram.
  std::uint64_t Quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(n) + 0.999999999);
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += bucket(b);
      if (seen >= rank) {
        if (b == 0) return 1;
        const std::uint64_t lo = std::uint64_t{1} << b;
        const std::uint64_t hi =
            b == kBuckets - 1 ? ~std::uint64_t{0} : (lo << 1) - 1;
        return lo + (hi - lo) / 2;
      }
    }
    return ~std::uint64_t{0};  // unreachable: seen reaches count()
  }

  static std::size_t BucketOf(std::uint64_t v) {
    std::size_t b = 0;
    while (v > 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// A registry of named counters/gauges/histograms. The engine's well-known
/// instruments live as plain members of `engine` — hot loops reach them with
/// one pointer indirection and no name lookup — and are also registered in
/// the named map, so snapshots and exports see one uniform namespace.
/// Dynamically named instruments are created on first use and live for the
/// registry's lifetime (returned references are stable).
///
/// Thread safety: instrument updates are lock-free atomics; name lookup
/// takes the registry mutex (resolve once, then hold the reference).
class MetricsRegistry {
 public:
  /// The engine's fixed instruments (registered names in parentheses).
  struct Engine {
    Counter chase_rounds;          // chase.rounds
    Counter chase_fd_merges;       // chase.fd_merges
    Counter chase_ind_additions;   // chase.ind_additions
    Counter hom_candidates;        // homomorphism.candidates
    Counter hom_pruned;            // homomorphism.pruned
    Counter containment_tests;     // containment.tests
    Counter containment_valuations;  // containment.valuations
    Counter containment_covered;     // containment.covered
    Counter eval_rows;             // evaluator.rows
    Counter eval_join_probes;      // evaluator.join_probes
    Counter eval_join_build_rows;  // evaluator.join_build_rows
    Counter sequential_receivers;  // sequential.receivers
    Counter apply_edges;           // apply.edges
    Counter wal_appends;           // wal.appends
    Counter wal_bytes;             // wal.bytes
    Counter wal_fsyncs;            // wal.fsyncs
    Counter store_commits;         // store.commits
    Counter store_checkpoints;     // store.checkpoints
    Counter incremental_hits;          // incremental.hits
    Counter incremental_refreshes;     // incremental.refreshes
    Counter incremental_fallbacks;     // incremental.fallbacks
    Counter incremental_invalidations; // incremental.invalidations
    Counter incremental_delta_rows;    // incremental.delta_rows
    Histogram shard_merge_ns;      // parallel.shard_merge_ns (per statement)
    Histogram commit_ns;           // store.commit_ns
    Histogram incremental_refresh_ns;  // incremental.refresh_ns
  };

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Engine engine;

  /// Get-or-create by name; the reference stays valid for the registry's
  /// lifetime. Looking up a name registered to another instrument kind
  /// creates a distinct instrument suffixed by kind in snapshots.
  Counter& CounterNamed(std::string_view name);
  Gauge& GaugeNamed(std::string_view name);
  Histogram& HistogramNamed(std::string_view name);

  /// Get-or-create one labeled series of `name` — the per-tenant
  /// instruments the network service keys by user-controlled tenant ids.
  /// The label *value* is stored escaped (EscapeLabelValue), so arbitrary
  /// bytes — including `\`, `"` and newline — produce distinct, well-formed
  /// series; the label key is code-controlled and must already be a legal
  /// identifier. Series render as `name{key="value"}` in WriteText and as
  /// proper Prometheus labels in WritePrometheus.
  Counter& CounterLabeled(std::string_view name, std::string_view label_key,
                          std::string_view label_value);
  Gauge& GaugeLabeled(std::string_view name, std::string_view label_key,
                      std::string_view label_value);
  Histogram& HistogramLabeled(std::string_view name,
                              std::string_view label_key,
                              std::string_view label_value);

  struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Pow2-bucket tail estimates (Histogram::Quantile): the p50/p99/p999
    /// every histogram exports through WriteText, the stats op and
    /// WritePrometheus.
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
  };
  /// Keys are *series* names: a plain instrument name, or
  /// `name{key="value"}` for labeled series (value already escaped).
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// `name value` lines, sorted by name. Histograms expand to _count/_sum/
  /// _p50/_p99/_p999 lines; for labeled series the suffix lands on the name,
  /// before the label braces (`name_p99{tenant="x"} 7`).
  void WriteText(std::ostream& out) const;

  /// Prometheus text exposition (version 0.0.4): every instrument name is
  /// prefixed `setrec_` and sanitized ('.' and other non-[a-zA-Z0-9_] bytes
  /// become '_'); label values pass through escaped (EscapeLabelValue —
  /// tenant ids are user-controlled bytes). Counters get `# TYPE ...
  /// counter`, gauges `gauge`, and histograms are exposed as summaries:
  /// `{quantile="0.5|0.99|0.999"}` lines estimated from the pow2 buckets,
  /// then `_count`/`_sum`. One TYPE line per metric name covers all its
  /// labeled series. The format is pinned by a unit test; scrape endpoints
  /// may serve it verbatim.
  void WritePrometheus(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter*, std::less<>> counters_;
  std::map<std::string, Gauge*, std::less<>> gauges_;
  std::map<std::string, Histogram*, std::less<>> histograms_;
  // Owned storage for dynamically named instruments (deque: stable refs).
  std::deque<Counter> owned_counters_;
  std::deque<Gauge> owned_gauges_;
  std::deque<Histogram> owned_histograms_;
};

/// Prometheus label-value escaping: `\` → `\\`, `"` → `\"`, newline →
/// `\n`. The one funnel every user-controlled label value (tenant ids)
/// passes through before it can reach an exposition line — pinned and
/// fuzzed by the telemetry tests.
std::string EscapeLabelValue(std::string_view value);

}  // namespace setrec

#endif  // SETREC_OBS_METRICS_H_
