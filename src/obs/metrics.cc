#include "obs/metrics.h"

#include <utility>

namespace setrec {

MetricsRegistry::MetricsRegistry() {
  counters_.emplace("chase.rounds", &engine.chase_rounds);
  counters_.emplace("chase.fd_merges", &engine.chase_fd_merges);
  counters_.emplace("chase.ind_additions", &engine.chase_ind_additions);
  counters_.emplace("homomorphism.candidates", &engine.hom_candidates);
  counters_.emplace("homomorphism.pruned", &engine.hom_pruned);
  counters_.emplace("containment.tests", &engine.containment_tests);
  counters_.emplace("containment.valuations",
                    &engine.containment_valuations);
  counters_.emplace("containment.covered", &engine.containment_covered);
  counters_.emplace("evaluator.rows", &engine.eval_rows);
  counters_.emplace("evaluator.join_probes", &engine.eval_join_probes);
  counters_.emplace("evaluator.join_build_rows",
                    &engine.eval_join_build_rows);
  counters_.emplace("sequential.receivers", &engine.sequential_receivers);
  counters_.emplace("apply.edges", &engine.apply_edges);
  counters_.emplace("wal.appends", &engine.wal_appends);
  counters_.emplace("wal.bytes", &engine.wal_bytes);
  counters_.emplace("wal.fsyncs", &engine.wal_fsyncs);
  counters_.emplace("store.commits", &engine.store_commits);
  counters_.emplace("store.checkpoints", &engine.store_checkpoints);
  counters_.emplace("incremental.hits", &engine.incremental_hits);
  counters_.emplace("incremental.refreshes", &engine.incremental_refreshes);
  counters_.emplace("incremental.fallbacks", &engine.incremental_fallbacks);
  counters_.emplace("incremental.invalidations",
                    &engine.incremental_invalidations);
  counters_.emplace("incremental.delta_rows", &engine.incremental_delta_rows);
  histograms_.emplace("parallel.shard_merge_ns", &engine.shard_merge_ns);
  histograms_.emplace("store.commit_ns", &engine.commit_ns);
  histograms_.emplace("incremental.refresh_ns",
                      &engine.incremental_refresh_ns);
}

namespace {

/// The series key a labeled instrument registers under: the value is
/// escaped *here*, at creation, so every export path sees well-formed
/// bytes and distinct raw values stay distinct series.
std::string SeriesKey(std::string_view name, std::string_view label_key,
                      std::string_view label_value) {
  std::string key(name);
  key.push_back('{');
  key.append(label_key);
  key.append("=\"");
  key.append(EscapeLabelValue(label_value));
  key.append("\"}");
  return key;
}

}  // namespace

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out.append("\\\\");
        break;
      case '"':
        out.append("\\\"");
        break;
      case '\n':
        out.append("\\n");
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Counter& MetricsRegistry::CounterNamed(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  Counter& c = owned_counters_.emplace_back();
  counters_.emplace(std::string(name), &c);
  return c;
}

Counter& MetricsRegistry::CounterLabeled(std::string_view name,
                                         std::string_view label_key,
                                         std::string_view label_value) {
  return CounterNamed(SeriesKey(name, label_key, label_value));
}

Gauge& MetricsRegistry::GaugeLabeled(std::string_view name,
                                     std::string_view label_key,
                                     std::string_view label_value) {
  return GaugeNamed(SeriesKey(name, label_key, label_value));
}

Histogram& MetricsRegistry::HistogramLabeled(std::string_view name,
                                             std::string_view label_key,
                                             std::string_view label_value) {
  return HistogramNamed(SeriesKey(name, label_key, label_value));
}

Gauge& MetricsRegistry::GaugeNamed(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  Gauge& g = owned_gauges_.emplace_back();
  gauges_.emplace(std::string(name), &g);
  return g;
}

Histogram& MetricsRegistry::HistogramNamed(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  Histogram& h = owned_histograms_.emplace_back();
  histograms_.emplace(std::string(name), &h);
  return h;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    out.histograms[name] =
        HistogramSnapshot{h->count(),        h->sum(),
                          h->Quantile(0.50), h->Quantile(0.99),
                          h->Quantile(0.999)};
  }
  return out;
}

namespace {

/// Splits a series key into its instrument name and label braces:
/// `name{k="v"}` → {`name`, `{k="v"}`}; a plain name has empty labels.
std::pair<std::string_view, std::string_view> SplitSeries(
    const std::string& series) {
  const std::size_t brace = series.find('{');
  if (brace == std::string::npos) return {series, {}};
  return {std::string_view(series).substr(0, brace),
          std::string_view(series).substr(brace)};
}

/// `setrec_` + name with every byte outside [a-zA-Z0-9_] replaced by '_'
/// (Prometheus metric-name charset; the engine's '.'-separated names map
/// onto it deterministically). Labels are NOT sanitized through here —
/// their values carry escaped user bytes (EscapeLabelValue).
std::string PrometheusName(std::string_view name) {
  std::string out = "setrec_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// `{quantile="q"}` merged with any existing label braces:
/// `{k="v"}` + q → `{k="v",quantile="q"}`.
std::string WithQuantileLabel(std::string_view labels, const char* q) {
  std::string out;
  if (labels.empty()) {
    out = "{quantile=\"";
  } else {
    out.assign(labels.substr(0, labels.size() - 1));
    out.append(",quantile=\"");
  }
  out.append(q);
  out.append("\"}");
  return out;
}

/// Emits a TYPE line unless `last` already named this metric — the labeled
/// series of one name sort adjacently, so one TYPE line covers them all.
void TypeLine(std::ostream& out, const std::string& metric, const char* kind,
              std::string* last) {
  if (metric == *last) return;
  out << "# TYPE " << metric << " " << kind << "\n";
  *last = metric;
}

}  // namespace

void MetricsRegistry::WritePrometheus(std::ostream& out) const {
  const Snapshot snap = TakeSnapshot();
  std::string last_type;
  for (const auto& [series, v] : snap.counters) {
    const auto [name, labels] = SplitSeries(series);
    const std::string p = PrometheusName(name);
    TypeLine(out, p, "counter", &last_type);
    out << p << labels << " " << v << "\n";
  }
  for (const auto& [series, v] : snap.gauges) {
    const auto [name, labels] = SplitSeries(series);
    const std::string p = PrometheusName(name);
    TypeLine(out, p, "gauge", &last_type);
    out << p << labels << " " << v << "\n";
  }
  for (const auto& [series, h] : snap.histograms) {
    const auto [name, labels] = SplitSeries(series);
    const std::string p = PrometheusName(name);
    TypeLine(out, p, "summary", &last_type);
    out << p << WithQuantileLabel(labels, "0.5") << " " << h.p50 << "\n"
        << p << WithQuantileLabel(labels, "0.99") << " " << h.p99 << "\n"
        << p << WithQuantileLabel(labels, "0.999") << " " << h.p999 << "\n"
        << p << "_count" << labels << " " << h.count << "\n"
        << p << "_sum" << labels << " " << h.sum << "\n";
  }
}

void MetricsRegistry::WriteText(std::ostream& out) const {
  const Snapshot snap = TakeSnapshot();
  for (const auto& [series, v] : snap.counters) {
    out << series << " " << v << "\n";
  }
  for (const auto& [series, v] : snap.gauges) {
    out << series << " " << v << "\n";
  }
  for (const auto& [series, h] : snap.histograms) {
    const auto [name, labels] = SplitSeries(series);
    out << name << "_count" << labels << " " << h.count << "\n"
        << name << "_sum" << labels << " " << h.sum << "\n"
        << name << "_p50" << labels << " " << h.p50 << "\n"
        << name << "_p99" << labels << " " << h.p99 << "\n"
        << name << "_p999" << labels << " " << h.p999 << "\n";
  }
}

}  // namespace setrec
