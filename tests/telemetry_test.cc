// Tests for the telemetry primitives underneath the network service's
// observability: pow2-histogram quantile estimation, Prometheus label-value
// escaping (golden + fuzz), labeled-series rendering, trace-context scoping
// and cross-process family inheritance, family-filtered tree signatures,
// and the bounded slow-request log.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "net/slowlog.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace setrec {
namespace {

std::string TempPath(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_telemetry_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (std::string(info->test_suite_name()) + "." + info->name() + "." +
             tag);
  std::filesystem::remove(path);
  return path.string();
}

// -- Histogram quantiles ------------------------------------------------------

TEST(HistogramQuantileTest, PinsPow2BucketEstimates) {
  Histogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0u);

  // {3, 5}: 3 lands in bucket [2,3] (midpoint 2), 5 in [4,7] (midpoint 5).
  // These are the exact values the stats op and WritePrometheus export.
  Histogram h;
  h.Observe(3);
  h.Observe(5);
  EXPECT_EQ(h.Quantile(0.5), 2u);
  EXPECT_EQ(h.Quantile(0.99), 5u);
  EXPECT_EQ(h.Quantile(0.999), 5u);
  EXPECT_EQ(h.Quantile(1.0), 5u);

  // Bucket 0 (zeros and ones) answers 1.
  Histogram zeros;
  zeros.Observe(0);
  EXPECT_EQ(zeros.Quantile(0.5), 1u);

  // A large sample answers its bucket's midpoint: 1e6 is in [2^19, 2^20-1].
  Histogram big;
  big.Observe(1'000'000);
  EXPECT_EQ(big.Quantile(0.5), 786431u);

  // The tail quantile walks to the top sample's bucket.
  Histogram spread;
  for (int i = 0; i < 99; ++i) spread.Observe(3);
  spread.Observe(1'000'000);
  EXPECT_EQ(spread.Quantile(0.5), 2u);
  EXPECT_EQ(spread.Quantile(0.999), 786431u);
}

// -- Label-value escaping -----------------------------------------------------

TEST(EscapeLabelValueTest, GoldenValuesArePinned) {
  EXPECT_EQ(EscapeLabelValue(""), "");
  EXPECT_EQ(EscapeLabelValue("plain-tenant_1"), "plain-tenant_1");
  EXPECT_EQ(EscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(EscapeLabelValue("\\"), "\\\\");
  EXPECT_EQ(EscapeLabelValue("\""), "\\\"");
  EXPECT_EQ(EscapeLabelValue("\n"), "\\n");
}

TEST(EscapeLabelValueTest, FuzzedValuesStayWellFormedAndDistinct) {
  // Deterministic LCG fuzz biased toward the dangerous bytes. Escaping must
  // be injective (distinct tenant ids must never collapse into one series)
  // and must never leave a raw newline or an unescaped quote in the output
  // — either would let a tenant id forge exposition lines.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const char kDangerous[] = {'\\', '"', '\n', '{', '}', ','};
  std::set<std::string> raw;
  for (int round = 0; round < 1024; ++round) {
    std::string value;
    const std::uint32_t len = next() % 12;
    for (std::uint32_t i = 0; i < len; ++i) {
      if (next() % 2 == 0) {
        value.push_back(kDangerous[next() % sizeof(kDangerous)]);
      } else {
        value.push_back(static_cast<char>('a' + next() % 26));
      }
    }
    raw.insert(value);
  }
  std::set<std::string> escaped;
  for (const std::string& value : raw) {
    const std::string out = EscapeLabelValue(value);
    EXPECT_EQ(out.find('\n'), std::string::npos) << "raw newline survived";
    // Every quote must sit behind an odd run of backslashes.
    std::size_t backslashes = 0;
    for (char c : out) {
      if (c == '\\') {
        ++backslashes;
      } else {
        if (c == '"') {
          EXPECT_EQ(backslashes % 2, 1u) << "unescaped quote";
        }
        backslashes = 0;
      }
    }
    // A trailing escape would swallow the closing quote of the series key.
    EXPECT_EQ(backslashes % 2, 0u) << "dangling backslash";
    escaped.insert(out);
  }
  EXPECT_EQ(escaped.size(), raw.size()) << "escaping collapsed two values";
}

// -- Labeled series -----------------------------------------------------------

TEST(MetricsRegistryTest, LabeledSeriesRenderInWriteTextAndStayDistinct) {
  MetricsRegistry metrics;
  metrics.CounterLabeled("tenant.shed", "tenant", "acme").Add(2);
  metrics.GaugeLabeled("tenant.active", "tenant", "acme").Set(1);
  Histogram& h =
      metrics.HistogramLabeled("tenant.update_ns", "tenant", "acme");
  h.Observe(3);
  h.Observe(5);

  std::ostringstream out;
  metrics.WriteText(out);
  const std::string text = out.str();
  for (const char* needle : {
           "tenant.shed{tenant=\"acme\"} 2",
           "tenant.active{tenant=\"acme\"} 1",
           "tenant.update_ns_count{tenant=\"acme\"} 2",
           "tenant.update_ns_sum{tenant=\"acme\"} 8",
           "tenant.update_ns_p50{tenant=\"acme\"} 2",
           "tenant.update_ns_p99{tenant=\"acme\"} 5",
           "tenant.update_ns_p999{tenant=\"acme\"} 5",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }

  // Same name, different label value: a distinct instrument, not a shared
  // one — and the lookup is stable (same reference on re-resolution).
  metrics.CounterLabeled("tenant.shed", "tenant", "zeta").Add(7);
  EXPECT_EQ(metrics.CounterLabeled("tenant.shed", "tenant", "acme").value(),
            2u);
  EXPECT_EQ(&metrics.CounterLabeled("tenant.shed", "tenant", "acme"),
            &metrics.CounterLabeled("tenant.shed", "tenant", "acme"));

  // Snapshots key labeled series by their rendered name.
  const MetricsRegistry::Snapshot snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("tenant.shed{tenant=\"zeta\"}"), 7u);
  EXPECT_EQ(snap.histograms.at("tenant.update_ns{tenant=\"acme\"}").p99, 5u);
}

// -- Trace-context scoping ----------------------------------------------------

TEST(TraceContextTest, InstalledContextWinsAndBoundarySpanRecordsRemoteParent) {
  Tracer tracer;
  {
    ScopedTraceContext scope(&tracer, TraceContext{42, 7, true});
    EXPECT_EQ(tracer.CurrentTraceId(), 42u);
    TraceSpan outer(&tracer, "outer");
    TraceSpan inner(&tracer, "inner");
  }
  EXPECT_EQ(tracer.CurrentTraceId(), 0u);  // context restored
  {
    TraceSpan after(&tracer, "after");
  }

  std::map<std::string, SpanEvent> by_name;
  for (const SpanEvent& e : tracer.Events()) by_name[e.name] = e;
  EXPECT_EQ(by_name["outer"].trace_id, 42u);
  // Only the boundary span joining the remote family records the sender's
  // span id; nested spans inherit the family but not the remote edge.
  EXPECT_EQ(by_name["outer"].remote_parent, 7u);
  EXPECT_EQ(by_name["inner"].trace_id, 42u);
  EXPECT_EQ(by_name["inner"].remote_parent, 0u);
  EXPECT_EQ(by_name["inner"].parent, by_name["outer"].id);
  EXPECT_EQ(by_name["after"].trace_id, 0u);
}

TEST(TraceContextTest, InstalledContextOverridesTheEnclosingSpansFamily) {
  // The replica-replay pattern: a traced record is applied inside a
  // long-lived untraced span (net/pull). The installed context must pull
  // the replay span into the record's family while local parentage (the
  // thread's span stack) is preserved.
  Tracer tracer;
  std::uint64_t session_id = 0;
  {
    TraceSpan session(&tracer, "session");
    session_id = session.id();
    ScopedTraceContext scope(&tracer, TraceContext{99, 5, true});
    TraceSpan replay(&tracer, "replay");
    EXPECT_EQ(replay.trace_id(), 99u);
  }
  for (const SpanEvent& e : tracer.Events()) {
    if (std::string_view(e.name) != "replay") continue;
    EXPECT_EQ(e.trace_id, 99u);
    EXPECT_EQ(e.remote_parent, 5u);
    EXPECT_EQ(e.parent, session_id);
  }
}

TEST(TraceContextTest, InactiveContextsAndNullTracersAreInert) {
  Tracer tracer;
  {
    // sampled=false: travels as untraced.
    ScopedTraceContext scope(&tracer, TraceContext{13, 1, false});
    EXPECT_EQ(tracer.CurrentTraceId(), 0u);
    TraceSpan span(&tracer, "unsampled");
  }
  for (const SpanEvent& e : tracer.Events()) {
    EXPECT_EQ(e.trace_id, 0u);
  }
  // Null-tracer guards compile to nothing and must not crash.
  ScopedTraceContext null_scope(nullptr, TraceContext{1, 1, true});
  TraceSpan null_span(nullptr, "inert");
  EXPECT_FALSE(null_span.active());
}

TEST(TraceContextTest, TreeSignatureForTraceFiltersFamiliesAndDedupsRetries) {
  Tracer tracer;
  const auto run_request = [&tracer](std::uint64_t trace) {
    ScopedTraceContext scope(&tracer, TraceContext{trace, 0, true});
    TraceSpan request(&tracer, "request");
    TraceSpan execute(&tracer, "execute");
  };
  run_request(1);
  run_request(1);  // an idempotent retry duplicates the whole subtree
  run_request(2);
  {
    ScopedTraceContext scope(&tracer, TraceContext{2, 0, true});
    TraceSpan other(&tracer, "other");
  }

  // Family 1's signature is identical to a single clean run on a fresh
  // tracer: the duplicated retry subtree dedups away.
  Tracer fresh;
  {
    ScopedTraceContext scope(&fresh, TraceContext{1, 0, true});
    TraceSpan request(&fresh, "request");
    TraceSpan execute(&fresh, "execute");
  }
  const std::string family1 = tracer.TreeSignatureForTrace(1);
  EXPECT_EQ(family1, fresh.TreeSignatureForTrace(1));
  EXPECT_NE(family1.find("request"), std::string::npos);
  EXPECT_NE(family1.find("execute"), std::string::npos);
  EXPECT_EQ(family1.find("other"), std::string::npos);

  // Family 2 carries its extra root; family 3 does not exist.
  const std::string family2 = tracer.TreeSignatureForTrace(2);
  EXPECT_NE(family2, family1);
  EXPECT_NE(family2.find("other"), std::string::npos);
  EXPECT_TRUE(tracer.TreeSignatureForTrace(3).empty());
}

// -- Slow-request log ---------------------------------------------------------

TEST(SlowRequestLogTest, WrapsAtTheByteBudgetAndDropsOversizeEntries) {
  const std::string path = TempPath("slowlog");
  SlowRequestLog log(path, 64);
  const std::string entry(20, 'x');  // 21 bytes each with the newline
  ASSERT_TRUE(log.Append(entry).ok());
  ASSERT_TRUE(log.Append(entry).ok());
  ASSERT_TRUE(log.Append(entry).ok());  // 63 bytes: still inside the budget
  EXPECT_EQ(log.entries(), 3u);
  EXPECT_EQ(log.wraps(), 0u);
  EXPECT_EQ(std::filesystem::file_size(path), 63u);

  // The fourth entry would exceed the budget: the file wraps (truncates)
  // first, so the newest capture is always present and the cap holds.
  ASSERT_TRUE(log.Append(entry).ok());
  EXPECT_EQ(log.wraps(), 1u);
  EXPECT_EQ(log.entries(), 4u);
  EXPECT_EQ(std::filesystem::file_size(path), 21u);

  // An entry that alone exceeds the whole budget is dropped, never
  // partially written.
  const std::string oversize(100, 'y');
  EXPECT_EQ(log.Append(oversize).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(std::filesystem::file_size(path), 21u);
}

TEST(SlowRequestLogTest, ResumesAnExistingFilesBudgetAcrossReopen) {
  const std::string path = TempPath("slowlog");
  {
    SlowRequestLog log(path, 64);
    ASSERT_TRUE(log.Append(std::string(20, 'a')).ok());
    ASSERT_TRUE(log.Append(std::string(20, 'b')).ok());
  }
  // A reopened log knows the 42 bytes already on disk: two more 21-byte
  // entries fit only by wrapping once.
  SlowRequestLog reopened(path, 64);
  ASSERT_TRUE(reopened.Append(std::string(20, 'c')).ok());  // 63 bytes
  ASSERT_TRUE(reopened.Append(std::string(20, 'd')).ok());  // wraps
  EXPECT_EQ(reopened.wraps(), 1u);
  EXPECT_EQ(std::filesystem::file_size(path), 21u);
}

}  // namespace
}  // namespace setrec
