// certify: cold DecideOrderIndependenceCertified sweeps over the method
// library, covering every method/kind pair of E13, from one closed-loop
// thread. One operation is one sweep (primary); the two copy_extend
// decisions (secondary) and the eight others (tertiary) are timed within
// it. The seed shuffles the sweep order. The decisions are single-threaded
// and memory-heavy: sweeps from several threads at once slow each other
// down, so their latency would measure the host rather than the procedure.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "text/parser.h"
#include "text/printer.h"

namespace perfbench {
namespace {

/// The library's durable form: every method as text, with its schema.
using LibraryText = std::vector<std::pair<std::string, const setrec::Schema*>>;

struct Phase {
  Samples sweeps, heavy, light, restores, setups;
  std::vector<Samples> per_case;
  Completions done;
  std::uint64_t decisions = 0;
  std::uint64_t failed = 0;
  bool restored = true;
  Clock::time_point start;
};

// A rebuild of the library from its text, or its set-up, takes about a
// thousandth of a sweep; a few per sweep give each timing enough samples.
constexpr int kRestoresPerSweep = 16;

/// Sweeps until `seconds` have passed. With `text`, each sweep is followed
/// by kRestoresPerSweep rebuilds of every method from its text and as many
/// set-ups of the library, so the recovery and set-up timings sample the
/// same stretch of time as the sweeps.
Phase RunLoad(const MethodLibrary& library, const LibraryText* text,
              std::uint64_t seed, double seconds,
              setrec::MetricsRegistry* metrics, SpanTracer* tracer,
              Report& report) {
  const std::size_t n = library.cases().size();
  Phase phase;
  phase.per_case.resize(n);
  Rng rng(seed * 31u);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::string mismatch;
  phase.start = Clock::now();
  const auto deadline = phase.start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
  for (int sweep = 0; Clock::now() < deadline || sweep == 0; ++sweep) {
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(static_cast<std::uint32_t>(i))]);
    }
    RotateCpu();
    const Clock::time_point sweep_start = Clock::now();
    SweepResult result;
    {
      Span op(tracer, "op.sweep");
      result = RunSweep(library, order, metrics, tracer);
    }
    phase.sweeps.Add(MsSince(sweep_start));
    phase.done.Add(static_cast<double>(n));
    double heavy = 0.0;
    double light = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      phase.per_case[i].Add(result.case_ms[i]);
      (library.cases()[i].heavy ? heavy : light) += result.case_ms[i];
    }
    phase.heavy.Add(heavy);
    phase.light.Add(light);
    phase.decisions += n;
    if (!result.verdicts_ok) {
      phase.failed += n;
      mismatch = result.mismatch;
    }
    if (text == nullptr) continue;
    for (int restore = 0; restore < kRestoresPerSweep; ++restore) {
      const Clock::time_point restore_start = Clock::now();
      for (const auto& [method_text, schema] : *text) {
        auto method = setrec::ParseMethod(method_text, schema);
        phase.restored = phase.restored && method.ok() &&
                         setrec::MethodToText(**method) == method_text;
      }
      phase.restores.Add(MsSince(restore_start));
    }
    for (int setup = 0; setup < kRestoresPerSweep; ++setup) {
      const Clock::time_point setup_start = Clock::now();
      const MethodLibrary fresh;
      phase.setups.Add(MsSince(setup_start));
    }
  }
  Unpin();
  report.attempted += phase.decisions;
  report.failed += phase.failed;
  if (phase.failed != 0) {
    report.correct = false;
    report.Note("CHECK FAILED: " + mismatch);
  }
  return phase;
}

}  // namespace

void RunCertify(const RunOptions& options, Report& report) {
  const auto library = std::make_unique<MethodLibrary>();
  report.checks_run.push_back("certify: verdicts match the E13 classification");
  report.Note("certify: " + std::to_string(library->cases().size()) +
              " method/kind pairs per cold sweep, 1 closed-loop thread");
  if (!options.trace) {
    LibraryText text;
    for (const auto& c : library->cases()) {
      text.emplace_back(setrec::MethodToText(*c.method),
                        c.method->context().schema);
    }
    const Phase phase = RunLoad(*library, &text, options.seed, options.seconds,
                                nullptr, nullptr, report);
    report.Set("setup_s", phase.setups.Median() / 1000.0, "s");
    SetLatencyMetrics(report, "primary", "cold library sweep", phase.sweeps);
    SetLatencyMetrics(report, "secondary", "copy_extend pairs of a sweep",
                      phase.heavy);
    SetLatencyMetrics(report, "tertiary", "other pairs of a sweep", phase.light);
    Samples rates;
    phase.done.SliceRates(phase.start, 10, rates);
    report.Set("ops_s", rates.Median(), "1/s");
    // The library's durable form is its text: rebuild every method from it.
    report.Set("recovery_ms", phase.restores.Median(), "ms");
    report.Check(phase.restored, "certify: library text restores every method",
                 phase.restores.size());
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  SpanTracer tracer;
  setrec::MetricsRegistry metrics;
  const Phase untraced = RunLoad(*library, nullptr, options.seed,
                                 options.seconds / 2, nullptr, nullptr, report);
  const Phase traced = RunLoad(*library, nullptr, options.seed,
                               options.seconds / 2, &metrics, &tracer, report);
  SetObsMetrics(report, untraced.sweeps.Median(), traced.sweeps.Median(),
                tracer);

  // Layer probes run on a small drinkers instance made from the seed.
  setrec::DrinkersSchema ds = Must(setrec::MakeDrinkersSchema(), "schema");
  std::vector<setrec::ObjectId> hot;
  const setrec::Instance instance =
      GenerateDrinkers(ds, {200, 200, 100, 4}, options.seed, &hot);
  const auto add_bar = Must(setrec::MakeAddBar(ds), "add_bar");
  const ProbeInputs in = DrinkersProbeInputs(ds, instance, *add_bar,
                                             kHotPairsQuery, options.seed + 31);
  RunLayerProbes(options, in, tracer, report);
  // The load's own sweeps time every pair more often than the probe does.
  for (std::size_t i = 0; i < library->cases().size(); ++i) {
    report.Set("algebraic.decide_ms." + library->cases()[i].name,
               traced.per_case[i].Median(), "ms");
  }
  tracer.WriteTable(report, "certify");
}

}  // namespace perfbench
