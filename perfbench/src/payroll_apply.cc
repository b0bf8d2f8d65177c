// payroll_apply: the paper's statement in memory, without durability. The
// §7 payroll re-salary (B') runs over one payroll instance in three ways:
// SequentialApply over a fixed subset of the key set (secondary),
// ParallelApply over the whole key set at kWorkers workers (primary),
// and SetOrientedUpdateInPlace, the one-query form (tertiary).
//
// ParallelApply waits for its slowest shard, so on a shared host every
// worker added is one more chance of a stalled CPU setting its latency;
// two workers show the parallel path while leaving CPUs free.

#include <algorithm>
#include <cstdio>

#include "algebraic/parallel.h"
#include "bench.h"
#include "core/sequential.h"
#include "core/thread_pool.h"
#include "relational/builder.h"
#include "sql/engine.h"
#include "sql/improve.h"
#include "sql/table.h"
#include "text/parser.h"
#include "text/printer.h"

namespace perfbench {
namespace {

using setrec::Instance;
using setrec::ObjectId;
using setrec::Receiver;

constexpr std::size_t kWorkers = 2;

struct Payroll {
  setrec::PayrollSchema ps;
  Instance instance{nullptr};
  std::unique_ptr<setrec::AlgebraicUpdateMethod> method;
  std::vector<Receiver> key_set;     // [e, salary(e)] for every employee
  std::vector<Receiver> seq_subset;  // the fixed sequential subset
  std::vector<Receiver> validation;  // the Thm 6.5 validation key set
  setrec::ImprovedUpdate improved;
  std::unique_ptr<setrec::ThreadPool> pool;
};

struct Sizes {
  std::uint32_t employees;
  std::uint32_t raise_levels;
  std::size_t seq_subset;
  std::size_t validation;
};

Sizes SizesFor(const RunOptions& options) {
  // 4096 employees put the receiver query's EmpSalary input at
  // Evaluator::kAutoVectorizeInputRows.
  if (options.smoke) return {256, 4, 4, 8};
  return {4096, 4, 8, 32};
}

std::vector<Receiver> Sample(const std::vector<Receiver>& from, std::size_t n,
                             Rng& rng) {
  std::vector<Receiver> picked = from;
  for (std::size_t i = 0; i < n && i < picked.size(); ++i) {
    std::swap(picked[i],
              picked[i + rng.Below(static_cast<std::uint32_t>(
                             picked.size() - i))]);
  }
  picked.erase(picked.begin() + static_cast<std::ptrdiff_t>(std::min(n, picked.size())),
               picked.end());
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::unique_ptr<Payroll> SetUp(const RunOptions& options) {
  const Sizes sizes = SizesFor(options);
  auto p = std::make_unique<Payroll>();
  p->ps = Must(setrec::MakePayrollSchema(), "payroll schema");
  Rng rng(options.seed);
  // Every salary level holds the same number of employees, placed by the
  // seed, so the one-query update's work does not vary with the seed.
  std::vector<std::uint32_t> levels(sizes.employees);
  for (std::uint32_t i = 0; i < sizes.employees; ++i) {
    levels[i] = i % sizes.raise_levels;
  }
  for (std::uint32_t i = sizes.employees; i > 1; --i) {
    std::swap(levels[i - 1], levels[rng.Below(i)]);
  }
  std::vector<setrec::EmployeeRow> employees;
  for (std::uint32_t i = 0; i < sizes.employees; ++i) {
    std::optional<std::uint32_t> manager;
    if (i > 0) manager = rng.Below(i);
    employees.push_back({i, 1000 + levels[i], manager});
  }
  std::vector<setrec::NewSalRow> raises;
  for (std::uint32_t l = 0; l < sizes.raise_levels; ++l) {
    raises.push_back({1000 + l, 2000 + l});
  }
  p->instance = Must(setrec::BuildPayrollInstance(p->ps, employees, {}, raises),
                     "payroll instance");
  p->method = Must(setrec::MakeSalaryFromNewSal(p->ps), "payroll B'");
  const auto salaries =
      Must(setrec::ReadSalaries(p->ps, p->instance), "salaries");
  for (const auto& [id, salary] : salaries) {
    p->key_set.push_back(Receiver::Unchecked(
        {ObjectId(p->ps.emp, id), ObjectId(p->ps.val, salary)}));
  }
  p->seq_subset = Sample(p->key_set, sizes.seq_subset, rng);
  p->validation = Sample(p->key_set, sizes.validation, rng);
  const setrec::ExprPtr rec_source = setrec::ra::Rename(
      setrec::ra::Rename(setrec::ra::Rel("EmpSalary"), "Emp", "self"),
      "Salary", "arg1");
  p->improved = Must(setrec::ImproveCursorUpdate(*p->method, rec_source),
                     "improve (B')");
  p->pool = std::make_unique<setrec::ThreadPool>(kWorkers);
  return p;
}

struct Outputs {
  Instance par{nullptr};
  Instance seq{nullptr};
  Instance sql{nullptr};
};

class Load {
 public:
  /// With `text` (the reference instance's text dump) and `setup`, each
  /// round also restores the instance from the text and sets the workload
  /// up again from `setup`, so the recovery and set-up timings sample the
  /// same stretch of time as the three forms.
  Load(const Payroll& p, const Outputs& expected, const std::string* text,
       const RunOptions* setup, Report& report)
      : p_(p), expected_(expected), text_(text), setup_(setup),
        report_(report) {}

  struct Phase {
    Samples par, seq, sql, restores, setups;
    Completions receivers;
    bool restored = true;
    Clock::time_point start;
  };

  Phase Run(double seconds, SpanTracer* tracer,
            setrec::MetricsRegistry* metrics) {
    Phase phase;
    phase.start = Clock::now();
    const auto deadline =
        phase.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    for (int round = 0; Clock::now() < deadline || round == 0; ++round) {
      Par(phase, tracer, metrics);
      Seq(phase, tracer, metrics);
      Sql(phase, tracer, metrics);
      if (text_ != nullptr) Restore(phase);
      if (setup_ != nullptr) SetUpAgain(phase);
    }
    Unpin();
    return phase;
  }

 private:
  void Record(bool ok, const Instance* out, const Instance& expected,
              const char* what) {
    ++report_.attempted;
    if (!ok || out == nullptr || !(*out == expected)) {
      ++report_.failed;
      report_.correct = false;
      if (mismatches_++ == 0) {
        report_.Note(std::string("CHECK FAILED: ") + what +
                     " result differs from its reference");
      }
    }
  }

  void Par(Phase& phase, SpanTracer* tracer, setrec::MetricsRegistry* metrics) {
    Unpin();
    setrec::ExecOptions options;
    options.num_workers = kWorkers;
    options.pool = p_.pool.get();
    options.metrics = metrics;
    setrec::Result<Instance> out = setrec::Status::Internal("not run");
    {
      Span op(tracer, "op.par_apply");
      const Clock::time_point start = Clock::now();
      {
        Span span(tracer, "algebraic.parallel_apply");
        out = setrec::ParallelApply(*p_.method, p_.instance, p_.key_set,
                                    options);
      }
      phase.par.Add(MsSince(start));
    }
    phase.receivers.Add(static_cast<double>(p_.key_set.size()));
    Record(out.ok(), out.ok() ? &*out : nullptr, expected_.par, "parallel");
  }

  void Seq(Phase& phase, SpanTracer* tracer, setrec::MetricsRegistry* metrics) {
    RotateCpu();
    setrec::ExecOptions options;
    options.metrics = metrics;
    setrec::Result<Instance> out = setrec::Status::Internal("not run");
    {
      Span op(tracer, "op.seq_apply");
      const Clock::time_point start = Clock::now();
      {
        Span span(tracer, "core.sequential_apply");
        out = setrec::SequentialApply(*p_.method, p_.instance, p_.seq_subset,
                                      options);
      }
      phase.seq.Add(MsSince(start));
    }
    phase.receivers.Add(static_cast<double>(p_.seq_subset.size()));
    Record(out.ok(), out.ok() ? &*out : nullptr, expected_.seq, "sequential");
  }

  void Sql(Phase& phase, SpanTracer* tracer, setrec::MetricsRegistry* metrics) {
    RotateCpu();
    setrec::ExecOptions options;
    options.metrics = metrics;
    Instance work(nullptr);
    setrec::Status status;
    {
      Span op(tracer, "op.sql_update");
      {
        Span span(tracer, "core.instance_copy");
        work = p_.instance;
      }
      const Clock::time_point start = Clock::now();
      {
        Span span(tracer, "sql.update_in_place");
        status = setrec::SetOrientedUpdateInPlace(
            work, p_.improved.property, p_.improved.receiver_query, options);
      }
      phase.sql.Add(MsSince(start));
    }
    phase.receivers.Add(static_cast<double>(p_.key_set.size()));
    Record(status.ok(), &work, expected_.sql, "one-query");
  }

  void SetUpAgain(Phase& phase) {
    RotateCpu();
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<Payroll> fresh = SetUp(*setup_);
    phase.setups.Add(MsSince(start));
  }

  void Restore(Phase& phase) {
    RotateCpu();
    const Clock::time_point start = Clock::now();
    auto parsed = setrec::ParseInstance(*text_, &p_.ps.schema);
    phase.restores.Add(MsSince(start));
    phase.restored = phase.restored && parsed.ok() && *parsed == expected_.par;
  }

  const Payroll& p_;
  const Outputs& expected_;
  const std::string* text_;
  const RunOptions* setup_;
  Report& report_;
  int mismatches_ = 0;
};

}  // namespace

void RunPayrollApply(const RunOptions& options, Report& report) {
  const std::unique_ptr<Payroll> p = SetUp(options);

  // References (and warm-up): each form once, then the theorem checks.
  setrec::ExecOptions par_options;
  par_options.num_workers = kWorkers;
  par_options.pool = p->pool.get();
  Outputs expected;
  expected.par = Must(setrec::ParallelApply(*p->method, p->instance,
                                            p->key_set, par_options),
                      "reference parallel");
  expected.seq = Must(setrec::SequentialApply(*p->method, p->instance,
                                              p->seq_subset, setrec::ExecOptions{}),
                      "reference sequential");
  expected.sql = p->instance;
  Must(setrec::SetOrientedUpdateInPlace(expected.sql, p->improved.property,
                                        p->improved.receiver_query,
                                        setrec::ExecOptions{}),
       "reference one-query");
  report.Check(expected.sql == expected.par,
               "payroll: one-query update equals parallel application");
  report.Check(
      Must(setrec::SequentialApply(*p->method, p->instance, p->validation, setrec::ExecOptions{}),
           "validation sequential") ==
          Must(setrec::ParallelApply(*p->method, p->instance, p->validation,
                                     par_options),
               "validation parallel"),
      "payroll: Thm 6.5 sequential equals parallel on the validation key set");
  report.Check(
      Must(setrec::ParallelApply(*p->method, p->instance,
                                 std::span(p->validation).first(1)),
           "singleton parallel") ==
          Must(p->method->Apply(p->instance, p->validation.front()),
               "singleton apply"),
      "payroll: Prop 6.3 parallel on a singleton equals one application");

  const std::size_t n = p->key_set.size();
  char line[160];
  std::snprintf(line, sizeof line,
                "payroll_apply: %zu employees, %zu objects, seq subset %zu, "
                "%zu workers",
                n, p->instance.num_objects(), p->seq_subset.size(),
                kWorkers);
  report.Note(line);

  if (!options.trace) {
    // The in-memory workload's durable form is its text dump.
    const std::string text = setrec::InstanceToText(expected.par);
    Load load(*p, expected, &text, &options, report);
    const Load::Phase phase = load.Run(options.seconds, nullptr, nullptr);
    report.Set("setup_s", phase.setups.Median() / 1000.0, "s");
    SetLatencyMetrics(report, "primary", "ParallelApply, whole key set",
                      phase.par);
    SetLatencyMetrics(report, "secondary", "SequentialApply, fixed subset",
                      phase.seq);
    SetLatencyMetrics(report, "tertiary", "SetOrientedUpdateInPlace",
                      phase.sql);
    Samples rates;
    phase.receivers.SliceRates(phase.start, 10, rates);
    report.Set("ops_s", rates.Median(), "1/s");
    std::snprintf(line, sizeof line,
                  "receivers/s at p50: par %.0f (N=%zu)  seq %.0f (N=%zu)  "
                  "one-query %.0f (N=%zu)",
                  1000.0 * static_cast<double>(n) / phase.par.Median(), n,
                  1000.0 * static_cast<double>(p->seq_subset.size()) /
                      phase.seq.Median(),
                  p->seq_subset.size(),
                  1000.0 * static_cast<double>(n) / phase.sql.Median(), n);
    report.Note(line);
    report.Set("recovery_ms", phase.restores.Median(), "ms");
    report.Check(phase.restored, "payroll: text dump restores the final instance",
                 phase.restores.size());
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  Load load(*p, expected, nullptr, nullptr, report);
  SpanTracer tracer;
  setrec::MetricsRegistry metrics;
  const Load::Phase untraced = load.Run(options.seconds / 2, nullptr, nullptr);
  const Load::Phase traced = load.Run(options.seconds / 2, &tracer, &metrics);
  SetObsMetrics(report, untraced.par.Median(), traced.par.Median(), tracer);

  ProbeInputs in;
  in.schema = &p->ps.schema;
  in.instance = &p->instance;
  in.method = p->method.get();
  in.receivers = p->key_set;
  in.seq_receivers = p->seq_subset;
  // The one-query statement's receiver query in the text format ("select
  // EmpId, New from Employee, NewSal where Salary = Old").
  in.query_text =
      "project[Emp, New](join[Salary = Old](EmpSalary, project[Old, New]("
      "join[NS = NS2](NSOld, rename[NS -> NS2](NSNew)))))";
  // Re-salary one employee: swap its salary edge to the raised amount.
  const Receiver& first = p->key_set.front();
  const ObjectId raised(p->ps.val, first.arg(0).index() + 1000);
  in.delta.removed_edges = {{first.receiving_object(), p->ps.salary,
                             first.arg(0)}};
  in.delta.added_edges = {{first.receiving_object(), p->ps.salary, raised}};
  in.inverse = Invert(in.delta);
  RunLayerProbes(options, in, tracer, report);
  tracer.WriteTable(report, "payroll_apply");
}

}  // namespace perfbench
