// perfbench — the setrec repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--smoke]
//
// Prints human-readable notes, then as its last line one JSON object with
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

// The secondary and tertiary tails are printed with the notes only: they
// spread more across seeds than the medians, and no user-facing figure
// needs them.
constexpr const char* kEndToEnd[] = {
    "setup_s",        "peak_rss_mb",     "ops_s",
    "primary_p50_ms", "primary_tail_ms", "secondary_p50_ms",
    "tertiary_p50_ms", "recovery_ms",
};

constexpr const char* kPerLayer[] = {
    "objrel.encode_ms",
    "algebraic.apply_us",
    "algebraic.par_speedup",
    "algebraic.decide_ms.add_bar.absolute",
    "algebraic.decide_ms.add_bar.key_order",
    "algebraic.decide_ms.favorite_bar.absolute",
    "algebraic.decide_ms.favorite_bar.key_order",
    "algebraic.decide_ms.delete_bar.absolute",
    "algebraic.decide_ms.likes_serves.absolute",
    "algebraic.decide_ms.copy_extend.absolute",
    "algebraic.decide_ms.copy_extend.key_order",
    "algebraic.decide_ms.payroll_b.key_order",
    "algebraic.decide_ms.payroll_c.key_order",
    "relational.eval_ms",
    "vectorized.eval_ms",
    "evaluator.rows",
    "evaluator.join_probes",
    "evaluator.join_build_rows",
    "apply.edges",
    "sequential.receivers",
    "containment.tests",
    "chase.rounds",
    "homomorphism.candidates",
    "homomorphism.pruned",
    "decide.union_branches",
    "conjunctive.prune_ratio",
    "core.instance_copy_ms",
    "core.diff_ms",
    "core.apply_delta_us",
    "text.delta_print_us",
    "text.delta_parse_us",
    "text.expr_parse_us",
    "store.append_fsync_us",
    "store.mutate_ms",
    "store.checkpoint_ms",
    "store.write_amp",
    "wal.fsyncs_per_commit",
    "store.replayed_records",
    "txn.group_size",
    "txn.commutative_share",
    "txn.conflict_ratio",
    "txn.retries",
    "txn.certify_ms",
    "incremental.query_us",
    "incremental.hit_ratio",
    "incremental.apply_delta_us",
    "net.ping_us",
    "net.queue_wait_us",
    "net.shed",
    "net.client.retries",
    "replica.apply_delta_us",
    "replica.catchup_ms",
    "obs.overhead_pct",
    "unattributed_pct",
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <payroll_apply|commit_large|"
               "service_mix|certify> --seed <n> --seconds <s> --trace <0|1> "
               "--data-dir <dir> [--smoke]\n");
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--data-dir" && has_value) {
      options.data_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.data_dir.empty() || options.seconds <= 0.0) return Usage();

  Report report;
  try {
    std::filesystem::remove_all(options.data_dir);
    std::filesystem::create_directories(options.data_dir);
    if (options.workload == "payroll_apply") {
      RunPayrollApply(options, report);
    } else if (options.workload == "commit_large") {
      RunCommitLarge(options, report);
    } else if (options.workload == "service_mix") {
      RunServiceMix(options, report);
    } else if (options.workload == "certify") {
      RunCertify(options, report);
    } else {
      return Usage();
    }
    std::filesystem::remove_all(options.data_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  for (const std::string& check : report.checks_run) {
    std::printf("check: %s\n", check.c_str());
  }
  std::string metrics;
  bool missing = false;
  auto emit = [&](const char* name) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
      missing = true;
      return;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + name + "\": {\"value\": " +
               JsonNumber(it->second.value) + ", \"unit\": \"" +
               it->second.unit + "\"}";
  };
  if (options.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  if (missing || report.attempted == 0) return 1;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
