#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-size smoke run of every workload.

    python3 perfbench/test_perfbench.py

For each workload, an untraced and a traced smoke run must be correct, fail
no operation, report exactly the metrics BENCHMARK.json names with their
units, and run every output check the workload defines. Two traced smoke
runs of one seed must also report identical exact counters.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

# Output checks each workload must run, by the prefix of their names; the
# traced run adds the layer-probe checks.
CHECKS = {
    "payroll_apply": ["payroll: one-query", "payroll: Thm 6.5",
                      "payroll: Prop 6.3"],
    "commit_large": ["commit_large: reopened store"],
    "service_mix": ["service_mix: follower reaches", "service_mix: follower "
                    "equals", "service_mix: sampled reads"],
    "certify": ["certify: verdicts"],
}
UNTRACED_CHECKS = {
    "payroll_apply": ["payroll: text dump"],
    "commit_large": [],
    "service_mix": ["service_mix: reopened tenant"],
    "certify": ["certify: library text"],
}
PROBE_CHECKS = ["core:", "text:", "relational:", "algebraic:", "decide:",
                "store:", "incremental:", "net: probe follower caught up",
                "net: probe pings", "net: probe deltas",
                "net: probe follower equals"]


def smoke(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{out.stderr}")
    lines = out.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        result, notes = smoke(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], "\n".join(notes))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
        if not trace:
            for metric in wanted:
                self.assertGreater(result["metrics"][metric["name"]]["value"],
                                   0, metric["name"])
        run_checks = [line for line in notes if line.startswith("check: ")]
        expected = CHECKS[workload] + (PROBE_CHECKS if trace
                                       else UNTRACED_CHECKS[workload])
        for prefix in expected:
            self.assertTrue(
                any(line[len("check: "):].startswith(prefix)
                    for line in run_checks),
                f"{workload}: check '{prefix}' did not run")
        if trace:
            self.assertTrue(any(re.match(r"layer table \(", line)
                                for line in notes), "no layer table")
        return result

    def test_payroll_apply(self):
        self.check_run("payroll_apply", 0)
        self.check_run("payroll_apply", 1)

    def test_commit_large(self):
        self.check_run("commit_large", 0)
        self.check_run("commit_large", 1)

    def test_service_mix(self):
        self.check_run("service_mix", 0)
        self.check_run("service_mix", 1)

    def test_certify(self):
        self.check_run("certify", 0)
        self.check_run("certify", 1)

    def test_exact_counters_repeat(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for workload in ("payroll_apply", "commit_large"):
            first, _ = smoke(workload, 1, seed=11)
            second, _ = smoke(workload, 1, seed=11)
            for name in counts:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 f"{workload}: {name}")


if __name__ == "__main__":
    unittest.main()
