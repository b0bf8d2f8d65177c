#!/usr/bin/env python3
"""Steadiness checks for the setrec benchmark.

Spread of the end-to-end metrics across seeds, as the acceptance rule
measures it: each metric's interquartile range over its median, against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py spread --workload commit_large --runs 10

Exact counters: two traced runs of one seed must report identical values
for every per-layer metric whose unit is "count".

    python3 perfbench/steady.py counts --workload payroll_apply --seed 7

Both exit with code 1 when the check fails. Pass --smoke for tiny inputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, seed, trace, seconds, smoke):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, check=False)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.rstrip("\n").split("\n")[-5:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n"
                         f"{tail}")
    lines = out.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        failures = [line for line in lines if "FAILED" in line]
        print(f"{workload} seed {seed}: not correct, {result['failed']} of "
              f"{result['attempted']} failed: {failures}", file=sys.stderr)
    return result


def spread(args):
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    results = []
    for i in range(args.runs):
        result = run(args.workload, args.first_seed + i, 0, seconds, args.smoke)
        results.append(result)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"run {i + 1}/{args.runs} done", file=sys.stderr)
    ok = True
    bad = sum(1 for r in results if not r["correct"] or r["failed"])
    if bad:
        ok = False
        print(f"{bad} of {args.runs} runs were not correct")
    print(f"{'metric':20} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        series = values[name]
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else float("inf")
        flag = ""
        if name != "setup_s" and share > metric["bound"]:
            ok = False
            flag = "  OVER BOUND"
        elif share > metric["bound"] / 3:
            flag = "  above bound/3"
        print(f"{name:20} {median:14.6g} {share:11.4f} {metric['bound']:6.2f}"
              f"{flag}")
    return 0 if ok else 1


def counts(args):
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    first = run(args.workload, args.seed, 1, seconds, args.smoke)["metrics"]
    second = run(args.workload, args.seed, 1, seconds, args.smoke)["metrics"]
    differ = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"
              and first[m["name"]]["value"] != second[m["name"]]["value"]]
    for name in differ:
        print(f"{name}: {first[name]['value']} != {second[name]['value']}")
    print("exact counters identical" if not differ else "counters differ")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="check", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.set_defaults(fn=spread)
    c = sub.add_parser("counts")
    c.add_argument("--workload", required=True)
    c.add_argument("--seed", type=int, default=1)
    c.set_defaults(fn=counts)
    for each in (p, c):
        each.add_argument("--seconds", type=float, default=None)
        each.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
