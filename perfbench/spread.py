#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Usage, from the repository root:

    python3 perfbench/spread.py <workload> [--runs N] [--first-seed S]

Runs the benchmark N times (default 10) untraced, each with its own
seed, and prints per end-to-end metric the median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as
a share of the median, next to the bound BENCHMARK.json fixes.  Stops
at the first run that fails a check or counts a failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.stderr.write(out.stdout)
            return 1
        if set(result["metrics"]) != set(bounds):
            sys.stderr.write("metrics differ from BENCHMARK.json: %s\n" %
                             sorted(set(result["metrics"]) ^ set(bounds)))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        calib = [l for l in lines if l.startswith("host.calib_ns=")]
        print("seed %d: attempted=%d %s %s" % (
            seed, result["attempted"], " ".join(calib), " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-14s median %-12.6g spread %.4f  bound %s" %
              (name, med, spread, bounds.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
