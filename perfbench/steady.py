#!/usr/bin/env python3
"""Steadiness report: runs one workload repeatedly and summarizes each metric.

    python3 perfbench/steady.py --workload serve_mix [--runs 10] [--sets 2]

Each set runs the workload --runs times untraced, for run_seconds from
BENCHMARK.json, one seed per run (set k uses seeds k*runs + 1 ...). For
every metric it prints each set's median and quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) as a share of the
median, and, with two or more sets, how far the later sets' medians moved
from the first set's. End-to-end metrics are compared with
their bound in BENCHMARK.json: a spread under a third of the bound is
steady. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d) for seed %d" % (done.returncode, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("output check failed for seed %d" % seed)
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for k in range(args.sets):
        values = {}
        for i in range(args.runs):
            seed = k * args.runs + i + 1
            result = run_once(args.workload, seed, seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("set %d seed %d: attempted %d failed %d" %
                  (k, seed, result["attempted"], result["failed"]), file=sys.stderr)
        sets.append(values)

    print("%-30s %5s %14s %14s %14s %8s %7s %8s" %
          ("metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
    for name in sorted(sets[0]):
        bound = bounds.get(name, {}).get("bound")
        first_median = None
        for k, values in enumerate(sets):
            v = values[name]
            q1, median, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if spread < bound / 3 else (
                    "ok" if spread <= bound else "WIDE")
            if first_median is None:
                first_median = median
                drift = ""
            else:
                drift = " drift %+.3f" % ((median - first_median) / first_median
                                          if first_median else 0.0)
            print("%-30s %5d %14.6g %14.6g %14.6g %8.3f %7s %8s%s" %
                  (name, k, median, q1, q3, spread,
                   "" if bound is None else "%.2f" % bound, verdict, drift))


if __name__ == "__main__":
    main()
