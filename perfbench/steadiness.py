#!/usr/bin/env python3
"""Measures how steady the benchmark's metrics are from run to run.

Usage, from the repository root:

    python3 perfbench/steadiness.py

Runs every workload of BENCHMARK.json ten times through perfbench/run.py,
for run_seconds each, interleaved (run 1 of each workload, then run 2 of
each, ...), with seeds 1 to 10 so each run generates other inputs. For
every end-to-end metric it prints the median, the spread as
(Q3 - Q1) / median with the quartiles of statistics.quantiles(values,
n=4), and the gap between the medians of the odd and the even runs as a
share of the overall median: a drift of the host over the session shows
there, and two sets of runs of the same code agree only when it stays
within the bound. It flags a spread above the metric's bound in
BENCHMARK.json, or above a third of it, and a gap above the bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d): %s" % (workload, seed,
                                                  done.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(RUNS):
        for w in workloads:
            res = run_once(w, r + 1, bench["run_seconds"])
            results[w].append(res)
            print("run %2d %-15s correct=%s attempted=%d failed=%d" %
                  (r + 1, w, res["correct"], res["attempted"],
                   res["failed"]), flush=True)

    print("\n%-15s %-16s %14s %8s %9s" %
          ("workload", "metric", "median", "spread", "odd/even"))
    for w in workloads:
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for res in results[w]]
            med = statistics.median(values)
            sp = spread(values)
            gap = (statistics.median(values[0::2]) -
                   statistics.median(values[1::2])) / med
            flags = []
            if sp > bound:
                flags.append("spread > bound")
            elif sp > bound / 3:
                flags.append("spread > bound/3")
            if abs(gap) > bound:
                flags.append("gap > bound")
            print("%-15s %-16s %14.6g %7.2f%% %8.2f%%  %s" %
                  (w, name, med, 100 * sp, 100 * gap, ", ".join(flags)))


if __name__ == "__main__":
    main()
