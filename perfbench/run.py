#!/usr/bin/env python3
"""Builds the benchmark from source (first call only) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload route-churn --seed 1 --seconds 10 --trace 0

The program under test (src/) and the benchmark binary (perfbench/src/)
are compiled into .bench_build/perfbench with CMake, Release build. Build
output goes to stderr; the binary's stdout passes through unchanged, so
the last stdout line is the run's JSON result. A traced run (--trace 1)
also writes its spans as Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<seed>.json.

Exits non-zero without printing a result when the build fails (for
example when src/ is missing) or the arguments are malformed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("route-churn", "dataplane-skew", "fleet-online")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures once, then brings the vrbench binary up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A failed configure leaves a cache behind; drop it so the next
            # call configures again instead of building a broken tree.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD, "--target", "vrbench", "-j", BUILD_JOBS]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("seed must be >= 0 and seconds in [1, 3600]")

    if not build():
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD, "vrbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
