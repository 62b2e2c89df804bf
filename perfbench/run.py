#!/usr/bin/env python3
"""Build the qsp end-to-end benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse|dense|service_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Every call configures and builds the library and the benchmark under
.bench_build/perfbench (CMake, Release); only the first compiles
everything. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. With --trace 1 the spans are also written
to .bench_build/traces/<workload>-<seed>.json. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", target, "-j", "4"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sparse", "dense", "service_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode

    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a non-negative --seed and --seconds >= 1 are required")
    if not build("perfbench"):
        return 1
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
