#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <cold_start|search_heavy|serve_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The binary and the library under test are
compiled in Release mode into $CARGO_TARGET_DIR (default .bench_build),
inputs are written to .bench_work/ and removed afterwards, and a traced
run's spans go to .bench_out/. The last line on stdout is the run's JSON
result; build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["cold_start", "search_heavy", "serve_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    # The benchmark measures the library in src/; without it there is
    # nothing to build.
    if not os.path.isfile(os.path.join("src", "api", "session.h")):
        fail("no retrust sources under ./src; run from the repository root")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(target, "perfbench"))

    work = os.path.join(".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", work]
    if args.trace == "1":
        os.makedirs(".bench_out", exist_ok=True)
        command += ["--trace-out", os.path.join(
            ".bench_out", "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
