#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload hot_recurring --seed 1 --seconds 20 --trace 0

The C++ benchmark binary is configured and built (Release) under the
directory named by CARGO_TARGET_DIR, or .bench_build, inside the checkout;
build output goes to stderr. The binary's self-tests run before every measurement. The last
line on stdout is the result object; the exit code is the binary's.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot_recurring", "routed_churn", "train_offline")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Runs `cmd` with its output on stderr; exits 1 if it fails."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: timed out: " + " ".join(cmd))
    if done.returncode != 0:
        sys.exit("perfbench: failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
               "--target", "perfbench", "perfbench_selftest"], BUILD_TIMEOUT_S)
    run_quiet([os.path.join(build_dir, "perfbench_selftest"),
               "--gtest_brief=1"], 60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)
    work_dir = os.path.join(root, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
