#!/usr/bin/env python3
"""Builds and runs the snowprune benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload prod_mix --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which builds the library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload. Build output goes to stderr; the benchmark's report goes to stdout,
ending with one JSON line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prod_mix", "scan_heavy", "dashboard_dml")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no snowprune sources next to perfbench/; run from a repository checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "3"]
    if subprocess.call(compile_cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
