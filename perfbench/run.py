#!/usr/bin/env python3
"""Builds and runs the IronSafe repository benchmark.

    python3 perfbench/run.py --workload tpch-scs --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own unit tests

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (every source under src/ plus the benchmark
binary) into .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to stderr. The benchmark's report goes to stdout and its
last line is one JSON object with the keys correct, attempted, failed
and metrics; the metric names are checked against BENCHMARK.json before
that line is printed. See perfbench/README.md for the workloads and the
metric catalogue.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; exits on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    want = expected_metrics(trace)
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"unexpected {extra}, or a unit changed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        binary = build("perfbench_test")
        sys.exit(subprocess.run([binary]).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("ironsafe_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited {done.returncode} without a result line")
    print("\n".join(lines[:-1]))
    check_result(lines[-1], args.trace)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
