#!/usr/bin/env python3
"""Build the sIOPMP simulator and its benchmark from source, run one
workload, and print the benchmark's report ending with one JSON line.

    python3 perfbench/run.py --workload stream_hot --seed 1 --trace 0
    python3 perfbench/run.py --workload all --trace 1    # every workload

Run it from the repository root. The build goes to .bench_build/ there
(configured on first use, incremental afterwards) and its output goes
to stderr, so the JSON result stays the last line of stdout. The exit
status is nonzero when the build fails (nothing is printed on stdout),
when the result line is missing or malformed, or when any output check
fails (the result then says "correct": false).
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("stream_hot", "churn_pressure", "nic_map_unmap")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir=BUILD_DIR, tests=False):
    """Configure (once) and build the benchmark; return the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             "-DPERFBENCH_TESTS=" + ("ON" if tests else "OFF")],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    targets = ["perfbench"] + (["perfbench_report_test"] if tests else [])
    subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target"] + targets,
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir


def parse_result(stdout):
    """The JSON result on the last line of @stdout, or raise ValueError."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result line has the wrong keys")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not metric["unit"]:
            raise ValueError("metric %s lacks a value or unit" % name)
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        build_dir = build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status |= run_one(build_dir, workload, args)
    return status


def run_one(build_dir, workload, args):
    """Run one workload, relay its report; 0 iff every check passed."""
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    try:
        result = parse_result(proc.stdout)
    except ValueError as err:
        sys.stderr.write(proc.stdout)
        print("perfbench: malformed result: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result["correct"]:
        print("perfbench: output checks failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
