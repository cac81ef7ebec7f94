#!/usr/bin/env python3
"""Tests of the benchmark itself, run from the repository root:

    python3 perfbench/tests/test_bench.py

They build the benchmark (and its C++ unit tests) under .bench_build/,
then check that the metric code passes its unit tests, that a forced
output-check failure exits nonzero, that every printed metric carries
the name and unit BENCHMARK.json gives it, that one seed reproduces its
modelled metrics exactly, and that the benchmark refuses to run without
the simulator sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the benchmark's own build/run helpers)

UNIT_BUILD = os.path.join(run.BUILD_DIR, "unit")
MODELLED = ("sim_cycles", "burst_p50_cycles", "burst_p99_cycles",
            "bytes_per_cycle")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench(*args):
    """Run the built benchmark binary; return (exit code, stdout)."""
    proc = subprocess.run(
        [os.path.join(UNIT_BUILD, "perfbench")] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(UNIT_BUILD, tests=True)

    def test_metric_code_unit_tests(self):
        proc = subprocess.run(
            [os.path.join(UNIT_BUILD, "perfbench_report_test")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_forced_check_failure_exits_nonzero(self):
        code, out = perfbench("--workload", "stream_hot", "--seconds",
                              "0.1", "--inject-fault")
        self.assertNotEqual(code, 0)
        self.assertIn("CHECK FAILED", out)
        self.assertIn("read back wrong", out)
        self.assertFalse(run.parse_result(out)["correct"])

    def test_metrics_match_benchmark_json(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = perfbench("--workload", "nic_map_unmap",
                                  "--seconds", "0.2", "--trace", trace)
            self.assertEqual(code, 0, out)
            result = run.parse_result(out)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            printed = [(n, m["unit"]) for n, m in result["metrics"].items()]
            wanted = [(m["name"], m["unit"]) for m in spec()[key]]
            self.assertEqual(printed, wanted)

    def test_same_seed_reproduces_modelled_metrics(self):
        runs = [perfbench("--workload", "nic_map_unmap", "--seed", "7",
                          "--seconds", "0.1") for _ in range(2)]
        results = [run.parse_result(out)["metrics"] for _, out in runs]
        for name in MODELLED:
            self.assertEqual(results[0][name], results[1][name], name)
        fingerprints = [line for _, out in runs
                        for line in out.splitlines()
                        if line.startswith("fingerprint")]
        self.assertEqual(len(fingerprints), 2)
        self.assertEqual(fingerprints[0], fingerprints[1])

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(run.BUILD_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in spec()["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stream_hot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
