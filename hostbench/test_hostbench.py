#!/usr/bin/env python3
"""The benchmark's own tests: tiny runs of every workload.

    python3 hostbench/test_hostbench.py

Run from anywhere; the benchmark is built on first use like run.py does.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)


def run(workload, seed=1, trace=0, extra=()):
    """Runs one tiny benchmark; returns (exit code, provenance, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return (proc.returncode, json.loads(lines[-2])["provenance"],
            json.loads(lines[-1]))


class HostBenchTest(unittest.TestCase):

    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        for spec in specs:
            self.assertIn(spec["name"], result["metrics"])
            self.assertEqual(result["metrics"][spec["name"]]["unit"],
                             spec["unit"], spec["name"])
        self.assertEqual(len(result["metrics"]), len(specs))

    def test_every_workload_reports_every_metric(self):
        for workload in CONTRACT["workloads"]:
            for trace, specs in ((0, CONTRACT["end_to_end"]),
                                 (1, CONTRACT["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, _, result = run(workload["name"], trace=trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.check_metrics(result, specs)

    def test_corrupted_oracle_is_a_failure(self):
        for workload in CONTRACT["workloads"]:
            with self.subTest(workload=workload["name"]):
                code, _, result = run(workload["name"],
                                      extra=["--corrupt-oracle"])
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_seed_determines_the_graphs(self):
        def crcs(seed):
            code, provenance, _ = run("batch-bin-warm", seed=seed)
            self.assertEqual(code, 0)
            self.assertEqual(provenance["seed"], seed)
            return [g["crc32c"] for g in provenance["graphs"]]

        self.assertEqual(crcs(7), crcs(7))
        self.assertNotEqual(crcs(7), crcs(8))

    def test_bad_arguments_print_no_result(self):
        code, _, result = run("no-such-workload")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
