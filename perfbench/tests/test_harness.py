#!/usr/bin/env python3
"""Self-test of the serving benchmark harness (perfbench/run.py).

A seconds-long smoke of every workload on the tiny midtown fixture, plus
two canaries that must fail: a perturbed reference checksum and a request
for a dataset the server does not serve. Run from the repository root:

    python3 perfbench/tests/test_harness.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, *extra, trace=0):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--dataset", "midtown"]
        + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def summary_field(proc, name):
    for line in proc.stdout.splitlines():
        if line.startswith("workload "):
            for token in line.split():
                if token.startswith(name + "="):
                    return float(token.split("=", 1)[1])
    raise AssertionError("no %s in the summary line" % name)


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_with_every_end_to_end_metric(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                proc, result = run(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_traced_run_reports_every_layer_and_attributes_its_time(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        proc, result = run("hit-mix", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(result["metrics"]), names)
        self.assertGreaterEqual(
            result["metrics"]["trace.attributed_fraction"]["value"], 0.95)


class CanaryTest(unittest.TestCase):
    def test_perturbed_reference_checksum_fails_the_run(self):
        proc, result = run("hit-mix", "--canary", "checksum")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertIn("checksum drift workload=hit-mix index=0", proc.stderr)

    def test_unknown_dataset_request_counts_as_failed(self):
        proc, result = run("online-eta", "--canary", "unknown-dataset")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(summary_field(proc, "failed_fraction"), 0.0)


if __name__ == "__main__":
    unittest.main()
