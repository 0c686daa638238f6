#!/usr/bin/env python3
"""The benchmark's own tests, at tiny size.

Run from the root of a checkout (builds perfbench/ on first use):

    python3 perfbench/tests/test_perfbench.py

* a tiny run of every workload emits exactly the metric names and units
  in BENCHMARK.json, untraced (end-to-end) and traced (per-layer);
* a test-only route function that drops a hop is counted as failures;
* count metrics repeat exactly across two traced runs of the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["serve-later-8k", "serve-first-1k"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    meta_lines = [l for l in lines if l.startswith("perfbench-meta ")]
    meta = json.loads(meta_lines[-1][len("perfbench-meta "):])
    return json.loads(lines[-1]), meta


class MetricNames(unittest.TestCase):
    def test_every_workload_emits_exactly_the_declared_metrics(self):
        spec = load_spec()
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, meta = run(workload, 5, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(meta["seed"], "5")
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class DroppedHop(unittest.TestCase):
    def test_dropped_hop_is_counted_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, meta = run(workload, 7, 0, "--test-drop-hop")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(float(meta["failure_rate"]), 0)
                self.assertTrue(meta["offending_pairs"])


class CountsRepeat(unittest.TestCase):
    def test_counts_and_fingerprints_repeat_exactly(self):
        spec = load_spec()
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] == "count"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, meta_a = run(workload, 9, 1)
                b, meta_b = run(workload, 9, 1)
                for name in counts:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                self.assertEqual(meta_a["route_fingerprint"],
                                 meta_b["route_fingerprint"])


if __name__ == "__main__":
    unittest.main()
