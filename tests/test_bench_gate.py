#!/usr/bin/env python3
"""The decision rule of scripts/bench_gate.py, on synthetic powai_bench
reports. Run directly or through ctest (bench_gate_rule)."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_gate  # noqa: E402

METRICS = {m["name"]: m for m in bench_gate.SPEC["end_to_end"]}
BASE = {name: 100.0 for name in METRICS}


class GateRuleTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.runs = 0

    def tearDown(self):
        self.tmp.cleanup()

    def report(self, values=BASE, correct=True, failed_ops=0):
        """One powai_bench JSON report with one workload."""
        self.runs += 1
        path = Path(self.tmp.name) / f"run-{self.runs}.json"
        path.write_text(json.dumps({
            "correct": correct,
            "workloads": [{
                "name": "flood_triage",
                "correct": correct,
                "ops": 1000,
                "failed_ops": failed_ops,
                "metrics": {name: {"value": v, "unit": METRICS[name]["unit"]}
                            for name, v in values.items()},
            }],
        }))
        return path

    def gate(self, change, **kwargs):
        parent = [self.report() for _ in range(3)]
        changed = [self.report(change, **kwargs) for _ in range(3)]
        return bench_gate.verdict(parent, changed)[1]

    def moved(self, name, factor):
        return dict(BASE, **{name: BASE[name] * factor})

    def test_identical_runs_pass(self):
        self.assertEqual(self.gate(BASE), [])

    def test_an_improvement_of_any_size_passes(self):
        for m in METRICS.values():
            factor = 100.0 if m["better"] == "higher" else 0.01
            self.assertEqual(self.gate(self.moved(m["name"], factor)), [],
                             m["name"])

    def test_a_regression_just_past_the_bound_fails(self):
        for m in METRICS.values():
            step = m["bound"] + 0.01
            factor = 1 - step if m["better"] == "higher" else 1 + step
            failures = self.gate(self.moved(m["name"], factor))
            self.assertEqual(len(failures), 1, m["name"])
            self.assertIn(f"flood_triage {m['name']}", failures[0])

    def test_a_regression_within_the_bound_passes(self):
        for m in METRICS.values():
            step = m["bound"] - 0.01
            factor = 1 - step if m["better"] == "higher" else 1 + step
            self.assertEqual(self.gate(self.moved(m["name"], factor)), [],
                             m["name"])

    def test_lower_is_better_is_read_the_right_way_round(self):
        self.assertEqual(METRICS["benign_p99_ms"]["better"], "lower")
        self.assertEqual(self.gate(self.moved("benign_p99_ms", 0.5)), [])
        self.assertEqual(len(self.gate(self.moved("benign_p99_ms", 1.5))), 1)
        self.assertEqual(METRICS["triage_per_cpu_s"]["better"], "higher")
        self.assertEqual(self.gate(self.moved("triage_per_cpu_s", 1.5)), [])
        self.assertEqual(len(self.gate(self.moved("triage_per_cpu_s", 0.5))),
                         1)

    def test_correct_false_fails(self):
        failures = self.gate(BASE, correct=False)
        self.assertEqual(len(failures), 3)  # one per change run
        self.assertTrue(all("correct: false" in f for f in failures))

    def test_a_rising_failed_share_fails(self):
        failures = self.gate(BASE, failed_ops=1)
        self.assertTrue(any("failed share rose" in f for f in failures))

    def test_a_missing_metric_fails(self):
        values = dict(BASE)
        del values["served_share"]
        self.assertEqual(self.gate(values),
                         ["flood_triage served_share: missing"])


if __name__ == "__main__":
    unittest.main()
