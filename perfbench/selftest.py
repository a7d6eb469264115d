"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that plans are reproducible and stratified, that a corrupted
result is counted as failed, and that ``BENCHMARK.json`` lists exactly the
metrics ``run.py`` reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

OP_COUNTS = {"thm5_grid": 8, "lpq_sweep": 36, "exact_identities": 100}


class PlanTests(unittest.TestCase):
    def test_a_seed_gives_the_same_operations_every_time(self):
        for workload in workloads.WORKLOADS:
            for seed in (0, 1, 12345):
                self.assertEqual(workloads.plan(workload, seed),
                                 workloads.plan(workload, seed))
                first = [op.params for op in workloads.plan(workload, seed)]
                again = [op.params for op in workloads.plan(workload, seed)]
                self.assertEqual(first, again)

    def test_seeds_differ(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual([op.params for op in workloads.plan(workload, 1)],
                                [op.params for op in workloads.plan(workload, 2)])

    def test_every_seed_fills_each_stratum_with_the_same_count(self):
        for workload, total in OP_COUNTS.items():
            reference = Counter(op.stratum for op in workloads.plan(workload, 0))
            self.assertEqual(sum(reference.values()), total)
            for seed in range(1, 30):
                counts = Counter(op.stratum for op in workloads.plan(workload, seed))
                self.assertEqual(counts, reference, f"{workload} seed {seed}")

    def test_lpq_sweep_covers_every_cell_once(self):
        for seed in range(10):
            cells = Counter((op.params["p"], op.params["precision"], op.params["s_kind"],
                             op.stratum.split("/")[1])
                            for op in workloads.plan("lpq_sweep", seed))
            self.assertEqual(len(cells), 36)
            self.assertEqual(set(cells.values()), {1})
            for op in workloads.plan("lpq_sweep", seed):
                s = op.params["s"]
                if op.params["s_kind"] == "padic":
                    self.assertIsInstance(s, Fraction)
                    self.assertNotEqual(s.denominator, 1)
                    self.assertNotEqual(s.denominator % op.params["p"], 0)

    def test_thm5_grid_runs_every_q_once_per_prime(self):
        for seed in range(10):
            by_p = Counter((op.params["p"], op.params["q"])
                           for op in workloads.plan("thm5_grid", seed))
            self.assertEqual(len(by_p), 8)

    def test_unknown_workload_is_rejected(self):
        with self.assertRaises(ValueError):
            workloads.plan("nope", 0)


class CheckTests(unittest.TestCase):
    def _first(self, workload, predicate):
        for op in workloads.plan(workload, 0):
            if predicate(op):
                return ops.prepare(workload, op)
        raise AssertionError("no matching operation")

    def test_kummer_partner(self):
        self.assertEqual(ops.kummer_partner(2, 3, 3), 25)
        self.assertEqual(ops.kummer_partner(27, 3, 3), 27)
        n = ops.kummer_partner(Fraction(1, 2), 5, 2)
        self.assertEqual((Fraction(1, 2) + n) * 2 % 25, 0)

    def test_corrupted_exact_identity_fails(self):
        task = self._first("exact_identities", lambda op: op.stratum == "poly_paths")
        lhs, rhs = task.run()
        self.assertTrue(task.check((lhs, rhs)))
        self.assertFalse(task.check((lhs + 1, rhs)))

    def test_corrupted_lpq_value_fails(self):
        for kind in ("neg", "pos"):
            task = self._first("lpq_sweep", lambda op: op.params["s_kind"] == kind
                               and op.params["p"] == 3 and op.stratum.endswith("teich"))
            res = task.run()
            self.assertTrue(task.check(res))
            one = res.value.one(res.value.p, res.value.precision)
            bad = dataclasses.replace(res, value=res.value + one)
            self.assertFalse(task.check(bad), kind)

    def test_corrupted_thm5_report_fails(self):
        task = self._first("thm5_grid", lambda op: op.params["p"] == 3)
        report = task.run()
        self.assertTrue(task.check(report))
        self.assertFalse(task.check(dataclasses.replace(report, first_failing_step="eq24")))

    def test_changed_result_is_counted_as_failed(self):
        reference = {"hashes": ["a", "b", "c"], "warm_hashes": ["a", "b", "c"], "failed": []}
        self.assertEqual(run.failures(reference, reference), (6, 0))
        changed = dict(reference, warm_hashes=["a", "x", "c"])
        self.assertEqual(run.failures(reference, changed), (6, 1))
        oracle_failed = dict(reference, failed=[2])
        self.assertEqual(run.failures(oracle_failed, oracle_failed), (6, 2))


class ContractTests(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_units())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))

    def test_scaling_is_proportional_to_time_and_speed(self):
        ref = calibrate.REFERENCE_S
        self.assertAlmostEqual(calibrate.scale(2.0, ref), 2.0)
        self.assertAlmostEqual(calibrate.scale(2.0, 2 * ref), 1.0)
        self.assertGreater(calibrate.gauge(), 0.0)

    def test_tail_percentile_keeps_ten_beyond(self):
        self.assertIsNone(run.tail(list(range(19))))
        pct, value = run.tail(list(range(36)))
        self.assertEqual(value, 25)
        self.assertAlmostEqual(pct, 100 * 26 / 36)


if __name__ == "__main__":
    unittest.main()
