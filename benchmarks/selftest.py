"""Self-tests of the benchmark's generator, checkers, tracing and statistics.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zenogate import gate, optimizer  # noqa: E402


class TestSeededInputs(unittest.TestCase):
    def setUp(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def blocks(self, workload, seed):
        return [workloads.make_block(workload, seed, b, self.workdir) for b in range(3)]

    def test_same_seed_same_inputs_other_seed_different(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.blocks(workload, 5), self.blocks(workload, 5))
                self.assertNotEqual(self.blocks(workload, 5), self.blocks(workload, 6))

    def test_every_block_has_the_same_mix(self):
        for workload in workloads.WORKLOADS:
            kinds = [sorted(op.kind for op in block) for block in self.blocks(workload, 7)]
            self.assertTrue(all(k == kinds[0] for k in kinds), workload)


class TestCheckers(unittest.TestCase):
    def test_curve_check_rejects_a_1e6_perturbation(self):
        op = workloads.Op("curve", {"kappa": 1e3, "segments": 200, "branches": 3,
                                    "samples": 50, "ref_points": [17, 40]})
        points = workloads.sweep_execute(op)
        outcome = workloads.sweep_check(op, points)
        self.assertTrue(all(check(*args) for check, args in outcome.deferred))
        bad = list(points)
        bad[17] = optimizer.CurvePoint(bad[17].xi_2gamma, bad[17].p1_exact + 1e-6,
                                       bad[17].p2_exact, bad[17].p1_approx, bad[17].p2_approx)
        outcome = workloads.sweep_check(op, bad)
        self.assertFalse(all(check(*args) for check, args in outcome.deferred))

    def test_design_check_rejects_a_1e6_perturbation(self):
        point = optimizer.search_feasible_nk(0.25, "min_n")[0]
        self.assertTrue(ref.design_point_certified(point))
        for field in ("p1_exact", "p2_exact"):
            bad = optimizer.DesignPoint(**{**point.__dict__, field: getattr(point, field) + 1e-6})
            self.assertFalse(ref.design_point_certified(bad), field)

    def test_design_check_requires_the_error_budget(self):
        point = optimizer.search_feasible_nk(0.25, "min_n")[0]
        tight = optimizer.DesignPoint(**{**point.__dict__,
                                         "p_target": max(point.p1_exact, point.p2_exact) * 0.999})
        self.assertFalse(ref.design_point_certified(tight))

    def test_crossing_check(self):
        xi2, p = optimizer.exact_crossing(1e3, 100, 2)
        self.assertTrue(ref.crossing_correct(2, 100, 1e3, xi2, p))
        self.assertFalse(ref.crossing_correct(2, 100, 1e3, xi2, p + 1e-6))

    def test_reference_matches_the_program(self):
        rates, _ = gate.optimal_rates(1430.0, 50, 3)
        p1, p2 = gate.exact_errors(gate.GateGeometry(3, 50), rates)
        self.assertTrue(ref.matches(3, 50, rates.one_photon, rates.two_photon, p1, p2))
        self.assertFalse(ref.matches(3, 50, rates.one_photon, rates.two_photon, p1 - 1e-6, p2))

    def test_range_check(self):
        self.assertEqual(ref.range_check([0.0, 0.5, 1.0]), (True, 0))
        self.assertEqual(ref.range_check([-1e-13, 1.0 + 1e-13]), (True, 2))
        self.assertFalse(ref.range_check([-1e-6])[0])
        self.assertFalse(ref.range_check([float("nan")])[0])


class TestTracing(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        # root [0, 10] has children A [1, 4] and B [3, 6] (overlapping, union
        # [1, 6]) and C [8, 12] (clipped to [8, 10]); A has child D [2, 3].
        start = array("d", [0, 1, 2, 3, 8])
        end = array("d", [10, 4, 3, 6, 12])
        parent = array("i", [-1, 0, 1, 0, 0])
        self.assertEqual(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 3.0, 4.0])

    def test_matmul_count(self):
        self.assertEqual([tracing.matmul_count(n) for n in (0, 1, 2, 3, 8, 1000)],
                         [0, 1, 2, 3, 4, 15])

    def test_patch_catches_names_where_they_are_looked_up(self):
        original = gate.mat_power
        tracer = tracing.Tracer()
        tracer.patch()
        try:
            self.assertIsNot(gate.mat_power, original)
            tracer.run_op(0, gate.exact_errors, gate.GateGeometry(2, 10),
                          gate.AbsorberRates(0.01, 1.0))
        finally:
            tracer.unpatch()
        self.assertIs(gate.mat_power, original)
        names = [tracer.names[i] for i in tracer.name_id]
        self.assertEqual(names.count("numerics.mat_power"), 2)
        self.assertEqual(tracer.matmuls, 2 * tracing.matmul_count(10))
        totals = tracing.LayerTotals()
        totals.add(tracer, 0, len(tracer.start))
        self.assertEqual(totals.ops, 1)
        self.assertEqual(totals.calls["gate.exact_errors"], 1)


class TestTailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(range(1, 101)), (90.0, 90.0, 10))
        self.assertEqual(stats.tail_percentile(range(1, 1001)), (990.0, 99.0, 10))
        self.assertEqual(stats.tail_percentile(range(1, 41)), (30.0, 75.0, 10))

    def test_ties_move_the_percentile_down(self):
        values = list(range(1, 86)) + [100] * 15
        self.assertEqual(stats.tail_percentile(values), (85.0, 85.0, 15))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(range(10))


if __name__ == "__main__":
    unittest.main()
