"""Gate transfer-matrix tests: segments, propagation, closed form, errors."""

import dataclasses
import math

import numpy as np
import pytest

from test_numerics import rotation2
from zenogate import gate, optimizer, oracles
from zenogate.gate import (
    AbsorberRates,
    GateGeometry,
    control_loss_adjusted,
    exact_errors,
    gate_matrix,
    optimal_rates,
    overall_error,
    required_kappa,
    segment_matrix,
    zeno_demo_survival,
)
from zenogate.numerics import _power_each, _power_one, mat_power
from zenogate.oracles import (
    DegenerateRootsError,
    closed_form_factors,
    closed_form_two_branch,
    first_order_output_two_branch,
    franson_errors,
    franson_optimal_rates,
    franson_overall_error,
    franson_required_kappa,
    optimal_angle,
)

SQRT2 = math.sqrt(2.0)


def naive_power(m, n):
    out = np.eye(m.shape[0], dtype=complex)
    for _ in range(n):
        out = out @ m
    return out


class TestSegmentMatrix:
    def test_lossless_two_branch_is_pure_rotation(self):
        m = segment_matrix(GateGeometry(2, 10), 0.0)
        assert np.max(np.abs(m - rotation2(math.pi / 20))) < 1e-15
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-12

    def test_perfect_absorber_kills_second_row(self):
        m = segment_matrix(GateGeometry(2, 10), math.inf)
        assert np.array_equal(m[1], np.zeros(2, dtype=complex))

    def test_three_branch_matches_explicit_factor_product(self):
        eps, xi = 0.2777, 0.83
        c, s, e = math.cos(eps), math.sin(eps), math.exp(-xi)
        top = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)
        bot = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=complex)
        damp = np.diag([1.0, e, 1.0]).astype(complex)
        m = segment_matrix(GateGeometry(3, 8, eps), xi)
        assert np.max(np.abs(m - bot @ damp @ top)) < 1e-14

    def test_negative_decay_rejected(self):
        for bad in (-0.1, math.nan, [0.1, math.nan], [0.2, -1e-300], [[0.1]]):
            with pytest.raises(ValueError):
                segment_matrix(GateGeometry(2, 10), bad)

    def test_decay_array_gives_real_stack_of_scalar_segments(self):
        decays = [0.0, 0.37, 2.5, math.inf]
        for branches in (2, 3):
            geom = GateGeometry(branches, 8)
            stack = segment_matrix(geom, np.array(decays))
            assert stack.shape == (4, branches, branches)
            assert stack.dtype == np.float64
            for b, xi in enumerate(decays):
                single = segment_matrix(geom, xi)
                assert single.dtype == np.float64
                assert np.array_equal(stack[b], single)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            GateGeometry(4, 10)
        with pytest.raises(ValueError):
            GateGeometry(2, 0)
        with pytest.raises(ValueError):
            GateGeometry(2, 10, 3.5)
        # the N=1 defaults pi/2 and pi/sqrt(2) must be accepted
        assert GateGeometry(2, 1).angle == pytest.approx(math.pi / 2)
        assert GateGeometry(3, 1).angle == pytest.approx(math.pi / SQRT2)

    def test_segments_must_be_an_integer(self):
        # 2.5 segments used to pass and fail later, in the matrix power
        for bad in (2.5, 5.0, math.nan, "5"):
            with pytest.raises(ValueError, match="segments"):
                GateGeometry(3, bad)
        geom = GateGeometry(3, np.int64(5))
        assert geom == GateGeometry(3, 5) and type(geom.segments) is int
        rates = AbsorberRates(0.01, 1.0)
        assert exact_errors(geom, rates) == exact_errors(GateGeometry(3, 5), rates)

    def test_cached_cos_sin_follow_the_angle(self):
        geom = GateGeometry(3, 10)
        assert (geom.cos, geom.sin) == (math.cos(geom.angle), math.sin(geom.angle))
        for angle in (0.05, 1.0, geom.angle):
            moved = dataclasses.replace(geom, angle=angle)
            assert (moved.cos, moved.sin) == (math.cos(angle), math.sin(angle))
        # derived fields: not constructor arguments, and out of ==, hash and repr
        with pytest.raises(TypeError):
            GateGeometry(3, 10, None, 1.0, 0.0)
        twin = GateGeometry(3, 10, angle=0.3)
        object.__setattr__(twin, "cos", 0.0)
        assert twin == GateGeometry(3, 10, angle=0.3)
        assert hash(twin) == hash(GateGeometry(3, 10, angle=0.3))
        assert repr(twin) == "GateGeometry(branches=3, segments=10, angle=0.3)"


class TestPropagate:
    """gate_matrix(geometry, decay) @ amplitudes sends the target photon
    through the gate: decay xi_2gamma with the control photon, xi_1gamma
    without it."""

    def test_lossless_full_transfer(self):
        out = gate_matrix(GateGeometry(2, 10), 0.0) @ np.array([1, 0])
        assert np.max(np.abs(out - np.array([0, -1]))) < 1e-12

    def test_perfect_absorber_zeno_survival(self):
        n = 100
        out = gate_matrix(GateGeometry(2, n), math.inf) @ np.array([1, 0])
        expected = math.cos(math.pi / (2 * n)) ** n
        assert out[1] == 0.0
        assert abs(out[0]) == pytest.approx(expected, rel=1e-12)
        # amplitude approaches 1 - pi^2/(8N) up to O(1/N^2)
        assert abs(abs(out[0]) - (1 - math.pi**2 / (8 * n))) < 5.0 / n**2

    def test_three_branch_matches_power_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 51))
            eps = rng.uniform(0.01, 1.5)
            xi = rng.uniform(0.0, 3.0)
            geom = GateGeometry(3, n, eps)
            seg = segment_matrix(geom, xi)
            vec = rng.normal(size=3) + 1j * rng.normal(size=3)
            vec /= np.linalg.norm(vec)
            out = gate_matrix(geom, xi) @ vec
            assert np.max(np.abs(out - naive_power(seg, n) @ vec)) < 1e-10

    def test_norm_never_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            branches = int(rng.choice([2, 3]))
            geom = GateGeometry(branches, int(rng.integers(1, 40)), rng.uniform(0.01, 1.5))
            rates = AbsorberRates(rng.uniform(0, 2), rng.uniform(0, 2))
            vec = rng.normal(size=branches) + 1j * rng.normal(size=branches)
            vec /= np.linalg.norm(vec)
            decay = rates.two_photon if rng.integers(2) else rates.one_photon
            out = gate_matrix(geom, decay) @ vec
            assert np.linalg.norm(out) <= 1.0 + 1e-12


class TestClosedForm:
    def test_lossless_reduces_to_rotation(self):
        got = closed_form_two_branch(0.0371, 0.0, 40)
        assert np.max(np.abs(got - rotation2(40 * 0.0371))) < 1e-10

    def test_against_power_oracle(self):
        eps, xi, n = math.pi / 40, 0.05, 20
        oracle = mat_power(segment_matrix(GateGeometry(2, n, eps), xi), n)
        assert np.max(np.abs(closed_form_two_branch(eps, xi, n) - oracle)) < 1e-9

    def test_random_sweep_against_power_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            eps = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            xi = rng.uniform(0.0, 5.0)
            n = int(rng.integers(1, 201))
            if abs(closed_form_factors(eps, xi).r) < 1e-6:
                continue
            oracle = mat_power(segment_matrix(GateGeometry(2, n, eps), xi), n)
            assert np.max(np.abs(closed_form_two_branch(eps, xi, n) - oracle)) < 1e-9

    def test_factor_consistency(self):
        f = closed_form_factors(0.21, 0.65)
        e = math.exp(-0.65)
        product = (e + 1.0) ** 2 * math.cos(0.21) ** 2 - f.r**2
        assert abs(f.alpha_plus * f.alpha_minus - product) < 1e-12

    def test_degenerate_roots_raise(self):
        # xi = 0 makes r = 2*sqrt(cos^2(eps) - 1) -> 0 as eps -> 0
        with pytest.raises(DegenerateRootsError):
            closed_form_two_branch(1e-12, 0.0, 5)

    def test_domain_edge_against_50_digits(self):
        # at the default angle |r| ~ pi/N and the domain
        # 2*eps*(N*min(N, 1/|r|) + 1/|r|) <= 1e-9 ends at N = 2,659
        mpmath = pytest.importorskip("mpmath")
        inside, outside = 2659, 2660
        got = closed_form_two_branch(math.pi / (2 * inside), 0.0, inside)
        with mpmath.mp.workdps(50):
            angle = mpmath.mpf(math.pi / (2 * inside))
            c, s = mpmath.cos(angle), mpmath.sin(angle)
            exact = mpmath.matrix([[c, s], [-s, c]]) ** inside
            assert max(abs(got[i, j] - complex(exact[i, j]))
                       for i in range(2) for j in range(2)) <= 1e-9
        with pytest.raises(ValueError, match="domain"):
            closed_form_two_branch(math.pi / (2 * outside), 0.0, outside)

    @pytest.mark.parametrize("segments", [10**9, 10**12])
    def test_outside_the_domain_raises_not_answers(self, segments):
        # at kappa = 1000 it gave P1 = 0.983 instead of 0.0674 at N = 1e9,
        # and an OverflowError at N = 1e12
        rates, _ = optimal_rates(1000.0, segments, branches=2)
        with pytest.raises(ValueError, match="domain"):
            closed_form_two_branch(math.pi / (2 * segments), rates.one_photon, segments)

    def test_first_order_expansion_residual_is_quadratic(self):
        n = 50
        eps = math.pi / (2 * n)
        residuals = []
        for xi in (1e-3, 1e-4):
            exact = mat_power(segment_matrix(GateGeometry(2, n, eps), xi), n) @ np.array([1, 0])
            approx = first_order_output_two_branch(eps, xi, n)
            residuals.append(np.max(np.abs(exact - approx)))
        assert residuals[0] < 20.0 * n**2 * 1e-6  # O(xi^2) scale
        assert residuals[0] / residuals[1] > 50.0  # ~quadratic in xi


class TestExactErrors:
    def test_ideal_absorber_limits(self):
        n = 1000
        geom = GateGeometry(2, n)
        p1, p2 = exact_errors(geom, AbsorberRates(0.0, math.inf))
        assert p1 < 1e-12
        floor = 1.0 - math.cos(math.pi / (2 * n)) ** (2 * n)
        assert p2 == pytest.approx(floor, rel=1e-9)
        assert abs(p2 - math.pi**2 / (4 * n)) < 5.0 / n**2

    def test_balanced_rates_sit_near_large_n_crossing(self):
        # exact errors at the balanced rates lie a few 1e-3 below the
        # large-N balance value pi/sqrt(2*kappa)
        n, kappa = 1000, 1000.0
        rates, target = optimal_rates(kappa, n, branches=2)
        p1, p2 = exact_errors(GateGeometry(2, n), rates)
        assert p1 == pytest.approx(target, abs=5e-3)
        assert p2 == pytest.approx(target, abs=5e-3)
        assert abs(p1 - p2) < 5e-3

    def test_mirror_symmetry(self):
        # the gate mirrored top to bottom, built from its parts: per segment
        # the 2-3 splitter, the absorber on branch 2, then the 1-2 splitter.
        # Entered on branch 3 it must leave on branch 1 without the control
        # photon and stay on branch 3 with it, with the standard gate's errors.
        def mirrored_segment(angle, decay):
            c, s = math.cos(angle), math.sin(angle)
            split_23 = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
            absorb = np.diag([1.0, math.exp(-decay), 1.0])
            split_12 = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
            return split_12 @ absorb @ split_23

        for n in (1, 17, 1000):
            geom = GateGeometry(3, n)
            for rates in (AbsorberRates(0.02, 1.3), AbsorberRates(0.0, math.inf)):
                m1 = mat_power(mirrored_segment(geom.angle, rates.one_photon), n)
                m2 = mat_power(mirrored_segment(geom.angle, rates.two_photon), n)
                p1, p2 = exact_errors(geom, rates)
                assert abs((1.0 - m1[0, 2] ** 2) - p1) <= 1e-12
                assert abs((1.0 - m2[2, 2] ** 2) - p2) <= 1e-12

    def test_nan_rates_rejected(self):
        for args, name in (((math.nan, 1.0), "one_photon"), ((0.1, math.nan), "two_photon"),
                           ((-1.0, 1.0), "one_photon"), ((0.1, -math.inf), "two_photon")):
            with pytest.raises(ValueError, match=f"^{name} decay exponent must be >= 0$"):
                AbsorberRates(*args)

    def test_mirrored_segment_oracle(self):
        # powering the explicitly mirrored segment (reversed branch labels,
        # splitter order swapped) reproduces the standard error probabilities
        geom = GateGeometry(3, 23, 0.11)
        for xi in (0.05, 0.9):
            seg = segment_matrix(geom, xi)
            mirrored = naive_power(seg[::-1, ::-1], geom.segments)
            amp1 = mirrored[0, 2]
            amp2 = mirrored[2, 2]
            full = naive_power(seg, geom.segments)
            assert abs(amp1) == pytest.approx(abs(full[2, 0]), abs=1e-13)
            assert abs(amp2) == pytest.approx(abs(full[0, 0]), abs=1e-13)

    def test_monotone_in_absorber_scale(self):
        n, kappa = 1000, 1000.0
        geom = GateGeometry(2, n)
        xs = np.linspace(1e-3, 0.14, 60)
        p1s, p2s = [], []
        for x2 in xs:
            p1, p2 = exact_errors(geom, AbsorberRates(x2 / kappa, x2))
            p1s.append(p1)
            p2s.append(p2)
        assert np.all(np.diff(p1s) > 0)
        assert np.all(np.diff(p2s) < 0)


def mpmath_errors(branches, segments, one_photon, two_photon):
    """(P1, P2) from a 50-digit mpmath power of the segment matrix."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(50):
        if branches == 2:
            angle = mp.pi / (2 * segments)
        else:
            angle = mp.pi / (mp.sqrt(2) * segments)
        c, s = mp.cos(angle), mp.sin(angle)

        def power(decay):
            e = mp.exp(-mpmath.mpf(decay))
            if branches == 2:
                seg = mpmath.matrix([[c, s], [-e * s, e * c]])
            else:
                top = mpmath.matrix([[c, -s, 0], [s, c, 0], [0, 0, 1]])
                bottom = mpmath.matrix([[1, 0, 0], [0, c, -s], [0, s, c]])
                seg = bottom * mpmath.diag([1, e, 1]) * top
            return seg**segments

        p1 = 1 - power(one_photon)[branches - 1, 0] ** 2
        p2 = 1 - power(two_photon)[0, 0] ** 2
        return float(p1), float(p2)


class TestExactErrorsBatch:
    DECAYS = np.array([0.0, 1e-6, 0.01, 0.14, 1.0, 10.0, math.inf])

    def test_matches_scalar_errors(self):
        for branches in (2, 3):
            for n in (1, 2, 10, 1000, 100_000):
                geom = GateGeometry(branches, n)
                for kappa in (1.0, 300.0):
                    x1, x2 = self.DECAYS / kappa, self.DECAYS
                    p1, p2 = gate.exact_errors_batch(geom, x1, x2)
                    assert p1.shape == p2.shape == (len(x2),)
                    # the same segment entries and products: equal bit for bit
                    for i in range(len(x2)):
                        assert (p1[i], p2[i]) == exact_errors(geom, AbsorberRates(x1[i], x2[i]))

    def test_matches_50_digit_reference(self):
        for branches, n, x1, x2 in ((2, 1000, 7e-5, 0.07), (3, 50, 1e-3, 1.4),
                                    (3, 100_000, 1e-7, 3e-3), (2, 10, 0.0, 0.5)):
            p1, p2 = gate.exact_errors_batch(GateGeometry(branches, n), [x1], [x2])
            r1, r2 = mpmath_errors(branches, n, x1, x2)
            assert abs(p1[0] - r1) <= 1e-9
            assert abs(p2[0] - r2) <= 1e-9

    def test_geometry_per_element_matches_scalar_bit_for_bit(self):
        for branches in (2, 3):
            geoms = [GateGeometry(branches, n) for n in (1, 2, 7, 16, 17, 400)]
            geoms.append(GateGeometry(branches, 50, angle=0.05))
            x2 = [0.0, 1e-6, 0.01, 0.14, 1.0, 10.0, math.inf]
            x1 = [x / 300.0 for x in x2[::-1]]
            p1, p2 = gate.exact_errors_batch(geoms, x1, x2)
            for i, geom in enumerate(geoms):
                assert (p1[i], p2[i]) == exact_errors(geom, AbsorberRates(x1[i], x2[i]))

    def test_rejects_bad_arrays(self):
        geom = GateGeometry(3, 10)
        for x1, x2 in (([0.1, math.nan], [1.0, 1.0]), ([0.1], [-1.0]),
                       ([0.1, 0.2], [1.0]), (0.1, 1.0), ([], [])):
            with pytest.raises(ValueError):
                gate.exact_errors_batch(geom, x1, x2)
            with pytest.raises(ValueError):
                gate.exact_errors_batch([geom, geom], x1, x2)
        for geoms, x1, x2 in (([geom], [0.1, 0.2], [1.0, 2.0]),           # one too few
                              ([geom, GateGeometry(2, 10)], [0.1, 0.2], [1.0, 2.0]),
                              ([], [], [])):
            with pytest.raises(ValueError):
                gate.exact_errors_batch(geoms, x1, x2)


class TestBlockPairs:
    """One power of [[seg(xi1), 0], [0, seg(xi2)]] gives both gates.

    The kernels rely on the diagonal blocks of that power being the powers of
    the (k, k) segments bit for bit: the product must add the exact zeros of
    the other block without changing the sums.  A BLAS that groups the sums
    differently fails here.
    """

    DECAYS = [0.0, 1e-6, 0.01, 0.14, 1.0, 10.0, math.inf]
    SEGMENTS = (1, 2, 17, 1000, 100_000)

    @staticmethod
    def check_blocks(m, k, seg1, seg2):
        assert np.array_equal(m[..., :k, :k], seg1)
        assert np.array_equal(m[..., k:, k:], seg2)
        assert not m[..., :k, k:].any() and not m[..., k:, :k].any()

    def test_scalar_pair(self):
        # default and explicit angles; the decays run up to xi = inf
        # (transmission 0) and N down to 1
        for branches in (2, 3):
            for n in self.SEGMENTS:
                for angle in (None, 0.05, 1.0):
                    geom = GateGeometry(branches, n, angle=angle)
                    c, s = math.cos(geom.angle), math.sin(geom.angle)
                    for x1, x2 in zip(self.DECAYS, self.DECAYS[::-1]):
                        pair = gate._pairs(branches, c, s, math.exp(-x1), math.exp(-x2))
                        # the one-step build holds the segments' entries bit
                        # for bit, signed zeros included, and +0.0 elsewhere
                        ref = np.zeros((2 * branches, 2 * branches))
                        ref[:branches, :branches] = segment_matrix(geom, x1)
                        ref[branches:, branches:] = segment_matrix(geom, x2)
                        assert pair.tobytes() == ref.tobytes()
                        m = _power_one(pair, n)
                        assert m.shape == (2 * branches, 2 * branches)
                        self.check_blocks(m, branches, mat_power(segment_matrix(geom, x1), n),
                                          mat_power(segment_matrix(geom, x2), n))
                        # N = 1 too returns a writable array of its own
                        assert m.flags.writeable and not np.shares_memory(m, pair)

    def test_stacked_pairs(self):
        x1, x2 = np.array(self.DECAYS), np.array(self.DECAYS[::-1])
        e1, e2 = gate._transmission(x1), gate._transmission(x2)   # math.exp, as segments
        for branches in (2, 3):
            for n in self.SEGMENTS:
                geom = GateGeometry(branches, n)
                c, s = math.cos(geom.angle), math.sin(geom.angle)
                m = _power_each(gate._pairs(branches, c, s, e1, e2), n, np.array([n]))
                self.check_blocks(m, branches, mat_power(segment_matrix(geom, x1), n),
                                  mat_power(segment_matrix(geom, x2), n))
            # one N and angle per element
            geoms = [GateGeometry(branches, n) for n in (1, 2, 17, 1000, 100_000, 3)]
            geoms.append(GateGeometry(branches, 50, angle=0.05))
            c = np.array([math.cos(g.angle) for g in geoms])
            s = np.array([math.sin(g.angle) for g in geoms])
            each = np.array([g.segments for g in geoms])
            m = _power_each(gate._pairs(branches, c, s, e1, e2), int(each.max()), each)
            for i, g in enumerate(geoms):
                self.check_blocks(m[i], branches,
                                  mat_power(segment_matrix(g, x1[i]), g.segments),
                                  mat_power(segment_matrix(g, x2[i]), g.segments))


def ref_crossing(kappa, segments, branches):
    """exact_crossing as a fixed 80-step bisection."""
    geom = GateGeometry(branches, segments)

    def diff(x2):
        p1, p2 = exact_errors(geom, AbsorberRates(x2 / kappa, x2))
        return p1 - p2

    lo, hi = 1e-9, 10.0
    assert diff(lo) <= 0.0 <= diff(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if diff(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x2 = 0.5 * (lo + hi)
    return x2, exact_errors(geom, AbsorberRates(x2 / kappa, x2))[0]


def loop_crossing(kappa, segments, branches):
    """exact_crossing's own loop before it was driven by numerics.bisect:
    (x2, P1, kernel evaluations)."""
    geom = GateGeometry(branches, segments)
    calls = []

    def diff(x2):
        calls.append(x2)
        p1, p2 = exact_errors(geom, AbsorberRates(x2 / kappa, x2))
        return p1 - p2

    lo, hi = 1e-9, 10.0
    if diff(lo) > 0.0 or diff(hi) < 0.0:
        raise ValueError("no crossing bracketed in (0, 10]")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if diff(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x2 = 0.5 * (lo + hi)
    calls.append(x2)
    return x2, exact_errors(geom, AbsorberRates(x2 / kappa, x2))[0], len(calls)


class TestExactCrossing:
    @pytest.mark.parametrize("branches", [2, 3])
    def test_equals_its_own_loop(self, monkeypatch, branches):
        # same crossing and the same evaluations as the written-out loop
        calls = []

        def counted(*args):
            calls.append(args)
            return exact_errors(*args)

        monkeypatch.setattr(gate, "exact_errors", counted)
        for kappa, segments in ((1e3, 1000), (200.0, 300), (5e3, 2000), (1e4, 100_000),
                                (300.0, 20), (10.0, 3), (1e3, 60)):
            calls.clear()
            x2, p1, evaluations = loop_crossing(kappa, segments, branches)
            assert optimizer.exact_crossing(kappa, segments, branches) == (x2, p1)
            assert len(calls) == evaluations
        for kappa, segments in ((50.0, 3), (1e3, 10)):   # no crossing in (0, 10]
            with pytest.raises(ValueError, match="no crossing"):
                loop_crossing(kappa, segments, branches)
            with pytest.raises(ValueError, match="no crossing"):
                optimizer.exact_crossing(kappa, segments, branches)

    @pytest.mark.parametrize("kappa, segments, branches", [
        (1e3, 1000, 2), (1e3, 1000, 3), (200.0, 300, 2), (5e3, 2000, 3),
        (1e4, 100_000, 3), (300.0, 20, 3),
    ])
    def test_stops_when_bracket_stalls(self, monkeypatch, kappa, segments, branches):
        # once the ends are adjacent floats no step moves them: same result,
        # fewer than the 2 + 80 + 1 evaluations of the fixed bisection
        expected = ref_crossing(kappa, segments, branches)
        calls = []

        def counted(*args):
            calls.append(args)
            return exact_errors(*args)

        monkeypatch.setattr(gate, "exact_errors", counted)
        assert optimizer.exact_crossing(kappa, segments, branches) == expected
        assert len(calls) < 83

    def test_crossing_matches_50_digit_reference(self):
        # The exact curves cross below the leading-order 0.0702; the
        # second-order height and location checked last are derived in the
        # comment of acceptance criterion 2b (tests/test_acceptance.py).
        kappa, n = 1e3, 1000
        x2, height = optimizer.exact_crossing(kappa, n)
        p1, p2 = exact_errors(GateGeometry(2, n), AbsorberRates(x2 / kappa, x2))
        r1, r2 = mpmath_errors(2, n, x2 / kappa, x2)
        assert height == p1
        assert abs(p1 - r1) <= 1e-9
        assert abs(p2 - r2) <= 1e-9
        assert abs(r1 - r2) <= 1e-6
        p0 = math.pi / math.sqrt(2.0 * kappa)
        second_order = 1.0 - math.exp(-(1.0 + 1.0 / n) * (p0 - 1.0 / (4.0 * kappa))) * (
            1.0 + 1.0 / (2.0 * kappa))
        assert abs(height - second_order) <= 1e-5
        assert abs(x2 - (p0 - 1.0 / (4.0 * kappa)) * kappa / n) <= 1e-4

    @pytest.mark.parametrize("kappa", [0.0, -5.0, math.nan])
    def test_rejects_a_non_positive_kappa(self, kappa):
        # 0 divided by zero and -5 was blamed on the decay exponent
        with pytest.raises(ValueError, match="kappa must be positive"):
            optimizer.exact_crossing(kappa, 10)


class TestAsymptotics:
    def test_leading_terms(self):
        geom2, geom3 = GateGeometry(2, 500), GateGeometry(3, 500)
        rates = AbsorberRates(1e-4, 0.05)
        p1, p2 = oracles.asymptotic_errors(geom2, rates)
        assert p1 == pytest.approx(500 * 1e-4, rel=1e-15)
        assert p2 == pytest.approx(math.pi**2 / (2 * 500 * 0.05), rel=1e-15)
        p1, p2 = oracles.asymptotic_errors(geom3, rates)
        assert p1 == pytest.approx(500 * 1e-4 / 2, rel=1e-15)
        assert p2 == pytest.approx(math.pi**2 / (500 * 0.05), rel=1e-15)

    def test_leading_at_balanced_rates_gives_overall_error(self):
        kappa, n = 1000.0, 1000
        rates, _ = optimal_rates(kappa, n, branches=2)
        p1, p2 = oracles.asymptotic_errors(GateGeometry(2, n), rates)
        assert p1 == pytest.approx(overall_error(kappa), rel=1e-12)
        assert p2 == pytest.approx(overall_error(kappa), rel=1e-12)

    def test_perfect_absorber_keeps_pure_discretization_term(self):
        n = 200
        geom = GateGeometry(2, n)
        _, p2 = oracles.asymptotic_errors(geom, AbsorberRates(0.0, math.inf), order="first")
        assert p2 == (2 * math.pi**2 - math.pi**4) / (48 * n**2)

    def test_first_order_tracks_exact_in_regime(self):
        # joint regime: xi_1gamma ~ 1/N^2 and fixed small xi_2gamma keep
        # N*xi2 >> 1 >> N*xi1 with margins improving as N grows
        residuals = {}
        for n in (100, 1000):
            rates = AbsorberRates(2.0 / n**2, 0.2)
            for branches in (2, 3):
                geom = GateGeometry(branches, n)
                exact = exact_errors(geom, rates)
                approx = oracles.asymptotic_errors(geom, rates, order="first")
                residuals[(branches, n)] = max(
                    abs(exact[0] - approx[0]), abs(exact[1] - approx[1])
                )
        for branches in (2, 3):
            assert residuals[(branches, 100)] / residuals[(branches, 1000)] > 50.0

    def test_leading_within_own_square_in_regime(self):
        # the promise of the docstring: N*xi2 >= 10, N*xi1 <= 0.2 and
        # P_lead >= 2*N^(-2/3) give |P_exact - P_lead| <= P_lead^2
        checked = 0
        for branches in (2, 3):
            for n in (100, 1000, 10_000):
                geom = GateGeometry(branches, n)
                for kappa in (200.0, 1e3, 1e4):
                    x2 = np.geomspace(10.0, 1e4, 40) / n
                    x2 = x2[n * x2 / kappa <= 0.2]
                    p1, p2 = gate.exact_errors_batch(geom, x2 / kappa, x2)
                    for i, xi2 in enumerate(x2):
                        lead = oracles.asymptotic_errors(geom, AbsorberRates(xi2 / kappa, xi2))
                        if min(lead) < 2.0 * n ** (-2.0 / 3.0):
                            continue
                        checked += 1
                        for exact, approx in zip((p1[i], p2[i]), lead):
                            assert abs(exact - approx) <= approx**2
        assert checked > 100


class TestOptimalRates:
    def test_overall_error_for_kappa_500(self):
        _, p = optimal_rates(500.0, 100, branches=3)
        assert p == pytest.approx(0.0993, abs=1e-4)

    @pytest.mark.parametrize("kappa", [2.0, 37.0, 1e4])
    def test_rate_product_is_kappa_free(self, kappa):
        n = 64
        r2, _ = optimal_rates(kappa, n, branches=2)
        assert r2.one_photon * r2.two_photon == pytest.approx(
            math.pi**2 / (2 * n**2), rel=1e-12
        )
        r3, _ = optimal_rates(kappa, n, branches=3)
        assert r3.one_photon * r3.two_photon == pytest.approx(
            2 * math.pi**2 / n**2, rel=1e-12
        )

    def test_required_kappa_inverse(self):
        assert required_kappa(0.1) == pytest.approx(math.pi**2 / 0.02, rel=1e-15)
        assert required_kappa(0.1) == pytest.approx(493.48, abs=0.01)

    def test_kappa_must_be_positive(self):
        for kappa in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                optimal_rates(kappa, 10)

    def test_reoptimized_angle_stays_at_lossless_default(self):
        n = 100
        best = optimal_angle(2, n, one_photon_rate=7e-4)
        nominal = math.pi / (2 * n)
        assert abs(best - nominal) / nominal < 1e-2


class TestFranson:
    def test_required_kappa_ratio_is_64(self):
        for p in (0.5, 0.25, 0.1):
            assert franson_required_kappa(p) / required_kappa(p) == pytest.approx(
                64.0, rel=1e-12
            )

    def test_two_photon_error_dominates(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rates = AbsorberRates(rng.uniform(1e-6, 0.1), rng.uniform(1e-4, 10.0))
            p1, p2 = franson_errors(rates, int(rng.integers(1, 500)))
            assert p2 >= p1

    def test_optimal_rates_minimize_two_photon_error(self):
        kappa, n = 200.0, 400
        best = franson_optimal_rates(kappa, n)
        p_best = franson_errors(best, n)[1]
        for scale in (0.9, 1.1):
            scaled = AbsorberRates(scale * best.one_photon, scale * best.two_photon)
            assert franson_errors(scaled, n)[1] >= p_best
        assert p_best == pytest.approx(franson_overall_error(kappa), rel=1e-12)

    def test_overall_error_values(self):
        assert franson_overall_error(1430.0) == pytest.approx(0.470, abs=5e-4)
        assert overall_error(1430.0) == pytest.approx(0.0587, abs=5e-5)


class TestOverallError:
    def test_perfect_absorber_has_no_error(self):
        assert overall_error(math.inf) == 0.0

    def test_nan_kappa_is_rejected(self):
        with pytest.raises(ValueError, match="kappa must be positive"):
            overall_error(math.nan)

    def test_negative_kappa_is_rejected(self):
        with pytest.raises(ValueError, match="kappa must be positive"):
            overall_error(-1.0)

    def test_zero_kappa_is_rejected(self):
        with pytest.raises(ValueError, match="kappa must be positive"):
            overall_error(0.0)


class TestControlLoss:
    def test_lossless_control_reduces_to_overall_error(self):
        assert control_loss_adjusted(500.0, 100, 0.0) == overall_error(500.0)

    def test_worst_case_inflates_by_five(self):
        kappa, n = 750.0, 300
        rates, _ = optimal_rates(kappa, n, branches=3)
        total = control_loss_adjusted(kappa, n, rates.one_photon)
        assert total / overall_error(kappa) == pytest.approx(5.0, rel=1e-12)

    def test_direct_evaluation(self):
        got = control_loss_adjusted(500.0, 100, 1e-5)
        assert got == pytest.approx(overall_error(500.0) + 2e-3, rel=1e-12)

    def test_nan_control_rate_is_rejected(self):
        with pytest.raises(ValueError, match="control loss rate"):
            control_loss_adjusted(500.0, 100, math.nan)

    def test_nan_kappa_is_rejected(self):
        with pytest.raises(ValueError, match="kappa must be positive"):
            control_loss_adjusted(math.nan, 10, 0.0)

    @pytest.mark.parametrize("segments", [math.nan, 2.5, 0, -3])
    def test_segment_count_must_be_a_positive_integer(self, segments):
        # -3 gave 0.09929, below the lossless 0.09935; NaN gave NaN
        with pytest.raises(ValueError, match="segments must be a positive integer"):
            control_loss_adjusted(500.0, segments, 1e-5)


class TestZenoDemo:
    def test_single_measurement_kills_survival(self):
        assert zeno_demo_survival(1) < 1e-30

    def test_ten_measurements(self):
        # frozen from direct evaluation of cos(pi/20)**20
        assert zeno_demo_survival(10) == pytest.approx(0.780546069781, rel=1e-10)

    def test_large_n_expansion(self):
        n = 10_000
        assert abs(zeno_demo_survival(n) - (1 - math.pi**2 / (4 * n))) < 5.0 / n**2

    def test_nan_segments_are_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            zeno_demo_survival(math.nan)

    def test_fractional_segments_are_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            zeno_demo_survival(2.5)
