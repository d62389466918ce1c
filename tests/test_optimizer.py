"""Design-search tests: feasibility, segment probabilities, tables, curves."""

import math

import pytest

from zenogate import gate, optimizer, oracles
from zenogate.absorber import optical_example
from zenogate.optimizer import (
    KAPPA_TOL,
    SCALE_TOL,
    DesignPoint,
    InfeasibleDesignError,
    SearchConfig,
    design_point,
    error_curve,
    exact_crossing,
    generate_tables,
    min_kappa,
    minimized_max_error,
    required_enhancement,
    search_feasible_nk,
)

# reference design points: (p_target, segments) -> published kappa
REFERENCE_KAPPA = {
    (0.5, 8): 22.0, (0.5, 10): 12.0, (0.5, 40): 8.0,
    (0.25, 20): 120.0, (0.25, 25): 76.0, (0.25, 70): 55.0,
    (0.1, 50): 1430.0, (0.1, 60): 760.0, (0.1, 160): 440.0,
}


class TestMinKappa:
    def test_leading_model_recovers_constraint_formula(self):
        for p in (0.5, 0.25, 0.1):
            got = min_kappa(10_000, p, error_model="leading")
            assert got == pytest.approx(gate.required_kappa(p), rel=0.01)

    def test_leading_model_bisects_the_closed_form(self):
        # the least max of N*xi_1gamma/2 and pi^2/(N*xi_2gamma) over the
        # absorber scale is pi/sqrt(2*kappa) at every N: one kappa for all N,
        # the first within KAPPA_TOL above which the closed form reaches p
        for p in (0.05, 0.1, 0.25, 0.5, 0.9):
            kappas = {min_kappa(n, p, "leading") for n in (1, 10, 100, 10_000)}
            assert len(kappas) == 1
            kappa = kappas.pop()
            assert gate.overall_error(kappa) <= p < gate.overall_error(kappa / (1 + KAPPA_TOL))

    @pytest.mark.parametrize(("p", "n"), list(REFERENCE_KAPPA))
    def test_exact_model_matches_reference_points(self, p, n):
        got = min_kappa(n, p, error_model="exact")
        assert got == pytest.approx(REFERENCE_KAPPA[(p, n)], rel=0.20)

    def test_kappa_is_nonincreasing_in_segments(self):
        # every N <= 400: once feasible, every larger N is feasible too and
        # kappa_min(N) never increases.  The 'min_kappa' strategy (N = n_max)
        # and the upward scans of search_feasible_nk rely on this.
        config = SearchConfig(n_max=400)
        for p in (0.05, 0.1, 0.25, 0.5):
            scan = optimizer._KappaScan(p, "exact", config)
            feasible = [n for n in range(1, 401) if scan.feasible(n)]
            assert feasible == list(range(feasible[0], 401))
            kappas = [scan.kappa(n, 16) for n in feasible]
            assert all(a >= b for a, b in zip(kappas, kappas[1:]))
            assert kappas[0] <= config.kappa_max

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleDesignError):
            min_kappa(50, 0.001, config=SearchConfig(kappa_max=10.0))

    def test_free_scale_model_needs_no_more_kappa(self):
        pinned = min_kappa(20, 0.25, "exact")
        free = min_kappa(20, 0.25, "exact_free")
        assert free <= pinned * (1 + 1e-3)


class TestSearchConfig:
    @pytest.mark.parametrize("field, value", [
        ("kappa_max", 0.9), ("kappa_max", math.inf), ("kappa_max", math.nan),
        ("n_max", 0), ("n_max", -3), ("n_max", 12.5), ("n_max", 5.0),
    ])
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_edges_are_accepted(self):
        # kappa_max = 1 leaves the bisection no room: kappa is 1 or infeasible
        config = SearchConfig(kappa_max=1.0, n_max=1)
        assert min_kappa(10, 0.9, config=config) == 1.0


# A plain per-N reference of the design search: one scalar exact_errors call
# per evaluation, the bisection loops written out.

def ref_errors(n, kappa, scale=None):
    rates, _ = gate.optimal_rates(kappa, n, branches=3)
    if scale is not None:
        rates = gate.AbsorberRates(scale * rates.one_photon, scale * rates.two_photon)
    return gate.exact_errors(gate.GateGeometry(3, n), rates)


def ref_max_error(n, kappa, scale=None):
    return max(ref_errors(n, kappa, scale))


def ref_min_error(n, kappa):
    """(least max(P1, P2) evaluated, its scale): bisection on the sign of
    P1 - P2 over log scale in [ln 1e-3, ln 1e3]; a tie keeps the later point."""
    best = None

    def diff(log_scale):
        nonlocal best
        scale = math.exp(log_scale)
        p1, p2 = ref_errors(n, kappa, scale)
        if best is None or max(p1, p2) <= best[0]:
            best = max(p1, p2), scale
        return p1 - p2

    lo, hi = math.log(1e-3), math.log(1e3)
    d_lo, d_hi = diff(lo), diff(hi)
    if d_lo <= 0.0 <= d_hi:
        while hi - lo > SCALE_TOL:
            mid = 0.5 * (lo + hi)
            if diff(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    return best


def golden_min_error(n, kappa):
    """Golden-section minimization of max(P1, P2) over the same bracket: a
    second, independent reference for the kappa of the crossing bisection."""
    def f(log_scale):
        return ref_max_error(n, kappa, math.exp(log_scale))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(1e-3), math.log(1e3)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > SCALE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    best = 0.5 * (a + b)
    return f(best), math.exp(best)


def ref_min_kappa(n, p, model, config, min_error=ref_min_error):
    """Minimal kappa at N = n, or None where kappa_max does not reach p."""
    def feasible(kappa):
        if model == "exact":
            return ref_max_error(n, kappa) <= p
        return min_error(n, kappa)[0] <= p

    lo, hi = 1.0, config.kappa_max
    if not feasible(hi):
        return None
    if feasible(lo):
        return lo
    while hi / lo > 1.0 + KAPPA_TOL:
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def ref_search(p, strategy, model, config):
    kappa = {}

    def kappa_at(n):
        if n not in kappa:
            kappa[n] = ref_min_kappa(n, p, model, config)
        return kappa[n]

    n_min = next(n for n in range(1, config.n_max + 1) if kappa_at(n) is not None)
    points = []
    for strat in [strategy] if strategy else ["min_n", "balanced", "min_kappa"]:
        n = {"min_n": n_min, "min_kappa": config.n_max}.get(strat)
        if strat == "balanced":
            best_cost, ups = math.inf, 0
            scan = n_min
            while scan <= config.n_max and ups < 8:
                k = kappa_at(scan)   # None: infeasible, a cost increase
                cost = math.inf if k is None else scan * math.sqrt(k)
                if cost < best_cost:
                    n, best_cost, ups = scan, cost, 0
                else:
                    ups += 1
                scan += 1
        k = kappa_at(n)
        rates, _ = gate.optimal_rates(k, n, branches=3)
        scale = 1.0
        if model == "exact_free":
            _, scale = ref_min_error(n, k)
            rates = gate.AbsorberRates(scale * rates.one_photon, scale * rates.two_photon)
        p1, p2 = gate.exact_errors(gate.GateGeometry(3, n), rates)
        points.append(DesignPoint(p, n, k, scale, p1, p2))
    return points


def lockstep_kappas(segments, p, model, config):
    """min_kappa of every N in segments from one _min_kappas run of a fresh
    scan; for 'exact_free' the windows of all of them come from one
    threshold solve."""
    scan = optimizer._KappaScan(p, model, config)
    if model == "exact_free":
        scan.windows.update(zip(segments, optimizer._windows(segments, p, config.kappa_max)))
    return scan._min_kappas(segments)


class TestLockstepSearch:
    """The lockstep scans give bit for bit what one N at a time gives."""

    @pytest.mark.parametrize("model, p, segments", [
        ("exact", 0.3, [12, 13, 14, 15, 20, 37, 38, 39, 60]),   # N < 14: infeasible
        ("exact", 0.9, [1, 2, 3, 6, 7]),          # N = 2 infeasible, N >= 6 at kappa = 1
        ("exact_free", 0.3, [13, 14, 15, 16, 31]),
        ("exact_free", 0.9, [1, 2, 3, 4]),        # kappa = 1 at N = 1 and 4
    ])
    def test_min_kappa_over_a_list_of_n(self, model, p, segments):
        config = SearchConfig()
        got = lockstep_kappas(segments, p, model, config)
        outcomes = set()
        for n, kappa in zip(segments, got):
            try:
                single = min_kappa(n, p, model, config)
            except InfeasibleDesignError as exc:
                assert isinstance(kappa, InfeasibleDesignError)
                assert str(kappa) == str(exc)
                assert ref_min_kappa(n, p, model, config) is None
                outcomes.add("infeasible")
                continue
            assert kappa == single == ref_min_kappa(n, p, model, config)
            outcomes.add("one" if kappa == 1.0 else "bisected")
        assert outcomes >= {"infeasible", "bisected"}

    @pytest.mark.parametrize("model, p, strategy, config", [
        ("exact", 0.05, None, SearchConfig(n_max=400)),
        ("exact", 0.12, "balanced", SearchConfig()),
        ("exact", 0.33, "min_n", SearchConfig(n_max=40)),
        ("exact", 0.5, None, SearchConfig(kappa_max=30.0, n_max=12)),
        ("exact_free", 0.33, None, SearchConfig(n_max=40)),
        ("exact_free", 0.45, "balanced", SearchConfig(n_max=20)),
        ("exact_free", 0.2, "min_n", SearchConfig(n_max=400)),
        ("exact", 0.9, None, SearchConfig()),             # N = 2 infeasible
        ("exact_free", 0.9, "balanced", SearchConfig(n_max=30)),
    ])
    def test_search_equals_per_n_reference(self, model, p, strategy, config):
        got = search_feasible_nk(p, strategy, error_model=model, config=config)
        assert got == ref_search(p, strategy, model, config)

    def test_infeasibility_is_raised_only_for_n_asked_for(self):
        # p = 0.9: N = 1 is feasible, N = 2 is not.  A chunk holding both keeps
        # the error of N = 2 until a scan asks for that N.
        scan = optimizer._KappaScan(0.9, "exact", SearchConfig())
        assert scan.kappa(1, 16) == min_kappa(1, 0.9)
        assert len(scan.found) == 16
        short = optimizer._KappaScan(0.9, "exact", SearchConfig(n_max=5))
        assert short.kappa(1, 16) == scan.kappa(1) and sorted(short.found) == [1, 2, 3, 4, 5]
        with pytest.raises(InfeasibleDesignError, match="N = 2"):
            scan.kappa(2)
        (point,) = search_feasible_nk(0.9, "balanced", config=SearchConfig(n_max=1))
        assert point.segments == 1


class TestScaleOptimum:
    def test_minimizing_scale_converges_to_balanced_rates(self):
        # the exact scale optimum sits within 5% of the balanced-rate rule
        err, scale = minimized_max_error(1000, 1000.0)
        assert abs(scale - 1.0) < 0.05
        assert err <= exact_crossing(1000.0, 1000, branches=3)[1] * (1 + 1e-6)

    @pytest.mark.parametrize("segments, kappa", [
        (20, 10.0), (20, 100.0), (60, 10.0), (60, 100.0), (60, 1e3),
        (200, 10.0), (200, 1e3), (200, 1e4), (1000, 10.0), (1000, 1e3), (1000, 1e4),
    ])
    def test_least_max_error_is_the_crossing_height(self, segments, kappa):
        # the balanced rates scaled keep xi_1gamma = xi_2gamma/kappa, the ray
        # along which exact_crossing bisects; the scale search ends within
        # 8.2e-7 of the crossing in log scale, where both errors move by
        # about that fraction
        err, _ = minimized_max_error(segments, kappa)
        height = exact_crossing(kappa, segments, branches=3)[1]
        assert err == pytest.approx(height, rel=1e-6)

    def test_kernel_evaluations_per_search(self, monkeypatch):
        # the scale search: both ends, then 24 midpoints halve the 13.8-wide
        # log bracket to below SCALE_TOL = 1e-6.  The 'exact' kappa
        # bisection checks 16 kappa at N = 60, one evaluation each: kappa_max,
        # 1, then 14 midpoints, as 1e6**(2**-14) <= 1.001 < 1e6**(2**-13).
        # A chunk of 16 N makes those 16 rounds as 16 batch calls of 16.
        # 'exact_free' makes no scalar evaluation.  One exact_errors_batch
        # call holds the two range ends and P2(0) of every N of the chunk (3
        # elements per N); then each bisection round is one call with one
        # element per N.  Both log-xi ranges of an N are
        # ln(1e3 / 1e-3 * sqrt(kappa_max)) = 20.72 wide, and
        # 20.72 / 2**44 = 1.18e-12 > _XI_TOL = 1e-12 >= 20.72 / 2**45, so every
        # chunk takes 45 rounds.  The kappa bisections after it are arithmetic.
        scalar, batch = [], []
        real_scalar, real_batch = gate.exact_errors, gate.exact_errors_batch

        def counted_scalar(*args):
            scalar.append(args)
            return real_scalar(*args)

        def counted_batch(geometry, x1, x2):
            batch.append(len(x1))
            return real_batch(geometry, x1, x2)

        monkeypatch.setattr(gate, "exact_errors", counted_scalar)
        monkeypatch.setattr(gate, "exact_errors_batch", counted_batch)
        minimized_max_error(60, 100.0)
        assert len(scalar) == 26
        scalar.clear()
        min_kappa(60, 0.2, "exact")
        assert len(scalar) == 16
        scalar.clear()
        assert not batch
        optimizer._KappaScan(0.2, "exact", SearchConfig()).kappa(50, 16)
        assert batch == [16] * 16 and not scalar
        for chunk in ([60], list(range(50, 66))):
            batch.clear()
            scan = optimizer._KappaScan(0.2, "exact_free", SearchConfig())
            scan.kappa(chunk[0], len(chunk))
            assert batch == [3 * len(chunk)] + [len(chunk)] * 45
            calls = len(batch)
            for n in chunk:
                scan.kappa(n)
            assert len(batch) == calls
        assert not scalar

    # the grid on which the crossing bisection gives the golden-section kappa
    # bit for bit (the two scale searches' minima differ by up to 3e-7)
    GOLDEN_GRID_N = list(range(1, 60, 3)) + [100, 200, 400]

    @staticmethod
    def kappa_outcomes(p, grid, min_error):
        """Check the lockstep exact_free kappa of every N in grid against
        ref_min_kappa with the given scale search; the outcomes seen."""
        config = SearchConfig()
        got = lockstep_kappas(grid, p, "exact_free", config)
        outcomes = set()
        for n, kappa in zip(grid, got):
            ref = ref_min_kappa(n, p, "exact_free", config, min_error)
            if ref is None:
                assert isinstance(kappa, InfeasibleDesignError)
                outcomes.add("infeasible")
            else:
                assert kappa == ref
                outcomes.add("feasible")
        return outcomes

    @pytest.mark.parametrize("p", [0.05, 0.12, 0.2, 0.33, 0.45, 0.9])
    def test_kappa_equals_full_scale_search(self, p):
        # the lockstep search stops each feasibility check at the first point
        # within p; the reference runs every scale search to its end.  N = 2
        # is infeasible even at p = 0.9.
        outcomes = self.kappa_outcomes(p, [2] + self.GOLDEN_GRID_N, ref_min_error)
        assert outcomes == {"infeasible", "feasible"}

    @pytest.mark.parametrize("p", [0.05, 0.12, 0.2, 0.33, 0.45, 0.9])
    def test_kappa_equals_golden_section_search(self, p):
        self.kappa_outcomes(p, self.GOLDEN_GRID_N, golden_min_error)


class TestThresholds:
    """The per-N windows of the 'exact_free' model and the kappa they give."""

    @staticmethod
    def errors(n, x1, x2):
        return gate.exact_errors(gate.GateGeometry(3, n), gate.AbsorberRates(x1, x2))

    def test_thresholds_bracket_the_target(self):
        # each threshold meets P, and a point past it by 2 * _XI_TOL in log xi
        # (the solve's final bracket is narrower) does not
        step = math.exp(2 * optimizer._XI_TOL)
        segments = [1, 2, 3, 4, 10, 60, 400]
        seen = set()
        for p in (0.05, 0.2, 0.5, 0.9, 0.98, 0.99, 0.999):
            for n, w in zip(segments, optimizer._windows(segments, p, 1e6)):
                if 0.0 < w.xi1 < math.inf:
                    assert self.errors(n, w.xi1, 0.0)[0] <= p < self.errors(n, w.xi1 * step, 0.0)[0]
                    seen.add("xi1")
                if 0.0 < w.xi2 < math.inf:
                    assert self.errors(n, 0.0, w.xi2)[1] <= p < self.errors(n, 0.0, w.xi2 / step)[1]
                    seen.add("xi2")
                if w.rise > 0.0:
                    assert self.errors(n, 0.0, w.rise)[1] <= p < self.errors(n, 0.0, w.rise * step)[1]
                    assert self.errors(n, 0.0, 0.0)[1] <= p   # only where P >= P2(0)
                    seen.add("rise")
        assert seen == {"xi1", "xi2", "rise"}

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.98, 0.99])
    @pytest.mark.parametrize("n", [1, 2])
    def test_domain_edges_keep_the_nested_search(self, n, p):
        # P2(0) is 0.633 at N = 1, where P2 does not depend on xi_2gamma, and
        # 0.9746 at N = 2.  So N = 1 is infeasible below 0.633, and at
        # P = 0.98 and 0.99 N = 2 meets P on the rising branch of P2 as well.
        # ref_min_kappa is the nested scale search the windows replace.
        for config in (SearchConfig(), SearchConfig(kappa_max=30.0), SearchConfig(kappa_max=1.0)):
            ref = ref_min_kappa(n, p, "exact_free", config)
            if ref is None:
                with pytest.raises(InfeasibleDesignError):
                    min_kappa(n, p, "exact_free", config)
            else:
                assert min_kappa(n, p, "exact_free", config) == ref

    @pytest.mark.parametrize("segments, kappa", [
        (1, 50.0), (2, 1e6), (4, 3.0), (14, 60.0), (60, 94.5), (60, 1e3), (400, 20.0),
    ])
    def test_window_answers_as_the_full_scale_search(self, segments, kappa, monkeypatch):
        # at fixed kappa, the window says whether some scale meets P; the
        # nested search asked whether one of its scale search's points did.
        # They agree for a budget at every height that search evaluates, and
        # for one 1e-3 below the least: its points end within 1e-6 in log
        # scale of the crossing, so the least is within about 1e-6 of the
        # true minimum.
        heights, real = [], gate.exact_errors

        def recorded(*args):
            errors = real(*args)
            heights.append(max(errors))
            return errors

        monkeypatch.setattr(gate, "exact_errors", recorded)
        least, _ = ref_min_error(segments, kappa)
        monkeypatch.undo()
        geometry = gate.GateGeometry(3, segments)
        budgets = [h for h in sorted(set(heights)) + [least * (1 - 1e-3)] if h < 1.0]
        for budget in budgets:
            window = optimizer._windows([segments], budget, 1e6)[0]
            assert window.feasible(geometry, kappa) == (least <= budget), budget
        assert len(budgets) > 2

    def test_rising_branch_alone_can_make_kappa_feasible(self):
        # N = 2, P = 0.98, kappa = 1: no scale meets P on the falling branch
        # of P2, but the smallest scale puts xi_2gamma below rise
        geometry = gate.GateGeometry(3, 2)
        w = optimizer._windows([2], 0.98, 1.0)[0]
        bottom, top, x2 = w._falling(geometry, 1.0)
        assert bottom > top and 1e-3 * x2 <= w.rise
        assert w.feasible(geometry, 1.0)
        assert min_kappa(2, 0.98, "exact_free", SearchConfig(kappa_max=1.0)) == 1.0

    def test_kappa_inside_a_window_the_scale_bisection_misses(self):
        # at N = 64 and P = 0.2 the kappa bisection tries 93.608, where the
        # scales that meet P span 1.3e-8 in log scale.  The nested search,
        # whose scale bisection stops at 1e-6, found none there and returned
        # the next kappa up, 8.4e-4 higher (below KAPPA_TOL).  The design
        # point then takes its scale from the window.
        kappa = min_kappa(64, 0.2, "exact_free")
        assert kappa < ref_min_kappa(64, 0.2, "exact_free", SearchConfig()) < kappa * (1 + KAPPA_TOL)
        assert ref_min_error(64, kappa)[0] > 0.2
        pt = design_point(0.2, 64, error_model="exact_free")
        assert pt.kappa == kappa and max(pt.p1_exact, pt.p2_exact) <= 0.2


class TestSegmentProbabilities:
    @staticmethod
    def segment(segments, kappa):
        # the per-segment absorption at the balanced rates (scale 1)
        pt = DesignPoint(0.5, segments, kappa, 1.0, 0.0, 0.0)
        return pt.p2_segment, pt.p1_segment

    def test_reference_rows(self):
        p2, p1 = self.segment(8, 22.0)
        assert p2 == pytest.approx(0.99454, abs=5e-5)
        assert p1 == pytest.approx(0.21086, abs=5e-5)
        p2, p1 = self.segment(160, 440.0)
        assert p2 == pytest.approx(0.688, abs=1e-3)
        assert p1 == pytest.approx(0.00265, abs=5e-5)

    def test_strong_absorber_limits(self):
        p2, p1 = self.segment(10, 1e12)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert p1 == pytest.approx(0.0, abs=1e-6)

    def test_exact_free_points_use_their_scaled_rates(self):
        # P1_seg = 1 - exp(-2*xi_1gamma) and P2_seg = 1 - exp(-2*xi_2gamma)
        # of the point's own rates, the balanced ones times its scale
        scales = []
        for p in (0.5, 0.25, 0.1):
            for pt in search_feasible_nk(p, error_model="exact_free",
                                         config=SearchConfig(n_max=60)):
                assert pt.p1_segment == 1.0 - math.exp(-2.0 * pt.rates.one_photon)
                assert pt.p2_segment == 1.0 - math.exp(-2.0 * pt.rates.two_photon)
                scales.append(pt.scale)
        assert max(scales) > 1.3
        # P = 0.25, N = 18: scale 1.333, so P1_seg 0.0585, not the 0.0442
        # of the unscaled balanced rates
        pt = search_feasible_nk(0.25, "min_n", "exact_free", SearchConfig(n_max=60))[0]
        assert pt.segments == 18
        assert pt.scale == pytest.approx(1.3332, abs=1e-4)
        assert pt.p1_segment == pytest.approx(0.0585, abs=5e-5)


class TestRequiredEnhancement:
    def test_matching_ratio_needs_no_enhancement(self):
        spec = optical_example()
        from zenogate.absorber import measured_absorption_ratio

        k0 = measured_absorption_ratio(spec)
        assert required_enhancement(k0, spec) == 1

    def test_equal_frequency_idealization(self):
        # all energies equal at the diffraction limit: ceil(120 / (3/(2*pi^3)))
        ideal = 3.0 / (2.0 * math.pi**3)
        assert math.ceil(120.0 / ideal) == 2481

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_rejects_non_finite_target(self, kappa):
        with pytest.raises(ValueError, match="kappa_target"):
            required_enhancement(kappa, optical_example())

    def test_full_model_stays_within_ten_percent_of_reference(self):
        spec = optical_example()
        for kappa, reference in ((22.0, 471), (120.0, 2567), (12.0, 257)):
            got = required_enhancement(kappa, spec)
            assert abs(got - reference) / reference < 0.10


class TestDesignPointsAndSearch:
    def test_design_point_is_certified(self):
        pt = design_point(0.25, 25, optical_example())
        assert max(pt.p1_exact, pt.p2_exact) <= 0.25
        assert pt.rates.two_photon / pt.rates.one_photon == pytest.approx(pt.kappa, rel=1e-12)
        assert pt.enhancement >= 1

    @pytest.mark.parametrize("model", ["exact", "exact_free"])
    def test_design_point_is_lean(self, model):
        # seven slots and no __dict__; the derived fields are recomputed
        # with the expressions of the search, bit for bit
        for pt in search_feasible_nk(0.25, error_model=model, config=SearchConfig(n_max=60)):
            assert not hasattr(pt, "__dict__")
            rates, _ = gate.optimal_rates(pt.kappa, pt.segments, branches=3)
            if model == "exact":
                assert pt.scale == 1.0 and pt.rates == rates
            assert pt.rates == gate.AbsorberRates(pt.scale * rates.one_photon,
                                                  pt.scale * rates.two_photon)
            assert (pt.p1_exact, pt.p2_exact) == gate.exact_errors(
                gate.GateGeometry(3, pt.segments), pt.rates)

    def test_strategies(self):
        config = SearchConfig(kappa_max=2000.0, n_max=60)
        points = search_feasible_nk(0.5, config=config)
        assert len(points) == 3
        by = {"min_n": points[0], "balanced": points[1], "min_kappa": points[2]}
        assert by["min_n"].segments <= by["balanced"].segments <= by["min_kappa"].segments
        assert by["min_kappa"].kappa <= by["balanced"].kappa <= by["min_n"].kappa
        cost = lambda pt: pt.segments * math.sqrt(pt.kappa)
        assert cost(by["balanced"]) <= min(cost(by["min_n"]), cost(by["min_kappa"])) + 1e-9
        for pt in points:
            assert max(pt.p1_exact, pt.p2_exact) <= 0.5

    def test_smallest_feasible_n_hits_discretization_floor(self):
        config = SearchConfig(kappa_max=1e8, n_max=20)
        points = search_feasible_nk(0.5, strategy="min_n", config=config)
        assert points[0].segments == 8  # N=7 fails at any kappa

    def test_infeasible_n_inside_the_balanced_scan_is_skipped(self):
        # P = 0.9: N = 1 (kappa ~ 41) and N >= 3 are feasible, N = 2 is not
        with pytest.raises(InfeasibleDesignError):
            min_kappa(2, 0.9)
        for model, segments in (("exact", [1, 3, 30]), ("exact_free", [1, 1, 30])):
            points = search_feasible_nk(0.9, error_model=model, config=SearchConfig(n_max=30))
            assert [pt.segments for pt in points] == segments
            for pt in points:
                assert max(pt.p1_exact, pt.p2_exact) <= 0.9

    def test_search_propagates_infeasibility(self):
        with pytest.raises(InfeasibleDesignError):
            search_feasible_nk(0.001, strategy="min_n",
                               config=SearchConfig(kappa_max=5.0, n_max=30))


class TestTables:
    def test_tables_are_reproducible_and_certified(self):
        spec = optical_example()
        first = generate_tables(spec)
        second = generate_tables(spec)
        assert first == second
        for pt in first.feasibility:
            assert max(pt.p1_exact, pt.p2_exact) <= pt.p_target
        assert len(first.feasibility) == 9
        assert [pt.segments for pt in first.small_n] == [8, 20, 50]
        assert [pt.segments for pt in first.balanced] == [10, 25, 60]
        assert [pt.segments for pt in first.small_kappa] == [40, 70, 160]


class TestErrorCurve:
    def test_no_absorber_means_full_two_photon_error(self):
        pts = error_curve(1000.0, 1000, samples=3)
        assert pts[0].xi_2gamma == 0.0
        assert pts[0].p2_exact == pytest.approx(1.0, abs=1e-9)
        assert pts[0].p2_approx == 1.0

    def test_crossing_location_and_height(self):
        x2, height = exact_crossing(1000.0, 1000)
        assert x2 == pytest.approx(0.0700, abs=1e-3)
        # below the leading-order 0.0702: derivation in acceptance criterion
        # 2b, 50-digit check in tests/test_gate.py::TestExactCrossing
        assert height == pytest.approx(0.0672, abs=1e-3)

    def test_points_match_scalar_exact_errors(self):
        geom = gate.GateGeometry(3, 200)
        for pt in error_curve(500.0, 200, 0.5, 9, branches=3):
            rates = gate.AbsorberRates(pt.xi_2gamma / 500.0, pt.xi_2gamma)
            p1, p2 = gate.exact_errors(geom, rates)
            assert abs(pt.p1_exact - p1) <= 1e-12
            assert abs(pt.p2_exact - p2) <= 1e-12

    def test_kappa_must_be_positive(self):
        for kappa in (0.0, -5.0, math.nan):
            with pytest.raises(ValueError):
                error_curve(kappa, 100)

    @pytest.mark.parametrize("samples", [1, 0, 2.5, 141.0])
    def test_samples_must_be_an_integer_of_at_least_two(self, samples):
        with pytest.raises(ValueError, match="samples"):
            error_curve(1e3, 100, 0.14, samples)

    @pytest.mark.parametrize("xi2_max", [math.inf, -0.1, math.nan])
    def test_xi2_max_must_be_finite_and_non_negative(self, xi2_max):
        # an infinite xi2_max would put 0 * inf = NaN at the first sample
        with pytest.raises(ValueError, match="xi2_max"):
            error_curve(1e3, 100, xi2_max)

    @pytest.mark.parametrize("samples", [2, 3, 141, 2000])
    def test_abscissae_are_the_scalar_expression_exactly(self, samples):
        for xi2_max in (0.14, 0.5, 5.0, 1.0 / 3.0):
            points = error_curve(1e3, 100, xi2_max, samples, branches=3)
            assert len(points) == samples
            for i, pt in enumerate(points):
                assert type(pt.xi_2gamma) is float
                assert pt.xi_2gamma == xi2_max * i / (samples - 1)

    def test_leading_columns_equal_clipped_asymptotic_errors(self):
        for kappa, n, xi2_max, samples, branches in ((1e3, 1000, 0.14, 141, 2),
                                                     (500.0, 200, 0.5, 33, 3),
                                                     (50.0, 3, 5.0, 20, 2)):
            geom = gate.GateGeometry(branches, n)
            points = error_curve(kappa, n, xi2_max, samples, branches)
            assert points[0].xi_2gamma == 0.0 and points[0].p2_approx == 1.0
            for pt in points:
                rates = gate.AbsorberRates(pt.xi_2gamma / kappa, pt.xi_2gamma)
                a1, a2 = oracles.asymptotic_errors(geom, rates, "leading")
                assert pt.p1_approx == min(1.0, a1)
                assert pt.p2_approx == min(1.0, a2)   # inf at xi_2gamma = 0

    def test_columns_are_probabilities(self):
        for pt in error_curve(1000.0, 1000, samples=15):
            for value in (pt.p1_exact, pt.p2_exact, pt.p1_approx, pt.p2_approx):
                assert -1e-12 <= value <= 1.0 + 1e-12
