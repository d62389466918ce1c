"""Numeric design search: feasible (N, kappa) pairs, per-segment
probabilities, required enhancement factors and error curves.

Feasibility of a design point is always certified with the exact
three-branch error probabilities.  The default search ('exact') pins the
decay rates to the error-balancing rule parameterized by kappa and asks
when the exact maximum error drops below the target; this is the procedure
that reproduces the bundled example tables.  Two further error models are
available: 'leading', whose least maximum of the large-N truncations over
the absorber scale is the closed form pi/sqrt(2*kappa) at every N, so that
it returns kappa = pi^2/(2P^2) to within KAPPA_TOL, and
'exact_free', which additionally lets the absorber scale s in [1e-3, 1e3]
vary and therefore returns the true (slightly smaller) minimum.

Every model bisects log kappa the same way, in one loop over a chunk of N
whose rounds test the next kappa of every unfinished N together
(_KappaScan._min_kappas): for 'exact' a round is one kernel call.
'exact_free' first solves, once per N, for the thresholds of the paper's
feasibility question at finite N: the largest xi_1gamma with P1 <= P and
the smallest xi_2gamma past the peak of P2 with P2 <= P (and, for
P >= P2(0), the largest before it; see _Window).  A kappa step is then the
arithmetic test whether some scale puts both balanced rates inside them,
so the bisection visits the same kappa as an evaluating search would, with
no kernel call.  The thresholds rest on P1 rising with xi_1gamma and P2
rising and then falling with xi_2gamma, as measured (up to rounding) for N
from 1 to 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import absorber, gate
from .numerics import bisect, golden_minimize

KAPPA_TOL = 1e-3   # relative bisection width in kappa
SCALE_TOL = 1e-6   # bisection width in log absorber scale


class InfeasibleDesignError(ValueError):
    """No kappa below the configured maximum reaches the target error."""


@dataclass(frozen=True)
class SearchConfig:
    kappa_max: float = 1e6
    n_max: int = 200

    def __post_init__(self):
        # kappa is bisected on [1, kappa_max]
        if not 1.0 <= self.kappa_max < math.inf:
            raise ValueError("kappa_max must be finite and >= 1")
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError("n_max must be an integer >= 1")


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """One feasible gate design, certified with exact errors.

    The absorber rates are the balanced rates at kappa (gate.optimal_rates)
    times scale, which is 1 for the 'exact' model; they and the per-segment
    intensity absorption 1 - exp(-2*xi) of each rate are recomputed on
    access, so a point stores seven numbers.
    """

    p_target: float
    segments: int
    kappa: float
    scale: float
    p1_exact: float
    p2_exact: float
    enhancement: int | None = None

    @property
    def rates(self) -> gate.AbsorberRates:
        return _design_rates(self.segments, self.kappa, self.scale)

    @property
    def p2_segment(self) -> float:
        return 1.0 - math.exp(-2.0 * self.rates.two_photon)

    @property
    def p1_segment(self) -> float:
        return 1.0 - math.exp(-2.0 * self.rates.one_photon)


def _design_rates(segments: int, kappa: float, scale: float) -> gate.AbsorberRates:
    # scale * x is x itself for scale = 1: the 'exact' rates, unscaled
    rates, _ = gate.optimal_rates(kappa, segments, branches=3)
    return gate.AbsorberRates(scale * rates.one_photon, scale * rates.two_photon)


def _balanced(geometry: gate.GateGeometry, kappa: float) -> tuple[float, float]:
    rates, _ = gate.optimal_rates(kappa, geometry.segments, branches=3)
    return rates.one_photon, rates.two_photon


# the absorber scales, relative to the balanced rates, that 'exact_free'
# searches over
_SCALES = (1e-3, 1e3)


def minimized_max_error(segments: int, kappa: float) -> tuple[float, float]:
    """(min over absorber scale of max(P1, P2), minimizing scale multiplier).

    P1 rises and P2 falls with the absorber scale, so max(P1, P2) is least
    where they cross: bisect the sign of P1 - P2 in log scale over _SCALES
    and keep the best point evaluated (an end of the bracket if P1 - P2 has
    no sign change there).  Where one error is flat (P2 at N = 1), every
    point on its side ties.
    """
    geometry = gate.GateGeometry(3, segments)
    x1, x2 = _balanced(geometry, kappa)
    best = None

    def diff(log_scale):
        nonlocal best
        scale = math.exp(log_scale)
        p1, p2 = gate.exact_errors(geometry, gate.AbsorberRates(scale * x1, scale * x2))
        if best is None or max(p1, p2) <= best[0]:   # a tie: the later, nearer the crossing
            best = max(p1, p2), scale
        return p1 - p2

    bisect(diff, math.log(_SCALES[0]), math.log(_SCALES[1]), SCALE_TOL)
    return best


class _Window(NamedTuple):
    """The decay exponents at which the 'exact_free' errors meet P at one N.

    P1 rises with xi_1gamma, and P2 rises from P2(0) to a peak near 1 and
    then falls with xi_2gamma, so {P1 <= P} = [0, xi1] and
    {P2 <= P} = [0, rise] + [xi2, inf).  rise is 0 when P < P2(0), which is
    0.633 at N = 1, 0.9746 at N = 2 and 0.995 or more from N = 3 on.  A
    threshold out of the range the scales can reach is 0 (no xi in range
    meets P) or inf (every xi in range does).
    """

    xi1: float
    xi2: float
    rise: float

    def _falling(self, geometry: gate.GateGeometry, kappa: float):
        """(bottom, top, x2): the scales s in _SCALES with s*x1 <= xi1 and
        s*x2 >= xi2 at the balanced rates (x1, x2) at kappa, none if
        bottom > top."""
        x1, x2 = _balanced(geometry, kappa)
        lo, hi = _SCALES
        return max(lo, self.xi2 / x2), min(hi, self.xi1 / x1), x2

    def feasible(self, geometry: gate.GateGeometry, kappa: float) -> bool:
        """Whether some scale s in _SCALES has s*x1 <= xi1, and s*x2 >= xi2
        or s*x2 <= rise.  The rising side is reached only at the smallest
        scale."""
        bottom, top, x2 = self._falling(geometry, kappa)
        lo = _SCALES[0]
        return lo <= top and (bottom <= top or lo * x2 <= self.rise)

    def scale(self, geometry: gate.GateGeometry, kappa: float) -> float:
        """A scale that meets P at a feasible kappa: the geometric middle of
        the falling side's scales, or else the smallest scale."""
        bottom, top, _ = self._falling(geometry, kappa)
        return math.sqrt(bottom * top) if bottom <= top else _SCALES[0]


# bracket width in log xi at which a threshold solve stops
_XI_TOL = 1e-12


def _bisect(meets, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bisect brackets of log xi down to _XI_TOL; the ends that meet P.

    meets(t) says for an array of points, one per bracket, whether each
    meets P: it is one kernel call.  a holds ends that meet P, b ends that
    do not, in either order; a bracket no wider than _XI_TOL stays as it is.
    """
    while True:
        live = np.abs(b - a) > _XI_TOL
        if not live.any():
            return a
        mid = 0.5 * (a + b)
        ok = meets(np.where(live, mid, a))
        a, b = np.where(live & ok, mid, a), np.where(live & ~ok, mid, b)


def _exp(t) -> list[float]:
    # math.exp, as the thresholds are: the solve evaluates each at its value
    return [math.exp(v) for v in np.asarray(t).tolist()]


def _windows(segments: list[int], p_target: float, kappa_max: float) -> list[_Window]:
    """The _Window of every N in segments, from one batched threshold solve.

    Only xi in reach matters: s*x1 and s*x2 over s in _SCALES and kappa in
    [1, kappa_max].  One exact_errors_batch call evaluates P1 and P2 at the
    ends of both ranges and P2 at 0.  Then each bisection round evaluates,
    for every N, P1 at its xi_1gamma midpoint and P2 at its xi_2gamma
    midpoint together, as the two blocks of one pair: 45 rounds take the
    21-wide log ranges (kappa_max = 1e6) below _XI_TOL.  Where P >= P2(0), a
    golden-section search first finds the peak of P2, which separates xi2
    from rise, and rise is bisected in a column of its own.
    """
    geoms = [gate.GateGeometry(3, n) for n in segments]
    lo, hi = _SCALES
    reach = []   # log xi in reach: xi_1gamma low and high, xi_2gamma low and high
    for geometry in geoms:
        (n1, n2), (f1, f2) = _balanced(geometry, 1.0), _balanced(geometry, kappa_max)
        reach.append([math.log(v) for v in (lo * f1, hi * n1, lo * n2, hi * f2)])
    t = np.array(reach).T
    b = len(geoms)
    p1, p2 = gate.exact_errors_batch(geoms * 3, _exp(t[:2].ravel()) + [0.0] * b,
                                     _exp(t[2:].ravel()) + [0.0] * b)
    meets1, meets2 = (p1[:2 * b] <= p_target).tolist(), (p2[:2 * b] <= p_target).tolist()
    xi1, xi2, rise = [0.0] * b, [math.inf] * b, [0.0] * b   # infeasible until shown otherwise
    # columns of the bisection: (i, bracket of xi1, bracket on P2, list it
    # fills); a bracket is (end that meets P, end that does not), or None
    columns = []
    for i, geometry in enumerate(geoms):
        t1lo, t1hi, t2lo, t2hi = t[:, i].tolist()
        if not meets1[i]:
            continue   # P1 > P throughout
        # the falling branch's bracket runs from the high end down to the
        # low end, past the peak of P2 where P < P2(0); P2 <= P at its
        # lower end then holds throughout
        two_sided = p2[2 * b + i] <= p_target
        peak, everywhere = t2lo, meets2[i]
        if two_sided:
            def p2_at(x, geometry=geometry):
                return gate.exact_errors(geometry, gate.AbsorberRates(0.0, math.exp(x)))[1]

            peak = golden_minimize(lambda x: -p2_at(x), t2lo, t2hi, SCALE_TOL)
            everywhere = p2_at(peak) <= p_target
        fall = rising = None
        if everywhere:
            xi2[i] = 0.0
        else:
            if meets2[b + i]:
                fall = (t2hi, peak)
            if two_sided and meets2[i]:
                rising = (t2lo, peak)
        if xi2[i] == 0.0 or fall or rising:
            bracket = None if meets1[b + i] else (t1lo, t1hi)
            if not bracket:
                xi1[i] = math.inf   # P1 <= P throughout
            if bracket or fall:
                columns.append((i, bracket, fall, xi2))
            if rising:
                columns.append((i, None, rising, rise))
    if columns:
        sub = [geoms[c[0]] for c in columns]

        def meets(x):
            q1, q2 = gate.exact_errors_batch(sub, _exp(x[0]), _exp(x[1]))
            return np.stack((q1, q2)) <= p_target

        ends = np.array([[c[k] or (0.0, 0.0) for c in columns] for k in (1, 2)])
        found = _bisect(meets, ends[..., 0], ends[..., 1])
        for (i, bracket, on_p2, table), end1, end2 in zip(columns, *found.tolist()):
            if bracket:
                xi1[i] = math.exp(end1)
            if on_p2:
                table[i] = math.exp(end2)
    return [_Window(*w) for w in zip(xi1, xi2, rise)]


_ERROR_MODELS = ("exact", "exact_free", "leading")


def min_kappa(
    segments: int,
    p_target: float,
    error_model: str = "exact",
    config: SearchConfig = SearchConfig(),
) -> float:
    """Minimal kappa reaching the target error at fixed N: a log-bisection
    on [1, kappa_max] down to a relative width of KAPPA_TOL."""
    return _KappaScan(p_target, error_model, config).kappa(segments)


def required_enhancement(kappa_target: float, spec: absorber.AtomSpec) -> int:
    """Multiplicity n, s (or n*s) lifting the atom's ratio up to kappa_target.

    Uses the full probability quotient including control-photon scattering
    and the direct quadratic-field channel.  At a destructive-interference
    point the ratio is unbounded and no enhancement is needed.
    """
    if not 0.0 < kappa_target < math.inf:  # also rejects NaN
        raise ValueError("kappa_target must be positive and finite")
    try:
        k0 = absorber.measured_absorption_ratio(spec, include_control=True, include_a2_term=True)
    except absorber.RatioUnboundedError:
        return 1
    return max(1, math.ceil(kappa_target / k0))


def design_point(
    p_target: float,
    segments: int,
    spec: absorber.AtomSpec | None = None,
    error_model: str = "exact",
) -> DesignPoint:
    """Search kappa at fixed N and assemble the certified design point."""
    return _KappaScan(p_target, error_model, SearchConfig()).certify(segments, spec)


# N searched side by side when a scan needs a new N.  Measured on the design
# benchmark: 16 ran 1.25-1.4x the ops/s of 8 or 32; the scans then search a
# third more N than they use (a fifth at 8, 84% more at 32).
_SCAN_CHUNK = 16


class _KappaScan:
    """One design search: feasibility and min_kappa(N), kept once found;
    min_kappa and design_point use it for their one N.

    A scan step that misses N searches it together with the next
    _SCAN_CHUNK - 1 N above it (up to n_max), which the scan asks for next.
    For 'exact_free' that chunk's windows come from one threshold solve,
    and its kappa bisections make no kernel call.
    """

    def __init__(self, p_target: float, error_model: str, config: SearchConfig):
        if not 0.0 < p_target < 1.0:
            raise ValueError("p_target must lie in (0, 1)")
        if error_model not in _ERROR_MODELS:
            raise ValueError("error_model must be 'exact', 'exact_free' or 'leading'")
        self.p_target, self.error_model, self.config = p_target, error_model, config
        self.at_max = {}   # N -> whether kappa_max reaches the target
        self.found = {}    # N -> min_kappa, or its InfeasibleDesignError
        self.windows = {}  # N -> its _Window ('exact_free' only)

    def _chunk(self, n: int, table: dict, size: int) -> list[int]:
        """n and the N above it that table lacks, at most size of them and
        none past n_max but n, with their windows ('exact_free')."""
        # n itself also past n_max, which min_kappa accepts
        top = min(n + size, self.config.n_max + 1)
        chunk = [n] + [m for m in range(n + 1, top) if m not in table]
        new = [m for m in chunk if m not in self.windows]
        if self.error_model == "exact_free" and new:
            self.windows.update(zip(new, _windows(new, self.p_target, self.config.kappa_max)))
        return chunk

    def _feasible(self, geoms: list, kappas: list) -> list[bool]:
        """Whether each kappa reaches p_target at its geometry.

        'exact' evaluates the balanced rates of all of them in one kernel
        call: the scalar exact_errors for one, exact_errors_batch for more.
        'exact_free' tests the _Window of each N; 'leading' tests its closed
        form.
        """
        if self.error_model == "exact":
            rates = [_balanced(g, k) for g, k in zip(geoms, kappas)]
            if len(geoms) == 1:
                p1, p2 = gate.exact_errors(geoms[0], gate.AbsorberRates(*rates[0]))
                return [max(p1, p2) <= self.p_target]
            p1, p2 = gate.exact_errors_batch(geoms, *zip(*rates))
            return (np.maximum(p1, p2) <= self.p_target).tolist()
        if self.error_model == "exact_free":
            return [self.windows[g.segments].feasible(g, k) for g, k in zip(geoms, kappas)]
        # the leading-order truncations N*xi_1gamma/2 and pi^2/(N*xi_2gamma)
        # cross at pi/sqrt(2*kappa) for every N, the least max over the scale
        return [gate.overall_error(k) <= self.p_target for k in kappas]

    def _min_kappas(self, segments: list[int]) -> list:
        """min_kappa at every N in segments, or its InfeasibleDesignError.

        Each N is a log-bisection on [1, kappa_max] down to a relative width
        of KAPPA_TOL.  Every round tests the next kappa of every unfinished
        N together: kappa_max, unless at_max already holds it, then 1, then
        the geometric middle of the bracket.
        """
        kappa_max, at_max = self.config.kappa_max, self.at_max
        geoms = {n: gate.GateGeometry(3, n) for n in segments}
        found = {}
        lo, hi = dict.fromkeys(segments, 1.0), dict.fromkeys(segments, kappa_max)
        nxt = {n: 1.0 if n in at_max else kappa_max for n in segments if at_max.get(n, True)}
        while nxt:
            ok = self._feasible([geoms[n] for n in nxt], list(nxt.values()))
            tested, nxt = nxt, {}
            for (n, kappa), good in zip(tested.items(), ok):
                if n not in at_max:   # kappa_max: where it fails, N is infeasible
                    at_max[n] = good
                    if good:
                        nxt[n] = 1.0
                    continue
                if good:   # at kappa = 1 this closes the bracket at 1
                    hi[n] = kappa
                else:
                    lo[n] = kappa
                if hi[n] / lo[n] > 1.0 + KAPPA_TOL:
                    nxt[n] = math.sqrt(lo[n] * hi[n])
                else:
                    found[n] = hi[n]
        return [found[n] if n in found else InfeasibleDesignError(
            f"no kappa <= {kappa_max:g} reaches P <= {self.p_target} at N = {n}")
            for n in segments]

    def feasible(self, n: int) -> bool:
        """Whether some kappa <= kappa_max reaches the target at N = n."""
        if n not in self.at_max:
            chunk = self._chunk(n, self.at_max, _SCAN_CHUNK)
            ok = self._feasible([gate.GateGeometry(3, m) for m in chunk],
                                [self.config.kappa_max] * len(chunk))
            self.at_max.update(zip(chunk, ok))
        return self.at_max[n]

    def kappa(self, n: int, size: int = 1) -> float:
        """min_kappa at N = n, searched with size - 1 N above it if missing;
        raises its InfeasibleDesignError."""
        if n not in self.found:
            chunk = self._chunk(n, self.found, size)
            self.found.update(zip(chunk, self._min_kappas(chunk)))
        kappa = self.found[n]
        if isinstance(kappa, InfeasibleDesignError):
            raise kappa
        return kappa

    def smallest_feasible_n(self) -> int:
        # min_kappa(N) raises exactly when kappa_max does not reach the target
        config = self.config
        for n in range(1, config.n_max + 1):
            if self.feasible(n):
                return n
        raise InfeasibleDesignError(
            f"no N <= {config.n_max} is feasible with kappa <= {config.kappa_max:g}"
        )

    def certify(self, segments: int, spec: absorber.AtomSpec | None = None) -> DesignPoint:
        """Design point at N = segments and the scan's min_kappa there."""
        if self.error_model not in ("exact", "exact_free"):
            raise ValueError("design points are certified with exact errors only")
        kappa = self.kappa(segments)
        geometry = gate.GateGeometry(3, segments)
        scale = 1.0
        if self.error_model == "exact_free":
            error, scale = minimized_max_error(segments, kappa)
            if error > self.p_target:   # a window narrower than that bisection resolves
                scale = self.windows[segments].scale(geometry, kappa)
        p1, p2 = gate.exact_errors(geometry, _design_rates(segments, kappa, scale))
        enh = required_enhancement(kappa, spec) if spec is not None else None
        return DesignPoint(self.p_target, segments, kappa, scale, p1, p2, enh)


def search_feasible_nk(
    p_target: float,
    strategy: str | None = None,
    error_model: str = "exact",
    config: SearchConfig = SearchConfig(),
) -> list[DesignPoint]:
    """Representative feasible (N, kappa) design points.

    strategy 'min_n': smallest feasible N (kappa below the configured cap);
    'min_kappa': the smallest kappa over N <= n_max, i.e. the largest scanned
    N since kappa(N) is non-increasing; 'balanced': minimize N*sqrt(kappa).
    strategy=None returns all three in that order.

    The scans over N search chunks of consecutive N together (see _KappaScan)
    and give the same points as a search of one N at a time: N found past
    the point where a scan stops are never used.  For 'exact_free' a chunk
    is one batched solve for the thresholds of its N, for any p_target in
    (0, 1) (see _Window), and each kappa bisection replays over them as
    arithmetic.  Its design point takes the scale of minimized_max_error,
    or the middle of the window at kappa where that is narrower than the
    scale bisection resolves.
    """
    strategies = [strategy] if strategy else ["min_n", "balanced", "min_kappa"]
    scan = _KappaScan(p_target, error_model, config)
    n_min = scan.smallest_feasible_n()
    points = []
    for strat in strategies:
        if strat == "min_n":
            n = n_min
        elif strat == "min_kappa":
            n = config.n_max
        elif strat == "balanced":
            best, best_cost = None, math.inf
            n = n_min
            cost_up_count = 0
            while n <= config.n_max and cost_up_count < 8:
                # feasibility need not be monotone in N (at P = 0.9, N = 1
                # and N >= 3 are feasible, N = 2 is not): an infeasible N
                # costs inf and counts as a cost increase
                try:
                    cost = n * math.sqrt(scan.kappa(n, _SCAN_CHUNK))
                except InfeasibleDesignError:
                    cost = math.inf
                if cost < best_cost:
                    best, best_cost = n, cost
                    cost_up_count = 0
                else:
                    cost_up_count += 1
                n += 1
            n = best
        else:
            raise ValueError("strategy must be 'min_n', 'balanced' or 'min_kappa'")
        points.append(scan.certify(n))
    return points


# (P_error, N) anchors of the bundled example tables: for each error budget a
# small-N, a balanced and a small-kappa design, as in the worked example set.
TABLE_ANCHORS: dict[float, tuple[int, int, int]] = {
    0.5: (8, 10, 40),
    0.25: (20, 25, 70),
    0.1: (50, 60, 160),
}


@dataclass(frozen=True)
class TableSet:
    """The three per-strategy detail tables, one point per error budget."""

    small_n: list[DesignPoint]
    balanced: list[DesignPoint]
    small_kappa: list[DesignPoint]

    @property
    def feasibility(self) -> list[DesignPoint]:
        """All nine points, budget by budget: small N, balanced, small kappa."""
        return [pt for row in zip(self.small_n, self.balanced, self.small_kappa) for pt in row]


def generate_tables(spec: absorber.AtomSpec | None = None) -> TableSet:
    """Reproduce the example design tables for the given absorber.

    For every (error budget, N) anchor the minimal kappa is searched, the
    per-segment probabilities evaluated at the balanced rates, and the
    required enhancement factor computed from the absorber's measured ratio.
    Deterministic: fixed iteration order, no randomness.
    """
    if spec is None:
        spec = absorber.optical_example()
    rows = [[design_point(p_target, n, spec) for n in TABLE_ANCHORS[p_target]]
            for p_target in sorted(TABLE_ANCHORS, reverse=True)]
    return TableSet(*map(list, zip(*rows)))


class CurvePoint(NamedTuple):
    xi_2gamma: float
    p1_exact: float
    p2_exact: float
    p1_approx: float
    p2_approx: float


def error_curve(
    kappa: float,
    segments: int,
    xi2_max: float = 0.14,
    samples: int = 141,
    branches: int = 2,
) -> list[CurvePoint]:
    """Sweep the absorber scale at fixed kappa; exact and leading-order errors.

    xi_2gamma runs linearly over [0, xi2_max], point i at exactly
    xi2_max * i / (samples - 1), with xi_1gamma = xi_2gamma/kappa.  The
    leading-order truncations are clipped to [0, 1] (the two-photon one
    diverges at zero absorber scale where the exact error tends to 1).
    """
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ValueError("samples must be an integer >= 2")
    if not kappa > 0.0:  # also rejects NaN
        raise ValueError("kappa must be positive")
    if not 0.0 <= xi2_max < math.inf:  # also rejects NaN
        raise ValueError("xi2_max must be finite and >= 0")
    geom = gate.GateGeometry(branches, segments)
    # elementwise, each product and quotient rounds as the scalar one does
    x2 = xi2_max * np.arange(samples, dtype=float) / (samples - 1)
    x1 = x2 / kappa
    p1, p2 = gate.exact_errors_batch(geom, x1, x2)
    a1, a2 = gate.leading_errors(geom, x1, x2)
    columns = (x2, p1, p2, np.minimum(a1, 1.0), np.minimum(a2, 1.0))
    return list(map(CurvePoint._make, zip(*(col.tolist() for col in columns))))


def exact_crossing(kappa: float, segments: int, branches: int = 2) -> tuple[float, float]:
    """(xi_2gamma, error) where the exact P1 and P2 curves intersect."""
    if not kappa > 0.0:  # also rejects NaN
        raise ValueError("kappa must be positive")
    geom = gate.GateGeometry(branches, segments)

    def diff(x2):
        p1, p2 = gate.exact_errors(
            geom, gate.AbsorberRates(one_photon=x2 / kappa, two_photon=x2)
        )
        return p1 - p2

    bracket = bisect(diff, 1e-9, 10.0, 0.0, 80)
    if bracket is None:
        raise ValueError("no crossing bracketed in (0, 10]")
    lo, hi = bracket
    x2 = 0.5 * (lo + hi)
    p1, _ = gate.exact_errors(geom, gate.AbsorberRates(one_photon=x2 / kappa, two_photon=x2))
    return x2, p1
