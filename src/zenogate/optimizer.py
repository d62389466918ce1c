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
'exact_free', which additionally minimizes over the absorber scale and
therefore returns the true (slightly smaller) minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import absorber, gate
from .numerics import bisect_steps, run_steps

SQRT2 = math.sqrt(2.0)
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
        if not self.n_max >= 1:
            raise ValueError("n_max must be >= 1")


@dataclass(frozen=True)
class DesignPoint:
    """One feasible gate design; rates are certified with exact errors."""

    p_target: float
    segments: int
    kappa: float
    rates: gate.AbsorberRates
    p1_exact: float
    p2_exact: float
    p2_segment: float
    p1_segment: float
    enhancement: int | None = None


# The searches below are coroutines: each yields (geometry, one_photon,
# two_photon) of the three-branch gate and is sent the exact (P1, P2) there.
# _lockstep runs many of them side by side, so that one stacked kernel call
# serves a whole search step; a single search is the one-element case.

def _lockstep(searches: list) -> list:
    """Run search coroutines side by side; each one's result, in order.

    Every round takes the next request of every unfinished search and sends
    them all to the kernel at once: the scalar exact_errors for one request,
    one exact_errors_batch call for more.  The requests and the bookkeeping
    of each search are the same as when it runs alone, so the results are
    too.  A search that raises InfeasibleDesignError has the exception as its
    result.
    """
    results = [None] * len(searches)
    live = list(enumerate(searches))
    values = [None] * len(live)
    while live:
        running, requests = [], []
        for (i, search), value in zip(live, values):
            try:
                requests.append(search.send(value))
                running.append((i, search))
            except StopIteration as done:
                results[i] = done.value
            except InfeasibleDesignError as exc:
                results[i] = exc
        live = running
        if len(requests) == 1:
            geometry, x1, x2 = requests[0]
            values = [gate.exact_errors(geometry, gate.AbsorberRates(x1, x2))]
        elif requests:
            p1, p2 = gate.exact_errors_batch(*zip(*requests))
            values = zip(p1.tolist(), p2.tolist())
    return results


def _balanced(geometry: gate.GateGeometry, kappa: float) -> tuple[float, float]:
    rates, _ = gate.optimal_rates(kappa, geometry.segments, branches=3)
    return rates.one_photon, rates.two_photon


def _max_error_steps(geometry: gate.GateGeometry, kappa: float):
    """Coroutine: max(P1, P2) of the three-branch gate at the balanced rates."""
    x1, x2 = _balanced(geometry, kappa)
    p1, p2 = yield geometry, x1, x2
    return max(p1, p2)


def _scale_steps(geometry: gate.GateGeometry, kappa: float, budget: float | None = None):
    """Coroutine form of minimized_max_error.

    P1 rises and P2 falls with the absorber scale, so max(P1, P2) is least
    where they cross: bisect the sign of P1 - P2 in log scale and keep the
    best point evaluated (an end of the bracket if P1 - P2 has no sign
    change there).  Where one error is flat (P2 at N = 1), every point on
    its side ties.

    With a budget, the search returns the best point as soon as it is within
    the budget.  Which point comes next depends only on the sign of P1 - P2,
    never on the budget, so the points evaluated are a prefix of those of
    the full search; and the best never gets worse, so the search stops
    within the budget exactly when the full search would end within it.
    """
    x1, x2 = _balanced(geometry, kappa)
    search = bisect_steps(math.log(1e-3), math.log(1e3), SCALE_TOL)
    log_scale, best = next(search), None
    while True:
        scale = math.exp(log_scale)
        p1, p2 = yield geometry, scale * x1, scale * x2
        if best is None or max(p1, p2) <= best[0]:   # a tie: the later, nearer the crossing
            best = max(p1, p2), scale
        if budget is not None and best[0] <= budget:
            return best
        try:
            log_scale = search.send(p1 - p2)
        except StopIteration:
            return best


def minimized_max_error(segments: int, kappa: float) -> tuple[float, float]:
    """(min over absorber scale of max(P1, P2), minimizing scale multiplier)."""
    return _lockstep([_scale_steps(gate.GateGeometry(3, segments), kappa)])[0]


_ERROR_MODELS = ("exact", "exact_free", "leading")


def _feasible_steps(geometry, kappa: float, p_target: float, error_model: str):
    """Coroutine: whether kappa reaches p_target at this geometry.

    For 'exact_free' the scale search stops at the first point within the
    budget: a prefix of the full search's points, with the same answer.
    """
    if error_model == "exact":
        return (yield from _max_error_steps(geometry, kappa)) <= p_target
    if error_model == "exact_free":
        return (yield from _scale_steps(geometry, kappa, p_target))[0] <= p_target
    # the leading-order truncations N*xi_1gamma/2 and pi^2/(N*xi_2gamma)
    # cross at pi/sqrt(2*kappa) for every N, the least max over the scale
    return gate.overall_error(kappa) <= p_target


def _check_search(p_target: float, error_model: str) -> None:
    if not 0.0 < p_target < 1.0:
        raise ValueError("p_target must lie in (0, 1)")
    if error_model not in _ERROR_MODELS:
        raise ValueError("error_model must be 'exact', 'exact_free' or 'leading'")


def _kappa_steps(segments: int, p_target: float, error_model: str, config: SearchConfig,
                 feasible_at_max: bool | None = None):
    """Coroutine form of min_kappa at one N (log-bisection).

    feasible_at_max, when known, is the outcome of the first check, at
    kappa_max, which is then not repeated.
    """
    geometry = gate.GateGeometry(3, segments)
    lo, hi = 1.0, config.kappa_max
    if feasible_at_max is None:
        feasible_at_max = yield from _feasible_steps(geometry, hi, p_target, error_model)
    if not feasible_at_max:
        raise InfeasibleDesignError(
            f"no kappa <= {config.kappa_max:g} reaches P <= {p_target} at N = {segments}"
        )
    if (yield from _feasible_steps(geometry, lo, p_target, error_model)):
        return lo
    while hi / lo > 1.0 + KAPPA_TOL:
        mid = math.sqrt(lo * hi)
        if (yield from _feasible_steps(geometry, mid, p_target, error_model)):
            hi = mid
        else:
            lo = mid
    return hi


def min_kappa(
    segments: int,
    p_target: float,
    error_model: str = "exact",
    config: SearchConfig = SearchConfig(),
) -> float:
    """Minimal kappa reaching the target error at fixed N (log-bisection)."""
    return _KappaScan(p_target, error_model, config).kappa(segments)


def segment_probabilities(segments: int, kappa: float) -> tuple[float, float]:
    """Per-segment intensity absorption (P2_seg, P1_seg) at the balanced rates.

    P2_seg = 1 - exp(-2*sqrt(kappa)*sqrt(2)*pi/N) and
    P1_seg = 1 - exp(-2*sqrt(2)*pi/(sqrt(kappa)*N)) for the three-branch gate.
    """
    if not (kappa > 0.0 and segments >= 1):  # NaN fails; kappa = inf: perfect absorber
        raise ValueError("kappa must be > 0 and segments >= 1")
    x2 = math.sqrt(kappa) * SQRT2 * math.pi / segments
    x1 = SQRT2 * math.pi / (math.sqrt(kappa) * segments)
    return 1.0 - math.exp(-2.0 * x2), 1.0 - math.exp(-2.0 * x1)


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
    kappa_at = _KappaScan(p_target, error_model, SearchConfig()).kappa
    return _certify(p_target, segments, kappa_at, spec, error_model)


def _certify(
    p_target: float,
    segments: int,
    kappa_at,
    spec: absorber.AtomSpec | None,
    error_model: str,
) -> DesignPoint:
    """Design point at N = segments; kappa_at(N) gives its minimal kappa."""
    if error_model not in ("exact", "exact_free"):
        raise ValueError("design points are certified with exact errors only")
    kappa = kappa_at(segments)
    rates, _ = gate.optimal_rates(kappa, segments, branches=3)
    if error_model == "exact_free":
        _, scale = minimized_max_error(segments, kappa)
        rates = gate.AbsorberRates(
            one_photon=scale * rates.one_photon, two_photon=scale * rates.two_photon
        )
    geom = gate.GateGeometry(3, segments)
    p1, p2 = gate.exact_errors(geom, rates)
    p2_seg, p1_seg = segment_probabilities(segments, kappa)
    enh = required_enhancement(kappa, spec) if spec is not None else None
    return DesignPoint(
        p_target=p_target,
        segments=segments,
        kappa=kappa,
        rates=rates,
        p1_exact=p1,
        p2_exact=p2,
        p2_segment=p2_seg,
        p1_segment=p1_seg,
        enhancement=enh,
    )


# N searched side by side when a scan needs a new N.  Measured on the design
# benchmark: 16 ran 1.25-1.4x the ops/s of 8 or 32; the scans then search a
# third more N than they use (a fifth at 8, 84% more at 32).
_SCAN_CHUNK = 16


class _KappaScan:
    """Feasibility and min_kappa(N) of one design search, kept once found;
    min_kappa and design_point use it for their one N.

    A scan step that misses N searches it in lockstep with the next
    _SCAN_CHUNK - 1 N above it (up to n_max), which the scan asks for next.
    """

    def __init__(self, p_target: float, error_model: str, config: SearchConfig):
        _check_search(p_target, error_model)
        self.p_target, self.error_model, self.config = p_target, error_model, config
        self.at_max = {}   # N -> whether kappa_max reaches the target
        self.found = {}    # N -> min_kappa, or its InfeasibleDesignError

    def _fill(self, n: int, table: dict, search, size: int) -> None:
        if n not in table:
            # n itself also past n_max, which min_kappa accepts
            top = min(n + size, self.config.n_max + 1)
            chunk = [n] + [m for m in range(n + 1, top) if m not in table]
            table.update(zip(chunk, _lockstep([search(m) for m in chunk])))

    def feasible(self, n: int) -> bool:
        """Whether some kappa <= kappa_max reaches the target at N = n."""
        def search(m):
            return _feasible_steps(gate.GateGeometry(3, m), self.config.kappa_max,
                                   self.p_target, self.error_model)

        self._fill(n, self.at_max, search, _SCAN_CHUNK)
        return self.at_max[n]

    def kappa(self, n: int, size: int = 1) -> float:
        """min_kappa at N = n, searched with size - 1 N above it if missing;
        raises its InfeasibleDesignError."""
        def search(m):
            return _kappa_steps(m, self.p_target, self.error_model, self.config,
                                self.at_max.get(m))

        self._fill(n, self.found, search, size)
        kappa = self.found[n]
        if isinstance(kappa, InfeasibleDesignError):
            raise kappa
        return kappa


def _smallest_feasible_n(scan: _KappaScan) -> int:
    # min_kappa(N) raises exactly when kappa_max does not reach the target
    config = scan.config
    for n in range(1, config.n_max + 1):
        if scan.feasible(n):
            return n
    raise InfeasibleDesignError(
        f"no N <= {config.n_max} is feasible with kappa <= {config.kappa_max:g}"
    )


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

    The scans over N search consecutive N in lockstep chunks (see _KappaScan)
    and give the same points as a search of one N at a time: N found past
    the point where a scan stops are never used.
    """
    strategies = [strategy] if strategy else ["min_n", "balanced", "min_kappa"]
    scan = _KappaScan(p_target, error_model, config)
    n_min = _smallest_feasible_n(scan)
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
        points.append(_certify(p_target, n, scan.kappa, None, error_model))
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
    """Feasibility table plus the three per-strategy detail tables."""

    feasibility: list[DesignPoint] = field(default_factory=list)   # all nine points
    small_n: list[DesignPoint] = field(default_factory=list)
    balanced: list[DesignPoint] = field(default_factory=list)
    small_kappa: list[DesignPoint] = field(default_factory=list)


def generate_tables(spec: absorber.AtomSpec | None = None) -> TableSet:
    """Reproduce the example design tables for the given absorber.

    For every (error budget, N) anchor the minimal kappa is searched, the
    per-segment probabilities evaluated at the balanced rates, and the
    required enhancement factor computed from the absorber's measured ratio.
    Deterministic: fixed iteration order, no randomness.
    """
    if spec is None:
        spec = absorber.optical_example()
    columns = {0: [], 1: [], 2: []}
    flat = []
    for p_target in sorted(TABLE_ANCHORS, reverse=True):
        for col, n in enumerate(TABLE_ANCHORS[p_target]):
            pt = design_point(p_target, n, spec)
            columns[col].append(pt)
            flat.append(pt)
    return TableSet(
        feasibility=flat,
        small_n=columns[0],
        balanced=columns[1],
        small_kappa=columns[2],
    )


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

    xi_2gamma runs linearly over [0, xi2_max] with xi_1gamma = xi_2gamma/kappa.
    The leading-order truncations are clipped to [0, 1] (the two-photon one
    diverges at zero absorber scale where the exact error tends to 1).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not kappa > 0.0:  # also rejects NaN
        raise ValueError("kappa must be positive")
    geom = gate.GateGeometry(branches, segments)
    xi2 = [xi2_max * i / (samples - 1) for i in range(samples)]
    x1, x2 = np.array([v / kappa for v in xi2]), np.array(xi2)
    p1, p2 = gate.exact_errors_batch(geom, x1, x2)
    a1, a2 = gate.leading_errors(geom, x1, x2)
    columns = (p1, p2, np.minimum(a1, 1.0), np.minimum(a2, 1.0))
    return list(map(CurvePoint._make, zip(xi2, *(col.tolist() for col in columns))))


def exact_crossing(kappa: float, segments: int, branches: int = 2) -> tuple[float, float]:
    """(xi_2gamma, error) where the exact P1 and P2 curves intersect."""
    geom = gate.GateGeometry(branches, segments)

    def diff(x2):
        p1, p2 = gate.exact_errors(
            geom, gate.AbsorberRates(one_photon=x2 / kappa, two_photon=x2)
        )
        return p1 - p2

    bracket = run_steps(bisect_steps(1e-9, 10.0, 0.0, 80), diff)
    if bracket is None:
        raise ValueError("no crossing bracketed in (0, 10]")
    lo, hi = bracket
    x2 = 0.5 * (lo + hi)
    p1, _ = gate.exact_errors(geom, gate.AbsorberRates(one_photon=x2 / kappa, two_photon=x2))
    return x2, p1
