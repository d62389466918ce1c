"""Numeric design search: feasible (N, kappa) pairs, per-segment
probabilities, required enhancement factors and error curves.

Feasibility of a design point is always certified with the exact
three-branch error probabilities.  The default search ('exact') pins the
decay rates to the error-balancing rule parameterized by kappa and asks
when the exact maximum error drops below the target; this is the procedure
that reproduces the bundled example tables.  Two further error models are
available: 'leading', which searches on the large-N truncations and
converges to the closed-form kappa = pi^2/(2P^2) for any N, and
'exact_free', which additionally minimizes over the absorber scale and
therefore returns the true (slightly smaller) minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import absorber, gate
from .numerics import golden_minimize

SQRT2 = math.sqrt(2.0)


class InfeasibleDesignError(ValueError):
    """No kappa below the configured maximum reaches the target error."""


@dataclass(frozen=True)
class SearchConfig:
    kappa_tol: float = 1e-3        # relative bisection width in kappa
    scale_tol: float = 1e-6        # golden-section tolerance in absorber scale
    kappa_max: float = 1e6
    n_max: int = 200


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


def exact_max_error(segments: int, kappa: float, scale: float | None = None) -> float:
    """max(P1, P2) of the three-branch gate at fixed kappa.

    scale multiplies the balanced rates; scale=None means the balanced rates
    themselves.
    """
    rates, _ = gate.optimal_rates(kappa, segments, branches=3)
    if scale is not None:
        rates = gate.AbsorberRates(
            one_photon=scale * rates.one_photon, two_photon=scale * rates.two_photon
        )
    geom = gate.GateGeometry(3, segments)
    return max(gate.exact_errors(geom, rates))


def minimized_max_error(segments: int, kappa: float, config: SearchConfig = SearchConfig()) -> tuple[float, float]:
    """(min over absorber scale of max(P1, P2), minimizing scale multiplier)."""
    def objective(log_scale):
        return exact_max_error(segments, kappa, math.exp(log_scale))

    log_best = golden_minimize(objective, math.log(1e-3), math.log(1e3), config.scale_tol)
    return objective(log_best), math.exp(log_best)


def _leading_min_error(segments: int, kappa: float, config: SearchConfig) -> float:
    """Min over scale of max of the leading-order truncations."""
    def objective(log_x1):
        x1 = math.exp(log_x1)
        p1 = segments * x1 / 2.0
        p2 = math.pi**2 / (segments * kappa * x1)
        return max(p1, p2)

    log_best = golden_minimize(
        objective, math.log(1e-12), math.log(10.0), config.scale_tol
    )
    return objective(log_best)


def _feasible(segments: int, kappa: float, p_target: float, error_model: str, config: SearchConfig) -> bool:
    if error_model == "exact":
        return exact_max_error(segments, kappa) <= p_target
    if error_model == "exact_free":
        return minimized_max_error(segments, kappa, config)[0] <= p_target
    if error_model == "leading":
        return _leading_min_error(segments, kappa, config) <= p_target
    raise ValueError("error_model must be 'exact', 'exact_free' or 'leading'")


def min_kappa(
    segments: int,
    p_target: float,
    error_model: str = "exact",
    config: SearchConfig = SearchConfig(),
) -> float:
    """Minimal kappa reaching the target error at fixed N (log-bisection)."""
    if not 0.0 < p_target < 1.0:
        raise ValueError("p_target must lie in (0, 1)")
    lo, hi = 1.0, config.kappa_max
    if not _feasible(segments, hi, p_target, error_model, config):
        raise InfeasibleDesignError(
            f"no kappa <= {config.kappa_max:g} reaches P <= {p_target} at N = {segments}"
        )
    if _feasible(segments, lo, p_target, error_model, config):
        return lo
    while hi / lo > 1.0 + config.kappa_tol:
        mid = math.sqrt(lo * hi)
        if _feasible(segments, mid, p_target, error_model, config):
            hi = mid
        else:
            lo = mid
    return hi


def segment_probabilities(segments: int, kappa: float) -> tuple[float, float]:
    """Per-segment intensity absorption (P2_seg, P1_seg) at the balanced rates.

    P2_seg = 1 - exp(-2*sqrt(kappa)*sqrt(2)*pi/N) and
    P1_seg = 1 - exp(-2*sqrt(2)*pi/(sqrt(kappa)*N)) for the three-branch gate.
    """
    if kappa <= 0.0 or segments < 1:
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
    if kappa_target <= 0.0:
        raise ValueError("kappa_target must be positive")
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
    config: SearchConfig = SearchConfig(),
) -> DesignPoint:
    """Search kappa at fixed N and assemble the certified design point."""
    if error_model not in ("exact", "exact_free"):
        raise ValueError("design points are certified with exact errors only")
    kappa = min_kappa(segments, p_target, error_model, config)
    rates, _ = gate.optimal_rates(kappa, segments, branches=3)
    if error_model == "exact_free":
        _, scale = minimized_max_error(segments, kappa, config)
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


def _smallest_feasible_n(p_target: float, error_model: str, config: SearchConfig) -> int:
    for n in range(1, config.n_max + 1):
        try:
            min_kappa(n, p_target, error_model, config)
            return n
        except InfeasibleDesignError:
            continue
    raise InfeasibleDesignError(
        f"no N <= {config.n_max} is feasible with kappa <= {config.kappa_max:g}"
    )


def search_feasible_nk(
    p_target: float,
    strategy: str | None = None,
    spec: absorber.AtomSpec | None = None,
    error_model: str = "exact",
    config: SearchConfig = SearchConfig(),
) -> list[DesignPoint]:
    """Representative feasible (N, kappa) design points.

    strategy 'min_n': smallest feasible N (kappa below the configured cap);
    'min_kappa': the smallest kappa over N <= n_max, i.e. the largest scanned
    N since kappa(N) is non-increasing; 'balanced': minimize N*sqrt(kappa).
    strategy=None returns all three in that order.
    """
    strategies = [strategy] if strategy else ["min_n", "balanced", "min_kappa"]
    n_min = _smallest_feasible_n(p_target, error_model, config)
    points = []
    for strat in strategies:
        if strat == "min_n":
            n = n_min
        elif strat == "min_kappa":
            n = config.n_max
        elif strat == "balanced":
            best, best_cost = None, math.inf
            n = n_min
            scan = n_min
            cost_up_count = 0
            while scan <= config.n_max and cost_up_count < 8:
                k = min_kappa(scan, p_target, error_model, config)
                cost = scan * math.sqrt(k)
                if cost < best_cost:
                    best, best_cost = scan, cost
                    cost_up_count = 0
                else:
                    cost_up_count += 1
                scan += 1
            n = best
        else:
            raise ValueError("strategy must be 'min_n', 'balanced' or 'min_kappa'")
        points.append(design_point(p_target, n, spec, error_model, config))
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


def generate_tables(
    spec: absorber.AtomSpec | None = None,
    anchors: dict[float, tuple[int, int, int]] | None = None,
    config: SearchConfig = SearchConfig(),
) -> TableSet:
    """Reproduce the example design tables for the given absorber.

    For every (error budget, N) anchor the minimal kappa is searched, the
    per-segment probabilities evaluated at the balanced rates, and the
    required enhancement factor computed from the absorber's measured ratio.
    Deterministic: fixed iteration order, no randomness.
    """
    if spec is None:
        spec = absorber.optical_example()
    if anchors is None:
        anchors = TABLE_ANCHORS
    columns = {0: [], 1: [], 2: []}
    flat = []
    for p_target in sorted(anchors, reverse=True):
        for col, n in enumerate(anchors[p_target]):
            pt = design_point(p_target, n, spec, "exact", config)
            columns[col].append(pt)
            flat.append(pt)
    return TableSet(
        feasibility=flat,
        small_n=columns[0],
        balanced=columns[1],
        small_kappa=columns[2],
    )


@dataclass(frozen=True)
class CurvePoint:
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
    xi1 = [x2 / kappa for x2 in xi2]
    p1, p2 = gate.exact_errors_batch(geom, xi1, xi2)
    out = []
    for i, (x1, x2) in enumerate(zip(xi1, xi2)):
        rates = gate.AbsorberRates(one_photon=x1, two_photon=x2)
        a1, a2 = gate.asymptotic_errors(geom, rates, order="leading")
        a2 = min(1.0, a2) if x2 > 0.0 else 1.0
        out.append(CurvePoint(x2, p1[i], p2[i], min(1.0, a1), a2))
    return out


def exact_crossing(kappa: float, segments: int, branches: int = 2) -> tuple[float, float]:
    """(xi_2gamma, error) where the exact P1 and P2 curves intersect."""
    geom = gate.GateGeometry(branches, segments)

    def diff(x2):
        p1, p2 = gate.exact_errors(
            geom, gate.AbsorberRates(one_photon=x2 / kappa, two_photon=x2)
        )
        return p1 - p2

    lo, hi = 1e-9, 10.0
    if diff(lo) > 0.0 or diff(hi) < 0.0:
        raise ValueError("no crossing bracketed in (0, 10]")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if diff(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x2 = 0.5 * (lo + hi)
    p1, _ = gate.exact_errors(geom, gate.AbsorberRates(one_photon=x2 / kappa, two_photon=x2))
    return x2, p1
