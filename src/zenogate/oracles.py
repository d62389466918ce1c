"""Verification oracles: independent routes to numbers the program computes.

The command-line path never imports this module; the tests do.  What each
oracle checks, and where it holds:

- closed_form_two_branch: the eigenvalue form of the two-branch N-segment
  product; checks gate_matrix and mat_power, within 1e-9 on the domain its
  docstring derives (DegenerateRootsError outside it).
- first_order_output_two_branch: the output for input (1, 0) to first order
  in xi_1gamma; checks gate_matrix at small loss, off by O((N*xi)^2).
- asymptotic_errors: the large-N truncations of both error probabilities;
  check exact_errors and the curves for N*xi_2gamma >> 1 >> N*xi_1gamma.
- franson_*: the reference gate with absorbers on both photon paths, in the
  same large-N regime, with P1 = 2*N*xi_1gamma and P2 = 4*N*xi_1gamma +
  2*pi^2/(N*xi_2gamma); checks the factor of 64 in kappa.
- optimal_angle: a golden-section search of exact_errors over the angle;
  checks that the lossless default angle stays optimal at non-zero loss,
  where P1 is unimodal on [0.5, 1.5] times that angle.
- phase_sum: the multi-pass sum term by term; checks
  enhancement.phase_sum_sq_closed_form to about count*eps relative.
- dense_quasispin_raise, symmetric_state: the ladder in the full 2^S
  product space, S <= 6; check enhancement.quasispin_apply to rounding.
- polarization_sum_quadrature: the polarization-summed angular integral by
  the midpoint rule; checks the 8*pi/3 of the scattering probability
  (the integral is (8*pi/3)*|v|^2), off by O(samples^-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gate import SQRT2, AbsorberRates, GateGeometry, _inverse, default_angle, exact_errors
from .gate import leading_errors, optimal_rates
from .numerics import golden_minimize


class DegenerateRootsError(ValueError):
    """The closed form is outside its domain; use mat_power instead."""


@dataclass(frozen=True)
class ClosedFormFactors:
    """Quadratic-root abbreviations of the closed-form N-segment product."""

    r: complex
    alpha_plus: complex
    alpha_minus: complex
    beta_plus: complex
    beta_minus: complex


def closed_form_factors(angle: float, decay: float) -> ClosedFormFactors:
    e = math.exp(-decay)
    c = math.cos(angle)
    r = complex((e + 1.0) ** 2 * c * c - 4.0 * e) ** 0.5
    return ClosedFormFactors(r, (e + 1.0) * c + r, (e + 1.0) * c - r,
                             (e - 1.0) * c + r, (e - 1.0) * c - r)


def closed_form_two_branch(angle: float, decay: float, segments: int) -> np.ndarray:
    """Closed-form N-th power of the two-branch segment matrix.

    Domain: 2*eps*(N*min(N, 1/|r|) + 1/|r|) <= 1e-9 (eps = 2^-52, r from
    closed_form_factors), else DegenerateRootsError.  The entries are even in
    r, functions of r^2 = (e+1)^2*c^2 - 4e, a difference of terms up to 4
    rounded to a few eps.  Moving r^2 by d moves the eigenvalues alpha_pm/2
    (modulus <= 1) by d/(4r), their N-th powers by about N*d/|r|, or N^2*d once
    N*|r| < 1 (the entries are then polynomials in r^2 with a first coefficient
    of order N^2); rounding the eigenvalues apart adds eps/|r| for real r.
    Against 50-digit mpmath the error stayed below 1.25*eps*(N*min(N, 1/|r|) +
    1/|r|) on 1,809 points (default angles to N = 3e5, log-spread angles and
    decays, near-coincident roots).  The domain ends at N = 2,659 at the
    default angle (|r| ~ pi/N) and holds every N <= 200 with |r| >= 1e-6.
    """
    f = closed_form_factors(angle, decay)
    inv_r = math.inf if f.r == 0.0 else 1.0 / abs(f.r)
    if not 2.0**-51 * (segments * min(segments, inv_r) + inv_r) <= 1e-9:
        raise DegenerateRootsError(f"closed form outside its domain at N = {segments}, "
                                   f"|r| = {abs(f.r):.3g}; use mat_power")
    e = math.exp(-decay)
    s = math.sin(angle)
    # alpha_pm/2 are the segment eigenvalues; powers of the halves avoid
    # overflow of alpha^N and 2^N at large N.
    p = (f.alpha_plus / 2.0) ** segments
    q = (f.alpha_minus / 2.0) ** segments
    return np.array([[(f.beta_plus * q - f.beta_minus * p) / (2.0 * f.r), (p - q) * s / f.r],
                     [(q - p) * e * s / f.r, (f.beta_plus * p - f.beta_minus * q) / (2.0 * f.r)]],
                    dtype=complex)


def first_order_output_two_branch(angle: float, decay: float, segments: int) -> np.ndarray:
    """Output amplitudes for input (1,0), expanded to first order in xi_1gamma."""
    n = segments
    ne = n * angle
    # cos(Ne)*(1 - xi*(N - cot(e)*tan(Ne))/2) written without the tan(Ne)
    # singularity at Ne = pi/2
    upper = math.cos(ne) * (1.0 - decay * n / 2.0) + 0.5 * decay * math.sin(ne) / math.tan(angle)
    lower = -math.sin(ne) * (1.0 - decay * (n + 1.0) / 2.0)
    return np.array([upper, lower], dtype=complex)


def asymptotic_errors(geometry: GateGeometry, rates: AbsorberRates,
                      order: str = "leading") -> tuple[float, float]:
    """Large-N truncations of the error probabilities.

    order='leading' is gate.leading_errors; order='first' adds the first
    sub-leading corrections.  A perfect absorber (xi_2gamma = inf) keeps
    only the finite-N discretization term.  What the leading order
    promises: for N*xi_2gamma >~ 10 and N*xi_1gamma << 1 each truncated
    probability is within its own square of the exact one,
    |P_exact - P_lead| <= P_lead^2, while P_lead >= 2*N^(-2/3) (below that
    the finite-N terms of order='first' exceed P_lead^2).  The two-photon
    term exceeds 1 for N*xi_2gamma below pi^2/2 (two branches) or pi^2
    (three), where the exact error is still below 1.
    """
    if order not in ("leading", "first"):
        raise ValueError("order must be 'leading' or 'first'")
    n = geometry.segments
    x1, x2 = rates.one_photon, rates.two_photon
    p1, p2 = leading_errors(geometry, x1, x2)
    if order == "first":
        pi2, inv_x2 = math.pi**2, _inverse(x2)
        x2_finite = 0.0 if math.isinf(x2) else x2
        p1 += x1
        if geometry.branches == 2:
            p2 += (2.0 * pi2 - math.pi**4) / (48.0 * n**2)
            p2 += (4.0 * math.pi**4 + math.pi**6) / (192.0 * n**3) * inv_x2
            p2 += pi2 * (x1 + x2_finite) / (24.0 * n)
        else:
            p2 += (4.0 * pi2 - 3.0 * math.pi**4) / (48.0 * n**2)
            p2 += (2.0 * math.pi**4 + math.pi**6) / (24.0 * n**3) * inv_x2
            p2 += pi2 * (x1 + x2_finite) / (12.0 * n)
    return p1, p2


def franson_errors(rates: AbsorberRates, segments: int) -> tuple[float, float]:
    """Large-N error probabilities of the symmetric reference gate, whose
    one-photon loss enters the two-photon mode as well."""
    n = segments
    p1 = 2.0 * n * rates.one_photon
    inv_x2 = 0.0 if math.isinf(rates.two_photon) else 1.0 / rates.two_photon
    p2 = 4.0 * n * rates.one_photon + 2.0 * math.pi**2 / n * inv_x2
    return p1, p2


def franson_optimal_rates(kappa: float, segments: int) -> AbsorberRates:
    """Rates minimizing the dominant two-photon error of the reference gate:
    the balanced rates of the two-branch gate."""
    return optimal_rates(kappa, segments, 2)[0]


def franson_overall_error(kappa: float) -> float:
    """Optimized overall error 4*sqrt(2)*pi/sqrt(kappa) of the reference gate."""
    return 4.0 * SQRT2 * math.pi / math.sqrt(kappa)


def franson_required_kappa(p_error: float) -> float:
    """kappa the reference gate needs for a target error: 32*pi^2/P^2."""
    if not 0.0 < p_error < 1.0:
        raise ValueError("p_error must lie in (0, 1)")
    return 32.0 * math.pi**2 / p_error**2


def optimal_angle(branches: int, segments: int, one_photon_rate: float) -> float:
    """Beam-splitter angle minimizing the exact no-control error at non-zero
    one-photon loss; the first-order expansion predicts the lossless default."""
    nominal = default_angle(branches, segments)

    def p1_of(angle):
        geom = GateGeometry(branches, segments, angle)
        rates = AbsorberRates(one_photon=one_photon_rate, two_photon=one_photon_rate)
        return exact_errors(geom, rates)[0]

    return golden_minimize(p1_of, 0.5 * nominal, min(1.5 * nominal, math.pi - 1e-9), 1e-10 * nominal)


def phase_sum(phase_step: float, count: int) -> complex:
    """sum_{mu=0}^{count-1} exp(i*phase_step*mu) by direct accumulation."""
    mu = np.arange(count)
    return complex(np.sum(np.exp(1j * phase_step * mu)))


def dense_quasispin_raise(total: int, phases: np.ndarray | None = None) -> np.ndarray:
    """Collective raising operator in the full 2^S product space: each
    emitter contributes sigma_plus times exp(+i*phi_l)."""
    if total > 6:
        raise ValueError("dense oracle is limited to S <= 6")
    if phases is None:
        phases = np.zeros(total)
    dim = 2**total
    out = np.zeros((dim, dim), dtype=complex)
    for ell in range(total):
        bit = 1 << ell
        for state in range(dim):
            if not state & bit:
                out[state | bit, state] += np.exp(1j * phases[ell])
    return out


def symmetric_state(total: int, excited: int, phases: np.ndarray | None = None) -> np.ndarray:
    """Normalized phased symmetric state with the given excitation number."""
    if phases is None:
        phases = np.zeros(total)
    dim = 2**total
    v = np.zeros(dim, dtype=complex)
    for occupied in combinations(range(total), excited):
        idx = sum(1 << ell for ell in occupied)
        v[idx] = np.exp(1j * sum(phases[ell] for ell in occupied))
    return v / np.linalg.norm(v)


def polarization_sum_quadrature(v: np.ndarray, samples: int = 400) -> float:
    """Angular integral sum_pol |v . eps(theta, phi)|^2 by midpoint quadrature."""
    v = np.asarray(v, dtype=float)
    theta = (np.arange(samples) + 0.5) * math.pi / samples
    phi = (np.arange(2 * samples) + 0.5) * 2.0 * math.pi / (2 * samples)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    eps1 = np.stack([np.sin(ph), -np.cos(ph), np.zeros_like(ph)], axis=-1)
    eps2 = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], axis=-1)
    weight = np.sin(th) * (math.pi / samples) * (2.0 * math.pi / (2 * samples))
    total = ((eps1 @ v) ** 2 + (eps2 @ v) ** 2) * weight
    return float(np.sum(total))
