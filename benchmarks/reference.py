"""High-precision reference for the gate error probabilities, and the output checks.

The reference rebuilds the segment matrix of the two- or three-branch gate in
50-digit mpmath arithmetic from the paper's definitions (beam-splitter angle
pi/(2N) or pi/(sqrt(2)N), absorber transmission exp(-xi)) and raises it to
the N-th power with mpmath's own matrix power.  It shares no code with
zenogate: neither ``gate.closed_form_two_branch`` nor ``numerics.mat_power``
is used.

Tolerance: a program probability agrees with the reference when
|P_program - P_reference| <= TOL (absolute, 1e-9).  At N <= 1e5 the float64
transfer-matrix power agrees with the reference to about 1e-11, so the
tolerance leaves two orders of margin and still rejects a 1e-6 error.

Range: a probability must be finite and lie in [0, 1].  Float rounding in
the matrix power puts some exact values just outside, e.g. P1 = -3.4e-13
for the lossless two-branch gate at N = 38,251, where the reference gives 0.
Such a value is within TOL of the interval, so it is counted as an
excursion and reported, not failed; a value further out fails its op.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

DIGITS = 50
TOL = 1e-9


def _segment(branches: int, segments: int, decay: float):
    """One segment matrix at 50 digits (mp.dps must already be DIGITS)."""
    if branches == 2:
        angle = mp.pi / (2 * segments)
    else:
        angle = mp.pi / (mp.sqrt(2) * segments)
    c, s = mp.cos(angle), mp.sin(angle)
    e = mp.exp(-mpf(decay))
    if branches == 2:
        return mpmath.matrix([[c, s], [-e * s, e * c]])
    top = mpmath.matrix([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    bottom = mpmath.matrix([[1, 0, 0], [0, c, -s], [0, s, c]])
    return bottom * mpmath.diag([1, e, 1]) * top


def reference_errors(branches: int, segments: int, one_photon: float, two_photon: float):
    """(P1, P2) of the gate with input on the top branch, as mpf values."""
    with mp.workdps(DIGITS):
        out = 1 if branches == 2 else 2
        m1 = _segment(branches, segments, one_photon) ** segments
        m2 = _segment(branches, segments, two_photon) ** segments
        # the segment matrices are real, so |amplitude|^2 = amplitude^2
        return 1 - m1[out, 0] ** 2, 1 - m2[0, 0] ** 2


def range_check(values) -> tuple[bool, int]:
    """(all finite and within TOL of [0, 1], how many lie outside [0, 1])."""
    excursions = 0
    for p in values:
        p = float(p)
        if not (math.isfinite(p) and -TOL <= p <= 1.0 + TOL):
            return False, excursions
        excursions += not 0.0 <= p <= 1.0
    return True, excursions


def matches(branches, segments, one_photon, two_photon, p1, p2) -> bool:
    """Whether (p1, p2) agree with the reference within TOL."""
    r1, r2 = reference_errors(branches, segments, one_photon, two_photon)
    return abs(float(r1) - p1) <= TOL and abs(float(r2) - p2) <= TOL


def balanced_rates(kappa: float, segments: int, branches: int) -> tuple[float, float]:
    """Error-balancing (xi_1gamma, xi_2gamma) at fixed kappa, from the paper."""
    if branches == 2:
        x1 = math.pi / (math.sqrt(kappa) * math.sqrt(2.0) * segments)
    else:
        x1 = math.sqrt(2.0) * math.pi / (math.sqrt(kappa) * segments)
    return x1, kappa * x1


def design_point_certified(point) -> bool:
    """A design point agrees with the reference and meets its error budget.

    Checks the rates against kappa, the reported exact errors against the
    reference, and max(P1_ref, P2_ref) <= p_target with no tolerance.
    """
    rates = point.rates
    if not (point.kappa > 0.0 and rates.one_photon > 0.0):
        return False
    if abs(rates.two_photon / rates.one_photon - point.kappa) > 1e-9 * point.kappa:
        return False
    r1, r2 = reference_errors(3, point.segments, rates.one_photon, rates.two_photon)
    if abs(float(r1) - point.p1_exact) > TOL or abs(float(r2) - point.p2_exact) > TOL:
        return False
    with mp.workdps(DIGITS):
        return max(r1, r2) <= mpf(point.p_target)


def crossing_correct(branches, segments, kappa, xi2, p_cross) -> bool:
    """The returned crossing lies on both reference curves within TOL."""
    if not 0.0 < xi2 <= 10.0:
        return False
    r1, r2 = reference_errors(branches, segments, xi2 / kappa, xi2)
    return abs(float(r1) - p_cross) <= TOL and abs(float(r1 - r2)) <= TOL


def refusal_truthful(branches, segments, kappa) -> bool:
    """The reference confirms P1 - P2 has no sign change over (1e-9, 10]."""
    lo1, lo2 = reference_errors(branches, segments, 1e-9 / kappa, 1e-9)
    hi1, hi2 = reference_errors(branches, segments, 10.0 / kappa, 10.0)
    return lo1 - lo2 > 0 or hi1 - hi2 < 0
