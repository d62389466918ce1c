"""Transfer-matrix model of the two- and three-branch Zeno gates.

The target photon lives on 2 or 3 spatial branches.  One gate segment is a
weak beam splitter (rotation by a small angle) combined with an absorber
that damps the branch shared with the control photon by exp(-xi).  The
whole gate is the N-th matrix power of the segment.  Both the angle and the
decay are real, so the segment and its powers are built in real arithmetic,
for one decay or for a whole array of them at once.  The error kernels power
the one- and two-photon segments together, as the two diagonal blocks of
one matrix.  Two-photon absorption (control photon present, decay exponent
xi_2gamma) freezes the target in its input branch via the Zeno effect;
without the control photon (xi_1gamma) the target is meant to tunnel to the
opposite branch.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import _power_each, _power_one, mat_power

SQRT2 = math.sqrt(2.0)


def _check_segments(segments) -> None:
    # NumPy integers are accepted; NaN, 2.5 and 5.0 are not
    if not isinstance(segments, (int, np.integer)) or segments < 1:
        raise ValueError("segments must be a positive integer")


def default_angle(branches: int, segments: int) -> float:
    """Beam-splitter angle that completes the branch transfer in N segments."""
    if branches == 2:
        return math.pi / (2.0 * segments)
    return math.pi / (SQRT2 * segments)


@dataclass(frozen=True)
class GateGeometry:
    """Branch count, segment count N and beam-splitter angle epsilon; cos
    and sin of the angle are kept for the kernels, out of ==, hash and repr."""

    branches: int
    segments: int
    angle: float | None = None
    cos: float = field(init=False, repr=False, compare=False)
    sin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.branches not in (2, 3):
            raise ValueError("branches must be 2 or 3")
        _check_segments(self.segments)
        object.__setattr__(self, "segments", int(self.segments))
        if self.angle is None:
            object.__setattr__(self, "angle", default_angle(self.branches, self.segments))
        # pi/2 is the N=1 two-branch default and pi/sqrt(2) the N=1
        # three-branch default, so the physical-beam-splitter range (0, pi/2)
        # is widened to (0, pi); the matrix algebra is valid throughout.
        if not 0.0 < self.angle < math.pi:
            raise ValueError("beam-splitter angle must lie in (0, pi)")
        object.__setattr__(self, "cos", math.cos(self.angle))
        object.__setattr__(self, "sin", math.sin(self.angle))


@dataclass(frozen=True)
class AbsorberRates:
    """Per-segment amplitude decay exponents; kappa = two_photon/one_photon."""

    one_photon: float
    two_photon: float

    def __post_init__(self):
        if not self.one_photon >= 0.0:  # also rejects NaN
            raise ValueError("one_photon decay exponent must be >= 0")
        if not self.two_photon >= 0.0:
            raise ValueError("two_photon decay exponent must be >= 0")


def _transmission(decay):
    """exp(-xi) of a scalar decay exponent, or the array of them for a 1-D array."""
    xi = np.asarray(decay, dtype=float)
    if xi.ndim > 1:
        raise ValueError("decay must be a scalar or a 1-D array")
    x = (-xi).tolist()  # -xi as a float, or a list of floats
    if not (xi.min(initial=math.inf) if xi.ndim else -x) >= 0.0:  # NaN fails too
        raise ValueError("decay exponent must be >= 0")
    # math.exp also for arrays: np.exp differs from it in the last bit for
    # some inputs, N segments amplify that N-fold, and a batch must agree
    # with single calls.  exp(-inf) == 0.0, no overflow involved.
    return np.fromiter(map(math.exp, x), float, len(x)) if xi.ndim else math.exp(x)


def _entries(branches: int, c, s, e) -> tuple:
    """Row-major entries of the segment matrix for angle cosine c, sine s and
    transmission e (floats, or arrays of one length)."""
    if branches == 2:
        return (c, s, -e * s, e * c)
    # lower splitter, absorber on the middle branch, upper splitter:
    # [[1,0,0],[0,c,-s],[0,s,c]] @ diag(1,e,1) @ [[c,-s,0],[s,c,0],[0,0,1]]
    ce, se = c * e, s * e
    return (c, -s, 0.0, ce * s, ce * c, -s, se * s, se * c, c)


def _segments(branches: int, c, s, e) -> np.ndarray:
    """Segment matrix for angle cosine c, sine s and transmission e.

    Floats give one (k, k) matrix.  An array e gives a (B, k, k) stack; c and
    s are then floats or arrays of the same length.
    """
    entries = _entries(branches, c, s, e)
    if isinstance(e, float):
        return np.array(entries).reshape(branches, branches)
    m = np.empty((len(e), len(entries)))
    for j, entry in enumerate(entries):
        m[:, j] = entry
    return m.reshape(len(e), branches, branches)


# flat positions of the two diagonal blocks' entries in a (2k, 2k) pair
_PAIR_INDEX = {
    k: [(b * k + j // k) * 2 * k + b * k + j % k for b in (0, 1) for j in range(k * k)]
    for k in (2, 3)
}
# the (2k, 2k) pair as packed rows of doubles; 8 zero pad bytes are +0.0
_PAIR_STRUCT = {k: struct.Struct(f"{k}d{8 * k}x" * k + f"{8 * k}x{k}d" * k) for k in (2, 3)}


def _pairs(branches: int, c, s, e1, e2) -> np.ndarray:
    """Block pair [[segment(e1), 0], [0, segment(e2)]]: floats give one
    read-only (2k, 2k) matrix, packed in one step, arrays a (B, 2k, 2k)
    stack, written into one zero array.

    Powers of a block-diagonal matrix are block-diagonal with the powers of
    the blocks, so one power gives both the one- and the two-photon gate.
    Each entry of a block in a product sums the k terms of the (k, k)
    product plus k exact zeros (0 * 0 from the off-diagonal blocks), so the
    blocks equal the powers of the (k, k) segments bit for bit wherever the
    matrix product adds the k terms in the same order at both sizes (it
    does with OpenBLAS; the tests check it).
    """
    entries = _entries(branches, c, s, e1) + _entries(branches, c, s, e2)
    size = 2 * branches
    if isinstance(e1, float):
        return np.ndarray((size, size), buffer=_PAIR_STRUCT[branches].pack(*entries))
    m = np.zeros((len(e1), size * size))
    for j, entry in zip(_PAIR_INDEX[branches], entries):
        m[:, j] = entry
    return m.reshape(len(e1), size, size)


def segment_matrix(geometry: GateGeometry, decay) -> np.ndarray:
    """One absorber-plus-beam-splitter segment acting on the branch amplitudes.

    `decay` is the amplitude decay exponent xi of the absorber branch; +inf is
    accepted and maps to transmission exp(-xi) = 0 exactly.  A scalar decay
    gives one real (k, k) matrix, a 1-D array of B decays a (B, k, k) stack.
    """
    return _segments(geometry.branches, geometry.cos, geometry.sin, _transmission(decay))


def gate_matrix(geometry: GateGeometry, decay) -> np.ndarray:
    """Full N-segment transfer matrix, or a stack of them for a 1-D decay array."""
    return mat_power(segment_matrix(geometry, decay), geometry.segments)


def exact_errors(geometry: GateGeometry, rates: AbsorberRates) -> tuple[float, float]:
    """Exact (P_error_1gamma, P_error_2gamma) from the transfer matrices.

    Without the control photon the gate fails when the target is not found in
    the branch opposite its input; with the control photon it fails when the
    target is not found back in its input branch.  The target enters on the
    first branch; the mirrored three-branch gate, entered on the last
    branch, has the same errors.
    """
    # AbsorberRates has checked the decays; one power of the block pair
    # gives the gate with and without the control photon
    k = geometry.branches
    pair = _pairs(k, geometry.cos, geometry.sin,
                  math.exp(-rates.one_photon), math.exp(-rates.two_photon))
    m = _power_one(pair, geometry.segments)
    # the matrices are real, so |amplitude|^2 is a plain square; the target
    # should leave on the last branch.  a * a, not a ** 2: on a NumPy float
    # ** goes through libm pow, which can differ from the exact product in
    # the last bit, and the batch squares exactly.
    a1, a2 = m.item(k - 1, 0), m.item(k, k)
    return 1.0 - a1 * a1, 1.0 - a2 * a2


def exact_errors_batch(geometry, one_photon, two_photon) -> tuple[np.ndarray, np.ndarray]:
    """Exact P_error_1gamma and P_error_2gamma for arrays of decay exponents.

    `geometry` is one GateGeometry for every element, or a sequence of them
    with one branch count, one per element, so that each element has its own
    N and angle.  Element i equals exact_errors(geometry[i], AbsorberRates(
    one_photon[i], two_photon[i])) bit for bit: the same segment entries,
    powered with the same products.  A negative or NaN exponent, or an empty
    array, raises ValueError.
    """
    x1 = np.asarray(one_photon, dtype=float)
    x2 = np.asarray(two_photon, dtype=float)
    if x1.ndim != 1 or x1.shape != x2.shape:
        raise ValueError("decay exponents must be 1-D arrays of equal length")
    b = len(x1)
    if not b:
        raise ValueError("decay exponents must not be empty")
    if isinstance(geometry, GateGeometry):
        # every element has the same N and angle: one cosine and sine
        k, c, s = geometry.branches, geometry.cos, geometry.sin
        top = geometry.segments
        each = np.array([top])
    else:
        geoms = list(geometry)
        if len(geoms) != b or any(g.branches != geoms[0].branches for g in geoms):
            raise ValueError("give one geometry per element, all with the same branch count")
        k = geoms[0].branches
        c = np.array([g.cos for g in geoms])
        s = np.array([g.sin for g in geoms])
        each = np.array([g.segments for g in geoms])
        top = int(each.max())
    # P1 and P2 of element i as the two blocks of pair i
    m = _power_each(_pairs(k, c, s, _transmission(x1), _transmission(x2)), top, each)
    a1, a2 = m[:, k - 1, 0], m[:, k, k]
    return 1.0 - a1 * a1, 1.0 - a2 * a2


def _inverse(x2):
    """1/xi_2gamma: 0 at inf, and inf at 0, where the truncation diverges
    without any absorber."""
    if isinstance(x2, np.ndarray):
        return 1.0 / x2
    return math.inf if x2 == 0.0 else 1.0 / x2


def leading_errors(geometry: GateGeometry, one_photon, two_photon):
    """Leading-order large-N truncations (P1, P2) of the error probabilities:
    N*xi_1gamma and pi^2/(2*N*xi_2gamma) with two branches, half the first
    and twice the second with three.  Decay exponents are floats or arrays
    of one length (not checked).  They hold for N*xi_2gamma >> 1 >>
    N*xi_1gamma and exceed 1 far outside it."""
    n = geometry.segments
    # arrays go to inf without warnings, as float arithmetic does
    with np.errstate(divide="ignore", over="ignore"):
        inv_x2 = _inverse(two_photon)
        if geometry.branches == 2:
            return n * one_photon, math.pi**2 / (2.0 * n) * inv_x2
        return n * one_photon / 2.0, math.pi**2 / n * inv_x2


def optimal_rates(kappa: float, segments: int, branches: int = 3) -> tuple[AbsorberRates, float]:
    """Error-balancing decay rates at fixed kappa, and the overall error.

    The two error probabilities trade off against the common absorber scale;
    the large-N balance point gives xi_1gamma = pi/(sqrt(2*kappa)*N) and
    xi_2gamma = kappa*xi_1gamma for two branches (sqrt(2)*pi/(sqrt(kappa)*N)
    for three), with overall error pi/sqrt(2*kappa).
    """
    if not 0.0 < kappa < math.inf:  # also rejects NaN
        raise ValueError("kappa must be positive and finite")
    if branches == 2:
        x1 = math.pi / (math.sqrt(kappa) * SQRT2 * segments)
    elif branches == 3:
        x1 = SQRT2 * math.pi / (math.sqrt(kappa) * segments)
    else:
        raise ValueError("branches must be 2 or 3")
    rates = AbsorberRates(one_photon=x1, two_photon=kappa * x1)
    return rates, overall_error(kappa)


def overall_error(kappa: float) -> float:
    """Balanced large-N error pi/sqrt(2*kappa), both gate variants; 0 for a
    perfect absorber (kappa = inf)."""
    if not kappa > 0.0:  # also rejects NaN
        raise ValueError("kappa must be positive")
    return math.pi / math.sqrt(2.0 * kappa)


def required_kappa(p_error: float) -> float:
    """Absorber quality kappa needed for a target error: pi^2/(2*P^2)."""
    if not 0.0 < p_error < 1.0:
        raise ValueError("p_error must lie in (0, 1)")
    return math.pi**2 / (2.0 * p_error**2)


def control_loss_adjusted(kappa: float, segments: int, control_rate: float) -> float:
    """Overall error including control-photon loss: pi/sqrt(2k) + 2*N*xi_c.

    With xi_c as large as the balanced three-branch xi_1gamma the total is
    five times the lossless-control value.
    """
    _check_segments(segments)
    if not control_rate >= 0.0:  # also rejects NaN
        raise ValueError("control loss rate must be >= 0")
    return overall_error(kappa) + 2.0 * segments * control_rate


def zeno_demo_survival(segments: int) -> float:
    """Double-well demo: probability cos(pi/2N)**2N of staying put under N measurements."""
    _check_segments(segments)
    return math.cos(math.pi / (2.0 * segments)) ** (2 * segments)

