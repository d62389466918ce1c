"""Small real/complex matrix algebra, physical constants, unit conversions,
a golden-section minimizer and a sign bisection.

Everything downstream works in natural units (hbar = c = eps0 = 1) with the
electron-volt as the base scale: energies and angular frequencies in eV,
lengths in 1/eV, areas in 1/eV^2, intensities in eV^4.  SI enters only at
the boundary through :func:`convert`.

Convention: a frequency quoted in "Hz" or "1/s" is read as an *angular*
frequency in s^-1.  This reading is the one under which the quoted
cross-check holds: 1e14 1/s corresponds to hbar*omega ~ 0.0658 eV, i.e.
"above 1e14 Hz" and "above 0.06 eV" describe the same threshold.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018
ALPHA_QED = 7.2973525693e-3          # fine-structure constant
HBAR_EV_S = 6.582119569e-16          # hbar in eV*s
HBARC_EV_NM = 197.3269804            # hbar*c in eV*nm
C_M_PER_S = 299792458.0              # speed of light
ELECTRON_MASS_EV = 510998.95000      # electron rest energy
BOHR_RADIUS_NM = 0.052917721090380
BOHR_RADIUS_INV_EV = BOHR_RADIUS_NM / HBARC_EV_NM   # Bohr radius, natural units

# 1 W/cm^2 expressed in eV^4:  1 W = (1 J/eV_charge)*hbar eV^2, 1 cm^2 in 1/eV^2.
_EV_PER_JOULE = 1.0 / 1.602176634e-19
_WATT_EV2 = _EV_PER_JOULE * HBAR_EV_S
_CM2_INV_EV2 = (1e7 / HBARC_EV_NM) ** 2
WATT_PER_CM2_EV4 = _WATT_EV2 / _CM2_INV_EV2


class UnitError(ValueError):
    """Raised for an unknown unit or a conversion between incompatible kinds."""


# unit label -> (kind, scale to the natural base unit of that kind); angular
# frequency is kept in 1/s, so the energy<->frequency hop through hbar is explicit
_UNITS = {
    "eV": ("energy", 1.0),
    "meV": ("energy", 1e-3),
    "1/s": ("angular_frequency", 1.0),
    "Hz": ("angular_frequency", 1.0),   # angular convention, see module docstring
    "rad/s": ("angular_frequency", 1.0),
    "nm": ("length", 1.0 / HBARC_EV_NM),
    "um": ("length", 1e3 / HBARC_EV_NM),
    "m": ("length", 1e9 / HBARC_EV_NM),
    "1/eV": ("length", 1.0),
    "nm^2": ("area", 1.0 / HBARC_EV_NM**2),
    "cm^2": ("area", _CM2_INV_EV2),
    "m^2": ("area", 1e18 / HBARC_EV_NM**2),
    "1/eV^2": ("area", 1.0),
    "W/cm^2": ("intensity", WATT_PER_CM2_EV4),
    "eV^4": ("intensity", 1.0),
    "": ("dimensionless", 1.0),
    "dimensionless": ("dimensionless", 1.0),
}

def unit_kind(unit: str) -> str:
    """Kind ('energy', 'length', ...) a unit label belongs to."""
    try:
        return _UNITS[unit][0]
    except KeyError:
        raise UnitError(f"unknown unit {unit!r}") from None


def convert(value: float, unit: str, target: str) -> float:
    """value, given in unit, expressed in the target unit.

    Within a kind this is a pure rescaling.  Across kinds the supported hops
    are energy <-> angular frequency (E = hbar*omega) and wavelength <->
    angular frequency (omega = 2*pi*c/lambda); length -> energy composes the
    two, i.e. reads the length as a vacuum wavelength.
    """
    src_kind, dst_kind = unit_kind(unit), unit_kind(target)
    src_scale, dst_scale = _UNITS[unit][1], _UNITS[target][1]
    if src_kind == dst_kind:
        return value * (src_scale / dst_scale)  # exact for equal scales

    base = value * src_scale  # natural base unit of src_kind
    pair = (src_kind, dst_kind)
    if pair == ("energy", "angular_frequency"):
        out = base / HBAR_EV_S
    elif pair == ("angular_frequency", "energy"):
        out = base * HBAR_EV_S
    elif pair == ("length", "angular_frequency"):
        lam_m = base * HBARC_EV_NM * 1e-9  # back to metres
        out = 2.0 * np.pi * C_M_PER_S / lam_m
    elif pair == ("angular_frequency", "length"):
        lam_m = 2.0 * np.pi * C_M_PER_S / base
        out = lam_m * 1e9 / HBARC_EV_NM
    elif pair in (("length", "energy"), ("energy", "length")):
        return convert(convert(value, unit, "1/s"), "1/s", target)
    else:
        raise UnitError(f"no conversion from {src_kind} to {dst_kind}")
    return out / dst_scale


def _check_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.dtype.kind not in "fc":
        m = m.astype(float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 3):
        raise ValueError("expected a 2x2 or 3x3 matrix, or a (B, k, k) stack of them")
    return m


def mat_power(m: np.ndarray, n: int) -> np.ndarray:
    """m**n for a 2x2 or 3x3 matrix, or for every matrix of a (B, k, k) stack.

    Binary exponentiation that starts from the lowest set bit of n, so no
    identity factor enters.  The dtype of m is kept: real stays real.  n = 0
    returns the identity; n must not be negative.
    """
    m = _check_matrix(m)
    if n < 0:
        raise ValueError("negative matrix powers are not supported")
    k = int(n)
    if m.ndim == 3:
        return _power_each(m, k, np.array([k]))
    return _power_one(m, k)


def _power_one(m: np.ndarray, n: int) -> np.ndarray:
    """m**n for one square matrix of any order, n >= 0 (no checks)."""
    if n == 0:
        return np.eye(m.shape[-1], dtype=m.dtype)
    # ndarray.dot has a fraction of matmul's call overhead on one small matrix
    base, result = m, None
    while True:
        if n & 1:
            result = base if result is None else result.dot(base)
        n >>= 1
        if not n:
            return m.copy() if result is m else result
        base = base.dot(base)


def _power_each(m: np.ndarray, n: int, ks: np.ndarray) -> np.ndarray:
    """Powers of a stack of square matrices of any order (no checks): ks holds
    one power in [0, n] per matrix, or one for all.

    The squarings up to n are shared, and at each bit only the matrices whose
    power has that bit are multiplied in.  Every matrix goes through the same
    products in the same order as on its own, so slice b equals
    mat_power(m[b], ks[b]) bit for bit.
    """
    # for every bit j (rows) and power (columns): does the matrix multiply
    # m**(2**j) into its product (more), or does its product start there
    # (first, its lowest set bit)?
    j = np.arange(n.bit_length())[:, None]
    take = (ks >> j) & 1 == 1
    below = ks & ((1 << j) - 1) != 0

    def per_bit(mask):
        # None where no matrix has the bit, True where all do, else the mask
        counts, mask = mask.sum(axis=1).tolist(), mask[:, :, None, None]
        return [None if c == 0 else True if c == len(ks) else mask[i]
                for i, c in enumerate(counts)]

    more, first = per_bit(take & below), per_bit(take & ~below)
    # slices with no bit set yet are overwritten, but the masked products run
    # over them too: a copy of m, not np.empty garbage (subnormals slow matmul)
    result, base = m.copy(), m
    # every product goes into the spare work array through out=, and the
    # array it replaces becomes the spare; m itself is never written
    spare = np.empty(m.shape, m.dtype)
    for bit in range(len(more)):
        if bit:
            np.matmul(base, base, out=spare)
            base, spare = spare, np.empty(m.shape, m.dtype) if base is m else base
        if more[bit] is True:
            np.matmul(result, base, out=spare)
            result, spare = spare, result
        elif more[bit] is not None:
            np.matmul(result, base, out=spare)
            np.copyto(result, spare, where=more[bit])
        if first[bit] is not None:
            np.copyto(result, base, where=first[bit])
    if ks.min(initial=1) == 0:
        np.copyto(result, np.eye(m.shape[-1], dtype=m.dtype), where=(ks == 0)[:, None, None])
    return result


def bisect(f, lo: float, hi: float, tol: float, max_steps: int | None = None):
    """Bisection on the sign of f: the final bracket (lo, hi).

    Evaluates f at lo, then at hi, then at midpoints.  A midpoint where
    f < 0 replaces lo, any other replaces hi.  Stops once hi - lo <= tol,
    after max_steps midpoints, or when the midpoint is an end (adjacent
    floats: no later step would move one).  None after the two ends when
    f(lo) > 0 or f(hi) < 0, which bracket no sign change.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        return None
    steps = 0
    while hi - lo > tol and steps != max_steps:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return lo, hi


def golden_minimize(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]:
    the midpoint of the first bracket no wider than tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)

