"""Small real/complex matrix algebra, physical constants, unit conversions
and a golden-section minimizer.

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
from dataclasses import dataclass

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
    """Raised for arithmetic or conversion between incompatible unit kinds."""


# unit label -> (kind, scale to the natural base unit of that kind)
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

# natural base unit per kind (angular frequency is kept in 1/s so that the
# energy<->frequency hop through hbar stays explicit)
_BASE_UNIT = {
    "energy": "eV",
    "angular_frequency": "1/s",
    "length": "1/eV",
    "area": "1/eV^2",
    "intensity": "eV^4",
    "dimensionless": "",
}


def unit_kind(unit: str) -> str:
    """Kind ('energy', 'length', ...) a unit label belongs to."""
    try:
        return _UNITS[unit][0]
    except KeyError:
        raise UnitError(f"unknown unit {unit!r}") from None


@dataclass(frozen=True)
class Quantity:
    """A scalar with a unit label; addition requires matching kinds."""

    value: float
    unit: str = ""

    def __post_init__(self):
        unit_kind(self.unit)  # validates the label

    @property
    def kind(self) -> str:
        return _UNITS[self.unit][0]

    def to(self, target: str) -> "Quantity":
        return convert(self, target)

    def _check(self, other: "Quantity"):
        if not isinstance(other, Quantity):
            raise UnitError("expected a Quantity")
        if self.kind != other.kind:
            raise UnitError(f"incompatible kinds: {self.kind} vs {other.kind}")

    def __add__(self, other):
        self._check(other)
        return Quantity(self.value + other.to(self.unit).value, self.unit)

    def __sub__(self, other):
        self._check(other)
        return Quantity(self.value - other.to(self.unit).value, self.unit)

    def __mul__(self, scalar):
        if isinstance(scalar, Quantity):
            raise UnitError("only scalar multiplication is supported")
        return Quantity(self.value * scalar, self.unit)

    __rmul__ = __mul__


def convert(q: Quantity, target: str) -> Quantity:
    """Convert between compatible units.

    Within a kind this is a pure rescaling.  Across kinds the supported hops
    are energy <-> angular frequency (E = hbar*omega) and wavelength <->
    angular frequency (omega = 2*pi*c/lambda); length -> energy composes the
    two, i.e. reads the length as a vacuum wavelength.
    """
    src_kind, src_scale = _UNITS[q.unit]
    dst_kind, dst_scale = _UNITS[target]
    if src_kind == dst_kind:
        return Quantity(q.value * src_scale / dst_scale, target)

    base = q.value * src_scale  # natural base unit of src_kind
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
    elif pair == ("length", "energy"):
        return convert(convert(q, "1/s"), target)
    elif pair == ("energy", "length"):
        return convert(convert(q, "1/s"), target)
    else:
        raise UnitError(f"no conversion from {src_kind} to {dst_kind}")
    return Quantity(out / dst_scale, target)


@dataclass(frozen=True)
class PhysicalConstants:
    alpha_qed: float = ALPHA_QED
    bohr_radius: Quantity = Quantity(BOHR_RADIUS_NM, "nm")
    electron_mass: Quantity = Quantity(ELECTRON_MASS_EV, "eV")


CONSTANTS = PhysicalConstants()


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
    if k == 0:
        return np.broadcast_to(np.eye(m.shape[-1], dtype=m.dtype), m.shape).copy()
    # ndarray.dot has a fraction of matmul's call overhead on one small
    # matrix; on a stack it would contract across matrices, so use matmul
    mul = np.matmul if m.ndim == 3 else np.ndarray.dot
    base, result = m, None
    while True:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if not k:
            return m.copy() if result is m else result
        base = mul(base, base)


def golden_minimize(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
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


def rotation2(angle: float) -> np.ndarray:
    """2x2 rotation [[cos, sin], [-sin, cos]] used by the beam splitters."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)
