"""Three-level absorber physics: couplings, absorption and scattering.

A single atom with levels 1s-2p-3s absorbs the photon pair resonantly
(omega_1 + omega_2 equals the 1s-3s spacing) while one-photon absorption is
blocked by the detuning Delta of each photon from the intermediate level.
The surviving one-photon loss channel is scattering.  All quantities are in
natural units (energies in eV, lengths in 1/eV); the photon wave packets
are characterized only by their transverse cross-section area.

The long-lived-middle-level variant (lambda scheme) is modeled purely as a
coupling-strength ratio f = g12/g23 applied multiplicatively: the
two-photon absorption picks up f^2, the scattering f^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .numerics import (
    ALPHA_QED,
    BOHR_RADIUS_INV_EV,
    ELECTRON_MASS_EV,
    HBAR_EV_S,
    HBARC_EV_NM,
    convert,
)

FOUR_PI_ALPHA = 4.0 * math.pi * ALPHA_QED


class RatioUnboundedError(ZeroDivisionError):
    """One-photon scattering vanishes (destructive interference); the
    absorption ratio has no finite value."""


class NoRealSolutionError(ValueError):
    """Destructive interference needs 2*m*l^2*E12 <= 1 (infrared regime)."""


@dataclass(frozen=True)
class AtomSpec:
    """Three-level absorber parameters, natural units (eV based).

    Level spacings e12, e23; target/control photon frequencies omega1,
    omega2 with detunings Delta = e12 - omega1 and Delta_c = e12 - omega2;
    dipole coupling length, electron mass, beam cross-section area, and the
    coupling ratio f (g12/g23) used by the lambda-scheme variant.
    """

    e12: float
    e23: float
    omega1: float
    omega2: float
    detuning: float
    detuning_control: float
    dipole_length: float
    beam_area: float
    electron_mass: float = ELECTRON_MASS_EV
    coupling_ratio: float = 1.0
    lambda_scheme: bool = False

    def __post_init__(self):
        if min(self.dipole_length, self.beam_area, self.coupling_ratio) <= 0.0:
            raise ValueError("dipole_length, beam_area and coupling_ratio must be > 0")
        if abs((self.omega1 + self.omega2) - (self.e12 + self.e23)) > 1e-9 * (self.e12 + self.e23):
            raise ValueError("photons must be two-photon resonant: omega1+omega2 = e12+e23")
        if abs(self.detuning - (self.e12 - self.omega1)) > 1e-9 * max(self.e12, 1.0):
            raise ValueError("detuning must equal e12 - omega1")
        if abs(self.detuning_control - (self.e12 - self.omega2)) > 1e-9 * max(self.e12, 1.0):
            raise ValueError("detuning_control must equal e12 - omega2")

    @classmethod
    def from_photon(
        cls,
        omega1: float,
        detuning: float,
        detuning_control: float | None = None,
        dipole_length: float = 6.0 * BOHR_RADIUS_INV_EV,
        beam_area: float | None = None,
        coupling_ratio: float = 1.0,
        lambda_scheme: bool = False,
    ) -> "AtomSpec":
        """Build a consistent spec from the target photon and its detunings.

        detuning_control defaults to ten times the target detuning; the beam
        area defaults to the diffraction limit (lambda/2)^2 of the target
        photon.
        """
        if detuning_control is None:
            detuning_control = 10.0 * detuning
        e12 = omega1 + detuning
        omega2 = e12 - detuning_control
        e23 = omega1 + omega2 - e12
        if beam_area is None:
            beam_area = diffraction_limited_area(convert(omega1, "eV", "nm"))
        return cls(
            e12=e12,
            e23=e23,
            omega1=omega1,
            omega2=omega2,
            detuning=detuning,
            detuning_control=detuning_control,
            dipole_length=dipole_length,
            beam_area=beam_area,
            coupling_ratio=coupling_ratio,
            lambda_scheme=lambda_scheme,
        )

    def with_lambda_scheme(self, coupling_ratio: float) -> "AtomSpec":
        return replace(self, coupling_ratio=coupling_ratio, lambda_scheme=True)


def diffraction_limited_area(wavelength_nm: float) -> float:
    """Beam cross-section (lambda/2)^2 at the diffraction limit, in 1/eV^2."""
    half = 0.5 * wavelength_nm / HBARC_EV_NM
    if not half * half > 0.0:  # (lambda/2)^2 underflows for tiny lambda
        raise ValueError("wavelength too short: the beam area (lambda/2)^2 is 0")
    return half * half


def optical_example(
    wavelength_nm: float = 500.0,
    detuning_inv_s: float = 3e12,
    detuning_control_inv_s: float = 3e13,
) -> AtomSpec:
    """Optical-regime example: 500 nm photons focused to the diffraction limit."""
    return AtomSpec.from_photon(
        omega1=convert(wavelength_nm, "nm", "eV"),
        detuning=detuning_inv_s * HBAR_EV_S,
        detuning_control=detuning_control_inv_s * HBAR_EV_S,
        beam_area=diffraction_limited_area(wavelength_nm),
    )


@dataclass(frozen=True)
class CouplingSet:
    """Transition couplings; g13_bound is an upper estimate, g_eff = g12*g23/Delta."""

    g12: float
    g23: float
    g13_bound: float
    g11: float
    g_eff: float


def coupling_constants(spec: AtomSpec) -> CouplingSet:
    """Coupling magnitudes for aligned polarization.

    g12 and g23 follow the dipole matrix elements; the lambda scheme replaces
    g12 by f*g23.  g13_bound is the quadratic-order estimate of the direct
    two-photon coupling and g11 the direct scattering coupling, both through
    the quadratic field term.
    """
    ell = spec.dipole_length
    four_pi2 = (2.0 * math.pi) ** 2
    g12 = spec.e12 * math.sqrt(ALPHA_QED / (four_pi2 * spec.omega1)) * ell
    g23 = spec.e23 * math.sqrt(ALPHA_QED / (four_pi2 * spec.omega2)) * ell
    if spec.lambda_scheme:
        g12 = spec.coupling_ratio * g23
    ksum2 = (spec.omega1 + spec.omega2) ** 2  # |k1+k2|^2 for parallel photons
    g13 = ALPHA_QED / (4.0 * four_pi2 * spec.electron_mass) * ksum2 * ell**2 / math.sqrt(
        spec.omega1 * spec.omega2
    )
    g11 = ALPHA_QED / (four_pi2 * spec.electron_mass) / math.sqrt(spec.omega1 * spec.omega2)
    g_eff = g12 * g23 / spec.detuning if spec.detuning != 0.0 else math.inf
    return CouplingSet(g12=g12, g23=g23, g13_bound=g13, g11=g11, g_eff=g_eff)


def two_photon_absorption_prob(spec: AtomSpec) -> float:
    """Resonant two-photon absorption probability of a single atom.

    P = (4*alpha^2 / (pi^2*w1*w2)) * (E12^2*E23^2/Delta^2) * (l^4/A^2),
    times f^2 in the lambda scheme.  Only the transverse beam area enters,
    not the wave-packet length.  Valid for detunings far above the natural
    linewidth of the middle level (linewidth is not modeled).
    """
    if spec.detuning == 0.0:
        raise ValueError("two-photon absorption needs a non-zero detuning")
    p = (
        4.0
        * ALPHA_QED**2
        / (math.pi**2 * spec.omega1 * spec.omega2)
        * (spec.e12**2 * spec.e23**2 / spec.detuning**2)
        * spec.dipole_length**4
        / spec.beam_area**2
    )
    if spec.lambda_scheme:
        p *= spec.coupling_ratio**2
    return _single_atom(p, "two-photon absorption")


def scattering_bracket(spec: AtomSpec, detuning: float, include_a2_term: bool = True) -> float:
    """Amplitude bracket E12^2/Delta - 1/(m*l^2) of one scattering channel."""
    first = spec.e12**2 / detuning
    if not include_a2_term:
        return first
    return first - 1.0 / (spec.electron_mass * spec.dipole_length**2)


def one_photon_scattering_prob(
    spec: AtomSpec,
    include_control: bool = True,
    include_a2_term: bool = True,
) -> float:
    """One-photon scattering probability of a single atom.

    Sums (8*alpha^2/(3*pi)) * [E12^2/Delta_z - 1/(m*l^2)]^2 * l^4/A over the
    requested photons; include_a2_term=False drops the direct quadratic-field
    channel, include_control=False the control-photon term.  Times f^4 in
    the lambda scheme.
    """
    detunings = [spec.detuning]
    if include_control:
        detunings.append(spec.detuning_control)
    total = 0.0
    for d in detunings:
        if d == 0.0:
            raise ValueError("scattering needs non-zero detunings")
        total += scattering_bracket(spec, d, include_a2_term) ** 2
    p = 8.0 * ALPHA_QED**2 / (3.0 * math.pi) * total * spec.dipole_length**4 / spec.beam_area
    if spec.lambda_scheme:
        p *= spec.coupling_ratio**4
    return _single_atom(p, "one-photon scattering")


def _single_atom(p: float, process: str) -> float:
    """p, if at most 1 (first-order perturbation theory holds for p << 1)."""
    if not p <= 1.0:  # also rejects NaN
        raise ValueError(f"single-atom {process} probability {p:.3g} exceeds 1: "
                         "the beam area is too small for the dipole length")
    return p


def absorption_ratio(spec: AtomSpec) -> float:
    """Closed-form quality ratio P_2gamma/P_1gamma of the absorber.

    kappa_0 = (1/(pi*w1*w2*A)) * (3*E23^2 / (2*E12^2)), divided by f^2 in
    the lambda scheme.  This is the quotient with the control-photon and
    direct-scattering channels dropped; at the diffraction limit with all
    energies equal it reduces to 3/(2*pi^3).
    """
    k0 = (
        1.0
        / (math.pi * spec.omega1 * spec.omega2 * spec.beam_area)
        * 1.5
        * spec.e23**2
        / spec.e12**2
    )
    if spec.lambda_scheme:
        k0 /= spec.coupling_ratio**2
    return k0


def measured_absorption_ratio(
    spec: AtomSpec,
    include_control: bool = True,
    include_a2_term: bool = True,
) -> float:
    """P_2gamma/P_1gamma as the quotient of the two probability routines.

    Raises RatioUnboundedError when the scattering vanishes (the destructive
    interference point).
    """
    p1 = one_photon_scattering_prob(spec, include_control, include_a2_term)
    if p1 == 0.0:
        raise RatioUnboundedError("one-photon scattering interferes to zero")
    return two_photon_absorption_prob(spec) / p1


def destructive_interference_frequency(
    e12: float,
    dipole_length: float,
    electron_mass: float = ELECTRON_MASS_EV,
) -> tuple[float, float]:
    """Photon frequency cancelling the two scattering channels.

    Returns (omega, e23) with omega1 = omega2 = E12*sqrt(1 - 2*m*l^2*E12)
    and E23 = 2*omega - E12 from two-photon resonance.  A real solution
    requires the infrared regime 2*m*l^2*E12 <= 1.
    """
    x = 2.0 * electron_mass * dipole_length**2 * e12
    if x > 1.0:
        raise NoRealSolutionError(
            "no real interference frequency: 2*m*l^2*E12 > 1 (needs the infrared regime)"
        )
    omega = e12 * math.sqrt(1.0 - x)
    return omega, 2.0 * omega - e12


def interference_residual(
    e12: float,
    omega: float,
    dipole_length: float,
    electron_mass: float = ELECTRON_MASS_EV,
) -> float:
    """Full interference bracket E12^2*l^2*(1/(E12-w) + 1/(E12+w)) - 1/m."""
    return e12**2 * dipole_length**2 * (
        1.0 / (e12 - omega) + 1.0 / (e12 + omega)
    ) - 1.0 / electron_mass


def middle_level_population(g12_a1: complex, g23_a2: complex, detuning: float) -> complex:
    """Adiabatic middle-level amplitude -(g12*A1 + g23*A2)/Delta'.

    Valid for |g*A| << Delta'; use pump_safe to check the driving regime.
    """
    if detuning == 0.0:
        raise ValueError("detuning must be non-zero")
    return -(g12_a1 + g23_a2) / detuning


def pump_detuning_threshold(intensity: float, dipole_length: float) -> float:
    """Scale sqrt(4*pi*alpha*I)*l the pump detuning must exceed.

    `intensity` in natural units (eV^4): convert(x, "W/cm^2", "eV^4").
    """
    return math.sqrt(FOUR_PI_ALPHA * intensity) * dipole_length


def pump_safe(detuning: float, intensity: float, dipole_length: float) -> bool:
    """Whether Delta' clears the middle-level threshold by a factor of ten."""
    return detuning >= 10.0 * pump_detuning_threshold(intensity, dipole_length)

