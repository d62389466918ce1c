"""Mechanisms boosting two-photon absorption over one-photon loss.

Three routes: (i) sending the photon pair n times through one absorber so
the two-photon amplitudes add coherently (factor n^2) while scattering adds
incoherently (factor n); (ii) keeping s of S emitters coherently excited so
the collective ladder factor (S-s)(s+1) amplifies two-photon absorption
while scattering stays O(S); (iii) the lambda scheme handled in
:mod:`zenogate.absorber`.  A pump-laser steady state sustains the excited
fraction s/S.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .absorber import AtomSpec, pump_safe
from .numerics import ALPHA_QED


@dataclass(frozen=True)
class MultiPassSpec:
    """Repeated-inducing geometry: n passes with optical path L between them.

    k1, k2 are the photon wave numbers (natural units, = omega), tau the
    per-pass interaction strength and g13/g12/g11 the effective per-pass
    couplings for two-photon absorption, one-photon absorption and
    scattering.
    """

    passes: int
    k1: float
    k2: float
    path_length: float
    tau: float
    g13: complex
    g12: complex
    g11: complex

    def __post_init__(self):
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if not self.tau >= 0.0:  # also rejects NaN
            raise ValueError("tau must be >= 0")
        # each probability is at most strength^2: a phase sum has modulus at
        # most n, and the scatter term is strength^2/n
        strength = self.tau * max(abs(self.g13), abs(self.g12), abs(self.g11)) * self.passes
        if not strength <= 1.0:
            raise ValueError(f"tau*|g|*n = {strength:.3g} must be <= 1, or probabilities exceed 1")
        if strength > 0.1:
            warnings.warn(
                f"tau*|g|*n = {strength:.3g} leaves the perturbative regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class MultiPassProbabilities:
    two_photon: float
    one_photon_absorption: float
    one_photon_scatter: float


def phase_sum_sq_closed_form(phase_step: float, count: int) -> float:
    """|sum_{mu<n} exp(i*t*mu)|^2 = (cos(n*t)-1)/(cos(t)-1), in half-angle form.

    sin^2(n*t/2)/sin^2(t/2) is the same expression, better conditioned near
    small t; t is first reduced to [-pi, pi], which keeps that conditioning
    near every point of 2*pi*Z.  Singular at t in 2*pi*Z (where the sum is just n).
    """
    t = math.remainder(phase_step, 2.0 * math.pi)
    s = math.sin(0.5 * t)
    if s == 0.0:
        return float(count**2)
    return (math.sin(0.5 * count * t) / s) ** 2


def multipass_probabilities(spec: MultiPassSpec) -> MultiPassProbabilities:
    """Per-process probabilities after n passes.

    The two-photon amplitude carries the phase (k1+k2)*L per pass, one-photon
    absorption the phase k1*L; the squared moduli of their phase sums come
    from the closed form, in O(1) for any n.  Scattering amplitudes of
    different passes are orthogonal, so only the probabilities add.
    """
    two_phase = (spec.k1 + spec.k2) * spec.path_length
    one_phase = spec.k1 * spec.path_length
    t2, n = spec.tau**2, spec.passes
    return MultiPassProbabilities(
        two_photon=t2 * abs(spec.g13) ** 2 * phase_sum_sq_closed_form(two_phase, n),
        one_photon_absorption=t2 * abs(spec.g12) ** 2 * phase_sum_sq_closed_form(one_phase, n),
        one_photon_scatter=t2 * abs(spec.g11) ** 2 * n,
    )


def quasispin_apply(op: str, s: int, total: int) -> tuple[float, int]:
    """Collective ladder operator on the symmetric state with s excitations.

    raise: coefficient sqrt((S-s)(s+1)) onto s+1; lower: sqrt((S-s+1)s) onto
    s-1.  At the boundaries (raise at s=S, lower at s=0) the coefficient is 0
    and the state is unchanged.
    """
    if not 0 <= s <= total:
        raise ValueError("excitation count must satisfy 0 <= s <= S")
    if op == "raise":
        if s == total:
            return 0.0, s
        return math.sqrt((total - s) * (s + 1)), s + 1
    if op == "lower":
        if s == 0:
            return 0.0, s
        return math.sqrt((total - s + 1) * s), s - 1
    raise ValueError("op must be 'raise' or 'lower'")


def dicke_enhancement(total: int, excited: int) -> tuple[float, float]:
    """(two-photon factor (S-s)(s+1), scatter-factor bound S).

    The scatter bound is the expected order of the random-phase sum; see
    random_phase_sum for the Monte-Carlo validation.
    """
    if not 0 <= excited <= total:
        raise ValueError("excitation count must satisfy 0 <= s <= S")
    return float((total - excited) * (excited + 1)), float(total)


def random_phase_sum(
    total: int,
    delta_k: np.ndarray,
    box_size: float,
    seed: int,
    trials: int,
) -> tuple[float, float]:
    """Monte-Carlo mean of |sum_l exp(i r_l . delta_k)|^2 over box placements.

    Emitters are placed uniformly in an axis-aligned cube of the given edge
    length.  Deterministic for a given seed; trial t draws from a generator
    seeded with (seed, t), so results do not depend on evaluation order.
    Returns (mean, standard error of the mean).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if total < 0:
        raise ValueError("emitter count S must be >= 0")
    if not box_size >= 0.0:  # also rejects NaN
        raise ValueError("box size must be >= 0")
    delta_k = np.asarray(delta_k, dtype=float)
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        positions = rng.uniform(0.0, box_size, size=(total, 3))
        values[t] = abs(np.sum(np.exp(1j * (positions @ delta_k)))) ** 2
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


@dataclass(frozen=True)
class PumpSpec:
    """Two pump lasers sustaining the coherent excitation of the absorber.

    Intensities in natural units (eV^4); pump frequencies must satisfy the
    same temporal phase matching as the gate photons,
    omega1p + omega2p = omega1 + omega2.
    """

    atom: AtomSpec
    intensity1: float
    intensity2: float
    detuning: float            # pump detuning Delta' from the middle level
    omega1p: float
    omega2p: float
    emitter_count: float = 1.0

    def __post_init__(self):
        target = self.atom.omega1 + self.atom.omega2
        if abs((self.omega1p + self.omega2p) - target) > 1e-9 * target:
            raise ValueError("pump frequencies must satisfy omega1p+omega2p = omega1+omega2")
        if self.detuning == 0.0:
            raise ValueError("pump detuning must be non-zero")
        if not min(self.intensity1, self.intensity2) >= 0.0:  # also rejects NaN
            raise ValueError("pump intensity must be >= 0")
        if not self.emitter_count >= 0.0:
            raise ValueError("emitter count S must be >= 0")

    @classmethod
    def balanced(
        cls,
        atom: AtomSpec,
        intensity: float,
        detuning: float,
        emitter_count: float = 1.0,
    ) -> "PumpSpec":
        """Equal-intensity pumps at the mean gate-photon frequency."""
        half = 0.5 * (atom.omega1 + atom.omega2)
        return cls(
            atom=atom,
            intensity1=intensity,
            intensity2=intensity,
            detuning=detuning,
            omega1p=half,
            omega2p=half,
            emitter_count=emitter_count,
        )


@dataclass(frozen=True)
class PumpSteadyState:
    coherent_amplitude: complex   # steady-state amplitude of the collective mode
    excited_fraction: float       # s/S
    pump_safe: bool


def pump_steady_state(spec: PumpSpec) -> PumpSteadyState:
    """Coherent steady state of the pumped collective mode.

    The collective spin bosonized for s << S is a driven oscillator whose
    steady state carries |alpha|^2 = s excitations with
    s/S = (4*pi*alpha*E12*E23*l^2 / (w1p*w2p*(w1p+w2p)*Delta'))^2 * I1*I2.
    pump_safe reports whether Delta' clears the middle-level threshold
    sqrt(4*pi*alpha*I)*l by a factor of ten.
    """
    atom = spec.atom
    e13 = atom.e12 + atom.e23
    inner = (
        4.0
        * math.pi
        * ALPHA_QED
        * atom.e12
        * atom.e23
        * atom.dipole_length**2
        / (spec.omega1p * spec.omega2p * (spec.omega1p + spec.omega2p) * spec.detuning)
    )
    fraction = inner**2 * spec.intensity1 * spec.intensity2
    if not fraction <= 1.0:  # also rejects NaN; s << S is the model's premise
        raise ValueError(f"pump intensity gives s/S = {fraction:g}, above 1")
    coupling = math.sqrt(fraction) * e13  # |g| with s/S = |g/E13|^2
    alpha_g = -coupling * math.sqrt(spec.emitter_count) / e13
    worst = max(spec.intensity1, spec.intensity2)
    return PumpSteadyState(
        coherent_amplitude=complex(alpha_g),
        excited_fraction=fraction,
        pump_safe=pump_safe(spec.detuning, worst, atom.dipole_length),
    )


def upconversion_detunings(atom: AtomSpec) -> tuple[float, float]:
    """Energy mismatches of collective one-photon upconversion.

    Absorbing one gate photon and emitting a higher-energy one is detuned by
    (E23 + omega1) and (E12 + omega1), both comparable to optical energies,
    so the process is negligible next to the resonant two-photon channel and
    excluded from all probability totals.
    """
    return atom.e23 + atom.omega1, atom.e12 + atom.omega1
