"""Enhancement-mechanism tests: multi-pass, quasispin, Monte Carlo, pump."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from zenogate.absorber import absorption_ratio, optical_example
from zenogate.enhancement import (
    MultiPassProbabilities,
    MultiPassSpec,
    PumpSpec,
    dicke_enhancement,
    multipass_probabilities,
    phase_sum_sq_closed_form,
    pump_steady_state,
    quasispin_apply,
    random_phase_sum,
    upconversion_detunings,
)
from zenogate.numerics import HBAR_EV_S, convert
from zenogate.oracles import dense_quasispin_raise, phase_sum, symmetric_state

TWO_PI = 2.0 * math.pi


def matched_spec(n, tau=1e-4, g13=1.0, g12=1.0, g11=1.0):
    """(k1+k2)*L = 2*pi with k1*L at an irrational multiple of pi."""
    k1 = TWO_PI / math.e
    return MultiPassSpec(passes=n, k1=k1, k2=TWO_PI - k1, path_length=1.0,
                         tau=tau, g13=g13, g12=g12, g11=g11)


class TestMultiPass:
    def test_phase_matched_two_photon_gain_is_n_squared(self):
        n = 16
        probs = multipass_probabilities(matched_spec(n))
        single = multipass_probabilities(matched_spec(1))
        assert probs.two_photon == pytest.approx(n**2 * single.two_photon, rel=1e-12)
        assert probs.one_photon_scatter == pytest.approx(
            n * single.one_photon_scatter, rel=1e-12
        )
        # mismatched one-photon phases keep the absorption bounded
        bound = 1.0 / math.sin(0.5 * TWO_PI / math.e) ** 2
        assert probs.one_photon_absorption <= (1e-4) ** 2 * bound

    def test_single_pass_reduction(self):
        probs = multipass_probabilities(matched_spec(1))
        assert probs.two_photon == pytest.approx(1e-8, rel=1e-12)
        assert probs.one_photon_absorption == pytest.approx(1e-8, rel=1e-12)
        assert probs.one_photon_scatter == pytest.approx(1e-8, rel=1e-12)

    def test_ratio_grows_linearly_in_passes(self):
        base = multipass_probabilities(matched_spec(1))
        r1 = base.two_photon / base.one_photon_scatter
        for n in (2, 7, 32):
            probs = multipass_probabilities(matched_spec(n))
            assert (probs.two_photon / probs.one_photon_scatter) / r1 == pytest.approx(
                n, rel=1e-10
            )

    def test_phase_sum_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            theta = rng.uniform(0.05, TWO_PI - 0.05)
            if abs(theta - TWO_PI) < 0.05:
                continue
            for n in (1, 3, 17, 160, 2000, 10_000):
                brute = abs(phase_sum(theta, n)) ** 2
                closed = phase_sum_sq_closed_form(theta, n)
                assert brute == pytest.approx(closed, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n", [16, 100, 1000, 10**5])
    @pytest.mark.parametrize("theta", [TWO_PI, 4.0 * math.pi + 1e-9, 0.5])
    def test_closed_form_matches_50_digits(self, theta, n):
        # near t in 2*pi*Z: at t = fl(2*pi) the unreduced form gave 257.3 for
        # n = 100 (|S|^2 = 1e4) and 6.89e6 > n^2 for n = 1000
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            t = mpmath.mpf(theta)
            ref = (mpmath.sin(n * t / 2) / mpmath.sin(t / 2)) ** 2
        closed = phase_sum_sq_closed_form(theta, n)
        assert abs(closed - ref) <= 1e-9 * ref
        assert closed <= n**2

    def test_many_passes_take_constant_time_and_memory(self):
        spec = MultiPassSpec(passes=10**8, k1=1.0, k2=1.0, path_length=1.0,
                             tau=0.0, g13=1.0, g12=1.0, g11=1.0)
        tracemalloc.start()
        start = time.perf_counter()
        probs = multipass_probabilities(spec)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert probs == MultiPassProbabilities(0.0, 0.0, 0.0)
        assert elapsed < 0.5 and peak < 1e6

    def test_one_photon_phase_sum_is_bounded(self):
        for theta in (0.3, 1.0, 2.0):
            bound = 1.0 / math.sin(theta / 2) ** 2
            acc = 0.0 + 0.0j
            worst = 0.0
            for mu in range(10_000):
                acc += np.exp(1j * theta * mu)
                worst = max(worst, abs(acc) ** 2)
            assert worst <= bound * (1 + 1e-12)

    def test_perturbative_warning(self):
        with pytest.warns(UserWarning):
            MultiPassSpec(passes=1000, k1=1.0, k2=1.0, path_length=1.0,
                          tau=1e-3, g13=1.0, g12=1.0, g11=1.0)

    @pytest.mark.parametrize("tau, passes, word", [
        (-1.0, 16, "tau"),             # a negative strength gave p_2gamma = 256
        (math.nan, 16, "tau"),
        (0.1, 16, "1.6"),              # tau*|g|*n > 1 gave p_2gamma = 2.56
        (1e-3, 100_000_000, "1e+05"),  # rejected before any phase sum is built
    ])
    def test_strength_above_one_is_rejected(self, tau, passes, word):
        with pytest.raises(ValueError, match=re.escape(word)):
            MultiPassSpec(passes=passes, k1=1.0, k2=1.0, path_length=1.0,
                          tau=tau, g13=1.0, g12=1.0, g11=1.0)


class TestQuasispin:
    def test_ground_state_raise(self):
        coeff, s = quasispin_apply("raise", 0, 16)
        assert coeff == math.sqrt(16.0)
        assert s == 1

    def test_boundaries_return_zero(self):
        assert quasispin_apply("raise", 5, 5) == (0.0, 5)
        assert quasispin_apply("lower", 0, 5) == (0.0, 0)

    def test_raise_then_lower_consistency(self):
        for total in (3, 9, 41):
            for s in range(total):
                up, s_up = quasispin_apply("raise", s, total)
                down, s_down = quasispin_apply("lower", s_up, total)
                assert s_down == s
                assert up * down == pytest.approx((total - s) * (s + 1), rel=1e-12)

    @pytest.mark.parametrize("total", [2, 4, 6])
    def test_dense_product_space_oracle(self, total):
        rng = np.random.default_rng(total)
        phases = rng.uniform(0, TWO_PI, size=total)
        plus = dense_quasispin_raise(total, phases)
        for s in range(total):
            state = symmetric_state(total, s, phases)
            coeff, s_next = quasispin_apply("raise", s, total)
            target = symmetric_state(total, s_next, phases)
            assert np.max(np.abs(plus @ state - coeff * target)) < 1e-12

    @pytest.mark.parametrize("total", [2, 5, 6])
    def test_su2_commutators(self, total):
        rng = np.random.default_rng(100 + total)
        phases = rng.uniform(0, TWO_PI, size=total)
        plus = dense_quasispin_raise(total, phases)
        minus = plus.conj().T
        dim = 2**total
        z = np.diag([bin(i).count("1") - total / 2 for i in range(dim)]).astype(complex)
        assert np.max(np.abs(plus @ minus - minus @ plus - 2 * z)) < 1e-12
        assert np.max(np.abs(z @ plus - plus @ z - plus)) < 1e-12
        assert np.max(np.abs(z @ minus - minus @ z + minus)) < 1e-12


class TestDickeEnhancement:
    def test_ground_ensemble_factor_is_emitter_count(self):
        two, bound = dicke_enhancement(1000, 0)
        assert two == 1000.0
        assert bound == 1000.0

    def test_large_ensemble_example(self):
        total, excited = 160_000_000, 2720
        two, _ = dicke_enhancement(total, excited)
        assert two == pytest.approx(4.35e11, rel=1e-2)
        assert two / total == pytest.approx(excited, rel=1e-2)

    def test_factor_per_emitter_approaches_excitations_plus_one(self):
        total, excited = 10**9, 5
        two, _ = dicke_enhancement(total, excited)
        assert two / total == pytest.approx(excited + 1, rel=1e-6)

    def test_bad_excitation_count_rejected(self):
        with pytest.raises(ValueError):
            dicke_enhancement(10, 11)


class TestRandomPhaseSum:
    def test_zero_momentum_transfer_gives_coherent_peak(self):
        mean, err = random_phase_sum(250, np.zeros(3), 100.0, seed=0, trials=5)
        assert mean == 250.0**2
        assert err == 0.0

    def test_single_emitter(self):
        mean, _ = random_phase_sum(1, np.array([1.0, 2.0, 3.0]), 50.0, seed=3, trials=10)
        assert mean == pytest.approx(1.0, rel=1e-12)

    def test_incoherent_mean_scales_with_emitter_count(self):
        mean, err = random_phase_sum(
            10_000, np.array([1.0, 1.37, 2.11]), 1000.0, seed=0, trials=200
        )
        assert abs(mean - 10_000) <= 5 * err

    def test_deterministic_in_seed(self):
        kwargs = dict(total=500, delta_k=np.array([0.7, 1.1, 0.3]), box_size=300.0, trials=20)
        assert random_phase_sum(seed=42, **kwargs) == random_phase_sum(seed=42, **kwargs)
        assert random_phase_sum(seed=42, **kwargs) != random_phase_sum(seed=43, **kwargs)

    def test_forward_peak_is_continuous(self):
        total = 400
        dk = np.array([1.0, 0.0, 0.0]) * (0.005 / 100.0)  # |dk|*box = 0.005
        mean, _ = random_phase_sum(total, dk, 100.0, seed=1, trials=20)
        assert mean > 0.99 * total**2


class TestPumpSteadyState:
    def make_pump(self, intensity_si=1e10, detuning_inv_s=3e14, emitters=1.6e8):
        atom = optical_example()
        return PumpSpec.balanced(
            atom,
            convert(intensity_si, "W/cm^2", "eV^4"),
            detuning_inv_s * HBAR_EV_S,
            emitter_count=emitters,
        )

    def test_reference_excitation_fraction(self):
        state = pump_steady_state(self.make_pump())
        assert state.excited_fraction == pytest.approx(1.51e-5, rel=1e-2)  # frozen
        # within a factor of two of the quoted 1.7e-5
        assert 0.85e-5 <= state.excited_fraction <= 3.4e-5

    def test_zero_intensity_gives_zero_excitation(self):
        pump = self.make_pump()
        dark = PumpSpec(atom=pump.atom, intensity1=0.0, intensity2=pump.intensity2,
                        detuning=pump.detuning, omega1p=pump.omega1p, omega2p=pump.omega2p)
        assert pump_steady_state(dark).excited_fraction == 0.0

    def test_quadratic_in_intensity(self):
        a = pump_steady_state(self.make_pump(intensity_si=1e10)).excited_fraction
        b = pump_steady_state(self.make_pump(intensity_si=2e10)).excited_fraction
        assert b / a == pytest.approx(4.0, rel=1e-12)

    def test_coherent_amplitude_counts_excitations(self):
        state = pump_steady_state(self.make_pump(emitters=1.6e8))
        # |alpha|^2 = s = (s/S)*S
        assert abs(state.coherent_amplitude) ** 2 == pytest.approx(
            state.excited_fraction * 1.6e8, rel=1e-12
        )
        assert abs(state.coherent_amplitude) ** 2 == pytest.approx(2.4e3, rel=0.15)

    def test_phase_matching_enforced(self):
        atom = optical_example()
        with pytest.raises(ValueError):
            PumpSpec(atom=atom, intensity1=1.0, intensity2=1.0, detuning=0.1,
                     omega1p=atom.omega1, omega2p=atom.omega2 * 1.01)

    def test_upconversion_detunings_are_optical(self):
        d1, d2 = upconversion_detunings(optical_example())
        assert d1 > 1.0 and d2 > 1.0  # eV scale, no 1/Delta^2 resonant boost


class TestCombinedEnhancement:
    def test_total_requirement_factorizes(self):
        # a target kappa met by combined mechanisms: n*s*kappa_0 >= kappa
        spec = optical_example()
        k0 = absorption_ratio(spec)
        kappa_target = 120.0
        needed = kappa_target / k0
        n, s = 64, math.ceil(needed / 64)
        assert n * s * k0 >= kappa_target
        assert (n * s) >= needed
