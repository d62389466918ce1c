"""Three-level absorber tests: couplings, probabilities, ratio, interference."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zenogate.absorber import (
    AtomSpec,
    NoRealSolutionError,
    RatioUnboundedError,
    absorption_ratio,
    coupling_constants,
    destructive_interference_frequency,
    interference_residual,
    measured_absorption_ratio,
    middle_level_population,
    one_photon_scattering_prob,
    optical_example,
    pump_detuning_threshold,
    two_photon_absorption_prob,
)
from zenogate.numerics import ALPHA_QED, ELECTRON_MASS_EV, HBAR_EV_S, convert
from zenogate.oracles import polarization_sum_quadrature


def symmetric_spec(omega=2.4797, area=None, f=1.0, lam=False):
    """Equal frequencies and level spacings (zero detunings)."""
    if area is None:
        area = (math.pi / omega) ** 2  # diffraction limit
    return AtomSpec(
        e12=omega, e23=omega, omega1=omega, omega2=omega,
        detuning=0.0, detuning_control=0.0,
        dipole_length=1.6e-3, beam_area=area,
        coupling_ratio=f, lambda_scheme=lam,
    )


class TestAtomSpec:
    def test_from_photon_consistency(self):
        spec = optical_example()
        assert spec.omega1 + spec.omega2 == pytest.approx(spec.e12 + spec.e23, rel=1e-12)
        assert spec.detuning == pytest.approx(spec.e12 - spec.omega1, rel=1e-9)
        assert spec.detuning_control == pytest.approx(spec.e12 - spec.omega2, rel=1e-9)

    def test_control_detuning_defaults_to_ten_times(self):
        spec = AtomSpec.from_photon(omega1=2.5, detuning=1e-3)
        assert spec.detuning_control == pytest.approx(1e-2, rel=1e-12)

    def test_resonance_violation_rejected(self):
        with pytest.raises(ValueError):
            AtomSpec(
                e12=2.5, e23=2.5, omega1=2.5, omega2=2.4,
                detuning=0.0, detuning_control=0.1,
                dipole_length=1e-3, beam_area=1.0,
            )


class TestCouplings:
    def test_symmetric_levels_give_equal_couplings(self):
        coup = coupling_constants(symmetric_spec())
        assert coup.g12 == pytest.approx(coup.g23, rel=1e-12)

    def test_direct_two_photon_coupling_negligible_in_optical_regime(self):
        # second-order two-step coupling dominates the direct quadratic one
        # for any detuning up to 1e13 1/s
        for delta_inv_s in (1e10, 1e12, 1e13):
            spec = AtomSpec.from_photon(omega1=2.4797, detuning=delta_inv_s * HBAR_EV_S)
            coup = coupling_constants(spec)
            assert coup.g13_bound < 1e-6 * abs(coup.g_eff)

    def test_effective_coupling_doubles_when_detuning_halves(self):
        c1 = coupling_constants(AtomSpec.from_photon(2.4797, 2e-3))
        c2 = coupling_constants(AtomSpec.from_photon(2.4797, 1e-3))
        # exact 1/Delta proportionality once the small level-spacing drift
        # of the tied parameters is compensated
        ratio = (c2.g_eff / c1.g_eff) * (c1.g12 * c1.g23) / (c2.g12 * c2.g23)
        assert ratio == pytest.approx(2.0, rel=1e-12)
        assert c2.g_eff / c1.g_eff == pytest.approx(2.0, rel=1e-2)

    def test_lambda_scheme_replaces_g12(self):
        spec = symmetric_spec(f=0.03, lam=True)
        coup = coupling_constants(spec)
        assert coup.g12 == pytest.approx(0.03 * coup.g23, rel=1e-12)


class TestTwoPhotonAbsorption:
    def test_optical_example_magnitude(self):
        p2 = two_photon_absorption_prob(optical_example())
        assert 1e-12 <= p2 <= 1e-10
        assert p2 == pytest.approx(8.79e-11, rel=1e-2)  # frozen from this model

    def test_doubling_area_quarters_probability(self):
        spec = optical_example()
        wider = replace(spec, beam_area=2.0 * spec.beam_area)
        assert two_photon_absorption_prob(spec) / two_photon_absorption_prob(wider) == (
            pytest.approx(4.0, rel=1e-12)
        )

    def test_lambda_scheme_magnitude(self):
        spec = optical_example(detuning_inv_s=3e9, detuning_control_inv_s=3e10)
        spec = spec.with_lambda_scheme(0.03)
        p2 = two_photon_absorption_prob(spec)
        assert 1e-8 <= p2 <= 1e-6

    def test_scaling_laws(self):
        spec = optical_example()
        # l^4, with the level structure untouched
        longer = replace(spec, dipole_length=2.0 * spec.dipole_length)
        assert two_photon_absorption_prob(longer) / two_photon_absorption_prob(spec) == (
            pytest.approx(16.0, rel=1e-12)
        )
        # 1/Delta^2 once the tied level and frequency factors are compensated
        half = AtomSpec.from_photon(spec.omega1, spec.detuning / 2, spec.detuning_control,
                                    spec.dipole_length, spec.beam_area)
        ratio = two_photon_absorption_prob(half) / two_photon_absorption_prob(spec)
        level_factor = (half.e12 * half.e23 / (spec.e12 * spec.e23)) ** 2
        freq_factor = (spec.omega1 * spec.omega2) / (half.omega1 * half.omega2)
        assert ratio == pytest.approx(4.0 * level_factor * freq_factor, rel=1e-12)


class TestOnePhotonScattering:
    def test_control_contribution_ratio(self):
        spec = optical_example()
        with_c = one_photon_scattering_prob(spec, include_control=True, include_a2_term=False)
        without = one_photon_scattering_prob(spec, include_control=False, include_a2_term=False)
        ratio = (with_c - without) / without
        assert ratio == pytest.approx((spec.detuning / spec.detuning_control) ** 2, rel=1e-12)
        assert ratio == pytest.approx(0.01, rel=1e-10)

    def test_simplified_form_matches_direct_formula(self):
        spec = optical_example()
        got = one_photon_scattering_prob(spec, include_control=False, include_a2_term=False)
        direct = (
            8 * ALPHA_QED**2 / (3 * math.pi)
            * spec.e12**4 / spec.detuning**2
            * spec.dipole_length**4 / spec.beam_area
        )
        assert got == pytest.approx(direct, rel=1e-12)

    def test_vanishes_at_interference_point(self):
        # detuning chosen so E12^2/Delta equals 1/(m*l^2) bit-exactly
        # (powers of two make the float cancellation exact)
        e12, ell = 0.5, 2.0**-10
        magic = e12**2 * (ELECTRON_MASS_EV * ell**2)
        tuned = AtomSpec.from_photon(e12 - magic, magic, detuning_control=0.1,
                                     dipole_length=ell, beam_area=1.0)
        p1 = one_photon_scattering_prob(tuned, include_control=False, include_a2_term=True)
        assert p1 == 0.0
        with pytest.raises(RatioUnboundedError):
            measured_absorption_ratio(tuned, include_control=False)

    def test_angular_integral_prefactor(self):
        # the 8*pi/3 in the scattering probability comes from the
        # polarization-summed angular integral, re-done here by quadrature
        rng = np.random.default_rng(0)
        for _ in range(3):
            v = rng.normal(size=3)
            integral = polarization_sum_quadrature(v, samples=300)
            assert integral == pytest.approx(8 * math.pi / 3 * float(v @ v), rel=1e-5)


class TestAbsorptionRatio:
    def test_diffraction_limit_value(self):
        # equal frequencies and spacings at area (lambda/2)^2
        assert absorption_ratio(symmetric_spec()) == pytest.approx(3 / (2 * math.pi**3), rel=1e-12)

    def test_lambda_scheme_values(self):
        assert absorption_ratio(symmetric_spec(f=0.03, lam=True)) == pytest.approx(54.0, abs=1.0)
        assert absorption_ratio(symmetric_spec(f=3e-3, lam=True)) == pytest.approx(5.4e3, rel=2e-2)

    def test_lambda_flag_scales_exactly(self):
        base = absorption_ratio(symmetric_spec())
        assert absorption_ratio(symmetric_spec(f=0.2, lam=True)) / base == pytest.approx(
            1.0 / 0.04, rel=1e-12
        )

    def test_closed_form_matches_probability_quotient(self):
        spec = optical_example()
        quotient = measured_absorption_ratio(spec, include_control=False, include_a2_term=False)
        assert quotient == pytest.approx(absorption_ratio(spec), rel=1e-10)

    def test_independent_of_dipole_length(self):
        spec = optical_example()
        scaled = replace(spec, dipole_length=3.0 * spec.dipole_length)
        a = measured_absorption_ratio(spec, include_control=False, include_a2_term=False)
        b = measured_absorption_ratio(scaled, include_control=False, include_a2_term=False)
        assert a == pytest.approx(b, rel=1e-12)


class TestDestructiveInterference:
    def test_small_coupling_limit(self):
        # mass override keeps 2*m*l^2*E12 an exact tiny power of two
        omega, e23 = destructive_interference_frequency(1.0, 1.0, electron_mass=2.0**-30)
        x = 2.0**-29
        assert omega == pytest.approx(1.0 - x / 2, rel=1e-12)
        assert e23 == pytest.approx(2 * omega - 1.0, rel=1e-12)

    def test_boundary_gives_zero_frequency(self):
        omega, _ = destructive_interference_frequency(1.0, 1.0, electron_mass=0.5)
        assert omega == 0.0

    def test_no_real_solution_raises(self):
        with pytest.raises(NoRealSolutionError):
            destructive_interference_frequency(2.5, 1e-3)

    def test_solution_zeroes_full_bracket(self):
        e12, ell = 1e-7, 2e-3
        omega, _ = destructive_interference_frequency(e12, ell)
        residual = interference_residual(e12, omega, ell)
        assert abs(residual) < 1e-10 / ELECTRON_MASS_EV  # relative to the 1/m term


class TestMiddleLevel:
    def test_pump_threshold_values(self):
        spec = optical_example()
        thr = pump_detuning_threshold(convert(1e10, "W/cm^2", "eV^4"), spec.dipole_length)
        assert thr == pytest.approx(0.0616, abs=2e-4)      # eV
        assert thr / HBAR_EV_S == pytest.approx(9.36e13, rel=1e-2)  # 1/s

    def test_zero_drive_gives_zero_population(self):
        assert middle_level_population(0.0, 0.0, 0.5) == 0.0

    def test_population_scales_inversely_with_detuning(self):
        a = middle_level_population(1e-3, 2e-3, 0.4)
        b = middle_level_population(1e-3, 2e-3, 0.2)
        assert abs(b) == pytest.approx(2 * abs(a), rel=1e-12)
        with pytest.raises(ValueError):
            middle_level_population(1e-3, 2e-3, 0.0)
