"""Matrix power and unit-conversion tests."""

import math

import numpy as np
import pytest

from zenogate.numerics import (
    C_M_PER_S,
    HBAR_EV_S,
    UnitError,
    _power_each,
    bisect,
    convert,
    golden_minimize,
    mat_power,
)


def rotation2(angle):
    """2x2 rotation [[cos, sin], [-sin, cos]] of the beam splitters."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


class TestMatPower:
    def test_identity(self):
        assert np.array_equal(mat_power(np.eye(3), 7), np.eye(3))

    def test_power_zero_gives_identity(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(mat_power(m, 0), np.eye(2))

    def test_rotation_additivity(self):
        got = mat_power(rotation2(math.pi / 20), 10)
        assert np.max(np.abs(got - rotation2(math.pi / 2))) < 1e-12

    def test_rotation_has_unit_determinant(self):
        assert abs(abs(np.linalg.det(rotation2(0.7312))) - 1.0) < 1e-12

    def test_random_3x3_against_repeated_multiplication(self):
        rng = np.random.default_rng(42)
        m = rng.uniform(-1, 1, size=(3, 3)) + 0j
        naive = np.eye(3, dtype=complex)
        for _ in range(9):
            naive = naive @ m
        assert np.max(np.abs(mat_power(m, 9) - naive)) < 1e-10

    def test_power_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.uniform(-1, 1, size=(3, 3)) + 1j * rng.uniform(-1, 1, size=(3, 3))
            m /= np.linalg.norm(m, 2)  # contractive, so absolute tolerances apply
            a, b = map(int, rng.integers(0, 33, size=2))
            lhs = mat_power(m, a) @ mat_power(m, b)
            assert np.max(np.abs(lhs - mat_power(m, a + b))) < 1e-10

    def test_rejects_negative_power_and_bad_shape(self):
        with pytest.raises(ValueError):
            mat_power(np.eye(2), -1)
        with pytest.raises(ValueError):
            mat_power(np.eye(4), 2)
        with pytest.raises(ValueError):
            mat_power(np.zeros((5, 4, 4)), 2)
        with pytest.raises(ValueError):
            mat_power(np.zeros((2, 5, 3, 3)), 2)

    def test_stack_equals_power_of_each_slice(self):
        rng = np.random.default_rng(9)
        for k in (2, 3):
            stack = rng.uniform(-1, 1, size=(6, k, k))
            stack /= np.linalg.norm(stack, 2, axis=(1, 2))[:, None, None]
            for n in (0, 1, 2, 7, 33, 1000):
                got = mat_power(stack, n)
                assert got.shape == stack.shape
                for b in range(len(stack)):
                    assert np.array_equal(got[b], mat_power(stack[b], n))
            # a power per matrix, with shared squarings up to n: the same
            # products as on its own, so equal bit for bit
            for n, each in ((1000, [0, 1, 2, 7, 33, 1000]), (40, [40, 39, 17, 16, 3, 0]),
                            (64, [5, 5, 5, 5, 5, 5])):
                got = _power_each(stack, n, np.array(each))
                assert got.shape == stack.shape
                for b in range(len(stack)):
                    assert np.array_equal(got[b], mat_power(stack[b], each[b]))

    def test_dtype_is_kept(self):
        real = np.array([[0.6, 0.8], [-0.8, 0.6]])
        for n in (0, 1, 5):
            assert mat_power(real, n).dtype == np.float64
            assert mat_power(np.stack([real, real]), n).dtype == np.float64
            assert mat_power(real + 0j, n).dtype == np.complex128
        assert mat_power(np.array([[1, 1], [0, 1]]), 3).dtype == np.float64

    def test_result_never_aliases_the_input(self):
        m = np.array([[0.6, 0.8], [-0.8, 0.6]])
        out = mat_power(m, 1)
        out[0, 0] = 9.0
        assert m[0, 0] == 0.6
        # the stack loop reuses its work arrays, never the input's memory
        stack = np.stack([m, m.T, -m])
        before = stack.copy()
        for out in (mat_power(stack, 1), mat_power(stack, 13),
                    _power_each(stack, 13, np.array([13, 0, 6]))):
            assert np.array_equal(stack, before) and not np.shares_memory(out, stack)


class TestGoldenMinimize:
    def test_parabola_minimum(self):
        best = golden_minimize(lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-10)
        assert best == pytest.approx(0.3, abs=1e-9)


class TestBisectSteps:
    def points(self, f, *args):
        points = []

        def visit(x):
            points.append(x)
            return f(x)

        return bisect(visit, *args), points

    def test_brackets_the_sign_change(self):
        (lo, hi), points = self.points(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert lo < math.sqrt(2.0) <= hi and hi - lo <= 1e-12
        assert points[:2] == [0.0, 2.0] and points[2] == 1.0

    def test_evaluations_of_the_scale_search(self):
        # width 13.8 halves 24 times to below 1e-6: the two ends plus 24
        lo, hi = math.log(1e-3), math.log(1e3)
        (a, b), points = self.points(lambda x: x - 0.1, lo, hi, 1e-6)
        assert len(points) == 26 and b - a <= 1e-6 < 2.0 * (b - a)

    def test_no_sign_change_stops_after_the_ends(self):
        for f in (lambda x: x + 5.0, lambda x: x - 5.0):
            bracket, points = self.points(f, 0.0, 1.0, 1e-9)
            assert bracket is None and points == [0.0, 1.0]

    def test_step_limit_and_adjacent_ends(self):
        _, points = self.points(lambda x: x - 0.3, 0.0, 1.0, 0.0, 3)
        assert points == [0.0, 1.0, 0.5, 0.25, 0.375]
        hi = math.nextafter(1.0, 2.0)
        assert self.points(lambda x: x - 1.0, 1.0, hi, 0.0) == ((1.0, hi), [1.0, hi])


class TestConvert:
    def test_wavelength_to_angular_frequency(self):
        omega = convert(500.0, "nm", "1/s")
        assert omega == pytest.approx(2 * math.pi * C_M_PER_S / 500e-9, rel=1e-12)
        assert omega == pytest.approx(3.77e15, rel=1e-2)

    def test_angular_frequency_to_energy(self):
        ev = convert(1e14, "1/s", "eV")
        assert ev == pytest.approx(1e14 * HBAR_EV_S, rel=1e-12)
        assert ev == pytest.approx(0.0658, abs=1e-4)

    def test_identity_conversion(self):
        assert convert(2.5, "eV", "eV") == 2.5
        # a unit with a rounded scale (1/hbar*c) still converts to itself exactly
        assert convert(500.0, "nm", "nm") == 500.0

    def test_round_trip(self):
        for unit, target in [
            ("nm", "1/s"),
            ("eV", "1/s"),
            ("W/cm^2", "eV^4"),
            ("cm^2", "1/eV^2"),
            ("nm", "eV"),
        ]:
            back = convert(convert(3.7, unit, target), target, unit)
            assert back == pytest.approx(3.7, rel=1e-12)

    def test_conversions_compose(self):
        direct = convert(432.1, "nm", "eV")
        via = convert(convert(432.1, "nm", "1/s"), "1/s", "eV")
        assert via == pytest.approx(direct, rel=1e-12)

    def test_hz_is_angular(self):
        assert convert(1.0, "Hz", "1/s") == 1.0

    def test_mismatched_kinds_rejected(self):
        with pytest.raises(UnitError):
            convert(1.0, "W/cm^2", "nm")

    def test_unknown_unit_rejected(self):
        # an unknown label on either side
        for unit, target in (("furlong", "nm"), ("nm", "furlong")):
            with pytest.raises(UnitError, match="furlong"):
                convert(1.0, unit, target)
