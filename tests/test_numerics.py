"""Scalar numerics: continued logarithms, quadratic roots, rational recognition."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadode import (
    NoRootError,
    SingularPointError,
    ToleranceConfig,
    approx_rational,
    continued_log,
    solve_quadratic,
)

EQ_TOL = 1e-12


def circle_path(windings: float, points_per_turn: int = 24) -> list[complex]:
    """Polyline tracing |z| = 1 from 1 through `windings` full turns."""
    n = max(4, int(abs(windings) * points_per_turn))
    return [cmath.exp(2j * math.pi * windings * k / n) for k in range(n + 1)]


class TestContinuedLog:
    @pytest.mark.parametrize("windings", [1, 2, -1])
    def test_winding_shifts_branch(self, windings):
        # Stepwise continuation around the unit circle must differ from the
        # principal value by 2*pi*i*windings.
        path = circle_path(windings)
        expected = cmath.log(path[-1]) + 2j * math.pi * windings
        assert abs(continued_log(path) - expected) <= 1e-10

    def test_winding_number(self):
        path = circle_path(3)
        value = continued_log(path)
        assert abs(value - 6j * math.pi * 1.0) <= 1e-9

    @given(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=-4, max_value=4),
    )
    @settings(max_examples=200)
    def test_straight_path_powers_match_repeated_multiplication(self, base, k):
        # the segment from 1 to base must stay clear of 0; along it the
        # continued log is principal, so integer powers are exact products
        assume(abs(base.imag) > 1e-6 or base.real > 1e-6)
        value = cmath.exp(k * continued_log((1.0, base)))
        direct = 1.0 + 0.0j
        for _ in range(abs(k)):
            direct *= base
        if k < 0:
            direct = 1.0 / direct
        assert abs(value - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_start_at_zero_raises(self):
        with pytest.raises(SingularPointError):
            continued_log((0.0, 1.0))

    def test_path_through_zero_raises(self):
        with pytest.raises(SingularPointError):
            continued_log((1.0, -1.0))


class TestSolveQuadratic:
    def test_double_root(self):
        roots = solve_quadratic(1, 0, 0)
        assert roots.first == roots.second == 0
        assert not roots.linear_degenerate

    def test_factored(self):
        roots = solve_quadratic(1, -3, 2)
        assert roots.first == pytest.approx(1.0)
        assert roots.second == pytest.approx(2.0)

    def test_reference_inversion_coefficients(self):
        # Quadratic arising in the first reference inversion; its roots are
        # the two branch values of b21.
        roots = solve_quadratic(-36.0, -48.0, -15.0)
        assert roots.first == pytest.approx(-5 / 6, rel=1e-14)
        assert roots.second == pytest.approx(-1 / 2, rel=1e-14)

    def test_linear_degenerate(self):
        roots = solve_quadratic(0, 2, -3)
        assert roots.linear_degenerate
        assert roots.first == roots.second == pytest.approx(1.5)

    def test_no_root(self):
        with pytest.raises(NoRootError):
            solve_quadratic(0, 0, 1)

    def test_all_roots(self):
        with pytest.raises(NoRootError, match="every value"):
            solve_quadratic(0, 0, 0)

    def test_lexicographic_order(self):
        roots = solve_quadratic(1, -2j, 2)  # roots are conjugate-ish pair
        assert (roots.first.real, roots.first.imag) <= (roots.second.real, roots.second.imag)

    moderate = st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    )

    @given(moderate, moderate, moderate)
    @settings(max_examples=200)
    def test_residual_property(self, c2, c1, c0):
        roots = solve_quadratic(c2, c1, c0)
        for r in (roots.first, roots.second):
            residual = abs(c2 * r * r + c1 * r + c0)
            scale = abs(c2) * abs(r) ** 2 + abs(c1) * abs(r) + abs(c0)
            assert residual <= EQ_TOL * max(scale, 1e-300)


class TestApproxRational:
    def test_exact_rational(self):
        assert approx_rational(1.5, 10) == (3, 2)

    def test_zero(self):
        assert approx_rational(0.0, 7) == (0, 1)

    def test_negative(self):
        assert approx_rational(-2.25, 10) == (-9, 4)

    def test_irrational_rejected(self):
        x = math.sqrt(7 / 3)
        # Independent check: no fraction with denominator <= 50 is closer
        # than 1e-9 (brute force over all denominators).
        best = min(
            abs(x - round(x * k2) / k2) for k2 in range(1, 51)
        )
        assert best > 1e-9
        assert approx_rational(x, 50, tol=1e-9) is None

    def test_recovers_all_small_fractions(self):
        for k1 in range(-20, 21):
            for k2 in range(1, 21):
                g = math.gcd(abs(k1), k2)
                expected = (k1 // g, k2 // g)
                assert approx_rational(k1 / k2, 20) == expected

    def test_bad_max_den(self):
        with pytest.raises(ValueError):
            approx_rational(1.0, 0)

    def test_limit_denominator_behaviour_matches_fraction(self):
        x = 0.123456789
        got = approx_rational(x, 64, tol=1.0)
        best = Fraction(x).limit_denominator(64)
        assert got == (best.numerator, best.denominator)


class TestToleranceConfig:
    def test_defaults_valid(self):
        tol = ToleranceConfig()
        assert tol.eq_tol <= 1e-9
        assert tol.sing_tol > 0 and tol.oracle_tol > 0

    @pytest.mark.parametrize("bad", [{"eq_tol": 0.0}, {"sing_tol": -1.0}, {"eq_tol": 1e-6}])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            ToleranceConfig(**bad)
