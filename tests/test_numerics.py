"""Scalar numerics: the deviation measure, quadratic roots, rational
recognition, tolerances; and the chord increments of the dense reference
walk."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadode import NoRootError, SingularPointError, ToleranceConfig, approx_rational
from quadode.numerics import solve_quadratic, worst_deviation
from dense_walk import log_increment

EQ_TOL = 1e-12


def circle_path(windings: float, points_per_turn: int = 24) -> list[complex]:
    """Polyline tracing |z| = 1 from 1 through `windings` full turns."""
    n = max(4, int(abs(windings) * points_per_turn))
    return [cmath.exp(2j * math.pi * windings * k / n) for k in range(n + 1)]


def summed_increments(path, sing_tol=1e-9) -> complex:
    """Logarithm at path[-1] continued along the polyline from log path[0] = 0."""
    return sum((log_increment(a, b, sing_tol) for a, b in zip(path, path[1:])), 0j)


class TestContinuedLog:
    """Continuation of the logarithm by chord increments, as the dense
    reference walk of the lifted flow's tests uses them."""

    @pytest.mark.parametrize("windings", [1, 2, -1])
    def test_winding_shifts_branch(self, windings):
        # Stepwise continuation around the unit circle must differ from the
        # principal value by 2*pi*i*windings.
        path = circle_path(windings)
        expected = cmath.log(path[-1]) + 2j * math.pi * windings
        assert abs(summed_increments(path) - expected) <= 1e-10

    def test_winding_number(self):
        value = summed_increments(circle_path(3))
        assert abs(value - 6j * math.pi * 1.0) <= 1e-9

    @given(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=-4, max_value=4),
    )
    @settings(max_examples=200)
    def test_straight_path_powers_match_repeated_multiplication(self, base, k):
        # the segment from 1 to base must stay clear of 0; along it the
        # increment is the principal log, so integer powers are exact products
        assume(abs(base.imag) > 1e-6 or base.real > 1e-6)
        value = cmath.exp(k * log_increment(1.0, base, 1e-9))
        direct = 1.0 + 0.0j
        for _ in range(abs(k)):
            direct *= base
        if k < 0:
            direct = 1.0 / direct
        assert abs(value - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_start_at_zero_raises(self):
        with pytest.raises(SingularPointError):
            log_increment(0.0, 1.0, 1e-9)

    def test_path_through_zero_raises(self):
        with pytest.raises(SingularPointError):
            log_increment(1.0, -1.0, 1e-9)
        # a chord that misses 0 by less than sing_tol of its length also raises
        with pytest.raises(SingularPointError):
            summed_increments((1.0, 1e-12j - 1.0))


def ratio(root):
    """The affine value x/w of a projective root (x, w)."""
    x, w = root
    return x / w


class TestSolveQuadratic:
    def test_double_root(self):
        roots = solve_quadratic(1, 0, 0)
        assert roots.first == roots.second
        assert roots.first[0] == 0 and roots.first[1] != 0

    def test_factored(self):
        roots = solve_quadratic(1, -3, 2)
        assert sorted((ratio(roots.first).real, ratio(roots.second).real)) == pytest.approx(
            [1.0, 2.0]
        )

    def test_reference_inversion_coefficients(self):
        # F2 of the first reference system, -2 c21 v1^2 + (2 c11 - c22) v1 v2
        # + c12 v2^2 = 2 v1^2 + (20/3) v1 v2 + 2 v2^2: its roots are the
        # slope -3 = b12/b22 of the invariant line and -1/3.
        roots = solve_quadratic(2.0, 20 / 3, 2.0)
        values = sorted(ratio(r).real for r in roots)
        assert values[0] == pytest.approx(-3.0, rel=1e-14)
        assert values[1] == pytest.approx(-1 / 3, rel=1e-14)

    def test_linear_degenerate(self):
        # a vanishing leading coefficient puts one root at infinity
        roots = solve_quadratic(0, 2, -3)
        at_infinity = [r for r in roots if r[1] == 0]
        finite = [r for r in roots if r[1] != 0]
        assert len(at_infinity) == 1 and at_infinity[0][0] != 0
        assert ratio(finite[0]) == pytest.approx(1.5)

    def test_no_root(self):
        # 0 x^2 + 0 x + 1 = 0 has no finite root: both roots are at infinity
        roots = solve_quadratic(0, 0, 1)
        for x, w in roots:
            assert w == 0 and x != 0

    def test_all_roots(self):
        with pytest.raises(NoRootError, match="every value"):
            solve_quadratic(0, 0, 0)

    moderate = st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    )

    @given(moderate, moderate, moderate)
    @settings(max_examples=200)
    def test_residual_property(self, c2, c1, c0):
        roots = solve_quadratic(c2, c1, c0)
        for x, w in roots:
            assert max(abs(x), abs(w)) > 0
            residual = abs(c2 * x * x + c1 * x * w + c0 * w * w)
            scale = abs(c2) * abs(x) ** 2 + abs(c1) * abs(x * w) + abs(c0) * abs(w) ** 2
            assert residual <= EQ_TOL * max(scale, 1e-300)


def running_max_deviation(pairs) -> float:
    """The gates' former loop: a running max(), which drops a later NaN."""
    worst = 0.0
    for x, y in pairs:
        diff = max(abs(x[0] - y[0]), abs(x[1] - y[1]))
        norm = 1.0 + max(abs(x[0]), abs(x[1]))
        worst = max(worst, diff / norm)
    return worst


class TestWorstDeviation:
    states = st.tuples(
        *[st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)] * 2
    )

    @given(st.lists(st.tuples(states, states), max_size=4))
    @settings(derandomize=True, max_examples=100)
    def test_equals_running_max_without_nan(self, pairs):
        # bit for bit, so that no gate's verdict moves on finite data
        assert worst_deviation(pairs) == running_max_deviation(pairs)

    def test_no_pairs(self):
        assert worst_deviation([]) == 0.0

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("component", [0, 1])
    def test_later_nan_term_is_nan(self, side, component):
        good = ((1 + 1j, 2.0), (1 + 1j, 2.5))
        bad = [[0.5, 0.25j], [0.5, 0.25j]]
        bad[side][component] = complex(math.nan, 0.0)
        pairs = [good, tuple(tuple(v) for v in bad), good]
        assert math.isnan(worst_deviation(pairs))
        assert not math.isnan(running_max_deviation(pairs))  # what the gates did

    def test_infinite_state_is_nan(self):
        # |x - y| / (1 + |x|) is inf/inf for an infinite closed form
        assert math.isnan(worst_deviation([((1.0, 1.0), (1.0, 1.0)), ((math.inf, 0j), (0j, 0j))]))

    def test_infinite_reference_is_inf(self):
        assert worst_deviation([((1.0, 1.0), (math.inf, 1.0))]) == math.inf


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


def fraction_approx_rational(x, max_den, tol):
    """approx_rational through Fraction arithmetic, as it was first written."""
    best = Fraction(x).limit_denominator(max_den)
    if abs(Fraction(x) - best) <= Fraction(tol):
        return best.numerator, best.denominator
    return None


class TestApproxRationalMatchesFraction:
    """The integer continued-fraction walk gives Fraction's answers."""

    @staticmethod
    def assert_same(x, max_den, tol=1e-9):
        assert approx_rational(x, max_den, tol) == fraction_approx_rational(x, max_den, tol)

    def test_seeded_corpus(self):
        rng = random.Random("approx_rational")
        for _ in range(3000):
            kind = rng.randrange(3)
            if kind == 0:
                x = rng.uniform(-10, 10)
            elif kind == 1:  # near a small fraction, the isochrony use
                x = rng.randint(-40, 40) / rng.randint(1, 80) + rng.choice((0, 1e-10, -3e-9))
            else:
                x = rng.uniform(-1, 1) * 10 ** rng.uniform(-12, 12)
            max_den = rng.choice((1, 2, 3, 7, 64, 1000, 10**6))
            self.assert_same(x, max_den, rng.choice((1e-9, 1e-3, 0.5, 0.0)))

    @pytest.mark.parametrize("x", [0.0, 3.0, -7.0, 2.0**60, -(2.0**60) + 2.0**8])
    def test_integers(self, x):
        for max_den in (1, 2, 64):
            self.assert_same(x, max_den)

    @pytest.mark.parametrize("x", [0.5, -0.375, 1 / 64, 45 / 32, -(2.0**-6)])
    def test_denominator_within_bound(self, x):
        # returned as is, without a walk
        for max_den in (64, 100):
            self.assert_same(x, max_den, 0.0)

    @pytest.mark.parametrize("x", [-1e-12, -0.1, -1 / 3, -math.pi, -2.5e8 - 1 / 7])
    def test_negative(self, x):
        for max_den in (1, 7, 64, 10**6):
            self.assert_same(x, max_den, 1.0)

    @pytest.mark.parametrize("x", [-2.5, -0.7, 0.2, 0.5, 1.5, 2.49, 1e9 + 0.5])
    def test_max_den_one(self, x):
        self.assert_same(x, 1, 1.0)

    @pytest.mark.parametrize(
        "x, max_den, nearest",
        [
            (0.5, 1, (0, 1)),
            (-2.5, 1, (-3, 1)),
            (0.25, 2, (0, 1)),
            (-1.75, 2, (-2, 1)),
            (0.875, 4, (1, 1)),
            (1 / 128, 64, (0, 1)),
        ],
    )
    def test_semiconvergent_ties(self, x, max_den, nearest):
        # x lies midway between the last convergent and the semiconvergent;
        # the convergent is taken
        assert approx_rational(x, max_den, 1.0) == nearest
        self.assert_same(x, max_den, 1.0)


class TestToleranceConfig:
    def test_defaults_valid(self):
        tol = ToleranceConfig()
        assert tol.eq_tol <= 1e-9
        assert tol.sing_tol > 0 and tol.oracle_tol > 0

    @pytest.mark.parametrize("bad", [{"eq_tol": 0.0}, {"sing_tol": -1.0}, {"eq_tol": 1e-6}])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            ToleranceConfig(**bad)
