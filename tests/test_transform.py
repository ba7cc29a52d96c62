"""Linear changes of variables, the forward coefficient map, state transport."""

import random

import pytest

from quadode import (
    CanonicalParams,
    CanonicalState,
    NonInvertibleChangeError,
    QuadraticSystem,
    canonical_rhs,
    constraint_residuals,
    forward_map,
    linear_change_from_b,
    pull_state,
    push_state,
)
from conftest import EXAMPLE1, EXAMPLE3, sample_decomposition_data

IDENTITY = ((1, 0), (0, 1))
B_REF1 = ((0, 0.5), (-0.5, -1 / 6))  # minus branch of the first reference system


def close(z, w, tol=1e-12):
    return abs(z - w) <= tol * max(1.0, abs(w))


class TestLinearChange:
    def test_identity(self):
        ch = linear_change_from_b(IDENTITY)
        assert ch.a == ((1, 0), (0, 1))
        assert ch.det_a == ch.det_b == 1

    def test_reference_inverse(self):
        ch = linear_change_from_b(B_REF1)
        assert close(ch.det_b, 0.25)
        assert close(ch.a[0][0], -2 / 3)
        assert close(ch.a[0][1], -2.0)
        assert close(ch.a[1][0], 2.0)
        assert close(ch.a[1][1], 0.0)

    def test_singular_matrix_rejected(self):
        with pytest.raises(NonInvertibleChangeError):
            linear_change_from_b(((1, 2), (2, 4)))

    def test_mutual_inverse_and_determinants(self):
        rng = random.Random(3)
        for _ in range(100):
            _, b = sample_decomposition_data(rng)
            ch = linear_change_from_b(b)
            # a*b = 1 and det_a*det_b = 1
            prod = (
                ch.a[0][0] * ch.b[0][0] + ch.a[0][1] * ch.b[1][0],
                ch.a[0][0] * ch.b[0][1] + ch.a[0][1] * ch.b[1][1],
                ch.a[1][0] * ch.b[0][0] + ch.a[1][1] * ch.b[1][0],
                ch.a[1][0] * ch.b[0][1] + ch.a[1][1] * ch.b[1][1],
            )
            for got, want in zip(prod, (1, 0, 0, 1)):
                assert abs(got - want) <= 1e-12
            assert abs(ch.det_a * ch.det_b - 1) <= 1e-12

    def test_inverse_on_both_sides(self):
        # a*b = 1, b*a = 1 and det_a*det_b = 1 on a second seed
        rng = random.Random(5)
        for _ in range(100):
            _, b = sample_decomposition_data(rng)
            ch = linear_change_from_b(b)
            for left, right in ((ch.a, ch.b), (ch.b, ch.a)):
                for i in range(2):
                    for j in range(2):
                        got = left[i][0] * right[0][j] + left[i][1] * right[1][j]
                        assert abs(got - (i == j)) <= 1e-12
            assert abs(ch.det_a * ch.det_b - 1) <= 1e-12


class TestForwardMap:
    def test_identity_change_reproduces_canonical_form(self):
        sys = forward_map(CanonicalParams(0.7, -0.2), linear_change_from_b(IDENTITY))
        assert sys.c[0] == (1, 0, 0)
        assert close(sys.c[1][0], 0.7)
        assert close(sys.c[1][1], -0.2)
        assert close(sys.c[1][2], 1.0)

    def test_first_reference_system(self):
        sys = forward_map(CanonicalParams(1.5, 0), linear_change_from_b(B_REF1))
        expected = ((7 / 3, 2, 3), (-1, -2, -3))
        for n in range(2):
            for l in range(3):
                assert close(sys.c[n][l], expected[n][l])

    def test_third_reference_system(self):
        b = ((0, -2.5), (-3.9, -1.5))
        sys = forward_map(CanonicalParams(-11 / 25, 17 / 10), linear_change_from_b(b))
        for n in range(2):
            for l in range(3):
                assert close(sys.c[n][l], EXAMPLE3.c[n][l], tol=1e-13)

    def test_outputs_satisfy_constraints(self):
        rng = random.Random(11)
        for _ in range(100):
            rho, b = sample_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            res = constraint_residuals(sys)
            assert res.rel1 <= 1e-10 and res.rel2 <= 1e-10
            assert res.satisfied

    def test_conjugacy_of_derivatives(self):
        # The x-derivative from the mapped coefficients must equal the push
        # of the canonical derivative of the pulled state.
        rng = random.Random(13)
        for _ in range(100):
            rho, b = sample_decomposition_data(rng)
            ch = linear_change_from_b(b)
            sys = forward_map(rho, ch)
            x = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            dx = sys.rhs(x)
            dy = canonical_rhs(rho, pull_state(ch, x))
            dx_ref = push_state(ch, dy)
            scale = max(1.0, abs(dx_ref[0]), abs(dx_ref[1]))
            assert abs(dx[0] - dx_ref[0]) <= 1e-10 * scale
            assert abs(dx[1] - dx_ref[1]) <= 1e-10 * scale


class TestStateTransport:
    def test_identity(self):
        ch = linear_change_from_b(IDENTITY)
        assert pull_state(ch, (3, 4)) == CanonicalState(3, 4)
        assert push_state(ch, CanonicalState(3, 4)) == (3, 4)

    def test_reference_pull(self):
        ch = linear_change_from_b(B_REF1)
        y = pull_state(ch, (1, 1))
        assert close(y.y1, -8 / 3)
        assert close(y.y2, 2.0)

    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(100):
            _, b = sample_decomposition_data(rng)
            ch = linear_change_from_b(b)
            x = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            back = push_state(ch, pull_state(ch, x))
            assert abs(back[0] - x[0]) <= 1e-12 * (1 + abs(x[0]))
            assert abs(back[1] - x[1]) <= 1e-12 * (1 + abs(x[1]))


class TestQuadraticSystem:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuadraticSystem(((float("nan"), 0, 0), (0, 0, 0)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            QuadraticSystem(((1, 2), (3, 4)))

    def test_rhs_matches_definition(self):
        dx = EXAMPLE1.rhs((2, -1))
        c = EXAMPLE1.c
        for n in range(2):
            want = c[n][0] * 4 + c[n][1] * -2 + c[n][2] * 1
            assert close(dx[n], want)
