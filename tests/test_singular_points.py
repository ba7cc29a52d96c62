"""One judge of a singular point: ``eval_canonical_general`` decides, for the
plain and the lifted flow, whether a point is singular, and every
SingularPointError it raises carries the time it was asked about.  The
lifted pass rule raises with the time of the earlier pass instead."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadode import (
    CanonicalParams,
    CanonicalState,
    LiftParams,
    SingularPointError,
    decompose,
    eval_canonical,
    eval_lifted,
    eval_trajectory,
    lift,
    singular_times,
    solve_canonical,
    solve_ivp,
    solve_lifted,
)
from quadode.canonical import pole_near
from conftest import EXAMPLE1, EXAMPLE2

POLE_FACTORS = {"1 - y1(0) t", "1 - y2(0) t"}


def raised(fn, *args):
    try:
        fn(*args)
    except SingularPointError as exc:
        return exc
    return None


class TestListedTimesCarryTheirTime:
    def test_eval_canonical_at_a_listed_denominator_zero(self):
        sol = solve_canonical(CanonicalParams(1.5, 0), CanonicalState(-8 / 3, 2))
        (t,) = singular_times(sol, 1.0)
        assert abs(t - 0.34526) <= 1e-5
        exc = raised(eval_canonical, sol, t)
        assert exc is not None and exc.factor == "u denominator"
        assert exc.t == t

    def test_eval_lifted_at_a_listed_denominator_zero(self):
        traj = solve_lifted(lift(EXAMPLE1, LiftParams((0, 0), 0.3)), (1, 1))
        (t,) = traj.t_singular
        assert abs(t - 0.32853) <= 1e-5
        exc = raised(eval_lifted, traj, t)
        assert exc is not None and exc.factor == "u denominator"
        assert exc.t == t

    @pytest.mark.parametrize(
        "y0, pole, factor",
        [((1, 1), 1.0, "1 - y1(0) t"), ((0, 2), 0.5, "1 - y2(0) t")],
        ids=["y1 pole", "y2 pole on the y1 = 0 line"],
    )
    def test_poles(self, y0, pole, factor):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(*y0))
        exc = raised(eval_canonical, sol, pole)
        assert exc.factor == factor and exc.t == pole

    def test_exact_zero_of_s(self):
        # s = 1 - 2*0.5 is exactly 0: no log is taken, the evaluator raises
        sol = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(2, 1))
        exc = raised(eval_canonical, sol, 0.5)
        assert exc.factor == "1 - y1(0) t" and exc.t == 0.5

    def test_eval_trajectory(self):
        traj = solve_ivp(EXAMPLE1, (1, 1))
        for t in traj.t_singular:
            exc = raised(eval_trajectory, traj, t)
            assert exc is not None and exc.t == t


class TestPoleNear:
    def test_is_the_scaled_distance_of_s_from_zero(self):
        assert pole_near(1.0, 1e-9)
        assert pole_near(1.0 + 1e-10j, 1e-9)
        assert not pole_near(1.0 + 1e-8j, 1e-9)
        # within sing_tol*(1 + |w|), about twice sing_tol, of 0
        assert pole_near(1.0 + 1.9e-9, 1e-9)
        assert not pole_near(1.0 + 2.1e-9, 1e-9)
        assert not pole_near(0.5, 1e-9)


B = decompose(EXAMPLE2).plus.b
ZBAR = (0.1, -0.2)


def lifted_through(y0, eta):
    """The lift of EXAMPLE2 by eta, solved through the z(0) whose canonical
    state is y0."""
    (b11, b12), (b21, b22) = B
    z0 = (b11 * y0[0] + b12 * y0[1] + ZBAR[0], b21 * y0[0] + b22 * y0[1] + ZBAR[1])
    return solve_lifted(lift(EXAMPLE2, LiftParams(zbar=ZBAR, eta=eta)), z0, t_max=5.0)


# numbers clear of 0, real (on which the singular times are real) or complex
real = st.one_of(st.floats(0.2, 3.0), st.floats(-3.0, -0.2))
cplx = st.builds(complex, real, real)


@st.composite
def canonical_points(draw):
    """A canonical solution, real or complex, on or off the y1 = 0 line, and
    a time: mostly a listed singular time or one within rounding of it."""
    number = real if draw(st.booleans()) else cplx
    rho = CanonicalParams(draw(number), draw(number))
    y10 = draw(st.one_of(number, number, number, st.just(0.0)))
    sol = solve_canonical(rho, CanonicalState(y10, draw(number)))
    listed = singular_times(sol, 3.0)
    if listed and draw(st.integers(0, 3)) < 3:
        t = draw(st.sampled_from(listed)) * (1.0 + draw(st.sampled_from((0.0, 1e-12, -1e-12))))
    else:
        t = draw(st.floats(-1.0, 3.0))
    return sol, t


# rates of order one: real and imaginary parts 0 or at least 0.05 in size
rate = st.one_of(st.floats(0.05, 0.5), st.floats(-0.5, -0.05))
omega = st.one_of(st.floats(0.3, 2.0), st.floats(-2.0, -0.3))
imaginary = st.builds(lambda w: 1j * w, omega)


@st.composite
def lifted_points(draw):
    """A lifted trajectory and a time.  y1(0) is random, or puts s exactly or
    nearly through 0 once a turn (|r| = |1 + r| for r = y1(0)/eta), so the
    pass rule fires at later times."""
    eta = draw(st.one_of(st.builds(complex, rate, omega), st.builds(complex, rate), imaginary))
    r = draw(st.sampled_from((None, None, -0.5 + 0.3j, -0.5 - 0.7j, -0.5 + 1e-10 + 0.2j)))
    number = real if eta.real == 0 or draw(st.booleans()) else cplx
    y10 = draw(number) if r is None else r * eta
    traj = lifted_through((y10, draw(number)), eta)
    listed = list(traj.t_singular)
    if listed and draw(st.integers(0, 3)) < 3:
        t = draw(st.sampled_from(listed))
    else:
        t = draw(st.floats(0.0, 20.0))
    return traj, t


class TestEveryErrorCarriesItsTime:
    @given(point=canonical_points())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_eval_canonical(self, point):
        sol, t = point
        exc = raised(eval_canonical, sol, t)
        if exc is not None:
            assert exc.t == t

    @given(point=lifted_points())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_eval_lifted(self, point):
        traj, t = point
        exc = raised(eval_lifted, traj, t)
        if exc is None:
            return
        assert math.isfinite(exc.t)
        if exc.t != t:  # the pass rule: an earlier pass of the pole
            assert exc.factor in POLE_FACTORS and 0 < exc.t < t
            y10, eta = traj.canonical.y10, traj.lifted.eta
            warp = (cmath.exp(eta * exc.t) - 1.0) / eta
            assert abs(1.0 - y10 * warp) <= 1e-6 * (1.0 + abs(y10 * warp))
