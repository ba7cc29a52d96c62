"""Scale covariance: the exact symmetry of a homogeneous quadratic system.

If x(t) solves x' = Q_c(x), then X(t) = lam*x(k*lam*t) solves X' = Q_{k*c}(X)
with X(0) = lam*x(0), and its singular times are those of x divided by
k*lam.  With k and lam powers of two every coefficient and datum scales
exactly, so a closed form whose every decision is relative returns exactly
scaled results.  ``t_max`` is always passed: ``default_horizon`` is not
scale-free.

The state scale lam runs over 2^-60 .. 2^60.  The coefficient scale k stops
at 2: larger k reaches the gauge hole of ``decompose`` (ROADMAP item 2), whose
gauge b11 = 1 is not scale-free.  There EXAMPLE1 drifts by 2e-14 at k = 2^7
and 1e-9 at 2^10, and from about 2^19 on no example decomposes.
"""

import pytest

from quadode import QuadOdeError, QuadraticSystem, eval_trajectory, integrate, solve_ivp
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3

STATE_POWERS = [-60, -32, -1, 0, 7, 40, 60]
COEFFICIENT_POWERS = [-60, -32, -1, 0, 1]
X0 = (1.0, 1.0)
T_MAX = 10.0


def scaled(sys, k):
    return QuadraticSystem(tuple(tuple(k * c for c in row) for row in sys.c))


def state_error(got, want):
    """Max-component difference relative to the larger component of want."""
    return max(abs(g - w) for g, w in zip(got, want)) / max(abs(w) for w in want)


@pytest.fixture(scope="module", params=[EXAMPLE1, EXAMPLE2, EXAMPLE3], ids=["ex1", "ex2", "ex3"])
def base(request):
    traj = solve_ivp(request.param, X0, t_max=T_MAX)
    first = traj.t_singular[0] if traj.t_singular else T_MAX
    times = [0.0] + [first * f for f in (0.1, 0.35, 0.6, 0.85)]
    return request.param, traj, [(t, eval_trajectory(traj, t)) for t in times]


@pytest.mark.parametrize("log_k", COEFFICIENT_POWERS)
@pytest.mark.parametrize("log_lam", STATE_POWERS)
def test_trajectory_and_singular_times_scale(base, log_k, log_lam):
    sys, traj, samples = base
    k, lam = 2.0**log_k, 2.0**log_lam
    rate = k * lam
    other = solve_ivp(scaled(sys, k), (lam * X0[0], lam * X0[1]), t_max=T_MAX / rate)
    assert len(other.t_singular) == len(traj.t_singular)
    for got, want in zip(other.t_singular, traj.t_singular):
        assert abs(got * rate - want) <= 1e-15 * want
    for t, x in samples:
        want = (lam * x[0], lam * x[1])
        assert state_error(eval_trajectory(other, t / rate), want) <= 1e-14


@pytest.mark.xfail(strict=True, raises=QuadOdeError, reason="the gauge hole, ROADMAP item 2")
@pytest.mark.parametrize("log_k", [20, 40, 60])
def test_large_coefficients_decompose(base, log_k):
    solve_ivp(scaled(base[0], 2.0**log_k), X0, t_max=T_MAX / 2.0**log_k)


class TestSmallStates:
    """EXAMPLE1 through x0 = (2^-m, 2^-m): y1(0) is about 1e-10 at m = 32,
    which an absolute line test once took for the line y1 = 0."""

    def test_initial_state_comes_back(self):
        x0 = (2.0**-32, 2.0**-32)
        traj = solve_ivp(EXAMPLE1, x0, t_max=10 * 2.0**32)
        assert state_error(eval_trajectory(traj, 0.0), x0) <= 1e-15

    def test_true_singular_time_is_listed(self):
        traj = solve_ivp(EXAMPLE1, (2.0**-40, 2.0**-40), t_max=10 * 2.0**40)
        (t,) = traj.t_singular
        assert abs(t / 2.0**40 - 0.34526) <= 1e-5

    def test_agrees_with_the_integrator_relative_to_the_state(self):
        x0 = (2.0**-32, 2.0**-32)
        traj = solve_ivp(EXAMPLE1, x0, t_max=10 * 2.0**32)
        samples = [0.2 * 2.0**32 * (i + 1) / 4 for i in range(4)]
        numeric = integrate(EXAMPLE1, x0, samples[-1], abs_tol=1e-12 * 2.0**-32, t_eval=samples)
        for t, ref in zip(numeric.times, numeric.states):
            assert state_error(eval_trajectory(traj, t), ref) <= 1e-6
