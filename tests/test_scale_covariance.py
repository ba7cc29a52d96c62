"""Scale covariance: the exact symmetry of a homogeneous quadratic system.

If x(t) solves x' = Q_c(x), then X(t) = lam*x(k*lam*t) solves X' = Q_{k*c}(X)
with X(0) = lam*x(0), and its singular times are those of x divided by
k*lam.  With k and lam powers of two every coefficient and datum scales
exactly, so a closed form whose every decision is relative returns exactly
scaled results.  ``t_max`` is always passed: ``default_horizon`` is not
scale-free.

The lift z(t) = exp(eta*t)*x(warp(t)) + zbar has the same symmetry in
eta: with eta -> lam*eta, z -> lam*z (z(0) and zbar alike) and t -> t/lam,
eta*t is unchanged, the warped time t*phi1(eta*t) scales by 1/lam and the
base flow is evaluated at the same point, so states scale by lam and
singular times by 1/lam.

The state scale lam runs over 2^-60 .. 2^60.  The coefficient scale k stops
at 2: larger k reaches the gauge hole of ``decompose`` (ROADMAP item 2), whose
gauge b11 = 1 is not scale-free.  There EXAMPLE1 drifts by 2e-14 at k = 2^7
and 1e-9 at 2^10, and from about 2^19 on no example decomposes.
"""

import pytest

from quadode import (
    CanonicalParams,
    LiftParams,
    QuadOdeError,
    QuadraticSystem,
    eval_lifted,
    eval_trajectory,
    forward_map,
    integrate,
    lift,
    linear_change_from_b,
    solve_ivp,
    solve_lifted,
    time_warp,
)
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


LIFT_RATES = {"real": -0.4, "imaginary": 0.7j, "general": 0.3 + 0.8j}
ZBAR = (0.25, -0.5)
LIFT_T_MAX = 4.0
# b = I, so x = y: s = 1 - y1(0)*warp(t) vanishes at t = 1, a pole that a
# complex rate lists only where the path meets 0 on the real axis
CANONICAL = forward_map(CanonicalParams(0.3, 0.2), linear_change_from_b(((1, 0), (0, 1))))
LIFT_CASES = [
    pytest.param(sys, (ZBAR[0] + X0[0], ZBAR[1] + X0[1]), eta, id=f"{name}-{rate}")
    for name, sys in (("ex1", EXAMPLE1), ("ex2", EXAMPLE2), ("ex3", EXAMPLE3))
    for rate, eta in LIFT_RATES.items()
] + [
    pytest.param(CANONICAL, (ZBAR[0] + 1 / time_warp(eta, 1.0), ZBAR[1] + 0.3), eta, id=f"pole-{rate}")
    for rate, eta in LIFT_RATES.items()
    if eta.imag
]


@pytest.mark.parametrize("sys, z0, eta", LIFT_CASES)
def test_lifted_flow_scales_with_the_rate(sys, z0, eta):
    def solve(lam):
        lifted = lift(sys, LiftParams((lam * ZBAR[0], lam * ZBAR[1]), lam * eta))
        return solve_lifted(lifted, (lam * z0[0], lam * z0[1]), t_max=LIFT_T_MAX / lam)

    traj = solve(1.0)
    first = traj.t_singular[0] if traj.t_singular else LIFT_T_MAX
    samples = [(t, eval_lifted(traj, t)) for t in [first * f for f in (0.0, 0.1, 0.35, 0.6, 0.85)]]
    for m in range(-20, 21):
        lam = 2.0**m
        other = solve(lam)
        assert len(other.t_singular) == len(traj.t_singular), m
        for got, want in zip(other.t_singular, traj.t_singular):
            assert abs(got * lam - want) <= 1e-15 * want, m
        for t, z in samples:
            assert state_error(eval_lifted(other, t / lam), (lam * z[0], lam * z[1])) <= 1e-14, (m, t)


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
