"""The closed form against a 50-digit reference, across the limits that make
up the degenerate flows: delta -> 0, y1(0)/|y(0)| -> 0 and u(0) -> u+-.

The reference evaluates the textbook formula of each flow with mpmath (the
Moebius ratio of s**(-delta), its logarithmic limit at delta = 0, and
y2(0)/(1 - y2(0) t) on the line y1 = 0), from the solution's own delta and
u-, with u+ = u- + delta.  The lifted reference continues log s along the
warped path by small steps.  Points are clear of singular times, and errors
are relative to the larger component of the state.
"""

import cmath
import math
import random

import pytest

mp = pytest.importorskip("mpmath").mp

from quadode import (
    CanonicalParams,
    CanonicalState,
    LiftParams,
    eval_canonical,
    eval_lifted,
    forward_map,
    lift,
    linear_change_from_b,
    solve_canonical,
    solve_lifted,
    time_warp,
)
from quadode.canonical import eval_canonical_general
from quadode.extensions import _WarpLog
from quadode.numerics import expm1, log1p

TOL = 1e-14
RHO2 = 0.5
ETA = 0.4 + 0.9j


def digits(sol) -> int:
    """Working digits: the textbook ratio cancels about log10(1/|delta|)
    digits, and log10|y2(0)/y1(0)| more as y1(0) -> 0."""
    lost = 0.0
    if sol.y10 and sol.y20:
        lost += max(0.0, math.log10(abs(sol.y20)) - math.log10(abs(sol.y10)))
    if sol.delta:
        lost += max(0.0, -math.log10(abs(sol.delta)))
    return 50 + int(lost)


def reference(sol, warp, path=None):
    """y at the complex time ``warp`` with log s continued along ``path``
    (a list of times ending at ``warp``; None: the straight path)."""
    y10, y20 = mp.mpc(sol.y10), mp.mpc(sol.y20)
    if y10 == 0:
        return mp.mpc(0), y20 / (1 - y20 * mp.mpc(warp))
    um, delta = mp.mpc(sol.u_minus), mp.mpc(sol.delta)
    up = um + delta
    if path is None:
        log_s = mp.log1p(-y10 * mp.mpc(warp))
    else:
        points = [1 - y10 * mp.mpc(tau) for tau in path]
        log_s = mp.fsum(mp.log(b / a) for a, b in zip([mp.mpc(1)] + points, points))
    s = mp.exp(log_s)
    u0 = y20 / y10
    dm, dp = u0 - um, u0 - up
    if delta == 0:
        u = um + dm / (1 + dm * log_s)
    else:
        power = mp.exp(-delta * log_s)
        u = (up * dm - um * dp * power) / (dm - dp * power)
    y1 = y10 / s
    return y1, y1 * u


def error(got, want) -> float:
    return float(max(abs(g - w) for g, w in zip(got, want)) / max(abs(w) for w in want))


def canonical(delta, y0):
    rho1 = ((1 - RHO2) ** 2 - delta * delta) / 4
    return solve_canonical(CanonicalParams(rho1, RHO2), CanonicalState(*y0))


def near_fixed_points():
    sol = canonical(0.7, (1.0, 0.0))
    for u in (sol.u_plus, sol.u_minus):
        for eps in (1e-3, 1e-8, 1e-13, 0.0):
            yield (1.0, u + eps)


SWEEP = {
    "delta": [(d, (1.0, 0.3)) for d in (1e-3, 1e-5, 1e-6, 9e-7, 1e-7, 1e-9, 1e-12, 0.0)]
    + [(d * 1j, (1.0, 0.3)) for d in (1e-3, 1e-6, 1e-9)],
    "y1(0)": [(0.7, (2.0**-m, 0.3)) for m in (0, 10, 20, 32, 40, 60, 200)] + [(0.7, (0.0, 0.3))],
    "u(0)": [(0.7, y0) for y0 in near_fixed_points()],
}


def cases(kind):
    return [canonical(delta, y0) for delta, y0 in SWEEP[kind]]


@pytest.mark.parametrize("kind", sorted(SWEEP))
def test_plain_evaluator(kind):
    for sol in cases(kind):
        with mp.workdps(digits(sol)):
            for t in (-0.7, 0.3, 0.5):
                assert error(eval_canonical(sol, t), reference(sol, t)) <= TOL, (sol, t)


@pytest.mark.parametrize("kind", sorted(SWEEP))
def test_lifted_evaluator(kind):
    for sol in cases(kind):
        with mp.workdps(digits(sol)):
            for t in (0.3, 0.5, 1.5):
                # as eval_lifted forms them: None where the path is principal
                warp = time_warp(ETA, t)
                log_s = _WarpLog(sol.y10, ETA).point(t, 1e-9)[2] if sol.y10 else None
                got = eval_canonical_general(sol, t, warp, log_s)
                path = [time_warp(ETA, t * j / 64) for j in range(1, 64)] + [warp]
                assert error(got, reference(sol, warp, path)) <= TOL, (sol, t)


@pytest.mark.parametrize(
    "y0, t",
    [((0.0, 1e308), 2.0), ((0.0, 1e300), 1e9), ((1e-300, 1e300), 1e9)],
    ids=["y2(0)*t", "y2(0)*t large t", "a*E/y1(0)"],
)
def test_terms_past_floating_point_are_not_singular(y0, t):
    # the named term overflows, yet the state is finite: y2 is near
    # 1/(1/y2(0) - t), -0.5 and -1e-9 here
    sol = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(*y0))
    with mp.workdps(digits(sol)):
        got = eval_canonical(sol, t)
        assert error(got, reference(sol, t)) <= 1e-12
    assert abs(got[1] - 1.0 / (1.0 / y0[1] - t)) <= 1e-12 * abs(got[1])


def test_the_sweep_reaches_every_label():
    labels = {sol.case for kind in SWEEP for sol in cases(kind)}
    assert {label.value for label in labels} == {
        "generic",
        "delta_zero",
        "fixed_point_plus",
        "fixed_point_minus",
        "y1_zero",
    }


def test_expm1_and_log1p():
    # seeded arguments from 1e-15 to 10 in modulus, both sides of the switch
    # of expm1 at |z| = 1/2, and 1 + w near the unit circle for log1p
    rng = random.Random(11)
    worst = 0.0
    for _ in range(2000):
        z = cmath.rect(10 ** rng.uniform(-15, 1), rng.uniform(-math.pi, math.pi))
        worst = max(worst, float(abs(expm1(z) - mp.expm1(z)) / abs(mp.expm1(z))))
        w = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-3, 3)) - 1.0 if rng.random() < 0.3 else z
        worst = max(worst, float(abs(log1p(w) - mp.log1p(w)) / abs(mp.log1p(w))))
    assert worst <= 1e-15


# |eta*t| across the old series switch at 1e-6 and the switch of phi1 at 1/2
WARP_SIZES = [1e-10, 1e-8, 1e-6, 1.01e-6, 1e-5, 1e-4, 1e-2, 0.3, 0.49, 0.51, 1.0]
RATE_DIRECTIONS = {
    "real": [1.0, -1.0],
    "imaginary": [1j, -1j],
    "general": [cmath.rect(1.0, a) for a in (0.4, 1.2, 2.0, -2.6)],
}


@pytest.mark.parametrize("kind", sorted(RATE_DIRECTIONS))
def test_warp_and_lifted_state_at_small_rates(kind):
    # the warp is formed in mpmath, not taken from the program as in
    # test_lifted_evaluator; b = I, so the base flow is the canonical one
    t = 0.5
    sys = forward_map(CanonicalParams(0.3, 0.2), linear_change_from_b(((1, 0), (0, 1))))
    with mp.workdps(40):
        for direction in RATE_DIRECTIONS[kind]:
            for size in WARP_SIZES:
                eta = direction * (size / t)
                x = mp.mpc(eta) * t
                warp = mp.expm1(x) / mp.mpc(eta)
                assert abs(time_warp(eta, t) - warp) / abs(warp) <= TOL, (eta, t)
                traj = solve_lifted(lift(sys, LiftParams((0, 0), eta)), (1, 0.5), t_max=1.0)
                (b11, b12), (b21, b22) = traj.decomposition.change.b
                y1, y2 = reference(traj.canonical, warp)
                growth = mp.exp(x)
                want = (growth * (b11 * y1 + b12 * y2), growth * (b21 * y1 + b22 * y2))
                assert error(eval_lifted(traj, t), want) <= TOL, (eta, t)
