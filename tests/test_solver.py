"""End-to-end closed-form solver: composition, golden trajectories, branches."""

import dataclasses
import math
import random
import sys

import pytest

from quadode import (
    CanonicalParams,
    CanonicalState,
    LiftParams,
    QuadraticSystem,
    SolutionCase,
    branch_equivalence_check,
    default_horizon,
    eval_canonical,
    eval_lifted,
    eval_trajectory,
    first_singular_time,
    integrate,
    lift,
    linear_change_from_b,
    push_state,
    solve_canonical,
    solve_ivp,
    solve_lifted,
)
from quadode import extensions, solver
from quadode.transform import linear_change_unchecked
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3, sample_solvable_system

SQRT5 = math.sqrt(5.0)
SQRT21 = math.sqrt(21.0)


def expanded_solution_ex1(x0, t):
    """Fully expanded closed form of the first reference system, written
    directly in the initial data (golden cross-check for the composed
    evaluator)."""
    x1, x2 = x0
    sigma = x1 + 3 * x2
    w = (1 + (2 / 3) * t * sigma) ** complex(0, SQRT5)
    d1 = (3 + 2 * t * sigma) * (
        (-7 - 1j * SQRT5) * x1
        + (-3 - 3j * SQRT5) * x2
        + ((7 - 1j * SQRT5) * x1 + 3 * (1 - 1j * SQRT5) * x2) * w
    )
    out1 = (
        3
        * sigma
        * ((2 - 1j * SQRT5) * x1 + 3 * x2 - ((2 + 1j * SQRT5) * x1 + 3 * x2) * w)
        / d1
    )
    out2 = (
        3
        * sigma
        * (-3 * x1 - 2 * x2 - 1j * SQRT5 * x2 + (3 * x1 + (2 - 1j * SQRT5) * x2) * w)
        / d1
    )
    return out1, out2


def expanded_solution_ex2(x0, t):
    """Fully expanded closed form of the second reference system."""
    x1, x2 = x0
    sigma = x1 - 2 * x2
    w = (1 - 0.75 * sigma * t) ** complex(math.sqrt(7 / 3))
    d2 = (-4 + 3 * sigma * t) * (
        (-7 + SQRT21) * x1
        - 2 * (7 + SQRT21) * x2
        + ((7 + SQRT21) * x1 + 2 * (7 - SQRT21) * x2) * w
    )
    out1 = 4 * sigma * ((5 - SQRT21) * x1 + 4 * x2 - ((5 + SQRT21) * x1 + 4 * x2) * w) / d2
    out2 = 4 * sigma * (-x1 - (5 + SQRT21) * x2 + (x1 + (5 - SQRT21) * x2) * w) / d2
    return out1, out2


def expanded_solution_ex3(x0, t):
    """Fully expanded closed form of the third reference system."""
    x1, x2 = x0
    sigma = 3 * x1 - 5 * x2
    w = (1 - (2 / 39) * sigma * t) ** 1.5
    d3 = (39 - 2 * sigma * t) * (
        702 * x1 - 156 * x2 - 39 * (9 * x1 + 11 * x2) * w
    )
    out1 = sigma * (3861 * x1 - 858 * x2 + 78 * (9 * x1 + 11 * x2) * w) / d3
    out2 = -9 * sigma * (351 * x1 - 78 * x2 - 39 * (9 * x1 + 11 * x2) * w) / d3
    return out1, out2


class TestSolveIvp:
    def test_initial_value_and_pulled_state(self):
        traj = solve_ivp(EXAMPLE1, (1, 0))
        x = eval_trajectory(traj, 0.0)
        assert abs(x[0] - 1) <= 1e-12 and abs(x[1]) <= 1e-12
        # the canonical first coordinate is -(2/3)(x1 + 3 x2), branch-independent
        assert traj.canonical.y10 == pytest.approx(-2 / 3, rel=1e-12)

    def test_canonical_system_passthrough(self):
        sys = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        y0 = (0.4, -0.3)
        traj = solve_ivp(sys, y0)
        sol = solve_canonical(CanonicalParams(1, 3), CanonicalState(*y0))
        for t in (0.0, 0.2, 0.5):
            x = eval_trajectory(traj, t)
            y = eval_canonical(sol, t)
            assert abs(x[0] - y.y1) <= 1e-12 * (1 + abs(y.y1))
            assert abs(x[1] - y.y2) <= 1e-12 * (1 + abs(y.y2))

    def test_null_line_maps_to_y1_zero_case(self):
        # for the third reference system, y1(0) is proportional to 3x1 - 5x2
        traj = solve_ivp(EXAMPLE3, (5, 3))
        assert traj.canonical.case is SolutionCase.Y1_ZERO

    def test_invalid_branch_rejected(self):
        with pytest.raises(ValueError):
            solve_ivp(EXAMPLE1, (1, 1), branch="both")

    def test_horizon_scales_inversely(self):
        assert default_horizon(EXAMPLE1, (1, 1)) < default_horizon(EXAMPLE1, (0.1, 0.1))

    def test_horizon_saturates_where_the_product_overflows(self):
        canonical = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        x0 = (1e308, 1.0)
        # max|c| = 3; 3e308 overflows, and the horizon used to be 10/inf = 0
        assert default_horizon(canonical, x0) == 10.0 / 3.0 / 1e308
        assert solve_ivp(canonical, x0).t_singular
        lifted = solve_lifted(lift(canonical, LiftParams(zbar=(0, 0), eta=1j)), x0)
        assert lifted.t_singular
        # at least the least positive float, never 0
        huge = QuadraticSystem(((1e308, 0, 0), (1, 3, 1)))
        assert default_horizon(huge, x0) == math.ulp(0.0)
        # finite products keep the formula's bits
        assert default_horizon(EXAMPLE1, (1, 2)) == 10.0 / (1.0 + 3.0 * 2.0)
        assert default_horizon(canonical, (1e307, 1.0)) == 10.0 / (1.0 + 3.0 * 1e307)


def _canonical_reference(rho, y0, t):
    """The canonical state at t in 40 digits, the logarithm principal."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        rho1, rho2 = mpmath.mpc(rho[0]), mpmath.mpc(rho[1])
        y10, y20 = mpmath.mpc(y0[0]), mpmath.mpc(y0[1])
        delta = mpmath.sqrt((1 - rho2) ** 2 - 4 * rho1)
        u_plus, u_minus = (1 - rho2 + delta) / 2, (1 - rho2 - delta) / 2
        s = 1 - y10 * t
        power = mpmath.exp(-delta * mpmath.log(s))
        u0 = y20 / y10
        dm, dp = u0 - u_minus, u0 - u_plus
        u = (u_plus * dm - u_minus * dp * power) / (dm - dp * power)
        return complex(y10 / s), complex(y10 / s * u)


class TestPastTheRangeOfExp:
    """With delta = i*d, |s**-delta| = exp(d*arg s) leaves the float range
    once arg s passes ~709/d, as it does past the pole; the ratio is then
    formed with s**delta, whose modulus is below 1."""

    @pytest.mark.parametrize("d", [300, 3000])
    @pytest.mark.parametrize(
        "y10, times",
        [
            (1, (1.25, 1.5, 2.0)),
            # arg s passes pi/2 on the way: exp stays finite here for d = 300,
            # but its products do not
            (1 - 0.3j, (1.40069, 1.40084, 1.6)),
        ],
    )
    def test_agrees_with_mpmath(self, d, y10, times):
        sys = QuadraticSystem(((1, 0, 0), ((0.25 + d**2) / 4, 0.5, 1)))
        traj = solve_ivp(sys, (y10, 0.3), t_max=1.0)
        assert traj.decomposition.b == ((1, 0), (0, 1))
        rho = traj.decomposition.rho
        for t in times:
            x = eval_trajectory(traj, t)
            want = _canonical_reference(rho, (y10, 0.3), t)
            err = max(abs(x[0] - want[0]), abs(x[1] - want[1]))
            assert err <= 1e-12 * max(abs(want[0]), abs(want[1])), (t, x, want)


class TestGoldenTrajectories:
    def test_first_reference_expanded_form(self):
        traj = solve_ivp(EXAMPLE1, (1, 1))
        for t in (0.05, 0.1, 0.2):
            got = eval_trajectory(traj, t)
            want = expanded_solution_ex1((1, 1), t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * (1 + abs(w))

    def test_second_reference_expanded_form(self):
        traj = solve_ivp(EXAMPLE2, (1, 1))
        for t in (0.05, 0.15):
            got = eval_trajectory(traj, t)
            want = expanded_solution_ex2((1, 1), t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * (1 + abs(w))

    def test_third_reference_expanded_form(self):
        traj = solve_ivp(EXAMPLE3, (1, 1))
        for t in (0.3, 1.0):
            got = eval_trajectory(traj, t)
            want = expanded_solution_ex3((1, 1), t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * (1 + abs(w))

    def test_second_reference_against_integrator(self):
        traj = solve_ivp(EXAMPLE2, (2, -1))
        num = integrate(EXAMPLE2, (2, -1), 0.2, t_eval=[0.2])
        got = eval_trajectory(traj, 0.2)
        ref = num.states[-1]
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-7 * (1 + abs(r))


class TestBranchEquivalence:
    @pytest.mark.parametrize(
        "sys, x0",
        [(EXAMPLE1, (1, 1)), (EXAMPLE2, (1, 0)), (EXAMPLE3, (1, 1))],
        ids=["ex1", "ex2", "ex3"],
    )
    def test_reference_systems(self, sys, x0):
        traj = solve_ivp(sys, x0)
        ts = first_singular_time(traj)
        t_hi = 0.5 * ts if ts is not None else 0.5 * default_horizon(sys, x0)
        samples = [t_hi * (i + 1) / 20 for i in range(20)]
        assert branch_equivalence_check(sys, x0, samples) <= 1e-9

    def test_random_systems(self):
        rng = random.Random(606)
        for _ in range(25):
            sys, _, _ = sample_solvable_system(rng)
            x0 = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            traj = solve_ivp(sys, x0)
            ts = first_singular_time(traj)
            t_hi = 0.5 * ts if ts is not None else 0.5 * default_horizon(sys, x0)
            samples = [t_hi * (i + 1) / 20 for i in range(20)]
            assert branch_equivalence_check(sys, x0, samples) <= 1e-8


class TestTrajectoryProperties:
    def test_ode_residual(self):
        traj = solve_ivp(EXAMPLE2, (1, 1))
        ts = first_singular_time(traj)
        t_hi = 0.4 * ts if ts is not None else 0.5
        for i in range(1, 21):
            t = t_hi * i / 20
            h = 1e-6 * max(1.0, t)
            x_m = eval_trajectory(traj, t - h)
            x_p = eval_trajectory(traj, t + h)
            fd = ((x_p[0] - x_m[0]) / (2 * h), (x_p[1] - x_m[1]) / (2 * h))
            d = EXAMPLE2.rhs(eval_trajectory(traj, t))
            scale = max(1.0, abs(d[0]), abs(d[1]))
            assert abs(fd[0] - d[0]) <= 1e-6 * scale
            assert abs(fd[1] - d[1]) <= 1e-6 * scale

    def test_singular_time_brackets_oracle_collapse(self):
        traj = solve_ivp(EXAMPLE1, (1, 1), t_max=2.0)
        ts = first_singular_time(traj)
        assert ts is not None
        num = integrate(EXAMPLE1, (1, 1), 2.0)
        assert num.terminated in ("step_collapse", "state_overflow")
        assert abs(num.last_time - ts) <= 1e-4 * ts

    def test_oracle_agreement_reference_corpus(self):
        for sys, x0 in ((EXAMPLE1, (1, 1)), (EXAMPLE2, (1, 1)), (EXAMPLE3, (1, 1))):
            traj = solve_ivp(sys, x0)
            ts = first_singular_time(traj)
            t_hi = 0.5 * ts if ts is not None else 0.5 * default_horizon(sys, x0)
            samples = [t_hi * (i + 1) / 20 for i in range(20)]
            num = integrate(sys, x0, samples[-1], t_eval=samples)
            worst = 0.0
            for t, ref in zip(num.times, num.states):
                got = eval_trajectory(traj, t)
                diff = max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))
                worst = max(worst, diff / (1 + max(abs(got[0]), abs(got[1]))))
            assert worst <= 1e-6


def count_change_builds(monkeypatch) -> list:
    """Record every change built through any quadode module: calls of
    linear_change_unchecked, which linear_change_from_b also goes through."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return linear_change_unchecked(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadode" and (
            getattr(module, "linear_change_unchecked", None) is linear_change_unchecked
        ):
            monkeypatch.setattr(module, "linear_change_unchecked", counting)
    return calls


def record_pushes(monkeypatch, module) -> list:
    """Record the change passed to every push_state call made by ``module``."""
    used = []

    def recording(ch, y):
        used.append(ch)
        return push_state(ch, y)

    monkeypatch.setattr(module, "push_state", recording)
    return used


class TestChangeBuiltOnce:
    """decompose builds each branch's change once; solves reuse it."""

    def test_solve_ivp(self, monkeypatch):
        calls = count_change_builds(monkeypatch)
        traj = solve_ivp(EXAMPLE1, (1, 1))
        assert len(calls) == 2
        assert "change" not in {f.name for f in dataclasses.fields(traj)}
        used = record_pushes(monkeypatch, solver)
        eval_trajectory(traj, 0.1)
        assert len(used) == 1 and used[0] is traj.decomposition.change
        assert traj.decomposition.b is traj.decomposition.change.b

    def test_solve_lifted(self, monkeypatch):
        lifted = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
        calls = count_change_builds(monkeypatch)
        traj = solve_lifted(lifted, (0.26, -0.13), t_max=1.0)
        assert len(calls) == 2
        assert "change" not in {f.name for f in dataclasses.fields(traj)}
        used = record_pushes(monkeypatch, extensions)
        eval_lifted(traj, 0.5)
        assert len(used) == 1 and used[0] is traj.decomposition.change

    def test_branch_equivalence_check(self, monkeypatch):
        calls = count_change_builds(monkeypatch)
        assert branch_equivalence_check(EXAMPLE2, (1, 1), [0.01, 0.02]) <= 1e-8
        assert len(calls) == 2
