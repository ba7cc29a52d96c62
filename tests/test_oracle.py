"""Reference integrator: accuracy, termination modes, trajectory comparison."""

import dataclasses
import random

import pytest

from quadode import (
    REACHED_T_END,
    STATE_OVERFLOW,
    STEP_COLLAPSE,
    CanonicalParams,
    CanonicalState,
    QuadraticSystem,
    canonical_rhs,
    compare_trajectories,
    eval_trajectory,
    first_singular_time,
    forward_map,
    integrate,
    linear_change_from_b,
    solve_ivp,
)
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3, sample_solvable_system
from dp5_tableau import tableau_integrate


def canonical_system(p):
    params = CanonicalParams(*p)
    return lambda y: tuple(canonical_rhs(params, CanonicalState(*y)))


class TestIntegrate:
    def test_decoupled_closed_form(self):
        result = integrate(canonical_system((0, 0)), (1, 2), 0.25, rel_tol=1e-10)
        assert result.terminated == REACHED_T_END
        y = result.states[-1]
        assert abs(y[0] - 4 / 3) <= 1e-8
        assert abs(y[1] - 4.0) <= 1e-8

    def test_matches_closed_form_on_reference(self):
        traj = solve_ivp(EXAMPLE1, (1, 1))
        t_end = 0.5 * first_singular_time(traj)
        result = integrate(EXAMPLE1, (1, 1), t_end, t_eval=[t_end])
        got = result.states[-1]
        want = eval_trajectory(traj, t_end)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-6 * (1 + abs(w))

    def test_step_collapse_at_pole(self):
        traj = solve_ivp(EXAMPLE2, (1, 1), t_max=1.0)
        pole = first_singular_time(traj)
        assert pole is not None and pole < 1.0
        result = integrate(EXAMPLE2, (1, 1), 1.0)
        assert result.terminated in (STEP_COLLAPSE, STATE_OVERFLOW)
        assert abs(result.last_time - pole) <= 1e-4 * pole

    def test_t_eval_recording(self):
        samples = [0.05, 0.1, 0.15]
        result = integrate(canonical_system((0, 0)), (1, 2), 0.2, t_eval=samples)
        assert result.times == samples
        assert len(result.states) == 3

    def test_t_eval_one_ulp_past_end_is_clamped(self):
        # grids built as t_end*(i+1)/n can overshoot t_end by one ulp
        t_end = 6.871440925962869
        samples = [t_end * (i + 1) / 20 for i in range(20)]
        assert samples[-1] > t_end  # the overshooting case this guards
        result = integrate(canonical_system((0.01, 0.02)), (0.05, 0.04), t_end, t_eval=samples)
        assert result.terminated == REACHED_T_END
        assert len(result.times) == 20

    def test_t_eval_far_past_end_rejected(self):
        with pytest.raises(ValueError):
            integrate(canonical_system((0, 0)), (1, 2), 0.2, t_eval=[0.3])

    def test_times_strictly_increasing(self):
        result = integrate(EXAMPLE3, (1, 1), 0.5)
        assert all(a < b for a, b in zip(result.times, result.times[1:]))

    def test_invalid_tolerances(self):
        with pytest.raises(ValueError):
            integrate(EXAMPLE1, (1, 1), 1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            integrate(EXAMPLE1, (1, 1), -1.0)

    def test_overflow_termination(self):
        # y' = y^2 from y(0)=1 blows up at t=1; a loose overflow cap triggers
        # the overflow mode before the step collapses.
        result = integrate(
            canonical_system((0, 0)), (1, 1), 2.0, overflow_limit=1e6
        )
        assert result.terminated == STATE_OVERFLOW
        assert result.last_time < 1.0

    def test_canonical_y1_reproduction_property(self):
        rng = random.Random(99)
        for _ in range(10):
            y10 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            result = integrate(canonical_system((0.3, -0.8)), (y10, 0.1), 0.4, t_eval=[0.4])
            want = y10 / (1 - y10 * 0.4)
            got = result.states[-1][0]
            assert abs(got - want) <= 1e-8 * (1 + abs(want))


class TestCompare:
    def test_closed_form_against_itself(self):
        traj = solve_ivp(EXAMPLE3, (1, 1))
        ts = [0.1 * (i + 1) for i in range(5)]
        states = [eval_trajectory(traj, t) for t in ts]
        fake = integrate(EXAMPLE3, (1, 1), ts[-1], t_eval=ts)
        fake = dataclasses.replace(fake, states=states, times=ts)
        assert compare_trajectories(lambda t: eval_trajectory(traj, t), fake, 5) == 0.0

    def test_third_reference_agreement(self):
        traj = solve_ivp(EXAMPLE3, (1, 1))
        numeric = integrate(EXAMPLE3, (1, 1), 1.0)
        dev = compare_trajectories(lambda t: eval_trajectory(traj, t), numeric, 20)
        assert dev <= 1e-6

    def test_mutated_closed_form_detected(self):
        # negating delta without swapping the ratio fixed points is a wrong
        # formula; the comparison must flag it far above tolerance
        traj = solve_ivp(EXAMPLE2, (1, 1))
        bad_canonical = dataclasses.replace(traj.canonical, delta=-traj.canonical.delta)
        bad = dataclasses.replace(traj, canonical=bad_canonical)
        t_end = 0.5 * first_singular_time(traj)
        numeric = integrate(EXAMPLE2, (1, 1), t_end)
        dev = compare_trajectories(lambda t: eval_trajectory(bad, t), numeric, 20)
        assert dev > 1e-2

    def test_empty_numeric_rejected(self):
        empty = integrate(EXAMPLE1, (1, 1), 0.1, t_eval=[])
        with pytest.raises(ValueError):
            compare_trajectories(lambda t: (0j, 0j), empty, 5)

    def test_convergence_with_tolerance(self):
        # halving rel_tol must not worsen agreement by more than a factor 2
        for sys, x0 in ((EXAMPLE1, (1, 1)), (EXAMPLE2, (1, 1)), (EXAMPLE3, (1, 1))):
            traj = solve_ivp(sys, x0)
            ts = first_singular_time(traj)
            t_end = 0.4 * ts if ts is not None else 0.5
            closed = lambda t: eval_trajectory(traj, t)
            devs = []
            for rel in (1e-6, 5e-7, 2.5e-7):
                numeric = integrate(sys, x0, t_end, rel_tol=rel, abs_tol=1e-14)
                devs.append(compare_trajectories(closed, numeric, 10) + 1e-16)
            assert devs[2] <= 2.0 * devs[0]


def _real_system(rng):
    rho = CanonicalParams(rng.uniform(-1, 1), rng.uniform(-1, 1))
    while True:
        b = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        if abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) >= 0.1:
            return forward_map(rho, linear_change_from_b(b))


def _integration_corpus():
    """Seeded integrations that end in each of the three ways."""
    rng = random.Random(20261020)
    runs = []
    for i in range(24):
        real = i % 2 == 0
        sys = _real_system(rng) if real else sample_solvable_system(rng)[0]
        x0 = tuple(complex(rng.uniform(-1, 1), 0 if real else rng.uniform(-1, 1)) for _ in "12")
        ts = first_singular_time(solve_ivp(sys, x0))
        if ts is None:
            runs.append((sys, x0, 2.0, {}))
            continue
        # before the first singular time, then through it
        samples = [0.45 * ts * (j + 1) / 7 for j in range(7)]
        runs.append((sys, x0, 0.45 * ts, {"t_eval": samples} if i % 4 else {}))
        runs.append((sys, x0, 1.5 * ts, {"overflow_limit": 1e3} if i % 3 == 0 else {}))
    # a bare callable, a right-hand side that overflows, and signed zeros
    runs.append((canonical_system((0.3, -0.8)), (0.5j, 0.1), 3.0, {}))
    runs.append((QuadraticSystem(((1e300, 0, 0), (1e300, 1e300, 0))), (1e5, -1e5), 1.0, {}))
    runs.append((EXAMPLE1, (-0.0, 0.0), 1.0, {"t_eval": [0.0, 0.5, 1.0]}))
    return runs


class TestStagesWrittenOut:
    """integrate writes the seven stages out; the tableau loop it replaced
    gives the same times, states and ends to the bit."""

    def test_same_as_the_tableau_loop(self):
        ends = set()
        for sys, x0, t_end, kwargs in _integration_corpus():
            got = integrate(sys, x0, t_end, **kwargs)
            want = tableau_integrate(sys, x0, t_end, **kwargs)
            assert (got.terminated, got.last_time, got.times) == (
                want.terminated,
                want.last_time,
                want.times,
            )
            # repr tells -0.0 from 0.0 and compares NaN
            assert repr(got.states) == repr(want.states)
            ends.add(got.terminated)
        assert ends == {REACHED_T_END, STEP_COLLAPSE, STATE_OVERFLOW}
