"""The validation boundary: every public entry that takes a caller's time,
horizon, rate or period rejects a non-finite one with ValueError; values
computed inside the boundary are not checked again, except the canonical
y(0), whose pull can overflow on finite data; and the deviation gates report
NaN rather than drop it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadode.extensions as extensions_module
import quadode.solver as solver_module
from quadode import (
    IntegrationResult,
    LiftParams,
    REACHED_T_END,
    STATE_OVERFLOW,
    QuadraticSystem,
    SingularPointError,
    branch_equivalence_check,
    compare_trajectories,
    eval_canonical,
    eval_lifted,
    eval_trajectory,
    integrate,
    isochrony_check,
    lift,
    lifted_singular_times,
    periodicity_deviation,
    singular_times,
    solve_ivp,
    solve_lifted,
)
from conftest import EXAMPLE1, EXAMPLE3

NON_FINITE = [math.nan, math.inf, -math.inf]
NAN_STATE = (complex(math.nan, 0.0), 0j)

TRAJ = solve_ivp(EXAMPLE1, (1, 1))
LIFTED = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
LIFTED_TRAJ = solve_lifted(LIFTED, (0.26, -0.13), t_max=1.0)
PERIOD = isochrony_check(EXAMPLE3, 1.0).period

# each entry with the caller's number it takes
ENTRIES = {
    "eval_canonical t": lambda v: eval_canonical(TRAJ.canonical, v),
    "eval_trajectory t": lambda v: eval_trajectory(TRAJ, v),
    "branch_equivalence_check sample": lambda v: branch_equivalence_check(
        EXAMPLE1, (1, 1), [0.01, v]
    ),
    "eval_lifted t": lambda v: eval_lifted(LIFTED_TRAJ, v),
    "periodicity_deviation period": lambda v: periodicity_deviation(LIFTED_TRAJ, v),
    "singular_times t_max": lambda v: singular_times(TRAJ.canonical, v),
    "lifted_singular_times t_max": lambda v: lifted_singular_times(
        LIFTED_TRAJ.canonical, 1j, v
    ),
    "integrate t_end": lambda v: integrate(EXAMPLE1, (1, 1), v),
    "isochrony_check omega": lambda v: isochrony_check(EXAMPLE3, v),
}


class TestEntriesRejectNonFinite:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_rejects(self, entry, value):
        with pytest.raises(ValueError, match="finite"):
            ENTRIES[entry](value)

    @given(
        entry=st.sampled_from(sorted(ENTRIES)),
        value=st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_property_raises_and_never_returns_nan(self, entry, value):
        with pytest.raises(ValueError):
            ENTRIES[entry](value)

    @given(
        finite=st.lists(st.floats(0.0, 0.05), max_size=4),
        value=st.sampled_from(NON_FINITE),
        where=st.integers(0, 4),
    )
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_property_any_non_finite_sample_time(self, finite, value, where):
        # anywhere among finite sample or interior times, one bad time is refused
        times = finite[:where] + [value] + finite[where:]
        with pytest.raises(ValueError):
            branch_equivalence_check(EXAMPLE1, (1, 1), times)
        with pytest.raises(ValueError):
            periodicity_deviation(LIFTED_TRAJ, PERIOD, interior_times=times)
        with pytest.raises(ValueError):
            integrate(EXAMPLE1, (1, 1), 0.1, t_eval=times)

    def test_finite_inputs_still_accepted(self):
        assert eval_canonical(TRAJ.canonical, 0.0) is not None
        assert singular_times(TRAJ.canonical, 1e300) is not None
        assert isochrony_check(EXAMPLE3, -1e300).isochronous
        assert integrate(EXAMPLE1, (1, 1), 1e-3).terminated == REACHED_T_END


class TestOverflowedInitialData:
    """Finite x(0) or z(0) - zbar whose pull to canonical coordinates
    overflows: the check of y(0) in solve_canonical is the one that catches
    it, since the solvers no longer check data they computed."""

    def test_solve_ivp(self):
        with pytest.raises(ValueError, match=r"y[12]\(0\) must have finite"):
            solve_ivp(EXAMPLE1, (1e308, -1e308))

    def test_branch_equivalence_check(self):
        with pytest.raises(ValueError, match=r"y[12]\(0\) must have finite"):
            branch_equivalence_check(EXAMPLE1, (1e308, -1e308), [0.1])

    def test_solve_lifted_offset(self):
        # z(0) and zbar are finite, their difference is not
        lifted = lift(EXAMPLE3, LiftParams(zbar=(-1e308, 0.0), eta=1j))
        with pytest.raises(ValueError, match=r"y[12]\(0\) must have finite"):
            solve_lifted(lifted, (1e308, 0.0))


class TestGatesKeepNaN:
    """A NaN term that is not the first must reach the caller: max() keeps its
    first argument when the other is NaN."""

    def test_compare_trajectories(self):
        times = [0.1, 0.2, 0.3]
        states = [(complex(t), complex(-t)) for t in times]
        numeric = IntegrationResult(times, states, REACHED_T_END, times[-1])

        def closed(t):
            return NAN_STATE if t == times[1] else states[times.index(t)]

        assert compare_trajectories(lambda t: states[times.index(t)], numeric, 3) == 0.0
        assert math.isnan(compare_trajectories(closed, numeric, 3))

    def test_branch_equivalence_check(self, monkeypatch):
        evaluate = solver_module.eval_canonical

        def nan_at_second(sol, t, tol):
            return NAN_STATE if t == 0.2 else evaluate(sol, t, tol)

        monkeypatch.setattr(solver_module, "eval_canonical", nan_at_second)
        assert math.isnan(branch_equivalence_check(EXAMPLE1, (1, 1), [0.1, 0.2, 0.3]))

    def test_periodicity_deviation(self, monkeypatch):
        evaluate = extensions_module.eval_lifted

        def nan_at_second(traj, t, tol):
            return NAN_STATE if t == 0.5 else evaluate(traj, t, tol)

        monkeypatch.setattr(extensions_module, "eval_lifted", nan_at_second)
        assert math.isnan(periodicity_deviation(LIFTED_TRAJ, PERIOD, interior_times=[0.5]))


CANONICAL = QuadraticSystem(((1, 0, 0), (1, 3, 1)))  # rho = (1, 3), b the identity


class TestFiniteInputNeverOverflows:
    """Large but finite data end in a result or a typed, documented error,
    never in a bare OverflowError or "math domain error"."""

    @pytest.mark.parametrize("x0", [(1e200, 1e200), (1e160, 0)], ids=["1e200", "1e160"])
    def test_singular_times_at_large_y1(self, x0):
        # the foot 1/y1(0) of the line s(t) once squared |y1(0)|
        traj = solve_ivp(CANONICAL, x0)
        assert traj.t_singular and all(0 < t <= 1e-150 for t in traj.t_singular)

    def test_foot_exactly_on_the_pole(self):
        # the pole 1e-300 is listed (it was dropped as <= 1e-300), so its band
        # is cut and no logarithm of s = 0 is taken
        traj = solve_ivp(CANONICAL, (1e300, 1e-300))
        assert traj.t_singular
        with pytest.raises(SingularPointError):
            eval_trajectory(traj, 1e-300)

    def test_warp_path_at_a_huge_rate(self):
        # 4*|eta| overflowed before the product with t
        traj = solve_lifted(lift(EXAMPLE1, LiftParams((0, 0), 1e308j)), (1, 1))
        assert all(t > 0 for t in traj.t_singular)

    def test_oracle_ends_a_non_finite_run(self):
        # the step error was max(0.0, nan) = 0.0, so NaN states reached t_end
        t_end = 1.9e-201
        samples = [t_end * i / 20 for i in range(1, 21)]
        result = integrate(CANONICAL, (1e200, 1e200), t_end, t_eval=samples)
        assert result.terminated == STATE_OVERFLOW
        assert all(math.isfinite(abs(z)) for state in result.states for z in state)

    def test_isochrony_period_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="omega"):
            isochrony_check(EXAMPLE3, 1e-320)
        assert isochrony_check(EXAMPLE3, 1e-300).period < math.inf
