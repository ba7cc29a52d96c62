"""Canonical-system closed form: classification, evaluation, singular times."""

import cmath
import dataclasses
import math
import random
import time

import pytest

from quadode import (
    CanonicalParams,
    CanonicalState,
    DEFAULT_TOLERANCES,
    SingularPointError,
    SolutionCase,
    canonical_rhs,
    eval_canonical,
    integrate,
    singular_times,
    solve_canonical,
)
from quadode.canonical import _target_lattice, denominator_log_targets


def as_rhs(params):
    return lambda y: tuple(canonical_rhs(params, CanonicalState(*y)))


class TestRhs:
    def test_zero_params(self):
        d = canonical_rhs(CanonicalParams(0, 0), CanonicalState(1, 2))
        assert d == (1, 4)

    def test_direct_substitution(self):
        d = canonical_rhs(CanonicalParams(1.5, 0), CanonicalState(1, 0))
        assert d == (1, 1.5)

    def test_y1_zero_line_invariant(self):
        d = canonical_rhs(CanonicalParams(2.0, -3.0), CanonicalState(0, 5))
        assert d == (0, 25)


class TestSolveClassification:
    def test_generic(self):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(1, 2))
        assert sol.case is SolutionCase.GENERIC
        assert sol.delta == pytest.approx(1.0)
        assert sol.u_plus == pytest.approx(1.0)
        assert sol.u_minus == pytest.approx(0.0)
        assert sol.u0 == pytest.approx(2.0)

    def test_y1_zero(self):
        sol = solve_canonical(CanonicalParams(2.5, -1.0), CanonicalState(0, 3))
        assert sol.case is SolutionCase.Y1_ZERO

    def test_delta_zero(self):
        # rho1 = (1 - rho2)^2 / 4 makes the two ratio fixed points coincide
        sol = solve_canonical(CanonicalParams(1, 3), CanonicalState(1, 1))
        assert sol.case is SolutionCase.DELTA_ZERO
        assert sol.u_plus == sol.u_minus == pytest.approx(-1.0)

    def test_fixed_points(self):
        plus = solve_canonical(CanonicalParams(0, 0), CanonicalState(2, 2))
        minus = solve_canonical(CanonicalParams(0, 0), CanonicalState(2, 0))
        assert plus.case is SolutionCase.FIXED_POINT_PLUS
        assert minus.case is SolutionCase.FIXED_POINT_MINUS

    def test_zero_ratio_is_plain_generic(self):
        # y2(0) = 0 with y1(0) != 0 gives u(0) = 0, admissible in the generic
        # formula whenever 0 is not a ratio fixed point
        sol = solve_canonical(CanonicalParams(0.5, 0.25), CanonicalState(1, 0))
        assert sol.case is SolutionCase.GENERIC
        assert sol.u0 == 0

    def test_u_plus_minus_identities(self):
        rng = random.Random(7)
        for _ in range(50):
            p = CanonicalParams(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            sol = solve_canonical(p, CanonicalState(1, 0.5))
            assert abs(sol.u_plus + sol.u_minus - (1 - p.rho2)) <= 1e-12 * (1 + abs(p.rho2))
            assert abs(sol.u_plus - sol.u_minus - sol.delta) <= 1e-12 * (1 + abs(sol.delta))
            assert abs(sol.delta**2 - ((1 - p.rho2) ** 2 - 4 * p.rho1)) <= 1e-12 * (
                1 + abs(p.rho1) + abs(p.rho2) ** 2
            )


class TestEval:
    def test_decoupled_values(self):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(1, 2))
        y = eval_canonical(sol, 0.25)
        assert y.y1 == pytest.approx(4 / 3, rel=1e-14)
        assert y.y2 == pytest.approx(4.0, rel=1e-14)

    def test_fixed_point_ratio_constant(self):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(0.5, 0.5))
        for t in (0.1, 0.7, 1.3):
            y = eval_canonical(sol, t)
            assert y.y2 / y.y1 == pytest.approx(1.0, rel=1e-13)

    def test_against_integrator(self):
        p = CanonicalParams(1.5, 0)
        sol = solve_canonical(p, CanonicalState(1, 1))
        num = integrate(as_rhs(p), (1, 1), 0.3, t_eval=[0.3])
        closed = eval_canonical(sol, 0.3)
        ref = num.states[-1]
        assert abs(closed.y1 - ref[0]) <= 1e-8 * (1 + abs(ref[0]))
        assert abs(closed.y2 - ref[1]) <= 1e-8 * (1 + abs(ref[1]))

    @pytest.mark.parametrize(
        "p, y0",
        [
            ((0, 0), (1, 2)),
            ((1, 3), (1, 1)),
            ((2.5, -1.0), (0, 3)),
            ((0, 0), (2, 2)),
            ((1.5, 0), (1 + 0.5j, -0.25 + 1j)),
        ],
    )
    def test_initial_value_exact(self, p, y0):
        sol = solve_canonical(CanonicalParams(*p), CanonicalState(*y0))
        y = eval_canonical(sol, 0.0)
        assert abs(y.y1 - y0[0]) <= 1e-14 * (1 + abs(y0[0]))
        assert abs(y.y2 - y0[1]) <= 1e-14 * (1 + abs(y0[1]))

    def test_singular_point_raises(self):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(1, 1))
        with pytest.raises(SingularPointError):
            eval_canonical(sol, 1.0)

    def test_y1_zero_evolution(self):
        sol = solve_canonical(CanonicalParams(4, 5), CanonicalState(0, 2))
        y = eval_canonical(sol, 0.25)
        assert y.y1 == 0
        assert y.y2 == pytest.approx(4.0, rel=1e-14)


class TestConstantsFormedOnce:
    """The solution forms its closed form's constants once."""

    def test_constants_stay_out_of_repr_and_equality(self):
        p, y0 = CanonicalParams(0.3, 0.2j), CanonicalState(1, 0.5)
        sol = solve_canonical(p, y0)
        assert "_consts" not in repr(sol)
        assert sol == solve_canonical(p, y0)
        # a copy with another delta forms its own constants
        flipped = dataclasses.replace(sol, delta=-sol.delta)
        assert flipped._consts[3] == sol.delta


class TestProperties:
    cases = [
        ((0, 0), (1, 2)),
        ((1.5, 0), (1, 1)),
        ((1, 3), (1, 1)),
        ((2.5, -1.0), (0, 3)),
        ((0, 0), (2, 2)),
        ((0.3 + 0.2j, -0.5 + 0.1j), (0.9 - 0.3j, 0.4 + 0.6j)),
    ]

    @pytest.mark.parametrize("p, y0", cases)
    def test_derivative_residual(self, p, y0):
        params = CanonicalParams(*p)
        sol = solve_canonical(params, CanonicalState(*y0))
        sing = singular_times(sol, 2.0)
        t_hi = 0.4 * sing[0] if sing else 0.5
        for i in range(1, 6):
            t = t_hi * i / 5
            h = 1e-6 * max(1.0, abs(t))
            y_m = eval_canonical(sol, t - h)
            y_p = eval_canonical(sol, t + h)
            fd = ((y_p.y1 - y_m.y1) / (2 * h), (y_p.y2 - y_m.y2) / (2 * h))
            y = eval_canonical(sol, t)
            d = canonical_rhs(params, y)
            scale = max(1.0, abs(d.y1), abs(d.y2))
            assert abs(fd[0] - d.y1) <= 1e-6 * scale
            assert abs(fd[1] - d.y2) <= 1e-6 * scale

    def test_delta_sign_invariance(self):
        sol = solve_canonical(CanonicalParams(1.5, 0), CanonicalState(1, 1))
        flipped = dataclasses.replace(
            sol, delta=-sol.delta, u_plus=sol.u_minus, u_minus=sol.u_plus
        )
        for t in (0.05, 0.15, 0.25):
            a = eval_canonical(sol, t)
            b = eval_canonical(flipped, t)
            assert abs(a.y1 - b.y1) <= 1e-12 * (1 + abs(a.y1))
            assert abs(a.y2 - b.y2) <= 1e-12 * (1 + abs(a.y2))

    def test_generic_limit_matches_delta_zero(self):
        # A two-point extrapolation of the generic branch in eps^2 must land
        # on the coincident-fixed-point formula.
        rho2 = 3.0
        y0 = CanonicalState(1, 1)
        exact = solve_canonical(CanonicalParams(1.0, rho2), y0)
        assert exact.case is SolutionCase.DELTA_ZERO
        t = 0.15

        def generic_value(eps):
            rho1 = ((1 - rho2) ** 2 - eps**2) / 4
            sol = solve_canonical(CanonicalParams(rho1, rho2), y0)
            assert sol.case is SolutionCase.GENERIC
            return eval_canonical(sol, t)

        e1, e2 = 1e-4, 1e-5
        v1, v2 = generic_value(e1), generic_value(e2)
        ref = eval_canonical(exact, t)
        for i in range(2):
            extrapolated = (e1**2 * v2[i] - e2**2 * v1[i]) / (e1**2 - e2**2)
            assert abs(extrapolated - ref[i]) <= 1e-3 * (1 + abs(ref[i]))


class TestSingularTimes:
    def test_decoupled_poles(self):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(1, 2))
        times = singular_times(sol, 2.0)
        assert times == pytest.approx([0.5, 1.0], rel=1e-12)

    def test_y1_zero_pole(self):
        sol = solve_canonical(CanonicalParams(1, 1), CanonicalState(0, 3))
        assert singular_times(sol, 1.0) == pytest.approx([1 / 3], rel=1e-12)

    def test_complex_initial_data_no_real_pole(self):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(1j, 0.5j))
        assert singular_times(sol, 3.0) == []

    def test_oscillatory_denominator_matches_blow_up(self):
        # Initial data pulled from the first reference system at x0 = (1, 1):
        # the ratio denominator oscillates and x blows up before the y1 pole.
        p = CanonicalParams(1.5, 0)
        y0 = CanonicalState(-8 / 3, 2)
        sol = solve_canonical(p, y0)
        times = singular_times(sol, 2.0)
        assert len(times) == 1
        num = integrate(as_rhs(p), tuple(y0), 2.0)
        assert num.terminated in ("step_collapse", "state_overflow")
        assert abs(num.last_time - times[0]) <= 1e-6 * times[0]

    def test_accumulating_zeros_before_pole(self):
        # with an imaginary exponent and the y1 pole on the positive axis the
        # denominator zeros accumulate at the pole; the earliest (the actual
        # blow-up) must lead the sorted list and match the integrator
        p = CanonicalParams(1.5, 0)
        sol = solve_canonical(p, CanonicalState(8 / 3, -2))
        times = singular_times(sol, 2.0)
        assert len(times) >= 3
        assert all(a < b + 1e-15 for a, b in zip(times, times[1:]))
        assert times[-1] <= 0.375 + 1e-9  # the y1 pole bounds the cluster
        num = integrate(as_rhs(p), (8 / 3, -2), 2.0)
        assert abs(num.last_time - times[0]) <= 1e-6 * times[0]

    def test_imaginary_exponent_zeros_reach_the_pole_band(self):
        # delta = 30i: with s = 1 - t the denominator vanishes where
        # exp(30i x) = dm/dp for x = -log(1 - t), i.e. at
        # x_k = (arg(dm/dp) + 2 pi k)/30, accumulating at the pole t = 1.
        # Every zero must be reported down to the pole's sing_tol band.
        rho2 = 0.5
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 + 900) / 4, rho2), CanonicalState(1, 0.3)
        )
        times = singular_times(sol, 2.0)
        assert times[-1] == pytest.approx(1.0, rel=1e-15)
        zeros = times[:-1]
        u_plus, u_minus = (1 - rho2 + 30j) / 2, (1 - rho2 - 30j) / 2
        theta = cmath.phase((0.3 - u_minus) / (0.3 - u_plus)) % (2 * math.pi)
        expected = [(theta + 2 * math.pi * k) / 30 for k in range(len(zeros))]
        got = [-math.log(1 - t) for t in zeros]
        assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-5
        sing_tol = DEFAULT_TOLERANCES.sing_tol
        assert sing_tol / 3 <= 1 - zeros[-1] <= 3 * sing_tol

    @pytest.mark.parametrize("delta", [1e6, 1e10])
    def test_large_real_exponent_costs_no_scan_of_the_lattice(self, delta):
        # delta is an even integer, so s**(-delta) is single-valued, and with
        # dm/dp = 2 the denominator dm - dp*s**(-delta) vanishes where
        # s = +-2**(-1/delta): once before the pole at t = 1, once after it.
        # The log targets are spaced 2*pi/delta apart along Im, so a scan of
        # the principal strip would visit ~delta branch indices.  u(0) is of
        # order delta, so sing_tol is lowered to keep y1(0) = 1 off the
        # y1 = 0 line.
        tol = dataclasses.replace(DEFAULT_TOLERANCES, sing_tol=1e-12)
        rho2 = 0.5
        u_plus, u_minus = (1 - rho2 + delta) / 2, (1 - rho2 - delta) / 2
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 - delta**2) / 4, rho2),
            CanonicalState(1, 2 * u_plus - u_minus),
            tol,
        )
        start = time.perf_counter()
        times = singular_times(sol, 2.5, tol)
        assert time.perf_counter() - start < 1.0
        shift = -math.expm1(-math.log(2) / delta)  # 1 - 2**(-1/delta)
        assert times == pytest.approx([shift, 1.0, 2.0 - shift], rel=1e-5)

    @pytest.mark.parametrize("y1", [1 + 0.3j, 1 + 1e-4j, 0.5 - 2j])
    @pytest.mark.parametrize("delta", [1e10, 1e6, 1e3])
    def test_placed_zero_is_found_for_large_exponents(self, y1, delta):
        # choose u(0) so that the denominator vanishes at t0, where
        # |s(t0)| = 1 keeps s(t0)**(-delta) finite for large delta;
        # sing_tol is lowered as u(0) can be of order delta
        tol = dataclasses.replace(DEFAULT_TOLERANCES, sing_tol=1e-12)
        rho2 = 0.5
        t0 = 2 * y1.real / abs(y1) ** 2
        w = cmath.exp(-delta * cmath.log(1 - y1 * t0))  # dm/dp at the zero
        u_plus, u_minus = (1 - rho2 + delta) / 2, (1 - rho2 - delta) / 2
        u0 = (u_minus - w * u_plus) / (1 - w)
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 - delta**2) / 4, rho2),
            CanonicalState(y1, y1 * u0),
            tol,
        )
        assert sol.case is SolutionCase.GENERIC
        start = time.perf_counter()
        times = singular_times(sol, t0 + 1.0, tol)
        assert time.perf_counter() - start < 1.0
        # The targets lie 2*pi/delta apart on the line Re = 0, which the path
        # also meets at t = 0; neighbours of t0, and targets next to lam = 0
        # (times below 1e-8, real to within the absolute tolerance), can pass
        # the realness test too.
        away = [t for t in times if t > 1e-8]
        assert min(abs(t - t0) for t in away) <= 1e-12 * t0
        assert all(abs(t - t0) <= 1e-6 * t0 for t in away)

    @pytest.mark.parametrize("y1", [1, 1 + 0.3j, 1 + 1e-4j, 1 - 1e-12j, -0.5])
    @pytest.mark.parametrize("delta", [700.0, 300 + 40j, 30j, 0.4 + 25j])
    def test_matches_a_scan_of_the_principal_strip(self, y1, delta):
        # For real t the log of s = 1 - y1 t is principal, so scanning every
        # branch index whose target has |Im| <= pi finds every real zero.
        rho2 = 0.5
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 - delta**2) / 4, rho2),
            CanonicalState(y1, 0.3 * y1),
        )
        t_max = 2.5
        log_w = cmath.log((sol.u0 - sol.u_minus) / (sol.u0 - sol.u_plus))
        pole = 1 / sol.y10
        pole_real = abs(pole.imag) <= 1e-9 * (1 + abs(pole)) and 0 < pole.real <= t_max
        floor = math.log(DEFAULT_TOLERANCES.sing_tol) - 1 if pole_real else -math.inf
        radius = math.log(1 + abs(y1) * t_max) + abs(floor if pole_real else 0) + 4
        k_max = int((radius + abs(log_w / sol.delta)) * abs(sol.delta) / (2 * math.pi)) + 2
        expected = [pole.real] if pole_real else []
        for k in range(-k_max, k_max + 1):
            lam = -(log_w + 2j * math.pi * k) / sol.delta
            if abs(lam.imag) > math.pi + 1e-9 or not floor <= lam.real <= 700:
                continue
            tc = (1 - cmath.exp(lam)) / sol.y10
            if abs(tc.imag) <= 1e-9 * (1 + abs(tc)) and 0 < tc.real <= t_max:
                expected.append(tc.real)
        expected.sort()
        assert singular_times(sol, t_max) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_zeros_by_an_unreported_pole_are_kept(self):
        # With sing_tol = 1e-3 and y1(0) = 1 + 1e-4j the pole 1/y1(0) is off
        # the real axis, so it is not reported; a zero placed at t = 1, where
        # |s| = 1e-4 < sing_tol/e, must then be reported itself.
        tol = dataclasses.replace(DEFAULT_TOLERANCES, sing_tol=1e-3)
        rho2, delta, y1 = 0.5, 1.5, 1 + 1e-4j
        w = cmath.exp(-delta * cmath.log(1 - y1))
        u_plus, u_minus = (1 - rho2 + delta) / 2, (1 - rho2 - delta) / 2
        u0 = (u_minus - w * u_plus) / (1 - w)
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 - delta**2) / 4, rho2), CanonicalState(y1, y1 * u0), tol
        )
        assert singular_times(sol, 2.0, tol) == pytest.approx([1.0], rel=1e-12)
        with pytest.raises(SingularPointError):
            eval_canonical(sol, 1.0, tol)

    def test_tiny_discriminant_above_band(self):
        # |delta| small but outside the coincident band produces huge log
        # targets; enumeration must skip them instead of overflowing
        eps = 1e-5
        rho2 = 3.0
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 - eps**2) / 4, rho2), CanonicalState(1, 1)
        )
        assert sol.case is SolutionCase.GENERIC
        times = singular_times(sol, 3.0)
        num = integrate(as_rhs(sol.params), (1, 1), 3.0)
        if num.terminated == "reached_t_end":
            assert not [t for t in times if t < num.last_time * (1 - 1e-6)]
        else:
            assert times and abs(num.last_time - times[0]) <= 1e-4 * times[0]

    def test_fuzz_blow_up_bracketing(self):
        # real random data: whenever the integrator collapses, the first
        # reported singular time brackets it; otherwise nothing is reported
        # before the horizon
        rng = random.Random(2718)
        blow_ups = 0
        for _ in range(60):
            p = CanonicalParams(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y0 = CanonicalState(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(y0.y1) < 1e-3:
                continue
            sol = solve_canonical(p, y0)
            times = singular_times(sol, 3.0)
            num = integrate(as_rhs(p), tuple(y0), 3.0)
            if num.terminated == "reached_t_end":
                assert not [t for t in times if t < num.last_time * (1 - 1e-6)]
            else:
                assert times
                assert abs(num.last_time - times[0]) <= 1e-4 * times[0]
                blow_ups += 1
        assert blow_ups >= 10

    def test_requires_positive_horizon(self):
        sol = solve_canonical(CanonicalParams(0, 0), CanonicalState(1, 2))
        with pytest.raises(ValueError):
            singular_times(sol, 0.0)


class TestDenominatorLogTargets:
    def test_a_midpoint_where_s_vanishes_keeps_every_index(self):
        # delta = 100: targets 2*pi/100 apart along Im, 47 of them in the box
        # of two waypoints.  The enumerator splits the one chord at its
        # midpoint, where log_at reports s = 0, and keeps the whole box.
        delta, rho2 = 100.0, 0.5
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 - delta**2) / 4, rho2), CanonicalState(1.0, 0.3)
        )
        origin, step = _target_lattice(sol)
        asked = []

        def log_at(tau):
            asked.append(tau)
            return None

        logs = [origin - 0.1 - 1.5j, origin + 0.1 + 1.5j]
        got = denominator_log_targets(sol, log_at, [0.0, 1.0], logs, 0.0, -math.inf)
        assert asked == [0.5]
        assert len(got) == 47
        assert set(got) == {origin + k * step for k in range(-23, 24)}
