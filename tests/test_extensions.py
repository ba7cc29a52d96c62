"""Rescaling, the exponential lift, and isochrony."""

import cmath
import dataclasses
import math
import random
import time

import pytest

from quadode import (
    CanonicalParams,
    CanonicalState,
    InvalidScalingError,
    LiftedSystem,
    LiftParams,
    QuadraticSystem,
    ScalingParams,
    SingularPointError,
    SolutionCase,
    ToleranceConfig,
    constraint_residuals,
    decompose,
    eval_lifted,
    eval_trajectory,
    first_singular_time,
    forward_map,
    integrate,
    isochrony_check,
    lift,
    lifted_singular_times,
    linear_change_from_b,
    normalize,
    periodicity_deviation,
    rescale,
    solve_canonical,
    solve_ivp,
    solve_lifted,
    time_warp,
)
from quadode.canonical import eval_canonical_general, realness_slack, singular_times
from quadode import canonical, extensions
from quadode.extensions import _WarpLog
from conftest import ALL_EXAMPLES, EXAMPLE1, EXAMPLE2, EXAMPLE3, sample_solvable_system
from dense_walk import (
    dense_warp_path,
    log_increment,
    per_call_warp_log,
    walked_log,
    walked_singular_times,
)


def close(z, w, tol=1e-14):
    return abs(z - w) <= tol * max(1.0, abs(w))


def in_box(lam, bound, t1):
    """lam within the box of ``_WarpLog.box`` on a piece ending at t1, as
    ``denominator_log_targets`` queries it: widened by the realness
    tolerance carried into the log plane by the box's rate, and by 1e-9."""
    box, rate = bound
    pad = min(1.0, realness_slack(t1) * rate) + 1e-9
    return box[0] - pad <= lam.real <= box[1] + pad and box[2] - pad <= lam.imag <= box[3] + pad


class TestRescale:
    def test_identity(self):
        out = rescale(EXAMPLE1, ScalingParams(1, 1, 1))
        assert out.c == EXAMPLE1.c

    def test_first_reference_normal_form(self):
        out = rescale(EXAMPLE1, ScalingParams(1, 7 / 3, -3))
        expected = ((1, -2 / 3, 7 / 9), (27 / 49, -6 / 7, 1))
        for n in range(2):
            for l in range(3):
                assert close(out.c[n][l], expected[n][l])

    def test_second_reference_normal_form(self):
        out, _ = normalize(EXAMPLE2)
        expected = ((1, -1, 1), (-1 / 8, 2, 1))
        for n in range(2):
            for l in range(3):
                assert close(out.c[n][l], expected[n][l])

    def test_third_reference_normal_form(self):
        out, scaling = normalize(EXAMPLE3)
        assert close(scaling.mu1, -19 / 169)
        assert close(scaling.mu2, -36 / 169)
        expected = ((1, 265 / 108, -1045 / 5832), (972 / 361, 1 / 19, 1))
        for n in range(2):
            for l in range(3):
                assert close(out.c[n][l], expected[n][l])

    def test_normalize_already_normalized(self):
        sys, scaling = normalize(rescale(EXAMPLE1, ScalingParams(1, 7 / 3, -3)))
        assert close(scaling.mu1, 1.0) and close(scaling.mu2, 1.0)
        assert close(sys.c11, 1.0) and close(sys.c23, 1.0)

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidScalingError):
            ScalingParams(0, 1, 1)

    def test_normalize_inapplicable(self):
        sys = QuadraticSystem(((0, 1, 0), (1, 0, 1)))
        with pytest.raises(InvalidScalingError):
            normalize(sys)

    def test_constraints_invariant_under_scaling(self):
        rng = random.Random(21)
        for sys in ALL_EXAMPLES:
            for _ in range(20):
                s = ScalingParams(
                    complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
                    complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
                    complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
                )
                assert constraint_residuals(rescale(sys, s)).satisfied

    def test_trajectory_covariance(self):
        # x_hat(lam * t) = (mu_n / lam) * x_n(t); real lam keeps the rescaled
        # time on the real axis, mu_n exercised complex
        lam = 0.5
        mu = (0.8 - 0.3j, 1.4 + 0.2j)
        scaled = rescale(EXAMPLE2, ScalingParams(lam, *mu))
        x0 = (1.0, 1.0)
        x0_hat = (mu[0] / lam * x0[0], mu[1] / lam * x0[1])
        traj = solve_ivp(EXAMPLE2, x0)
        traj_hat = solve_ivp(scaled, x0_hat)
        t_hi = 0.4 * first_singular_time(traj)
        for i in range(1, 11):
            t = t_hi * i / 10
            x = eval_trajectory(traj, t)
            x_hat = eval_trajectory(traj_hat, lam * t)
            for n in range(2):
                want = mu[n] / lam * x[n]
                assert abs(x_hat[n] - want) <= 1e-9 * (1 + abs(want))


class TestLift:
    def test_zero_offset_is_identity(self):
        lifted = lift(EXAMPLE1, LiftParams(zbar=(0, 0), eta=0))
        assert lifted.d == ((0, 0, 0), (0, 0, 0))
        for z in ((0.3, -0.2), (1.1, 0.7)):
            assert lifted.rhs(z) == EXAMPLE1.rhs(z)

    def test_unit_offset_coefficients(self):
        lifted = lift(EXAMPLE1, LiftParams(zbar=(1, 0), eta=0))
        for n in range(2):
            cn1, cn2, cn3 = EXAMPLE1.c[n]
            assert close(lifted.d[n][0], -2 * cn1)
            assert close(lifted.d[n][1], -cn2)
            assert close(lifted.d[n][2], cn1)

    def test_random_lift_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(5):
            sys, _, _ = sample_solvable_system(rng)
            params = LiftParams(
                zbar=(
                    complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                    complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                ),
                eta=complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            )
            lifted = lift(sys, params)
            z0 = (
                params.zbar[0] + complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
                params.zbar[1] + complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
            )
            traj = solve_lifted(lifted, z0)
            t_end = 0.25 * (traj.t_singular[0] if traj.t_singular else 1.0)
            numeric = integrate(lifted, z0, t_end, t_eval=[t_end])
            got = eval_lifted(traj, t_end)
            for g, r in zip(got, numeric.states[-1]):
                assert abs(g - r) <= 1e-7 * (1 + abs(r))

    def test_wrong_cross_coefficient_fails_oracle(self):
        # negative control: the z2-linear coefficient with c_n1 in place of
        # c_n3 breaks conjugacy whenever c_n1 != c_n3
        params = LiftParams(zbar=(0.4, 0.7), eta=0.5)
        rows = []
        for n in range(2):
            cn1, cn2, cn3 = EXAMPLE2.c[n]
            zb1, zb2 = params.zbar
            rows.append(
                (
                    -2 * cn1 * zb1 - cn2 * zb2,
                    -2 * cn1 * zb2 - cn2 * zb1,
                    -params.eta * params.zbar[n]
                    + cn1 * zb1**2
                    + cn2 * zb1 * zb2
                    + cn3 * zb2**2,
                )
            )
        wrong = LiftedSystem(base=EXAMPLE2, d=(rows[0], rows[1]), eta=params.eta, zbar=params.zbar)
        z0 = (0.6, 0.5)
        traj = solve_lifted(lift(EXAMPLE2, params), z0)
        good = integrate(lift(EXAMPLE2, params), z0, 0.3, t_eval=[0.3])
        bad = integrate(wrong, z0, 0.3, t_eval=[0.3])
        closed = eval_lifted(traj, 0.3)
        good_dev = max(abs(closed[i] - good.states[-1][i]) for i in range(2))
        bad_dev = max(abs(closed[i] - bad.states[-1][i]) for i in range(2))
        assert good_dev <= 1e-7
        assert bad_dev > 1e-3


class TestTimeWarp:
    def test_eta_zero(self):
        assert time_warp(0.0, 0.7) == 0.7

    def test_matches_stable_reference(self):
        # agree with the cancellation-free expm1 evaluation at every size of
        # eta*t, where the direct quotient loses ~eps/|eta*t| digits
        for eta in (1e-9, 1e-7, 1.2e-6, 1e-5, 1e-3, 0.5, 2.0):
            t = 0.9
            stable = math.expm1(eta * t) / eta
            assert abs(time_warp(eta, t) - stable) <= 1e-15 * abs(stable)

    def test_subnormal_rate(self):
        # the warp does not divide by eta where eta*t is tiny
        for eta in (5e-324, 1e-320j, -1e-310 + 1e-310j):
            assert time_warp(eta, 0.7) == 0.7

    def test_imaginary_eta_circle(self):
        # the warped time of eta = i traces the circle |tau - i| = 1
        for t in (0.3, 1.7, 4.0):
            tau = time_warp(1j, t)
            assert abs(abs(tau - 1j) - 1.0) <= 1e-12


def _warp_log(y10, eta, t, sing_tol):
    """s(t) and log s(t) from the library's closed form, built for one call:
    the pass rule of ``point``, then the logarithm continued along the path,
    principal or not."""
    form = _WarpLog(y10, eta)
    form.point(t, sing_tol)
    return 1.0 - y10 * time_warp(eta, t), form(t)


def rel_log_error(got, want):
    return abs(got - want) / (1.0 + abs(want))


def near_miss(eta, tau0, miss):
    """y1(0) whose warped path passes 0 at distance ~miss near t = tau0."""
    y10 = 1.0 / time_warp(eta, tau0)
    velocity = -y10 * cmath.exp(eta * tau0)  # ds/dt at the pass
    return (1.0 - 1j * miss * velocity / abs(velocity)) / time_warp(eta, tau0)


class TestWarpLog:
    """The closed-form continued log of s = 1 - y1(0)*warp(t) against a
    dense chord-by-chord walk along the same path."""

    @staticmethod
    def sample_path(rng, stratum):
        """(y1(0), eta, t) of one stratum, or None when the draw misses it."""
        disc = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if stratum.startswith("winding"):  # eta = i*omega, r = y1(0)/eta in a disc
            eta = 1j * rng.choice((-1, 1)) * rng.uniform(0.3, 2.0)
            r = 2.0 * cmath.rect(math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
            winding = 1 if abs(r) > abs(1 + r) else 0
            return (r * eta, eta, rng.uniform(0.0, 30.0)) if stratum[-1] == str(winding) else None
        if stratum == "crossing":  # Re eta != 0, |E| = |c| crossed inside (0, t)
            eta = complex(rng.choice((-1, 1)) * rng.uniform(0.1, 1.0), rng.uniform(-2.0, 2.0))
            t, r = rng.uniform(0.0, 5.0), disc / eta
            tau_star = math.log(abs(1 + r) / abs(r)) / eta.real
            return (disc, eta, t) if 0 < tau_star < t else None
        if stratum == "small eta":
            return disc, 1e-3 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)), rng.uniform(0.0, 30.0)
        return disc, 0j, rng.uniform(0.0, 30.0)

    @pytest.mark.parametrize("stratum", ["winding 0", "winding 1", "crossing", "small eta", "eta 0"])
    def test_matches_dense_walk(self, stratum):
        rng = random.Random(f"warp-log/{stratum}")
        done, worst = 0, 0.0
        while done < 400:
            draw = self.sample_path(rng, stratum)
            if draw is None:
                continue
            path = dense_warp_path(*draw)[1]
            if min(abs(p) for p in path) < 1e-3:
                continue  # keep clear of the pole: near passes are tested below
            s_walk, log_walk = walked_log(*draw)
            s, log_s = _warp_log(*draw, 1e-9)
            assert abs(s - s_walk) <= 1e-13 * abs(s_walk)
            worst = max(worst, rel_log_error(log_s, log_walk))
            done += 1
        assert worst <= 1e-12

    def test_delta_zero_solution(self):
        # delta = 0: the logarithmic ratio, fed the closed-form and the walked log
        rho2 = 0.3 - 0.2j
        sol = solve_canonical(
            CanonicalParams((1 - rho2) ** 2 / 4, rho2), CanonicalState(0.4 + 0.3j, -0.2 + 0.5j)
        )
        assert sol.case is SolutionCase.DELTA_ZERO
        for eta in (1j, -0.7j, 0.4 + 1.1j, -0.5 + 0.3j, 1e-3j, 0j):
            for t in (0.5, 3.0, 17.0):
                tau = time_warp(eta, t)
                try:
                    want = eval_canonical_general(sol, t, tau, walked_log(sol.y10, eta, t)[1])
                except SingularPointError:
                    continue
                got = eval_canonical_general(sol, t, tau, _warp_log(sol.y10, eta, t, 1e-9)[1])
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-12 * (1 + abs(w))

    @pytest.mark.parametrize("omega", [0.8, -1.3])
    def test_winding_per_period(self, omega):
        # for eta = i*omega one period adds 2*pi*i*sign(omega) exactly when
        # |1 + y1(0)/(i*omega)| < |y1(0)/omega|
        eta, period = 1j * omega, 2 * math.pi / abs(omega)
        for r in (0.3, -0.4 + 0.2j, -0.6, -1.5 - 0.5j, 2.0j):
            y10 = r * eta
            winding = 1 if abs(1 + r) < abs(r) else 0
            step = _warp_log(y10, eta, 0.4 + period, 1e-9)[1] - _warp_log(y10, eta, 0.4, 1e-9)[1]
            assert abs(step - 2j * math.pi * winding * math.copysign(1, omega)) <= 1e-12

    @pytest.mark.parametrize(
        "eta", [1j, -0.6j, 0.3 + 0.8j, -0.4 - 1.2j, 0j], ids=["i", "-0.6i", "0.3+0.8i", "-0.4-1.2i", "0"]
    )
    def test_near_pole(self, eta):
        # a pass within the pole test of 0 raises for every later t; a pass
        # at 1e-5 is continued like the walk
        tau0 = 1.7
        close = near_miss(eta, tau0, 1e-13)
        assert abs(_warp_log(close, eta, tau0, 1e-9)[0]) <= 2e-13
        s_walk, log_walk = walked_log(close, eta, 0.9 * tau0)
        assert rel_log_error(_warp_log(close, eta, 0.9 * tau0, 1e-9)[1], log_walk) <= 1e-12
        for t in (1.01 * tau0, 2 * tau0, 5 * tau0):
            with pytest.raises(SingularPointError):
                _warp_log(close, eta, t, 1e-9)
        clear = near_miss(eta, tau0, 1e-5)
        for t in (0.9 * tau0, 1.01 * tau0, 2 * tau0, 5 * tau0):
            s_walk, log_walk = walked_log(clear, eta, t)
            assert rel_log_error(_warp_log(clear, eta, t, 1e-9)[1], log_walk) <= 1e-12

    @pytest.mark.parametrize("omega", [-1.0, 1.0])
    def test_first_pass_is_the_earliest(self, omega):
        # |y1(0)/eta| = |1 + y1(0)/eta|: the circle of s runs through 0 once
        # a turn, and the first pass is the earliest of those times for
        # either sense of rotation (for omega < 0 the last one in (0, t) was
        # reported)
        eta, r = 1j * omega, -0.5 + 0.3j
        y10 = r * eta  # 0.3 + 0.5j for omega = -1
        first = (cmath.log((1 + r) / r) / eta).real % (2 * math.pi)
        form = _WarpLog(y10, eta)
        assert abs(form.first_pass(40.0, 1e-9) - first) <= 1e-12
        assert abs(1.0 - y10 * time_warp(eta, first)) <= 1e-15
        with pytest.raises(SingularPointError) as excinfo:
            form.point(40.0, 1e-9)
        assert excinfo.value.t == form.first_pass(40.0, 1e-9)


class TestSolveLifted:
    def test_degenerate_lift_equals_plain_solver(self):
        lifted = lift(EXAMPLE2, LiftParams(zbar=(0, 0), eta=0))
        ltraj = solve_lifted(lifted, (1, 1))
        traj = solve_ivp(EXAMPLE2, (1, 1))
        for t in (0.0, 0.1, 0.2):
            zl = eval_lifted(ltraj, t)
            x = eval_trajectory(traj, t)
            for a, b in zip(zl, x):
                assert abs(a - b) <= 1e-12 * (1 + abs(b))

    def test_real_eta_against_oracle(self):
        lifted = lift(EXAMPLE2, LiftParams(zbar=(1, 0), eta=1))
        z0 = (1.5, -0.5)
        ltraj = solve_lifted(lifted, z0)
        numeric = integrate(lifted, z0, 0.1, t_eval=[0.1])
        got = eval_lifted(ltraj, 0.1)
        for g, r in zip(got, numeric.states[-1]):
            assert abs(g - r) <= 1e-7 * (1 + abs(r))

    @pytest.mark.parametrize("eta", [0.3, -0.4 + 0.7j])
    def test_y1_zero_against_oracle(self, eta):
        # y1(0) = 0 exactly: s = 1 along the whole path and no closed form of
        # log s is built; y2 = y2(0)/(1 - y2(0) warp(t)) has its pole where
        # exp(eta*t) = 1 + eta/y2(0)
        sys = forward_map(CanonicalParams(0.3, 0.2), linear_change_from_b(((1, 0), (0, 1))))
        lifted, z0 = lift(sys, LiftParams((0, 0), eta)), (0.0, 0.5)
        traj = solve_lifted(lifted, z0, t_max=3.0)
        assert traj._warp is None
        if eta == 0.3:
            assert traj.t_singular == (pytest.approx(math.log1p(eta / 0.5) / eta, rel=1e-15),)
        else:  # exp(eta*t) = 1 + eta/y2(0) only at t = ln|1 + eta/y2(0)|/Re(eta) < 0
            assert traj.t_singular == ()
        times = [0.2, 0.5, 0.9]
        numeric = integrate(lifted, z0, times[-1], t_eval=times)
        for t, want in zip(times, numeric.states):
            for g, w in zip(eval_lifted(traj, t), want):
                assert abs(g - w) <= 1e-7 * (1 + abs(w))

    def test_lifted_singularity_detection(self):
        # eta = 0 must reproduce the base singular time
        lifted = lift(EXAMPLE2, LiftParams(zbar=(0, 0), eta=0))
        ltraj = solve_lifted(lifted, (1, 1), t_max=1.0)
        base = solve_ivp(EXAMPLE2, (1, 1), t_max=1.0)
        assert ltraj.t_singular == base.t_singular
        # small real eta shifts the pole to warp(t) = t_pole
        lifted = lift(EXAMPLE2, LiftParams(zbar=(0, 0), eta=0.3))
        ltraj = solve_lifted(lifted, (1, 1), t_max=1.0)
        t_pole = base.t_singular[0]
        expected = math.log1p(0.3 * t_pole) / 0.3
        assert ltraj.t_singular and abs(ltraj.t_singular[0] - expected) <= 1e-9

    @pytest.mark.parametrize("eta", [0.4, -0.3])
    def test_warped_denominator_zero_matches_collapse(self, eta):
        # the first reference system's oscillatory denominator zero, shifted
        # by a real-rate warp, must agree with the integrator's blow-up time
        lifted = lift(EXAMPLE1, LiftParams(zbar=(0, 0), eta=eta))
        traj = solve_lifted(lifted, (1, 1), t_max=3.0)
        numeric = integrate(lifted, (1, 1), 3.0)
        assert numeric.terminated in ("step_collapse", "state_overflow")
        assert traj.t_singular
        assert abs(traj.t_singular[0] - numeric.last_time) <= 1e-5 * numeric.last_time

    @pytest.mark.parametrize("delta", [1e6, 1e10])
    def test_large_exponent_lifted_zeros(self, delta):
        # With a real rate eta the warped path stays on the real s-axis, so a
        # base zero at t_b moves to log(1 + eta*t_b)/eta.  With dm/dp = 2 and
        # delta an even integer the base has a zero at t_b = 1 - 2**(-1/delta)
        # and its pole at t_b = 1, where the walk stops.  The log targets are
        # 2*pi/delta apart; few of them may be visited.
        tol = ToleranceConfig(sing_tol=1e-12)  # u(0) is of order delta
        rho2, eta = 0.5, -0.3
        u_plus, u_minus = (1 - rho2 + delta) / 2, (1 - rho2 - delta) / 2
        sol = solve_canonical(
            CanonicalParams(((1 - rho2) ** 2 - delta**2) / 4, rho2),
            CanonicalState(1, 2 * u_plus - u_minus),
            tol,
        )
        start = time.perf_counter()
        times = lifted_singular_times(sol, eta, 2.0, tol)
        assert time.perf_counter() - start < 1.0
        shift = -math.expm1(-math.log(2) / delta)
        expected = [math.log1p(eta * t) / eta for t in (shift, 1.0)]
        assert times == pytest.approx(expected, rel=1e-5)

    def test_close_branch_point_approach(self):
        # warp path sweeping within a few percent of the power's branch point:
        # adaptive path refinement must keep the continuation on track
        report = isochrony_check(EXAMPLE3, 1.0)
        ch = linear_change_from_b(decompose(EXAMPLE3).plus.b)
        (a11, a12), (a21, a22) = ch.a
        det = a11 * a22 - a12 * a21
        target = (1.0 / (0.97 * 0.999j), 0.2 + 0.1j)  # 1/y1(0) just inside the warp circle
        x0 = (
            (a22 * target[0] - a12 * target[1]) / det,
            (-a21 * target[0] + a11 * target[1]) / det,
        )
        lifted = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
        z0 = (x0[0] + lifted.zbar[0], x0[1] + lifted.zbar[1])
        period = report.period
        traj = solve_lifted(lifted, z0, t_max=period)
        assert not traj.t_singular
        samples = [period * k / 16 for k in range(1, 17)]
        numeric = integrate(lifted, z0, period, t_eval=samples, rel_tol=1e-11)
        worst = 0.0
        for t, ref in zip(numeric.times, numeric.states):
            got = eval_lifted(traj, t)
            diff = max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))
            worst = max(worst, diff / (1 + max(abs(got[0]), abs(got[1]))))
        assert worst <= 1e-6
        z_dev = max(
            abs(eval_lifted(traj, period)[i] - eval_lifted(traj, 0.0)[i]) for i in range(2)
        )
        assert z_dev <= 1e-9

    def test_eval_past_near_pole_raises(self):
        # the lifted flow whose warped path passes 1e-13 from the y1 pole
        # raises at every later time, not only at the pass
        eta = 0.3 + 0.8j
        lifted = lift(EXAMPLE2, LiftParams(zbar=(0.1, -0.2), eta=eta))
        ch = linear_change_from_b(decompose(EXAMPLE2).plus.b)
        (b11, b12), (b21, b22) = ch.b
        y0 = (near_miss(eta, 0.6, 1e-13), 0.2 + 0.1j)
        z0 = (b11 * y0[0] + b12 * y0[1] + 0.1, b21 * y0[0] + b22 * y0[1] - 0.2)
        traj = solve_lifted(lifted, z0, t_max=2.0)
        assert abs(traj.canonical.y10 - y0[0]) <= 1e-12 * abs(y0[0])
        eval_lifted(traj, 0.5)
        for t in (0.7, 1.5):
            with pytest.raises(SingularPointError):
                eval_lifted(traj, t)


class TestExtremeRates:
    """Rates with a subnormal component solve as without it; rates whose
    y1(0)/eta lies beyond floating point raise a ValueError naming eta."""

    @staticmethod
    def solved(eta):
        traj = solve_lifted(lift(EXAMPLE2, LiftParams((0, 0), eta)), (1, 1))
        return traj.t_singular, [eval_lifted(traj, t) for t in (0.05, 0.1)]

    def assert_solves_as(self, eta, without):
        times, states = self.solved(eta)
        want_times, want_states = self.solved(without)
        assert len(times) == len(want_times)
        assert all(abs(t - w) <= 1e-12 * (1 + abs(w)) for t, w in zip(times, want_times))
        for z, w in zip(states, want_states):
            assert all(abs(a - b) <= 1e-12 * (1 + abs(b)) for a, b in zip(z, w))

    def test_subnormal_imaginary_part(self):
        self.assert_solves_as(0.3 + 1e-320j, 0.3)

    def test_subnormal_real_part(self):
        self.assert_solves_as(1e-320 + 1j, 1j)

    def test_least_positive_rate(self):
        with pytest.raises(ValueError, match="eta"):
            self.solved(5e-324)

    def test_rate_near_the_float_limit(self):
        with pytest.raises(ValueError, match="eta"):
            self.solved(1e308 + 1e308j)

    def test_y1_over_a_tiny_rate_past_floating_point(self):
        # y1(0)/eta = 1e309: refused as solve_lifted refuses it, where a
        # switch to the unlifted flow once answered it
        sol = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(1, 0.5))
        with pytest.raises(ValueError, match="eta"):
            lifted_singular_times(sol, 1e-309, 1.0)

    def test_y2_pole_past_an_overflowing_ratio(self):
        # y1(0) = 0: the pole solves exp(eta*t) = 1 + eta/y2(0), whose ratio
        # 1e330 overflows; its log is log(eta) - log(y2(0))
        sol = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(0, 1e-320))
        (t,) = lifted_singular_times(sol, 1e10, 1.0)
        assert t == pytest.approx((math.log(1e10) + 320 * math.log(10)) / 1e10, rel=1e-14)

    def test_subnormal_y1_over_eta(self):
        # y1(0) is kept as given, so y1(0)/eta can be subnormal, and
        # eta/y1(0) overflows: log(c/r) is log(eta) - log(y1(0)).  |E| stays
        # below |c| = 1 wherever exp(eta*t) is finite: no time is singular.
        sol = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(1e-320, 0.5))
        assert lifted_singular_times(sol, 1 + 1j, 1.0) == []
        assert lifted_singular_times(sol, 1 + 1j, 400.0) == []
        sys = forward_map(CanonicalParams(0.3, 0.2), linear_change_from_b(((1, 0), (0, 1))))
        lifted, z0 = lift(sys, LiftParams((0, 0), 1 + 1j)), (1e-320, 0.5)
        traj = solve_lifted(lifted, z0, t_max=1.0)
        assert traj.t_singular == ()
        times = [0.2, 0.5, 1.0]
        numeric = integrate(lifted, z0, times[-1], t_eval=times)
        for t, want in zip(times, numeric.states):
            for g, w in zip(eval_lifted(traj, t), want):
                assert abs(g - w) <= 1e-7 * (1 + abs(w))

    def test_subnormal_y1_over_a_huge_rate(self):
        # y1(0)/eta = -1e-309j is subnormal: the warped time is a circle of
        # radius 1e-308, so x stays at x(0) while exp(eta*t) turns it
        line = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        traj = solve_lifted(lift(line, LiftParams((0, 0), 1e308j)), (0.1, 0.1))
        for t in (1e-308, 3e-308):
            want = 0.1 * cmath.exp(1e308j * t)
            assert all(abs(z - want) <= 1e-15 for z in eval_lifted(traj, t))


class TestTinyRates:
    """A rate whose y1(0)/eta is huge keeps the digits of the unlifted flow:
    log s is the principal Log s, on the branch the closed form selects."""

    @pytest.mark.parametrize(
        "eta", [1e-300, -1e-300, 1e-20, -1e-20, 1e-20j, -1e-20j, 1e-12], ids=repr
    )
    def test_agrees_with_the_unlifted_flow(self, eta):
        def state(rate, t):
            traj = solve_lifted(lift(EXAMPLE2, LiftParams((0, 0), rate)), (1, 1), t_max=1.0)
            return eval_lifted(traj, t)

        for t in (0.05, 0.3, 0.9):
            bound = 1e-15 + 10 * abs(eta) * t
            for z, w in zip(state(eta, t), state(0, t)):
                assert abs(z - w) <= bound * abs(w)


def small_part(rng):
    """A real or, half the time, complex number with parts in U(-2, 2)."""
    if rng.random() < 0.5:
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return rng.uniform(-2, 2)


class TestSmallRealRates:
    """The zeros of s and the branch times of the lift start from
    log1p(eta/y1(0)), so a small real rate keeps the digits that
    log(1 + eta/y1(0)) rounds away (relative error ~eps/|eta/y1(0)|)."""

    @staticmethod
    def canonical_lift(eta):
        # b = I: y(0) = z(0) = (1, 0.5), and s = 0 at exp(eta*t) = 1 + eta
        sys = forward_map(CanonicalParams(0.3, 0.2), linear_change_from_b(((1, 0), (0, 1))))
        return solve_lifted(lift(sys, LiftParams((0, 0), eta)), (1, 0.5), t_max=2.0)

    def test_pass_at_the_true_pole(self):
        # log(1 + 1e-9) put the pass at 1.000000082, so eval_lifted returned
        # a value at t = 1.5, past the pole at 0.9999999995
        traj = self.canonical_lift(1e-9)
        pole = math.log1p(1e-9) / 1e-9
        assert [tau for tau, _ in traj._warp.passes] == [pytest.approx(pole, rel=1e-15)]
        with pytest.raises(SingularPointError) as excinfo:
            eval_lifted(traj, 1.5)
        assert excinfo.value.t == pytest.approx(pole, rel=1e-15)

    def test_listed_pole(self):
        # listed at 0.99999995058 where log(1 + eta) was taken
        traj = self.canonical_lift(1e-7)
        assert traj.t_singular[-1] == pytest.approx(math.log1p(1e-7) / 1e-7, rel=1e-15)

    def test_zeros_before_the_pole(self):
        # the plain flow's seven zeros, shifted by ~eta*t, and the pole; the
        # zeros were dropped and the pole misplaced where log(1 + x) was taken
        sol = solve_canonical(
            CanonicalParams(1.2864604786752638, -0.0748027267220781),
            CanonicalState(1.7419680990695916, -0.3989507620598345),
        )
        eta = 4e-9
        times = lifted_singular_times(sol, eta, 5.0)
        plain = singular_times(sol, 5.0)
        assert len(plain) == 8 and len(times) == 8
        assert times[:7] == pytest.approx(plain[:7], rel=1e-8)
        assert times[7] == pytest.approx(math.log1p(eta / sol.y10.real) / eta, rel=1e-15)

    def test_horizon_does_not_move_the_times(self):
        # a tiny rate is enumerated along the warped path at every horizon;
        # a switch to the unlifted flow below |eta|*t_max = 1e-8 listed these
        # 5e-10 apart at t_max = 9 and 11, and the pole at 1.0, past the pass
        # at which eval_lifted raises
        traj = self.canonical_lift(1e-9)
        short, long = (lifted_singular_times(traj.canonical, 1e-9, t) for t in (9.0, 11.0))
        assert len(short) == len(long) == 4
        assert all(abs(a - b) <= 1e-15 * b for a, b in zip(short, long))
        with pytest.raises(SingularPointError) as excinfo:
            eval_lifted(traj, 0.99999999975)
        assert excinfo.value.t == short[-1]

    def test_same_zeros_at_two_tiny_rates(self):
        # eta*t_max = 2e-8 and 0.5e-8: clear of the pole, where the paths
        # differ by ~1e-8 relative, both list the same number of zeros
        rng = random.Random(3)
        missed = 0
        for _ in range(4000):
            rho = CanonicalParams(small_part(rng), small_part(rng))
            y10 = rng.uniform(0.2, 2.0)
            sol = solve_canonical(rho, CanonicalState(y10, small_part(rng)))
            before = (1.0 - 1e-6) / y10
            lifted = [t for t in lifted_singular_times(sol, 2e-8 / 5, 5.0) if t < before]
            plain = [t for t in lifted_singular_times(sol, 0.5e-8 / 5, 5.0) if t < before]
            missed += len(lifted) != len(plain)
        assert missed == 0

    def test_box_keeps_the_gap_below_one(self):
        # |c| = |1 + y1(0)/eta| ~ 5.5e7: formed as log|r| - log|c| and
        # log1p(-m), the box's lower edge sat at -13.66 where the path's log
        # reaches -13.82, and at -15.5 where it reaches -18.4
        y10, eta = 0.7480208436503128, 1.3594836201255875e-08
        form = _WarpLog(y10, eta)
        for gap in (1e-6, 1e-8):
            t_end = form.tau_star * (1.0 - gap)
            assert in_box(walked_log(y10, eta, t_end)[1], form.box(0.0, t_end), t_end)

    def test_box_agrees_with_the_walk(self):
        # real rates |eta| ~ 1e-8: the targets read off the closed-form boxes
        # are those the dense walk bounds
        rng = random.Random(11)
        tol = ToleranceConfig()
        for _ in range(1500):
            rho = CanonicalParams(small_part(rng), small_part(rng))
            y10 = rng.uniform(0.2, 2.0) * rng.choice((1, -1))
            sol = solve_canonical(rho, CanonicalState(y10, small_part(rng)))
            eta = rng.uniform(0.5e-8, 2e-8) * rng.choice((1, -1))
            assert lifted_singular_times(sol, eta, 5.0) == walked_singular_times(sol, eta, 5.0, tol)


class TestRatesPastTheFloatRange:
    """Where exp(eta*t) leaves floating point, eval_lifted raises a ValueError
    that names eta and t."""

    @pytest.mark.parametrize("eta, t", [(200, 5.0), (1 + 1j, 1e308)])
    def test_eval_lifted(self, eta, t):
        traj = solve_lifted(lift(EXAMPLE2, LiftParams((0, 0), eta)), (1e-3, 1e-3))
        with pytest.raises(ValueError, match=r"eta = .*, t = "):
            eval_lifted(traj, t)

    def test_zeros_of_s_past_the_float_range(self):
        # log(c/r) is finite, but its quotient by eta = 5e-324j, the index of
        # the zeros of s, is not; the rate is named, not a NaN conversion
        line = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        with pytest.raises(ValueError, match=r"eta = 5e-324j is out of range"):
            solve_lifted(lift(line, LiftParams((0, 0), 5e-324j)), (1e-320, 0.1))

    def test_turns_up_to_t_max_past_the_float_range(self):
        sol = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(1, 0.5))
        with pytest.raises(ValueError, match=r"eta = 1e\+300j, t_max = 1"):
            lifted_singular_times(sol, 1e300j, 1e10)

    def test_branch_times_past_the_float_range(self):
        # y1(0) = 0 and log1p(eta/y2(0))/eta overflows: no finite lattice
        # origin, and no branch time within 1e300 is real
        sol = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(0, 1e-320))
        assert lifted_singular_times(sol, 1e-308 + 1e-308j, 1e300) == []

    @pytest.mark.parametrize("eta", [1e308j, -1e300 + 1e300j])
    def test_box_at_a_huge_rate(self, eta):
        # y1(0)/eta ~ 1e-300: the path stays within ~1e-300 of s = 1, inside
        # |E| = |c|, and its tube is finite however long the piece
        form = _WarpLog(1.0, eta)
        bound = form.box(0.0, 1e10)
        assert all(map(math.isfinite, bound[0])) and bound[1] < 1.01  # |eta E/s| ~ |y1(0)|
        for t in (1e-308, 3e-301, 2e-300, 0.5 if eta.real == 0 else 1e-299):
            assert in_box(form(t), bound, 1e10)

    def test_box_has_no_term_past_floating_point(self):
        # outside |E| = |c| the tube follows eta*t, which overflows at 1e10:
        # a bound whose terms leave floating point is no bound
        form = _WarpLog(1.0, 1e300 + 1e300j)
        assert 0 < form.tau_star < 1e-290
        assert form.box(1e-290, 1e-280) is not None
        assert form.box(1e-290, 1e10) is None


class TestPassesOverTurns:
    @pytest.mark.parametrize("turns", [100, 10**6])
    def test_first_of_the_passes_nearly_imaginary_eta(self, turns):
        # Re(eta)/|eta| = 2e-11: the zeros of s approach the real axis by
        # ~6e-11 a turn, so the path passes within the pole test of 0 for
        # several turns before it meets its nearest zero; the first of those
        # passes is reported, and a turn earlier the test fails
        eta, tol = complex(2e-11, 1.0), ToleranceConfig()

        def zero(k):  # the k-th zero's real part, for y10 placed below
            return 2 * math.pi * k + 1.0

        y10 = 1.0 / time_warp(eta, zero(turns))
        form = _WarpLog(y10, eta)

        def meets_test(tau):
            w = y10 * time_warp(eta, tau)
            return abs(1 - w) <= tol.sing_tol * (1 + abs(w))

        first = form.first_pass(zero(turns) - 3.0, tol.sing_tol)
        k = round((first - 1.0) / (2 * math.pi))
        assert turns - 30 < k < turns - 1 and abs(first - zero(k)) <= 1e-9 * zero(k)
        assert meets_test(first) and not meets_test(zero(k - 1))
        assert form.first_pass(first, tol.sing_tol) == math.inf
        assert form.first_pass(first + 1e-6, tol.sing_tol) == first
        with pytest.raises(SingularPointError) as excinfo:
            form.point(zero(k + 2) + 0.5, tol.sing_tol)
        assert excinfo.value.t == first


def lifted_near_pole_case(rng, stratum):
    """(lifted system, z(0), eta): EXAMPLE2 lifted with eta of the stratum,
    and z(0) whose pulled y1(0) is random, or puts a pass of the warped path
    1e-13 or 1e-5 from the pole at a random time."""
    if stratum == "negative omega":
        eta = -1j * rng.uniform(0.3, 2.0)
    elif stratum == "positive omega":
        eta = 1j * rng.uniform(0.3, 2.0)
    elif stratum == "real":
        eta = complex(rng.choice((-1, 1)) * rng.uniform(0.1, 1.5))
    else:
        eta = cmath.rect(rng.uniform(0.1, 2.0), rng.uniform(0, 2 * math.pi))
    miss = rng.choice((None, 1e-13, 1e-5))
    if miss is None:
        y10 = cmath.rect(rng.uniform(0.05, 1.5), rng.uniform(0, 2 * math.pi))
    else:
        y10 = near_miss(eta, rng.uniform(0.2, 3.0), miss)
    y0 = (y10, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    zbar = (0.1, -0.2)
    (b11, b12), (b21, b22) = decompose(EXAMPLE2).plus.b
    z0 = (b11 * y0[0] + b12 * y0[1] + zbar[0], b21 * y0[0] + b22 * y0[1] + zbar[1])
    return lift(EXAMPLE2, LiftParams(zbar=zbar, eta=eta)), z0, eta


def per_call_eval(traj, t, tol):
    """eval_lifted with a closed form built for this one call and the pass
    test over the zeros nearest the real axis within [0, t]."""
    sol, eta, zbar = traj.canonical, traj.lifted.eta, traj.lifted.zbar
    log_s = per_call_warp_log(sol.y10, eta, t, tol.sing_tol)[1]
    y = eval_canonical_general(sol, t, time_warp(eta, t), log_s, tol)
    (b11, b12), (b21, b22) = traj.decomposition.change.b
    growth = cmath.exp(eta * t)
    return (
        growth * (b11 * y[0] + b12 * y[1]) + zbar[0],
        growth * (b21 * y[0] + b22 * y[1]) + zbar[1],
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except SingularPointError as exc:
        return ("raises", exc.factor, exc.t)


class TestSharedForm:
    """A trajectory builds the closed form of log s once, and every
    eval_lifted shares it and its list of pass candidates."""

    @pytest.mark.parametrize("stratum", ["negative omega", "positive omega", "real", "general"])
    def test_eval_matches_per_call_reference(self, stratum):
        rng = random.Random(f"shared-form/{stratum}")
        tol = ToleranceConfig()
        raised = returned = 0
        for _ in range(60):
            lifted, z0, eta = lifted_near_pole_case(rng, stratum)
            traj = solve_lifted(lifted, z0, t_max=2.0)
            for t in sorted(rng.uniform(0.0, 6.0) for _ in range(12)):
                got = outcome(eval_lifted, traj, t, tol)
                want = outcome(per_call_eval, traj, t, tol)
                if want[0] == "raises":
                    assert got == want
                    raised += 1
                    continue
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-12 * (1 + abs(w))
                returned += 1
        assert raised >= 20 and returned >= 200

    def test_form_built_once_per_trajectory(self, monkeypatch):
        builds = []
        init = _WarpLog.__init__

        def counting(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(_WarpLog, "__init__", counting)
        report = isochrony_check(EXAMPLE3, 1.0)
        lifted, z0 = TestIsochrony.two_turn_orbit()
        traj = solve_lifted(lifted, z0, t_max=report.period)
        assert len(builds) == 1  # kept by the trajectory, which its singular times share
        for t in (0.0, 0.3, 7.5, 100.0):
            eval_lifted(traj, t)
        periodicity_deviation(traj, report.period)
        assert len(builds) == 1
        # a trajectory copied with another lift builds its own form
        other = lift(EXAMPLE3, LiftParams(zbar=lifted.zbar, eta=0.5j))
        assert dataclasses.replace(traj, lifted=other)._warp.eta == 0.5j
        assert len(builds) == 2


def lifted_case(rng, stratum):
    """(canonical solution, eta, t_max) of one stratum.  A quarter of the
    draws put a pole on the path at a real time t0, a quarter a denominator
    zero, and a quarter (not on real paths) a zero where the path passes 1e-6
    to 0.1 from the pole; zeros are placed with the dense walk's logarithm."""
    t_max = rng.uniform(0.5, 8.0)
    if stratum == "real":
        rho = CanonicalParams(rng.uniform(-3, 3), rng.uniform(-2, 2))
        y1, y2 = rng.choice((-1, 1)) * rng.uniform(0.1, 2), rng.uniform(-2, 2)
        eta = complex(rng.choice((-1, 1)) * rng.uniform(0.05, 2))
    else:
        rho1 = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        rho = CanonicalParams(rho1, complex(rng.uniform(-2, 2), rng.uniform(-1, 1)))
        y1 = cmath.rect(rng.uniform(0.1, 2), rng.uniform(0, 2 * math.pi))
        y2 = cmath.rect(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
        if stratum == "near-real":
            eta = complex(rng.choice((-1, 1)) * rng.uniform(0.05, 2), rng.uniform(-1e-3, 1e-3))
        elif stratum == "imaginary":
            eta = 1j * rng.choice((-1, 1)) * rng.uniform(0.3, 2)
        else:
            eta = cmath.rect(rng.uniform(0.05, 2), rng.uniform(0, 2 * math.pi))
    plant, t0 = rng.choice(("none", "pole", "zero", "close pass")), rng.uniform(0.1, 1.0) * t_max
    if plant == "pole":
        y1 = 1.0 / time_warp(eta, t0)
        y1 = y1.real if stratum == "real" else y1
    elif plant != "none" and stratum != "real":
        if plant == "close pass":
            y1 = near_miss(eta, t0, 10 ** rng.uniform(-6, -1))
        sol = solve_canonical(rho, CanonicalState(y1, y2))
        try:
            w = cmath.exp(-sol.delta * walked_log(y1, eta, t0)[1])
            y2 = y1 * (sol.u_minus - w * sol.u_plus) / (1 - w)
        except SingularPointError:
            pass
    return solve_canonical(rho, CanonicalState(y1, y2)), eta, t_max


class TestLiftedSingularTimes:
    """The enumeration over closed-form waypoints against the same
    enumeration over the dense walk."""

    @pytest.mark.parametrize("stratum", ["real", "near-real", "imaginary", "general"])
    def test_matches_dense_walk_enumeration(self, stratum):
        rng = random.Random(f"lifted-times/{stratum}")
        tol = ToleranceConfig()
        found = 0
        for _ in range(375):
            sol, eta, t_max = lifted_case(rng, stratum)
            times = lifted_singular_times(sol, eta, t_max, tol)
            assert times == walked_singular_times(sol, eta, t_max, tol)
            found += len(times)
        assert found >= 100

    @pytest.mark.parametrize("stratum", ["real", "near-real", "imaginary", "general"])
    def test_box_holds_the_dense_walk(self, stratum):
        # the closed-form box of log s on every piece of the path and on
        # every half and quarter of one (inside, outside and in the window
        # about the crossing of |E| = |c|) holds every logarithm that the
        # dense chord walk continues along it
        rng = random.Random(f"log-box/{stratum}")
        tol = ToleranceConfig()
        checked = 0
        kinds = set()
        for _ in range(300):
            sol, eta, t_max = lifted_case(rng, stratum)
            form = _WarpLog(sol.y10, eta)
            # the enumeration reads boxes only up to the first pass, past
            # which evaluation raises
            t_pass = form.first_pass(t_max, tol.sing_tol)
            band = math.log1p(tol.sing_tol / math.e / abs(form.c)) / abs(eta)
            t_end = t_pass - band if t_pass < t_max else t_max
            taus, path = dense_warp_path(sol.y10, eta, t_end)
            walked = [(0.0, 0j)]
            try:
                for tau, a, b in zip(taus[1:], path, path[1:]):
                    walked.append((tau, walked[-1][1] + log_increment(a, b, tol.sing_tol)))
            except SingularPointError:
                continue  # the walk meets the pass
            pieces = form.pieces(t_end)
            for _ in range(2):
                pieces += [h for t0, t1 in pieces for h in ((t0, (t0 + t1) / 2), ((t0 + t1) / 2, t1))]
            for t0, t1 in pieces:
                bound = form.box(t0, t1)
                if bound is None:
                    continue
                assert all(in_box(log_s, bound, t1) for tau, log_s in walked if t0 <= tau <= t1)
                side = eta.real * (t0 + t1) / 2 - form.ell.real  # log|E/c| midway
                kinds.add("window" if abs(side) < math.log(2) else "outside" if side > 0 else "inside")
                checked += 1
        assert checked >= 1000 and kinds == {"inside", "outside", "window"}

    def test_no_targets_at_u_minus(self, monkeypatch):
        # u(0) = u- exactly: y2 = u- y1 has no denominator to vanish, so the
        # box of an inside orbit (here a decaying real path) holds no targets
        probe = solve_canonical(CanonicalParams(0.3, 0.2), CanonicalState(1.0, 0.0))
        sol = solve_canonical(probe.params, CanonicalState(0.8, probe.u_minus * 0.8))
        assert sol._consts[1] == 0  # a = y2(0) - u- y1(0)
        read = []
        box = _WarpLog.box
        monkeypatch.setattr(_WarpLog, "box", lambda self, *piece: read.append(piece) or box(self, *piece))
        assert lifted_singular_times(sol, -2.0, 5.0) == []
        assert read == []  # no target, so no box of the path is read

    @pytest.mark.parametrize("eta", [-0.5 - 1j, -0.5 + 1j])
    def test_path_ends_at_the_first_pass(self, eta, monkeypatch):
        # a decaying path passes 1.5e-9 from 0 at t = 6: within the pole
        # test, so nothing past it is evaluated, yet too far from the real
        # axis for a real pole; no box reaches past the pass, and the pieces
        # that close in on it are halved a bounded number of times
        read = []
        box = _WarpLog.box
        monkeypatch.setattr(_WarpLog, "box", lambda self, *piece: read.append(piece) or box(self, *piece))
        y0 = CanonicalState(near_miss(eta, 6.0, 1.5e-9), 0.2)
        sol = solve_canonical(CanonicalParams(0.3 + 0.1j, -0.4 + 0.2j), y0)
        assert lifted_singular_times(sol, eta, 200.0) == []
        assert 0 < len(read) <= 60
        assert 5.9999999 < max(t1 for _, t1 in read) < 6.0


class TestIsochrony:
    def test_third_reference_is_isochronous(self):
        report = isochrony_check(EXAMPLE3, 1.0)
        assert report.isochronous
        assert report.rational == (3, 2)
        assert report.period == pytest.approx(4 * math.pi, rel=1e-12)

    def test_irrational_exponent_rejected(self):
        report = isochrony_check(EXAMPLE2, 1.0)
        assert not report.isochronous
        assert report.rational is None

    def test_complex_exponent_rejected(self):
        report = isochrony_check(EXAMPLE1, 1.0)
        assert not report.isochronous

    def test_rational_exponent_with_complex_rho(self):
        # delta = 2/3 built from complex rho and b: the recovered delta
        # carries a roundoff imaginary part (~3e-15), which must not hide
        # the rational exponent
        rho2 = -0.628 - 0.465j
        rho = CanonicalParams(((1 - rho2) ** 2 - 4 / 9) / 4, rho2)
        b = ((-0.602 + 0.171j, -0.37 - 0.535j), (0.382 + 0.907j, -0.408 + 0.411j))
        report = isochrony_check(forward_map(rho, linear_change_from_b(b)), 1.0)
        assert report.isochronous
        assert report.rational == (2, 3)
        assert report.period == pytest.approx(6 * math.pi, rel=1e-12)

    def test_omega_zero_invalid(self):
        with pytest.raises(ValueError):
            isochrony_check(EXAMPLE3, 0.0)

    def test_omega_scales_period(self):
        report = isochrony_check(EXAMPLE3, -2.0)
        assert report.period == pytest.approx(2 * math.pi, rel=1e-12)

    def test_periodic_orbit_small_data(self):
        report = isochrony_check(EXAMPLE3, 1.0)
        lifted = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
        rng = random.Random(77)
        for _ in range(3):
            z0 = (
                lifted.zbar[0] + 0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                lifted.zbar[1] + 0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            traj = solve_lifted(lifted, z0, t_max=2 * report.period)
            assert not traj.t_singular
            dev = periodicity_deviation(traj, report.period)
            assert dev <= 1e-6

    def test_late_evaluation_costs_no_more(self):
        # eval_lifted continues log s in closed form: at 0.3 P + n P it equals
        # its value at 0.3 P, and takes no longer, for n up to 10^4
        report = isochrony_check(EXAMPLE3, 1.0)
        traj = solve_lifted(*self.two_turn_orbit(), t_max=report.period)
        period = report.period
        z_ref = eval_lifted(traj, 0.3 * period)
        for n in (100, 10**4):
            t = 0.3 * period + n * period
            z = eval_lifted(traj, t)
            for a, b in zip(z, z_ref):
                assert abs(a - b) <= 1e-9 * (1 + abs(b))
            fastest = math.inf
            for _ in range(5):
                start = time.perf_counter()
                eval_lifted(traj, t)
                fastest = min(fastest, time.perf_counter() - start)
            assert fastest < 1e-3

    def test_enumeration_work_per_turn(self, monkeypatch):
        # the singular-time enumeration evaluates the warped path at most a
        # fixed number of times per turn, not at a density in |eta| t
        calls = []
        curve = extensions._growth_and_warp
        monkeypatch.setattr(
            extensions, "_growth_and_warp", lambda eta, t: calls.append(t) or curve(eta, t)
        )
        lifted, z0 = self.two_turn_orbit()
        period = isochrony_check(EXAMPLE3, 1.0).period
        counts = []
        for n in (1, 10, 100):
            calls.clear()
            traj = solve_lifted(lifted, z0, t_max=n * period)
            assert not traj.t_singular
            turns = abs(lifted.eta) * n * period / (2 * math.pi)
            assert len(calls) <= 16 * turns
            counts.append(len(calls))
        assert counts[1] <= 10 * counts[0] and counts[2] <= 100 * counts[0]

    def test_inside_orbit_work_is_bounded(self, monkeypatch):
        # a path that stays inside |E| = |c| is proved clear of denominator
        # zeros by one closed-form box, whatever the number of periods
        calls = []
        curve = extensions._growth_and_warp
        monkeypatch.setattr(
            extensions, "_growth_and_warp", lambda eta, t: calls.append(t) or curve(eta, t)
        )
        period = isochrony_check(EXAMPLE3, 1.0).period
        lifted = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
        z0 = (0.28 + 0.02j, -0.11)
        counts = []
        for n in (1, 10, 100, 10**4):
            calls.clear()
            traj = solve_lifted(lifted, z0, t_max=n * period)
            assert not traj.t_singular
            assert not traj._warp.outside and traj._warp.box(0.0, n * period) is not None
            counts.append(len(calls))
        assert len(set(counts)) == 1 and counts[0] <= 4

    @staticmethod
    def spiral(eta):
        """The two-turn orbit's z(0) lifted with rate eta."""
        lifted, z0 = TestIsochrony.two_turn_orbit()
        return lift(EXAMPLE3, LiftParams(zbar=lifted.zbar, eta=eta)), z0

    @pytest.mark.parametrize(
        "eta, horizons",
        [(1j, (1e2, 1e8)), (1e-3 + 1j, (1e4, 5e5)), (-1e-3 + 1j, (1e4, 5e5))],
        ids=["winding", "growing", "crossing"],
    )
    def test_work_does_not_grow_with_the_horizon(self, eta, horizons, monkeypatch):
        # winding outside |E| = |c|; a spiral outside from the start; a
        # spiral that crosses |E| = |c| at tau* ~ 1609.  None has a singular
        # time, and the boxes read and the lattice indices tried are the same
        # at both horizons (a walk took 197 and 206903 waypoints for eta = i
        # at 1e2 and 1e5, and 14612 and 638594 across the crossing)
        reads, tried = [], []
        box, indices = _WarpLog.box, canonical.lattice_indices

        def counted(*args):
            ks = indices(*args)
            tried.append(len(ks))
            return ks

        monkeypatch.setattr(_WarpLog, "box", lambda self, *piece: reads.append(piece) or box(self, *piece))
        monkeypatch.setattr(canonical, "lattice_indices", counted)
        counts = []
        for t_max in horizons:
            reads.clear()
            tried.clear()
            assert solve_lifted(*self.spiral(eta), t_max=t_max).t_singular == ()
            counts.append((len(reads), sum(tried)))
        assert counts[0] == counts[1]
        assert counts[0][0] <= (1 if eta.real >= 0 else 100)

    @pytest.mark.parametrize("eta", [1j, 1e-3 + 1j, -1e-3 + 1j], ids=["winding", "growing", "crossing"])
    def test_spirals_match_the_dense_walk(self, eta):
        tol = ToleranceConfig()
        sol = solve_lifted(*self.spiral(eta), t_max=1.0).canonical
        assert lifted_singular_times(sol, eta, 2e3, tol) == walked_singular_times(sol, eta, 2e3, tol) == []

    @staticmethod
    def two_turn_orbit():
        """The lift of EXAMPLE3 with eta = i and z(0) whose warped base path
        winds once around the power's branch point per turn, two turns per
        period."""
        lifted = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
        ch = linear_change_from_b(decompose(EXAMPLE3).plus.b)
        (a11, a12), (a21, a22) = ch.a
        det = a11 * a22 - a12 * a21
        target = (-1.25j, 0.3 + 0.1j)  # pulled state with 1/y1(0) inside the warp circle
        x0 = (
            (a22 * target[0] - a12 * target[1]) / det,
            (-a21 * target[0] + a11 * target[1]) / det,
        )
        return lifted, (x0[0] + lifted.zbar[0], x0[1] + lifted.zbar[1])

    def test_multi_turn_winding_orbit(self):
        # initial data chosen so the warped base path winds around the
        # power's branch point: one turn flips the value (exponent 3/2),
        # two turns restore it, and the oracle confirms the crossings
        report = isochrony_check(EXAMPLE3, 1.0)
        lifted, z0 = self.two_turn_orbit()
        period = report.period
        traj = solve_lifted(lifted, z0, t_max=period)
        assert not traj.t_singular
        z_start = eval_lifted(traj, 0.0)
        z_half = eval_lifted(traj, period / 2)
        z_full = eval_lifted(traj, period)
        assert max(abs(z_half[i] - z_start[i]) for i in range(2)) > 1.0
        assert max(abs(z_full[i] - z_start[i]) for i in range(2)) <= 1e-9
        samples = [period * k / 8 for k in range(1, 9)]
        numeric = integrate(lifted, z0, period, t_eval=samples)
        worst = 0.0
        for t, ref in zip(numeric.times, numeric.states):
            got = eval_lifted(traj, t)
            diff = max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))
            worst = max(worst, diff / (1 + max(abs(got[0]), abs(got[1]))))
        assert worst <= 1e-6
