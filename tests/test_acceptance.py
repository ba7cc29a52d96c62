"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time

import pytest

from quadode import (
    CanonicalParams,
    CanonicalState,
    LiftedSystem,
    LiftParams,
    QuadraticSystem,
    ScalingParams,
    SolutionCase,
    branch_equivalence_check,
    canonical_rhs,
    constraint_residuals,
    decompose,
    default_horizon,
    eval_canonical,
    eval_lifted,
    eval_trajectory,
    first_singular_time,
    integrate,
    isochrony_check,
    lift,
    periodicity_deviation,
    rescale,
    singular_times,
    solve_canonical,
    solve_ivp,
    solve_lifted,
)
from conftest import (
    EXAMPLE1,
    EXAMPLE2,
    EXAMPLE3,
    sample_decomposition_data,
    session_elapsed,
    unit_disc,
)
from quadode import forward_map, linear_change_from_b

_PROCESS_START = time.process_time()


def report(number: int, message: str):
    print(f"PASS criterion {number}: {message}")


def rel_close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


def branch_by_b11(result):
    """Branches keyed by their gauge value b11 in {0, 1}."""
    out = {}
    for dec in result.branches:
        key = 0 if abs(dec.b[0][0]) < 0.5 else 1
        out[key] = dec
    assert len(out) == 2
    return out


def regular_samples(sys, x0, count=20):
    traj = solve_ivp(sys, x0)
    ts = first_singular_time(traj)
    t_hi = 0.5 * ts if ts is not None else 0.5 * default_horizon(sys, x0)
    return traj, [t_hi * (i + 1) / count for i in range(count)]


def corpus_50():
    rng = random.Random(20210408)
    out = []
    for _ in range(50):
        rho, b = sample_decomposition_data(rng)
        sys = forward_map(rho, linear_change_from_b(b))
        x0 = (unit_disc(rng), unit_disc(rng))  # unit bidisc initial data
        out.append((sys, x0))
    return out


def oracle_deviation(sys, x0, traj, samples):
    numeric = integrate(sys, x0, samples[-1], t_eval=samples)
    worst = 0.0
    for t, ref in zip(numeric.times, numeric.states):
        got = eval_trajectory(traj, t)
        diff = max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))
        worst = max(worst, diff / (1.0 + max(abs(got[0]), abs(got[1]))))
    return worst


def test_criterion_01_golden_inversion_example_1():
    result = decompose(EXAMPLE1)
    for dec in result.branches:
        assert rel_close(dec.beta, -3.0)
        assert rel_close(dec.b[0][1], 0.5)
        assert rel_close(dec.b[1][1], -1 / 6)
        assert rel_close(dec.delta**2, -5.0)
    by_b11 = branch_by_b11(result)
    for got, want in zip(
        (by_b11[0].b[0][0], by_b11[0].b[1][0], by_b11[0].rho.rho1, by_b11[0].rho.rho2),
        (0.0, -0.5, 1.5, 0.0),
    ):
        assert rel_close(got, want)
    for got, want in zip(
        (by_b11[1].b[0][0], by_b11[1].b[1][0], by_b11[1].rho.rho1, by_b11[1].rho.rho2),
        (1.0, -5 / 6, 3.5, 4.0),
    ):
        assert rel_close(got, want)
    best = min(
        _timed(lambda: decompose(EXAMPLE1)) for _ in range(200)
    )
    assert best < 1e-3, f"decompose took {best * 1e3:.3f} ms"
    report(1, f"example-1 inversion exact to 1e-12; runtime {best * 1e6:.0f} us < 1 ms")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_golden_inversion_examples_2_and_3():
    r2 = decompose(EXAMPLE2)
    for dec in r2.branches:
        assert rel_close(dec.beta, 2.0)
        assert rel_close(dec.b[0][1], 4 / 7)
        assert rel_close(dec.b[1][1], 2 / 7)
        assert rel_close(dec.delta**2, 7 / 3)
    by_b11 = branch_by_b11(r2)
    for got, want in zip(
        (by_b11[0].b[1][0], by_b11[0].rho.rho1, by_b11[0].rho.rho2),
        (-2 / 3, 7 / 9, -4 / 3),
    ):
        assert rel_close(got, want)
    for got, want in zip(
        (by_b11[1].b[1][0], by_b11[1].rho.rho1, by_b11[1].rho.rho2),
        (-1 / 6, -35 / 144, 13 / 6),
    ):
        assert rel_close(got, want)

    r3 = decompose(EXAMPLE3)
    for dec in r3.branches:
        assert rel_close(dec.beta, 5 / 3)
        assert rel_close(dec.b[0][1], -2.5)
        assert rel_close(dec.b[1][1], -1.5)
        assert rel_close(dec.delta, 1.5)
    by_b11 = branch_by_b11(r3)
    for got, want in zip(
        (by_b11[0].b[1][0], by_b11[0].rho.rho1, by_b11[0].rho.rho2),
        (-3.9, -11 / 25, 17 / 10),
    ):
        assert rel_close(got, want)
    for got, want in zip(
        (by_b11[1].b[1][0], by_b11[1].rho.rho1, by_b11[1].rho.rho2),
        (-3.3, -14 / 25, 9 / 10),
    ):
        assert rel_close(got, want)
    report(2, "examples 2 and 3: all reference parameters reproduced to 1e-12")


def test_criterion_03_constraint_gate():
    for sys in (EXAMPLE1, EXAMPLE2, EXAMPLE3):
        res = constraint_residuals(sys)
        assert res.satisfied and res.rel1 <= 1e-12 and res.rel2 <= 1e-12
    violated = 0
    for n in range(2):
        for l in range(3):
            rows = [list(r) for r in EXAMPLE1.c]
            rows[n][l] += 0.1
            res = constraint_residuals(QuadraticSystem((tuple(rows[0]), tuple(rows[1]))))
            if not res.satisfied:
                violated += 1
    assert violated == 6
    report(3, "examples satisfy constraints at 1e-12; all 6 perturbations violate")


def test_criterion_04_line_and_roundtrip_residuals_vanish():
    rng = random.Random(19052021)
    start = time.perf_counter()
    worst_line = worst_roundtrip = 0.0
    for _ in range(100):
        rho, b = sample_decomposition_data(rng)
        sys = forward_map(rho, linear_change_from_b(b))
        diag = decompose(sys).diagnostics
        worst_line = max(worst_line, diag.line_residual)
        worst_roundtrip = max(worst_roundtrip, diag.roundtrip_deviation)
    elapsed = time.perf_counter() - start
    assert worst_line <= 1e-9
    assert worst_roundtrip <= 1e-9
    assert elapsed < 1.0
    report(
        4,
        f"100 systems: max line residual {worst_line:.1e}, max round-trip deviation "
        f"{worst_roundtrip:.1e}, runtime {elapsed * 1e3:.0f} ms < 1 s",
    )


@pytest.fixture(scope="module")
def random_corpus():
    return corpus_50()


def test_criterion_05_branch_uniqueness(random_corpus):
    worst = 0.0
    for sys, x0 in [(EXAMPLE1, (1, 1)), (EXAMPLE2, (1, 1)), (EXAMPLE3, (1, 1))]:
        _, samples = regular_samples(sys, x0)
        worst = max(worst, branch_equivalence_check(sys, x0, samples))
    for sys, x0 in random_corpus:
        _, samples = regular_samples(sys, x0)
        worst = max(worst, branch_equivalence_check(sys, x0, samples))
    assert worst <= 1e-8
    report(5, f"branch deviation max {worst:.1e} <= 1e-8 over 53 systems")


def test_criterion_06_oracle_agreement(random_corpus):
    worst = 0.0
    for sys, x0 in [(EXAMPLE1, (1, 1)), (EXAMPLE2, (1, 1)), (EXAMPLE3, (1, 1))]:
        traj, samples = regular_samples(sys, x0)
        worst = max(worst, oracle_deviation(sys, x0, traj, samples))
    for sys, x0 in random_corpus:
        traj, samples = regular_samples(sys, x0)
        worst = max(worst, oracle_deviation(sys, x0, traj, samples))
    assert worst <= 1e-6

    # degenerate suites, each against the integrator
    def canonical_deviation(p, y0):
        params = CanonicalParams(*p)
        sol = solve_canonical(params, CanonicalState(*y0))
        sing = singular_times(sol, 5.0)
        t_hi = 0.5 * sing[0] if sing else 1.0
        samples = [t_hi * (i + 1) / 10 for i in range(10)]
        numeric = integrate(
            lambda y: tuple(canonical_rhs(params, CanonicalState(*y))),
            y0,
            samples[-1],
            t_eval=samples,
        )
        worst = 0.0
        for t, ref in zip(numeric.times, numeric.states):
            got = eval_canonical(sol, t)
            diff = max(abs(got.y1 - ref[0]), abs(got.y2 - ref[1]))
            worst = max(worst, diff / (1.0 + max(abs(got.y1), abs(got.y2))))
        return worst, sol.case

    suites = {
        "y1-zero line": canonical_deviation((0.7, -0.4), (0, 3)),
        "delta-zero log": canonical_deviation((1, 3), (1, 1)),
        "fixed point u+": canonical_deviation((0, 0), (0.8, 0.8)),
        "fixed point u-": canonical_deviation((0, 0), (0.8, 0.0)),
    }
    assert suites["y1-zero line"][1] is SolutionCase.Y1_ZERO
    assert suites["delta-zero log"][1] is SolutionCase.DELTA_ZERO
    assert suites["fixed point u+"][1] is SolutionCase.FIXED_POINT_PLUS
    assert suites["fixed point u-"][1] is SolutionCase.FIXED_POINT_MINUS
    for name, (dev, _) in suites.items():
        assert dev <= 1e-6, f"{name} deviated {dev:.2e}"
    # the y1-zero line through the full pipeline (null direction of example 3)
    traj = solve_ivp(EXAMPLE3, (5, 3))
    assert traj.canonical.case is SolutionCase.Y1_ZERO
    samples = [0.05 * (i + 1) for i in range(10)]
    dev = oracle_deviation(EXAMPLE3, (5, 3), traj, samples)
    assert dev <= 1e-6
    report(
        6,
        f"oracle deviation max {worst:.1e} <= 1e-6 over 53 systems; "
        "all degenerate suites <= 1e-6",
    )


def test_criterion_07_scaling():
    out = rescale(EXAMPLE1, ScalingParams(1, 7 / 3, -3))
    expected = ((1, -2 / 3, 7 / 9), (27 / 49, -6 / 7, 1))
    for n in range(2):
        for l in range(3):
            assert abs(out.c[n][l] - expected[n][l]) <= 1e-14 * max(
                1.0, abs(expected[n][l])
            )
    rng = random.Random(55)
    for sys in (EXAMPLE1, EXAMPLE2, EXAMPLE3):
        for _ in range(20):
            s = ScalingParams(
                complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
                complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
                complex(rng.uniform(0.2, 2), rng.uniform(-1, 1)),
            )
            assert constraint_residuals(rescale(sys, s)).satisfied
    # trajectory covariance x_hat(lam t) = (mu_n / lam) x_n(t)
    lam = 2.0
    mu = (0.9 + 0.4j, -1.2 + 0.1j)
    scaled = rescale(EXAMPLE2, ScalingParams(lam, *mu))
    x0 = (1.0, 1.0)
    traj = solve_ivp(EXAMPLE2, x0)
    traj_hat = solve_ivp(scaled, (mu[0] / lam * x0[0], mu[1] / lam * x0[1]))
    t_hi = 0.4 * first_singular_time(traj)
    worst = 0.0
    for i in range(1, 11):
        t = t_hi * i / 10
        x = eval_trajectory(traj, t)
        x_hat = eval_trajectory(traj_hat, lam * t)
        for n in range(2):
            want = mu[n] / lam * x[n]
            worst = max(worst, abs(x_hat[n] - want) / (1 + abs(want)))
    assert worst <= 1e-9
    report(
        7,
        "normal form exact to 1e-14; constraints preserved under 60 scalings; "
        f"covariance deviation {worst:.1e} <= 1e-9",
    )


def test_criterion_08_lift_correctness():
    rng = random.Random(88)
    worst = 0.0
    for _ in range(20):
        rho, b = sample_decomposition_data(rng)
        sys = forward_map(rho, linear_change_from_b(b))
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
        samples = [t_end * (i + 1) / 5 for i in range(5)]
        numeric = integrate(lifted, z0, t_end, t_eval=samples)
        for t, ref in zip(numeric.times, numeric.states):
            got = eval_lifted(traj, t)
            diff = max(abs(got[0] - ref[0]), abs(got[1] - ref[1]))
            worst = max(worst, diff / (1.0 + max(abs(got[0]), abs(got[1]))))
    assert worst <= 1e-7

    # negative control: the z2-linear coefficient with c_n1 in place of c_n3
    # (a plausible wrong form) must fail for a system with c_n1 != c_n3
    params = LiftParams(zbar=(0.4, 0.7), eta=0.5)
    assert any(EXAMPLE2.c[n][0] != EXAMPLE2.c[n][2] for n in range(2))
    rows = []
    for n in range(2):
        cn1, cn2, cn3 = EXAMPLE2.c[n]
        zb1, zb2 = params.zbar
        rows.append(
            (
                -2 * cn1 * zb1 - cn2 * zb2,
                -2 * cn1 * zb2 - cn2 * zb1,
                -params.eta * params.zbar[n] + cn1 * zb1**2 + cn2 * zb1 * zb2 + cn3 * zb2**2,
            )
        )
    wrong = LiftedSystem(base=EXAMPLE2, d=(rows[0], rows[1]), eta=params.eta, zbar=params.zbar)
    z0 = (0.6, 0.5)
    traj = solve_lifted(lift(EXAMPLE2, params), z0)
    bad = integrate(wrong, z0, 0.3, t_eval=[0.3])
    closed = eval_lifted(traj, 0.3)
    bad_dev = max(abs(closed[i] - bad.states[-1][i]) for i in range(2))
    assert bad_dev > 1e-7
    report(
        8,
        f"20 lifted systems within {worst:.1e} <= 1e-7 of the integrator; "
        f"wrong-coefficient control fails at {bad_dev:.1e}",
    )


def test_criterion_09_isochrony():
    rep = isochrony_check(EXAMPLE3, 1.0)
    assert rep.isochronous and rep.rational == (3, 2)
    period = rep.period
    assert period == pytest.approx(4 * math.pi, rel=1e-12)
    lifted = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
    rng = random.Random(20210515)
    worst = 0.0
    for _ in range(5):
        z0 = (
            lifted.zbar[0] + 0.08 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            lifted.zbar[1] + 0.08 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        traj = solve_lifted(lifted, z0, t_max=2 * period)
        assert not traj.t_singular, "periodicity run must be singularity-free"
        z_start = eval_lifted(traj, 0.0)
        z_end = eval_lifted(traj, period)
        dev = max(abs(z_end[i] - z_start[i]) for i in range(2))
        bound = 1e-6 * (1.0 + max(abs(z0[0]), abs(z0[1])))
        assert dev <= bound
        worst = max(worst, periodicity_deviation(traj, period))
    assert worst <= 1e-6
    assert not isochrony_check(EXAMPLE1, 1.0).isochronous
    assert not isochrony_check(EXAMPLE2, 1.0).isochronous
    report(
        9,
        f"5 orbits of the lifted third system return after T = 4*pi "
        f"(max deviation {worst:.1e}); examples 1 and 2 report non-isochronous",
    )


def test_criterion_10_runtime_budget():
    # exact algebra at desk scale: no scaled-down substitutions anywhere in
    # this suite; the whole run must stay inside the budget
    cpu = time.process_time() - _PROCESS_START
    wall = session_elapsed()
    assert cpu < 30.0
    report(
        10,
        f"acceptance suite cpu {cpu:.1f}s, session wall {wall:.1f}s "
        "(budget 30s; full-suite wall time printed at session end)",
    )
