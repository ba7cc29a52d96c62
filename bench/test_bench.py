"""Tests of the benchmark itself: seeded corpora, the output checks, the
reference integrator and the span arithmetic.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import cmath
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from quadode import (  # noqa: E402
    LiftParams,
    QuadraticSystem,
    eval_lifted,
    eval_trajectory,
    lift,
    solve_ivp,
    solve_lifted,
)
from tracing import NullTracer, Tracer  # noqa: E402

NULL = NullTracer()


def _corpus(name, seed, tmp_path):
    return W.WORKLOADS[name].build(seed, tmp_path / f"{name}_{seed}", NULL)


def _first(name, corpus, pick):
    """The first item the predicate accepts, with its output."""
    wl = W.WORKLOADS[name]
    for item in corpus:
        if pick(item):
            return item, wl.run(item, NULL)
    raise AssertionError("no such item")


def _flipped(traj):
    """The same trajectory with the sign of delta flipped in its canonical
    solution and u+- left alone: a wrong closed form."""
    return replace(traj, canonical=replace(traj.canonical, delta=-traj.canonical.delta))


# --- seeded corpora ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_corpus_is_deterministic(name, tmp_path):
    first = _corpus(name, 7, tmp_path)
    again = _corpus(name, 7, tmp_path)
    other = _corpus(name, 8, tmp_path)
    assert first == again
    assert first != other
    assert len(first) == len(other)
    assert sorted(i.stratum for i in first) == sorted(i.stratum for i in other)


def test_fault_inputs_do_not_depend_on_the_seed(tmp_path):
    def faults(seed):
        return sorted(
            (i.stratum, repr(i.system.c))
            for i in _corpus("screen", seed, tmp_path)
            if i.stratum.startswith("fault:")
        )

    assert faults(1) == faults(2)
    assert len(faults(1)) == sum(len(v) for v in W.FAULTS.values())


def test_random_draws_stay_clear_of_the_holes(tmp_path):
    import random

    rng = random.Random(0)
    for real in (True, False):
        for _ in range(200):
            rho, b = W._draw(rng, real)
            assert W._in_region(rho, b)
            assert abs(cmath.sqrt(ref.discriminant(*rho)) - 1.0) >= W.DELTA_MARGIN


# --- the checks pass right answers and catch wrong ones -------------------


def test_screen_checks(tmp_path):
    corpus = _corpus("screen", 3, tmp_path)
    wl = W.WORKLOADS["screen"]

    item, out = _first("screen", corpus, lambda i: i.stratum == "complex")
    assert wl.check(item, out) == []
    assert wl.check(item, out._replace(delta=out.delta * 1.001))
    assert wl.check(item, out._replace(delta=cmath.sqrt(item.disc + 0.01)))
    assert wl.check(item, out._replace(branch_dev=1e-6))
    assert wl.check(item, out._replace(solved=False))

    item, out = _first("screen", corpus, lambda i: i.perturbed)
    assert not out.solved and wl.check(item, out) == []
    assert wl.check(item, out._replace(solved=True, satisfied=True))

    def pole_in_range(i):
        if i.stratum != "real" or i.y10.real <= 0:
            return False
        return 1.0 / i.y10.real < W.default_horizon(i.system, i.x0)

    item, out = _first("screen", corpus, pole_in_range)
    assert wl.check(item, out) == []
    pole = 1.0 / item.y10.real
    missing = tuple(t for t in out.t_singular if abs(t - pole) > 1e-9 * pole)
    assert wl.check(item, out._replace(t_singular=missing))


def test_grid_checks(tmp_path):
    corpus = _corpus("grid", 3, tmp_path)
    wl = W.WORKLOADS["grid"]
    item, out = _first("grid", corpus, lambda i: i.stratum == "real")
    assert wl.check(item, out) == []

    # rows of a closed form with sign-flipped delta
    wrong = _flipped(solve_ivp(QuadraticSystem(item.coefficients), item.x0))
    lines = out.csv.splitlines()
    for i in wl.checked_rows:
        t = float(lines[i + 1].split(",")[0])
        x1, x2 = eval_trajectory(wrong, t)
        lines[i + 1] = ",".join(repr(v) for v in (t, x1.real, x1.imag, x2.real, x2.imag))
    assert any("deviate" in p for p in wl.check(item, out._replace(csv="\n".join(lines) + "\n")))

    short = "\n".join(out.csv.splitlines()[:-1]) + "\n"
    assert wl.check(item, out._replace(csv=short))
    report = json.loads(out.check)
    report["branches"][0]["delta"] = [1.01 * v for v in report["branches"][0]["delta"]]
    assert wl.check(item, out._replace(check=json.dumps(report)))
    assert wl.check(item, out._replace(validate=out.validate.replace("true", "false")))


def test_orbit_checks(tmp_path):
    corpus = _corpus("orbits", 3, tmp_path)
    wl = W.WORKLOADS["orbits"]
    item, out = _first("orbits", corpus, lambda i: i.rational[1] == 2)
    assert wl.check(item, out) == []
    assert wl.check(item, out._replace(rational=(1, 1)))
    assert wl.check(item, out._replace(period=out.period * (1 + 1e-9)))
    assert wl.check(item, out._replace(deviation=1e-3))
    late = list(out.z)
    late[-1] = (late[-1][0] + 1e-4, late[-1][1])
    assert wl.check(item, out._replace(z=tuple(late)))

    traj = solve_lifted(lift(item.system, LiftParams(item.zbar, 1j * item.omega)), item.z0,
                        t_max=out.period)
    wrong = _flipped(traj)
    z = tuple(eval_lifted(wrong, f * out.period) for f in W.ORBIT_FRACTIONS)
    assert any("reference" in p for p in wl.check(item, out._replace(z=z)))


def test_lifted_checks(tmp_path):
    corpus = _corpus("lifted", 3, tmp_path)
    wl = W.WORKLOADS["lifted"]
    item, out = _first("lifted", corpus, lambda i: True)
    assert wl.check(item, out) == []
    traj = solve_lifted(lift(item.system, LiftParams(item.zbar, item.eta)), item.z0, t_max=1.0)
    z = tuple(eval_lifted(_flipped(traj), t) for t in out.times)
    assert wl.check(item, out._replace(z=z))
    assert wl.check(item, out._replace(t_singular=(0.5,)))


# --- reference integrator and spans -------------------------------------------


def test_reference_integrator_matches_an_exact_solution():
    # x1' = x1**2, x2' = x2**2: x(t) = x0 / (1 - x0 t)
    rhs = ref.quadratic_rhs(((1, 0, 0), (0, 0, 1)))
    x0 = (0.5 + 0.2j, -0.7)
    times = [0.1, 0.5, 1.2]
    got = ref.integrate(rhs, x0, times)
    for t, z in zip(times, got):
        exact = (x0[0] / (1 - x0[0] * t), x0[1] / (1 - x0[1] * t))
        assert ref.rel_dev(z, exact) < 1e-10


def test_reference_integrator_gives_up_at_a_pole():
    rhs = ref.quadratic_rhs(((1, 0, 0), (0, 0, 1)))
    with pytest.raises(ref.UnsettledError):
        ref.integrate(rhs, (1.0, 0.0), [0.999999], max_steps=200)


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    with tr.group("outer"):
        tr.call("inner", sum, range(1000))
        tr.call("inner", sum, range(1000))
    times = tr.self_times()
    (_, _, _, _, start, end) = next(s for s in tr.spans if s[3] == "outer")
    inner = [s[5] - s[4] for s in tr.spans if s[3] == "inner"]
    assert times["outer"][0] == pytest.approx(end - start - sum(inner))
    assert sorted(times["inner"]) == sorted(inner)
    parents = {s[1] for s in tr.spans if s[3] == "inner"}
    assert parents == {next(s[0] for s in tr.spans if s[3] == "outer")}


def test_tally_times_each_operation_by_the_median_of_its_repeats():
    tally = run.Tally(3)
    for dts in ((0.3, 0.2, 0.5), (0.1, 0.4, 0.6), (0.2, 0.9, 0.7)):
        for i, dt in enumerate(dts):
            tally.times[i].append(dt)
    assert tally.latencies() == [0.2, 0.4, 0.6]
    assert run.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.9) == 9


def test_fails_without_the_program(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
