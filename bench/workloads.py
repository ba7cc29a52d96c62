"""Seeded corpora, operations and output checks of the four workloads.

Every workload has the same four parts:

``build(seed, workdir, tr)``
    One round of inputs, in a fixed order, drawn from ``random.Random`` seeded
    with the workload name and the seed.  Systems are made from decomposition
    data ``(rho, b)`` through ``transform.forward_map``, so the answer is known
    by construction.
``run(item, tr)``
    The timed operation.  It raises when the program fails on the item.
``replay(item, out, tr)``
    Traced runs only: the layer functions that ``run`` reaches inside the
    program, called again one by one so that each gets a span of its own.
``check(item, out)``
    Problems found by comparing ``out`` with computations made apart from the
    program (see ``reference.py``); an empty list when the output is right.

``tr`` is a tracer (``tracing.py``); every call into the program that a
per-layer metric names goes through ``tr.call``.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from quadode import (
    CanonicalParams,
    LiftParams,
    NotSolvableError,
    QuadOdeError,
    QuadraticSystem,
    branch_equivalence_check,
    constraint_residuals,
    decompose,
    default_horizon,
    eval_lifted,
    eval_trajectory,
    forward_map,
    integrate,
    isochrony_check,
    lift,
    lifted_singular_times,
    linear_change_from_b,
    periodicity_deviation,
    pull_state,
    singular_times,
    solve_canonical,
    solve_ivp,
    solve_lifted,
)
from quadode import cli as qcli

import reference as ref


class OpFailed(Exception):
    """The program answered, but not with a usable result (CLI exit code)."""


# --- sampling -------------------------------------------------------------

# Random draws keep away from the holes of `decompose` (b22 -> 0, b12 -> 0,
# delta -> 1): near them the branch round-trip fails on a few systems in a
# thousand, and the recovered delta loses digits, so the failure count would
# change with the seed.  The holes stay in the benchmark as the fixed fault
# inputs below, which fail on every run.
BETA_RANGE = (0.05, 20.0)  # allowed |b12 / b22|
MIN_B22 = 0.1
DELTA_MARGIN = 0.1  # allowed |delta -+ 1|
MIN_DET = 0.2


def _disc(rng: random.Random) -> complex:
    while True:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(z) <= 1.0:
            return z


def _entry(rng: random.Random, real: bool) -> complex:
    return complex(rng.uniform(-1.0, 1.0)) if real else _disc(rng)


def _in_region(rho: CanonicalParams, b) -> bool:
    (b11, b12), (b21, b22) = b
    if abs(b11 * b22 - b12 * b21) < MIN_DET or abs(b22) < MIN_B22:
        return False
    if not BETA_RANGE[0] <= abs(b12 / b22) <= BETA_RANGE[1]:
        return False
    delta = cmath.sqrt(ref.discriminant(*rho))
    return abs(delta - 1.0) >= DELTA_MARGIN and abs(delta + 1.0) >= DELTA_MARGIN


def _draw_b(rng: random.Random, real: bool, rho: CanonicalParams):
    while True:
        b = ((_entry(rng, real), _entry(rng, real)), (_entry(rng, real), _entry(rng, real)))
        if _in_region(rho, b):
            return b


def _draw(rng: random.Random, real: bool):
    """Decomposition data (rho, b) with entries in the unit disc (or [-1, 1])."""
    while True:
        rho = CanonicalParams(_entry(rng, real), _entry(rng, real))
        b = ((_entry(rng, real), _entry(rng, real)), (_entry(rng, real), _entry(rng, real)))
        if _in_region(rho, b):
            return rho, b


def _rho_for_delta(delta: complex, rho2: complex) -> CanonicalParams:
    return CanonicalParams(((1.0 - rho2) ** 2 - delta * delta) / 4.0, rho2)


def _apply(b, y):
    return (b[0][0] * y[0] + b[0][1] * y[1], b[1][0] * y[0] + b[1][1] * y[1])


def _system(tr, rho, b):
    return tr.call("transform.forward_map", forward_map, rho, linear_change_from_b(b))


def _quiet_y0(rng: random.Random, rho: CanonicalParams, y1_size: float, eps: float):
    """Canonical initial data whose lifted flow stays clear of singularities.

    |y1(0)| = y1_size keeps s = 1 - y1(0)*warp(t) in a disc around 1, and
    y2(0)/y1(0) = u_minus + eps*delta with |eps| small keeps the ratio
    denominator u0 - u_minus - (u0 - u_plus)*s**(-delta) away from 0.
    """
    delta = cmath.sqrt(ref.discriminant(*rho))
    u_minus = (1.0 - rho.rho2 - delta) / 2.0
    y10 = y1_size * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    u0 = u_minus + eps * _disc(rng) * delta
    return (y10, y10 * u0)


# Inputs on which `decompose` fails when this benchmark was written.  They do
# not depend on the seed: every round contains them, and every run counts the
# same share of failed operations.  Each is (rho, b, y(0)).
FAULTS = {
    # delta = 1: BetaIndeterminateError (the simplest isochronous case)
    "delta_one": (
        (CanonicalParams(0j, 0j), ((0.6, 0.3), (-0.2, 0.7)), (0.5, -0.3)),
        (_rho_for_delta(1.0, 0.3 + 0.4j), ((0.1 - 0.5j, 0.4), (0.7j, -0.6 + 0.2j)), (0.2 + 0.1j, 0.4)),
        (_rho_for_delta(1.0, -0.5), ((-0.3, 0.8), (0.5, 0.4)), (-0.6, 0.2)),
    ),
    # b22 = 0: BetaIndeterminateError
    "b22_zero": (
        (CanonicalParams(0.3 - 0.2j, 0.5j), ((0.4, 0.7), (-0.5 + 0.3j, 0j)), (0.3, 0.6j)),
        (CanonicalParams(-0.4, 0.2), ((0.9, -0.3), (0.6, 0j)), (0.5, 0.5)),
        (CanonicalParams(0.1j, -0.7 + 0.1j), ((0.2j, 0.5 - 0.5j), (0.8, 0j)), (-0.4j, 0.3)),
    ),
    # b21 = 0 and rho1 = 0: InternalConsistencyError from the C3 gate
    "b21_zero_rho1_zero": (
        (CanonicalParams(0j, 0.4 + 0.3j), ((0.5, 0.6), (0j, 0.7 - 0.2j)), (0.3, -0.2)),
        (CanonicalParams(0j, -0.6), ((0.8, -0.4), (0j, 0.5)), (-0.5, 0.4)),
        (CanonicalParams(0j, 0.2j), ((-0.3 + 0.6j, 0.4j), (0j, 0.9)), (0.6j, 0.1)),
    ),
    # real, delta = 1.001 and small b22: the branch round-trip misses 1e-9
    "near_hole_real": (
        (_rho_for_delta(1.001, 0.5), ((-0.3, -0.56), (-0.71, -0.03)), (0.4, -0.7)),
        (_rho_for_delta(1.001, -0.28), ((0.45, -0.72), (0.45, -0.01)), (-0.2, 0.5)),
        (_rho_for_delta(1.001, 0.71), ((-0.9, -0.91), (0.7, -0.02)), (0.6, 0.3)),
    ),
}


def _complexify(rho, b, y0):
    rho = CanonicalParams(complex(rho.rho1), complex(rho.rho2))
    b = tuple(tuple(complex(v) for v in row) for row in b)
    return rho, b, (complex(y0[0]), complex(y0[1]))


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


# --- screen: decide, then solve ---------------------------------------------


@dataclass(frozen=True)
class ScreenItem:
    stratum: str
    system: object
    x0: tuple
    disc: complex  # delta**2 of the generating rho
    y10: complex  # canonical y1(0); shear-invariant, so the pole is 1/y10
    perturbed: bool


class ScreenOut(NamedTuple):
    satisfied: bool
    solved: bool
    delta: complex | None
    t_singular: tuple
    horizon: float | None
    branch_dev: float | None


class Screen:
    """constraint_residuals, solve_ivp and branch_equivalence_check on one system.

    Per round: 80 complex and 68 real solvable systems, 40 perturbed ones
    (correct answer: NotSolvableError) and the 12 fixed fault inputs.
    """

    name = "screen"
    counts = {"complex": 80, "real": 68, "perturbed": 40}
    samples = 20

    def build(self, seed: int, workdir: Path, tr) -> list[ScreenItem]:
        rng = _rng(self.name, seed)
        items = []
        for stratum in ("complex", "real"):
            real = stratum == "real"
            for _ in range(self.counts[stratum]):
                rho, b = _draw(rng, real)
                y0 = (_entry(rng, real), _entry(rng, real))
                items.append(self._item(tr, stratum, rho, b, y0))
        for j in range(self.counts["perturbed"]):
            real = j % 2 == 1
            rho, b = _draw(rng, real)
            y0 = (_entry(rng, real), _entry(rng, real))
            base = _system(tr, rho, b)
            n, l = rng.randrange(2), rng.randrange(3)
            kick = 1e-3 * (rng.choice((-1.0, 1.0)) if real else cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
            c = [list(row) for row in base.c]
            c[n][l] *= 1.0 + kick
            system = QuadraticSystem((tuple(c[0]), tuple(c[1])))
            items.append(ScreenItem("perturbed", system, _apply(b, y0), 0j, 0j, True))
        for stratum, inputs in FAULTS.items():
            for rho, b, y0 in inputs:
                items.append(self._item(tr, "fault:" + stratum, *_complexify(rho, b, y0)))
        rng.shuffle(items)
        return items

    @staticmethod
    def _item(tr, stratum, rho, b, y0) -> ScreenItem:
        return ScreenItem(
            stratum, _system(tr, rho, b), _apply(b, y0), ref.discriminant(*rho), y0[0], False
        )

    def run(self, item: ScreenItem, tr) -> ScreenOut:
        res = tr.call("inversion.constraint_residuals", constraint_residuals, item.system)
        try:
            traj = tr.call("solver.solve_ivp", solve_ivp, item.system, item.x0)
        except NotSolvableError:
            return ScreenOut(res.satisfied, False, None, (), None, None)
        horizon = default_horizon(item.system, item.x0)
        t_end = 0.9 * traj.t_singular[0] if traj.t_singular else horizon
        times = [t_end * (j + 1) / self.samples for j in range(self.samples)]
        dev = tr.call(
            "solver.branch_equivalence_check", branch_equivalence_check, item.system, item.x0, times
        )
        return ScreenOut(
            res.satisfied, True, traj.decomposition.delta, traj.t_singular, horizon, dev
        )

    def replay(self, item: ScreenItem, out: ScreenOut, tr) -> None:
        if not out.solved:
            return
        inv = tr.call("inversion.decompose", decompose, item.system)
        change = tr.call("transform.linear_change_from_b", linear_change_from_b, inv.plus.b)
        sol = tr.call(
            "canonical.solve_canonical", solve_canonical, inv.plus.rho, pull_state(change, item.x0)
        )
        times = tr.call("canonical.singular_times", singular_times, sol, out.horizon)
        tr.count("canonical.singular_times_found", len(times))

    def check(self, item: ScreenItem, out: ScreenOut) -> list[str]:
        if item.perturbed:
            return ["perturbed system accepted"] if (out.satisfied or out.solved) else []
        if not (out.satisfied and out.solved):
            return ["solvable system rejected"]
        problems = []
        if abs(out.delta**2 - item.disc) > 1e-8 * (1.0 + abs(item.disc)):
            problems.append(f"delta**2 = {out.delta**2} but the generating rho gives {item.disc}")
        if not out.branch_dev <= 1e-8:
            problems.append(f"branch deviation {out.branch_dev:.3e} > 1e-8")
        ts = out.t_singular
        if list(ts) != sorted(ts) or any(not 0.0 < t <= out.horizon for t in ts):
            problems.append(f"singular times {ts} not sorted within (0, {out.horizon}]")
        if item.y10 != 0:
            pole = 1.0 / item.y10
            if abs(pole.imag) <= 1e-12 * abs(pole) and 0.0 < pole.real <= out.horizon * (1 - 1e-9):
                if not any(abs(t - pole.real) <= 1e-9 * pole.real for t in ts):
                    problems.append(f"pole of y1 at t = {pole.real} not among {ts}")
        return problems


# --- grid: the CLI on one spec file ------------------------------------------


@dataclass(frozen=True)
class GridItem:
    stratum: str
    spec: str
    coefficients: tuple
    x0: tuple
    disc: complex
    t_end: float
    t_step: float


class GridOut(NamedTuple):
    check: str
    csv: str
    notices: str
    validate: str


def _jc(z: complex) -> list[float]:
    return [z.real, z.imag]


def _cli(tr, name: str, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tr.call(name, qcli.main, argv)
    return code, out.getvalue(), err.getvalue()


class CountingRhs:
    """A right-hand side that counts its evaluations, for ``integrate``."""

    def __init__(self, rhs):
        self._rhs = rhs
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self._rhs(x)


class Grid:
    """quadode check, solve (1000-row CSV) and validate on one spec file.

    Per round: 52 complex and 50 real systems and two fixed fault inputs.
    The grid ends at 0.9 of the first singular time, or at default_horizon.
    """

    name = "grid"
    counts = {"complex": 52, "real": 50}
    rows = 1000
    checked_rows = tuple(range(50, 1000, 50)) + (999,)

    def build(self, seed: int, workdir: Path, tr) -> list[GridItem]:
        rng = _rng(self.name, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        drawn = []
        for stratum in ("complex", "real"):
            real = stratum == "real"
            for _ in range(self.counts[stratum]):
                rho, b = _draw(rng, real)
                drawn.append((stratum, rho, b, (_entry(rng, real), _entry(rng, real))))
        for fault in FAULTS["near_hole_real"][:2]:
            drawn.append(("fault:near_hole_real", *_complexify(*fault)))
        items = []
        rng.shuffle(drawn)
        for k, (stratum, rho, b, y0) in enumerate(drawn):
            system = _system(tr, rho, b)
            x0 = _apply(b, y0)
            try:
                first = solve_ivp(system, x0).t_singular
            except QuadOdeError:
                first = ()
            t_end = 0.9 * first[0] if first else default_horizon(system, x0)
            spec = workdir / f"spec_{k:03d}.json"
            doc = json.dumps(
                {
                    "coefficients": [[_jc(v) for v in row] for row in system.c],
                    "x0": [_jc(v) for v in x0],
                }
            )
            # written only when missing or changed: rewriting them on every
            # build timed the disk, whose latency varied threefold between runs
            if not spec.is_file() or spec.read_text(encoding="utf-8") != doc:
                spec.write_text(doc, encoding="utf-8")
            items.append(
                GridItem(stratum, str(spec), system.c, x0, ref.discriminant(*rho), t_end,
                         t_end / (self.rows - 1))
            )
        return items

    def run(self, item: GridItem, tr) -> GridOut:
        code, check, _ = _cli(tr, "cli.check", ["check", item.spec])
        if code != 0 or "error" in json.loads(check):
            raise OpFailed(f"check: exit {code}, {json.loads(check).get('error')}")
        argv = ["solve", item.spec, "--t-end", repr(item.t_end), "--t-step", repr(item.t_step)]
        code, csv, notices = _cli(tr, "cli.solve", argv)
        if code != 0:
            raise OpFailed(f"solve: exit {code}: {notices.strip()}")
        code, validate, err = _cli(tr, "cli.validate", ["validate", item.spec])
        if code != 0:
            raise OpFailed(f"validate: exit {code}: {err.strip()}")
        return GridOut(check, csv, notices, validate)

    def replay(self, item: GridItem, out: GridOut, tr) -> None:
        spec = tr.call("cli.load_spec", qcli.load_spec, item.spec)
        traj = tr.call("solver.solve_ivp", solve_ivp, spec.system, spec.x0, t_max=item.t_end)
        for i in range(0, self.rows, 10):
            tr.call("solver.eval_trajectory", eval_trajectory, traj, i * item.t_step)
        t_end = json.loads(out.validate)["t_end"]
        rhs = CountingRhs(spec.system.rhs)
        samples = [t_end * (i + 1) / 20.0 for i in range(20)]
        tr.call("oracle.integrate", integrate, rhs, spec.x0, t_end, t_eval=samples)
        tr.count("oracle.rhs_evals", rhs.calls)
        tr.count("cli.rows_written", out.csv.count("\n") - 1)

    def check(self, item: GridItem, out: GridOut) -> list[str]:
        problems = []
        report = json.loads(out.check)
        if not report["constraints"]["satisfied"]:
            problems.append("check: constraints reported violated")
        for branch in report.get("branches", []):
            delta = complex(*branch["delta"])
            if abs(delta**2 - item.disc) > 1e-8 * (1.0 + abs(item.disc)):
                problems.append(f"check: delta**2 = {delta**2}, expected {item.disc}")
        lines = out.csv.splitlines()
        if lines[0] != "t,re_x1,im_x1,re_x2,im_x2" or len(lines) != self.rows + 1:
            return problems + [f"solve: {len(lines) - 1} rows, expected {self.rows}"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if any(row[0] != i * item.t_step for i, row in enumerate(rows)):
            problems.append("solve: t column is not the requested grid")
        picked = [rows[i] for i in self.checked_rows]
        want = ref.integrate(
            ref.quadratic_rhs(item.coefficients), item.x0, [row[0] for row in picked]
        )
        worst = max(
            ref.rel_dev((complex(r[1], r[2]), complex(r[3], r[4])), w) for r, w in zip(picked, want)
        )
        if worst > 1e-7:
            problems.append(f"solve: rows deviate {worst:.3e} from the reference integration")
        if not json.loads(out.validate)["passed"]:
            problems.append("validate: not passed")
        return problems


# --- orbits: isochronous lifts -----------------------------------------------


# delta = k1/k2 (never 1: decompose fails there, see FAULTS["delta_one"])
ORBIT_DELTAS = ((1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 3), (2, 1), (3, 1))
# evaluation times as fractions of the period: the first period, then late
ORBIT_FRACTIONS = (0.13, 0.37, 0.71, 1.37, 5.37, 20.37)


@dataclass(frozen=True)
class OrbitItem:
    stratum: str
    system: object
    omega: float
    zbar: tuple
    z0: tuple
    rational: tuple
    period: float  # 2*pi*k2/|omega|, from the construction


class OrbitOut(NamedTuple):
    rational: tuple | None
    period: float | None
    t_singular: tuple
    z: tuple
    deviation: float


def _eval_span(fraction: float) -> str:
    if fraction < 1.0:
        return "extensions.eval_lifted_first_period"
    return "extensions.eval_lifted_late" if fraction >= 10.0 else "extensions.eval_lifted_mid"


class Orbits:
    """isochrony_check, lift, solve_lifted over one period, eval_lifted at
    fixed fractions of up to 20.37 periods, periodicity_deviation.

    Per round: every delta of ORBIT_DELTAS 13 times; real rho and b (with
    complex rho, the recovered delta carries rounding in its imaginary part
    and isochrony_check misses about 2% of the orbits, a count that depends
    on the seed); complex zbar and z(0); eta = i*omega, 0.5 <= |omega| <= 2.
    """

    name = "orbits"

    def build(self, seed: int, workdir: Path, tr) -> list[OrbitItem]:
        rng = _rng(self.name, seed)
        items = []
        for k1, k2 in ORBIT_DELTAS * 13:
            rho = _rho_for_delta(k1 / k2, _entry(rng, True))
            b = _draw_b(rng, True, rho)
            omega = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
            y0 = _quiet_y0(rng, rho, 0.25 * abs(omega) * rng.uniform(0.4, 1.0), 0.2)
            x0 = _apply(b, y0)
            zbar = (_disc(rng), _disc(rng))
            system = _system(tr, rho, b)
            items.append(
                OrbitItem(
                    f"{k1}/{k2}", system, omega, zbar,
                    (x0[0] + zbar[0], x0[1] + zbar[1]), (k1, k2),
                    2.0 * math.pi * k2 / abs(omega),
                )
            )
        rng.shuffle(items)
        return items

    def run(self, item: OrbitItem, tr) -> OrbitOut:
        rep = tr.call("extensions.isochrony_check", isochrony_check, item.system, item.omega)
        if not rep.isochronous:
            return OrbitOut(None, None, (), (), math.inf)
        lifted = tr.call("extensions.lift", lift, item.system, LiftParams(item.zbar, 1j * item.omega))
        traj = tr.call("extensions.solve_lifted", solve_lifted, lifted, item.z0, t_max=rep.period)
        z = tuple(
            tr.call(_eval_span(f), eval_lifted, traj, f * rep.period) for f in ORBIT_FRACTIONS
        )
        dev = tr.call(
            "extensions.periodicity_deviation", periodicity_deviation, traj, rep.period
        )
        return OrbitOut(rep.rational, rep.period, traj.t_singular, z, dev)

    def replay(self, item: OrbitItem, out: OrbitOut, tr) -> None:
        return None

    def check(self, item: OrbitItem, out: OrbitOut) -> list[str]:
        if out.rational != item.rational:
            return [f"isochrony: rational {out.rational}, expected {item.rational}"]
        problems = []
        if abs(out.period - item.period) > 1e-12 * item.period:
            problems.append(f"period {out.period}, expected {item.period}")
        if out.t_singular:
            problems.append(f"singular times {out.t_singular} on a clear orbit")
        first = {f: z for f, z in zip(ORBIT_FRACTIONS, out.z)}
        for f, z in zip(ORBIT_FRACTIONS, out.z):
            base = first[round(f % 1.0, 2)]
            if f >= 1.0 and ref.rel_dev(z, base) > 1e-7:
                problems.append(f"z({f} T) deviates {ref.rel_dev(z, base):.3e} from z({f % 1.0:.2f} T)")
        early = [f for f in ORBIT_FRACTIONS if f < 1.0]
        want = ref.integrate(
            ref.lifted_rhs(item.system.c, 1j * item.omega, item.zbar), item.z0,
            [f * out.period for f in early],
        )
        worst = max(ref.rel_dev(first[f], w) for f, w in zip(early, want))
        if worst > 1e-7:
            problems.append(f"first-period points deviate {worst:.3e} from the reference integration")
        if not out.deviation <= 1e-6:
            problems.append(f"periodicity deviation {out.deviation:.3e} > 1e-6")
        return problems


# --- lifted: general lifts, Re(eta) != 0 ------------------------------------


@dataclass(frozen=True)
class LiftedItem:
    stratum: str
    system: object
    eta: complex
    zbar: tuple
    z0: tuple


class LiftedOut(NamedTuple):
    t_singular: tuple
    times: tuple
    z: tuple


class Lifted:
    """lift, solve_lifted and eval_lifted at 20 times before any singular time.

    Per round: 104 complex systems, eta = a + i*omega with 0.2 <= |a| <= 1
    (half growing, half decaying) and |omega| <= 2, over the horizon [0, 1].
    """

    name = "lifted"
    count = 104
    horizon = 1.0
    samples = 20

    def build(self, seed: int, workdir: Path, tr) -> list[LiftedItem]:
        rng = _rng(self.name, seed)
        items = []
        for j in range(self.count):
            rho, b = _draw(rng, False)
            # stratified, so that every round spans |eta| alike: the cost of
            # eval_lifted grows with |eta| * t
            a = (-1.0) ** j * (0.2 + 0.8 * (j // 2 % 4 + rng.random()) / 4)
            eta = complex(a, -2.0 + 4.0 * (j // 8 % 13 + rng.random()) / 13)
            # |warp(t)| <= t*exp(|a| t): keep |y1(0) * warp| <= 0.4 on the horizon
            y_size = 0.4 / (self.horizon * math.exp(abs(a) * self.horizon)) * rng.uniform(0.5, 1.0)
            y0 = _quiet_y0(rng, rho, y_size, 0.1)
            x0 = _apply(b, y0)
            zbar = (_disc(rng), _disc(rng))
            system = _system(tr, rho, b)
            stratum = "growing" if a > 0 else "decaying"
            items.append(
                LiftedItem(stratum, system, eta, zbar, (x0[0] + zbar[0], x0[1] + zbar[1]))
            )
        return items

    def run(self, item: LiftedItem, tr) -> LiftedOut:
        lifted = tr.call("extensions.lift", lift, item.system, LiftParams(item.zbar, item.eta))
        traj = tr.call("extensions.solve_lifted", solve_lifted, lifted, item.z0, t_max=self.horizon)
        t_stop = 0.9 * (traj.t_singular[0] if traj.t_singular else self.horizon)
        times = tuple(t_stop * (j + 1) / self.samples for j in range(self.samples))
        z = tuple(tr.call("extensions.eval_lifted", eval_lifted, traj, t) for t in times)
        return LiftedOut(traj.t_singular, times, z)

    def replay(self, item: LiftedItem, out: LiftedOut, tr) -> None:
        inv = decompose(item.system)
        change = linear_change_from_b(inv.plus.b)
        x0 = (item.z0[0] - item.zbar[0], item.z0[1] - item.zbar[1])
        sol = solve_canonical(inv.plus.rho, pull_state(change, x0))
        tr.call(
            "extensions.lifted_singular_times", lifted_singular_times, sol, item.eta, self.horizon
        )

    def check(self, item: LiftedItem, out: LiftedOut) -> list[str]:
        problems = []
        if out.t_singular:
            problems.append(f"singular times {out.t_singular} on a clear horizon")
        want = ref.integrate(ref.lifted_rhs(item.system.c, item.eta, item.zbar), item.z0, out.times)
        worst = max(ref.rel_dev(z, w) for z, w in zip(out.z, want))
        if worst > 1e-7:
            problems.append(f"points deviate {worst:.3e} from the reference integration")
        return problems


WORKLOADS = {w.name: w for w in (Screen(), Grid(), Orbits(), Lifted())}

# Per-layer metrics of a traced run, each taken from the workload whose
# end-to-end metrics it should move.  A name ending in _us or _ms is the
# median self time of the span of the same name without the suffix; any
# other name is a count per round.
LAYER_METRICS = {
    "screen": (
        "inversion.constraint_residuals_us",
        "inversion.decompose_us",
        "transform.linear_change_from_b_us",
        "canonical.solve_canonical_us",
        "canonical.singular_times_us",
        "solver.solve_ivp_us",
        "solver.branch_equivalence_check_us",
        "canonical.singular_times_found",
        "transform.forward_map_us",
    ),
    "grid": (
        "solver.eval_trajectory_us",
        "cli.load_spec_us",
        "cli.check_ms",
        "cli.solve_ms",
        "cli.validate_ms",
        "cli.rows_written",
        "oracle.integrate_ms",
        "oracle.rhs_evals",
    ),
    "orbits": (
        "extensions.isochrony_check_us",
        "extensions.solve_lifted_us",
        "extensions.eval_lifted_first_period_us",
        "extensions.eval_lifted_late_us",
        "extensions.periodicity_deviation_ms",
    ),
    "lifted": (
        "extensions.lift_us",
        "extensions.lifted_singular_times_us",
        "extensions.eval_lifted_us",
    ),
}
