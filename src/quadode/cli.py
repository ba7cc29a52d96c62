"""Command-line interface: spec-document I/O and the check / solve /
generate / validate / lift / iso subcommands.

Reports are JSON on stdout; trajectories are CSV (columns
t,re_x1,im_x1,re_x2,im_x2) or a JSON document; notices go to stderr.
Exit codes: 0 success, 1 domain failure (unsolvable system, validation
miss), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys as _sys
from dataclasses import dataclass, replace
from itertools import chain

from .canonical import CanonicalParams
from .errors import NotSolvableError, QuadOdeError, SpecFormatError
from .extensions import (
    LiftParams,
    isochrony_check,
    lift,
    periodicity_deviation,
    solve_lifted,
)
from .inversion import alpha_from_change, constraint_residuals, decompose
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig
from .oracle import REACHED_T_END, compare_trajectories, integrate
from .solver import (
    branch_equivalence_check,
    default_horizon,
    eval_trajectory,
    first_singular_time,
    solve_ivp,
)
from .transform import QuadraticSystem, forward_map, linear_change_from_b


@dataclass(frozen=True)
class SystemSpecDocument:
    system: QuadraticSystem
    x0: tuple[complex, complex] | None
    lift_params: LiftParams | None
    tol: ToleranceConfig


def _num(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise SpecFormatError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _cplx(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SpecFormatError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(_num(value[0], where + "[0]"), _num(value[1], where + "[1]"))


def _cplx_pair(value, where: str) -> tuple[complex, complex]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SpecFormatError(f"{where}: expected two [re, im] pairs")
    return (_cplx(value[0], where + "[0]"), _cplx(value[1], where + "[1]"))


def parse_spec(doc) -> SystemSpecDocument:
    """Validate a loaded spec document. Unknown top-level keys are ignored."""
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be a JSON object")
    if "coefficients" not in doc:
        raise SpecFormatError("spec document lacks 'coefficients'")
    rows = doc["coefficients"]
    if not isinstance(rows, (list, tuple)) or len(rows) != 2:
        raise SpecFormatError("'coefficients' must be a 2x3 array of [re, im] pairs")
    c = []
    for n, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise SpecFormatError(f"'coefficients' row {n + 1} must have 3 entries")
        c.append(tuple(_cplx(v, f"coefficients[{n}][{l}]") for l, v in enumerate(row)))
    system = QuadraticSystem((c[0], c[1]))

    x0 = _cplx_pair(doc["x0"], "x0") if "x0" in doc else None

    lift_params = None
    if "lift" in doc:
        block = doc["lift"]
        if not isinstance(block, dict) or "zbar" not in block or "eta" not in block:
            raise SpecFormatError("'lift' must be an object with 'zbar' and 'eta'")
        lift_params = LiftParams(
            zbar=_cplx_pair(block["zbar"], "lift.zbar"), eta=_cplx(block["eta"], "lift.eta")
        )

    tol = DEFAULT_TOLERANCES
    if "tolerances" in doc:
        block = doc["tolerances"]
        if not isinstance(block, dict):
            raise SpecFormatError("'tolerances' must be an object")
        kwargs = {}
        for key in ("eq_tol", "sing_tol", "oracle_tol"):
            if key in block:
                kwargs[key] = _num(block[key], f"tolerances.{key}")
        try:
            tol = replace(DEFAULT_TOLERANCES, **kwargs)
        except ValueError as exc:
            raise SpecFormatError(f"bad tolerance override: {exc}") from exc
    return SystemSpecDocument(system=system, x0=x0, lift_params=lift_params, tol=tol)


def load_spec(path: str, args=None) -> SystemSpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"spec file is not valid JSON: {exc}") from exc
    spec = parse_spec(doc)
    if args is not None:
        overrides = {
            key: getattr(args, key)
            for key in ("eq_tol", "sing_tol", "oracle_tol")
            if getattr(args, key, None) is not None
        }
        if overrides:
            try:
                spec = replace(spec, tol=replace(spec.tol, **overrides))
            except ValueError as exc:
                raise SpecFormatError(f"bad tolerance flag: {exc}") from exc
    return spec


def _jc(z: complex) -> list[float]:
    return [z.real, z.imag]


def _jc_rows(rows) -> list[list[list[float]]]:
    return [[_jc(v) for v in row] for row in rows]


def _fmt(value: float) -> str:
    return format(value, ".17g")


_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"


def _decomposition_doc(dec) -> dict:
    return {
        "branch": dec.branch,
        "beta": None if dec.beta is None else _jc(dec.beta),
        "b": _jc_rows(dec.b),
        "rho1": _jc(dec.rho.rho1),
        "rho2": _jc(dec.rho.rho2),
        "delta": _jc(dec.delta),
    }


def _constraints_doc(res) -> dict:
    return {
        "r1": _jc(res.r1),
        "r2": _jc(res.r2),
        "scale1": res.scale1,
        "scale2": res.scale2,
        "rel1": res.rel1,
        "rel2": res.rel2,
        "satisfied": res.satisfied,
    }


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _notice(message: str) -> None:
    print(message, file=_sys.stderr)


def cmd_check(args) -> int:
    spec = load_spec(args.spec, args)
    res = constraint_residuals(spec.system, spec.tol)
    report = {"constraints": _constraints_doc(res)}
    if not res.satisfied:
        _emit(report)
        return 1
    try:
        inv = decompose(spec.system, spec.tol)
    except QuadOdeError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _emit(report)
        return 0
    diag = inv.diagnostics
    report["diagnostics"] = {
        "alpha": _jc_rows(alpha_from_change(spec.system, inv.plus.change)),
        "line_residual": diag.line_residual,
        "roundtrip_deviation": diag.roundtrip_deviation,
    }
    report["branches"] = [_decomposition_doc(d) for d in inv.branches]
    _emit(report)
    return 0


def _positive_flag(value: float, flag: str) -> float:
    if not 0 < value < math.inf:
        raise SpecFormatError(f"{flag} must be positive and finite, got {value!r}")
    return value


def _time_grid(t_end: float, t_step: float) -> list[float]:
    rows = _positive_flag(t_end, "--t-end") / _positive_flag(t_step, "--t-step")
    if rows == math.inf:
        raise SpecFormatError(f"--t-end / --t-step overflows, got {t_end!r} / {t_step!r}")
    count = int(math.floor(rows + 1e-9)) + 1
    return [i * t_step for i in range(count)]


def cmd_solve(args) -> int:
    spec = load_spec(args.spec, args)
    if spec.x0 is None:
        raise SpecFormatError("'solve' needs an x0 block in the spec document")
    grid = _time_grid(args.t_end, args.t_step)
    traj = solve_ivp(
        spec.system, spec.x0, branch=args.branch, t_max=args.t_end, tol=spec.tol
    )
    band = 10.0 * spec.tol.sing_tol
    sing = traj.t_singular
    widths = [band * max(1.0, abs(ts)) for ts in sing]
    rows = []
    skipped = []
    j, n = 0, len(sing)
    for t in grid:
        # One walk over the sorted grid and singular times: sing[j] is the
        # first time not below t.  The times whose band holds t form an
        # interval that contains t, so sing[j - 1] and sing[j] decide.
        while j < n and sing[j] < t:
            j += 1
        if (j < n and sing[j] - t <= widths[j]) or (j and t - sing[j - 1] <= widths[j - 1]):
            skipped.append(t)
            _notice(f"notice: t={_fmt(t)} inside a singular band, row skipped")
            continue
        try:
            x1, x2 = eval_trajectory(traj, t, spec.tol)
        except QuadOdeError:
            skipped.append(t)
            _notice(f"notice: t={_fmt(t)} evaluates singular, row skipped")
            continue
        rows.append((t, x1.real, x1.imag, x2.real, x2.imag))

    if args.format == "csv":
        for ts in traj.t_singular:
            _notice(f"metadata: singular_time={_fmt(ts)}")
        # "%.17g" converts as _fmt does, in one pass over every value
        body = _CSV_ROW * len(rows) % tuple(chain.from_iterable(rows))
        out = "t,re_x1,im_x1,re_x2,im_x2\n" + body
    else:
        doc = {
            "branch": args.branch,
            "singular_times": list(traj.t_singular),
            "skipped": skipped,
            "columns": ["t", "re_x1", "im_x1", "re_x2", "im_x2"],
            "rows": rows,
        }
        out = json.dumps(doc, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    else:
        _sys.stdout.write(out)
    return 0


def _parse_complex(text: str, where: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise SpecFormatError(f"{where}: cannot parse complex number {text!r}") from exc


def cmd_generate(args) -> int:
    explicit = [args.rho1, args.rho2, args.b11, args.b12, args.b21, args.b22]
    if args.count is None and any(v is None for v in explicit):
        raise SpecFormatError(
            "generate needs either all of --rho1/--rho2/--b11/--b12/--b21/--b22 "
            "or --seed/--count"
        )
    if args.count is None:
        rho = CanonicalParams(
            _parse_complex(args.rho1, "--rho1"), _parse_complex(args.rho2, "--rho2")
        )
        b = (
            (_parse_complex(args.b11, "--b11"), _parse_complex(args.b12, "--b12")),
            (_parse_complex(args.b21, "--b21"), _parse_complex(args.b22, "--b22")),
        )
        _emit(_generated_doc(rho, b))
        return 0
    if args.count < 1:
        raise SpecFormatError("--count must be at least 1")
    rng = random.Random(args.seed)
    _emit([_generated_doc(*sample_solvable_parameters(rng)) for _ in range(args.count)])
    return 0


def _generated_doc(rho: CanonicalParams, b) -> dict:
    """The spec of the system that (rho, b) decomposes, with its origin."""
    return {
        "coefficients": _jc_rows(forward_map(rho, linear_change_from_b(b)).c),
        "generated_from": {"rho": [_jc(rho.rho1), _jc(rho.rho2)], "b": _jc_rows(b)},
    }


def unit_disc(rng: random.Random) -> complex:
    while True:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(z) <= 1.0:
            return z


def sample_solvable_parameters(rng: random.Random):
    """Random decomposition data: rho in the unit bidisc, b entries in the
    unit disc conditioned on |det b| >= 0.1."""
    rho = CanonicalParams(unit_disc(rng), unit_disc(rng))
    while True:
        b = ((unit_disc(rng), unit_disc(rng)), (unit_disc(rng), unit_disc(rng)))
        if abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) >= 0.1:
            return rho, b


def cmd_validate(args) -> int:
    spec = load_spec(args.spec, args)
    if spec.x0 is None:
        raise SpecFormatError("'validate' needs an x0 block in the spec document")
    traj = solve_ivp(spec.system, spec.x0, branch="plus", tol=spec.tol)
    if args.t_end is not None:
        t_end = _positive_flag(args.t_end, "--t-end")
    else:
        ts = first_singular_time(traj)
        t_end = 0.5 * ts if ts is not None else default_horizon(spec.system, spec.x0)
    samples = [t_end * (i + 1) / 20.0 for i in range(20)]
    numeric = integrate(spec.system, spec.x0, t_end, t_eval=samples)
    if numeric.terminated != REACHED_T_END:
        _notice(f"error: the oracle stopped ({numeric.terminated}) at t={_fmt(numeric.last_time)}")
        return 1
    oracle_dev = compare_trajectories(
        lambda t: eval_trajectory(traj, t, spec.tol), numeric, len(samples)
    )
    branch_dev = branch_equivalence_check(spec.system, spec.x0, samples, spec.tol)
    if math.isnan(oracle_dev + branch_dev):
        _notice("error: a closed form is not finite at a sample time")
        return 1
    passed = oracle_dev <= spec.tol.oracle_tol and branch_dev <= spec.tol.oracle_tol
    _emit(
        {
            "t_end": t_end,
            "samples": len(samples),
            "oracle_deviation": oracle_dev,
            "branch_deviation": branch_dev,
            "oracle_tol": spec.tol.oracle_tol,
            "passed": passed,
        }
    )
    return 0 if passed else 1


def _omega_from(args, spec) -> tuple[float, str]:
    if args.omega is not None:
        if not (math.isfinite(args.omega) and args.omega != 0):
            raise SpecFormatError(f"--omega must be finite and nonzero, got {args.omega!r}")
        return args.omega, "--omega"
    lp = spec.lift_params
    if lp is not None and lp.eta.imag != 0 and abs(lp.eta.real) <= 1e-15 * abs(lp.eta):
        return lp.eta.imag, "lift.eta"
    raise SpecFormatError("no --omega given and the spec's lift.eta is not purely imaginary")


def cmd_lift(args) -> int:
    spec = load_spec(args.spec, args)
    if spec.lift_params is None:
        raise SpecFormatError("'lift' needs a lift block in the spec document")
    lifted = lift(spec.system, spec.lift_params)
    _emit(
        {
            "eta": _jc(lifted.eta),
            "zbar": [_jc(v) for v in lifted.zbar],
            "d": _jc_rows(lifted.d),
        }
    )
    return 0


def cmd_iso(args) -> int:
    spec = load_spec(args.spec, args)
    omega, source = _omega_from(args, spec)
    if args.max_den < 1:
        raise SpecFormatError(f"--max-den must be at least 1, got {args.max_den}")
    try:
        report = isochrony_check(spec.system, omega, max_den=args.max_den, tol=spec.tol)
    except ValueError as exc:
        raise SpecFormatError(f"{source}: {exc}") from exc
    doc = {
        "delta": _jc(report.delta),
        "rational": list(report.rational) if report.rational else None,
        "omega": report.omega,
        "period": report.period,
        "isochronous": report.isochronous,
    }
    if args.verify_period:
        if not report.isochronous:
            raise SpecFormatError("--verify-period requires an isochronous system")
        if spec.x0 is None:
            raise SpecFormatError("--verify-period needs an x0 block (used as z(0))")
        zbar = spec.lift_params.zbar if spec.lift_params else (0.0 + 0.0j, 0.0 + 0.0j)
        lifted = lift(spec.system, LiftParams(zbar=zbar, eta=1j * omega))
        traj = solve_lifted(lifted, spec.x0, t_max=report.period, tol=spec.tol)
        if traj.t_singular:
            doc["period_verified"] = False
            doc["singular_times"] = list(traj.t_singular)
        else:
            dev = periodicity_deviation(traj, report.period, tol=spec.tol)
            doc["period_deviation"] = dev
            doc["period_verified"] = dev <= spec.tol.oracle_tol * (
                1.0 + max(abs(spec.x0[0]), abs(spec.x0[1]))
            )
        _emit(doc)
        return 0 if doc["period_verified"] else 1
    _emit(doc)
    return 0


def _add_tol_flags(p: argparse.ArgumentParser, *keys: str) -> None:
    # only the tolerances the subcommand reads: a flag that changes nothing
    # is refused as unknown
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadode",
        description="Decide solvability of planar quadratic ODE systems and "
        "evaluate their closed-form trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="constraint residuals and inversion diagnostics")
    p.add_argument("spec")
    _add_tol_flags(p, "eq_tol")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="write a trajectory on a regular time grid")
    p.add_argument("spec")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--t-step", type=float, required=True)
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.add_argument("--format", choices=("csv", "doc"), default="csv")
    p.add_argument("--output", default=None)
    _add_tol_flags(p, "eq_tol", "sing_tol")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="emit solvable spec documents")
    p.add_argument("--rho1")
    p.add_argument("--rho2")
    p.add_argument("--b11")
    p.add_argument("--b12")
    p.add_argument("--b21")
    p.add_argument("--b22")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="closed form vs integrator cross-check")
    p.add_argument("spec")
    p.add_argument("--t-end", type=float, default=None)
    _add_tol_flags(p, "eq_tol", "sing_tol", "oracle_tol")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lift", help="coefficients of the lifted system")
    p.add_argument("spec")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("iso", help="isochrony report (optionally verified)")
    p.add_argument("spec")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--max-den", dest="max_den", type=int, default=64)
    p.add_argument("--verify-period", action="store_true")
    _add_tol_flags(p, "eq_tol", "sing_tol", "oracle_tol")
    p.set_defaults(func=cmd_iso)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except SpecFormatError as exc:
        _notice(f"error: {exc}")
        return 2
    except NotSolvableError as exc:
        _notice(f"error: {type(exc).__name__}: {exc}")
        if exc.residuals is not None:
            _emit({"constraints": _constraints_doc(exc.residuals)})
        return 1
    except QuadOdeError as exc:
        _notice(f"error: {type(exc).__name__}: {exc}")
        return 1
    except ValueError as exc:
        _notice(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
