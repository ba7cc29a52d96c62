"""End-to-end closed-form initial-value solver with singularity reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .canonical import (
    CanonicalSolution,
    eval_canonical,
    singular_times,
    solve_canonical,
)
from .inversion import Decomposition, decompose
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, ensure_finite, worst_deviation
from .transform import Pair, QuadraticSystem, pull_state, push_state


@dataclass(frozen=True)
class ClosedFormTrajectory:
    """Composed closed-form solution of an initial-value problem."""

    system: QuadraticSystem
    decomposition: Decomposition
    canonical: CanonicalSolution
    x0: Pair
    t_singular: tuple[float, ...]


def default_horizon(sys: QuadraticSystem, x0: Pair) -> float:
    """Scale-aware horizon for singular-time reporting.

    Movable singularity times shrink as coefficients or initial data grow,
    so the default window scales inversely with their product.  Where the
    product overflows, the window is 10 divided by each factor in turn, and
    at least the least positive float.
    """
    c, size = sys.max_abs(), max(abs(x0[0]), abs(x0[1]))
    scale = c * size
    if scale < math.inf:
        return 10.0 / (1.0 + scale)
    return max(10.0 / c / size, math.ulp(0.0))


def _checked_x0(x0) -> Pair:
    return (ensure_finite(x0[0], "x1(0)"), ensure_finite(x0[1], "x2(0)"))


def _solve_branch(dec: Decomposition, x0: Pair, tol: ToleranceConfig) -> CanonicalSolution:
    return solve_canonical(dec.rho, pull_state(dec.change, x0), tol)


def prepare(sys, x0: Pair, branch, tol):
    """The branch's decomposition and the solved canonical problem through an
    x0 the caller has checked: the common start of plain and lifted solves."""
    dec = decompose(sys, tol).branch(branch)
    return dec, _solve_branch(dec, x0, tol)


def solve_ivp(
    sys: QuadraticSystem,
    x0: Pair,
    branch: str = "plus",
    t_max: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ClosedFormTrajectory:
    """Build the closed-form trajectory through x0.

    Initial data mapping onto the canonical y1 = 0 line are handled by that
    case, not an error.  Singular times are reported up to ``t_max``
    (default: ``default_horizon``).
    """
    x0 = _checked_x0(x0)
    dec, canonical = prepare(sys, x0, branch, tol)
    horizon = default_horizon(sys, x0) if t_max is None else t_max
    sing = singular_times(canonical, horizon, tol)
    return ClosedFormTrajectory(
        system=sys,
        decomposition=dec,
        canonical=canonical,
        x0=x0,
        t_singular=tuple(sing),
    )


def eval_trajectory(
    traj: ClosedFormTrajectory, t: float, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> Pair:
    """State x(t) = b * y(t) at real time t."""
    return push_state(traj.decomposition.change, eval_canonical(traj.canonical, t, tol))


def first_singular_time(traj: ClosedFormTrajectory) -> float | None:
    return traj.t_singular[0] if traj.t_singular else None


def branch_equivalence_check(
    sys: QuadraticSystem,
    x0: Pair,
    t_samples,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> float:
    """Largest relative deviation between the two branch trajectories.

    Both decompositions of the same system must describe one trajectory;
    this evaluates both, from one inversion, at the sample times and returns
    max |x_plus - x_minus| / (1 + |x_plus|) (max-component norm), NaN when
    any term is NaN.
    """
    x0 = _checked_x0(x0)
    plus, minus = decompose(sys, tol).branches
    plus_sol, minus_sol = _solve_branch(plus, x0, tol), _solve_branch(minus, x0, tol)
    return worst_deviation(
        (
            push_state(plus.change, eval_canonical(plus_sol, t, tol)),
            push_state(minus.change, eval_canonical(minus_sol, t, tol)),
        )
        for t in t_samples
    )
