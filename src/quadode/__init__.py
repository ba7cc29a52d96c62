"""Closed-form solver for explicitly solvable planar quadratic ODE systems.

Decides whether a two-dimensional autonomous system with homogeneous
quadratic right-hand sides admits a closed-form solution via a linear
conjugacy to a canonical Riccati-type system, recovers the conjugacy,
evaluates trajectories for arbitrary initial data, and cross-validates
against a built-in adaptive integrator.  Includes coefficient rescaling,
the exponential lift to quadratic-plus-affine systems, and isochrony
analysis.
"""

from .canonical import (
    CanonicalParams,
    CanonicalSolution,
    CanonicalState,
    SolutionCase,
    canonical_rhs,
    eval_canonical,
    singular_times,
    solve_canonical,
)
from .errors import (
    DegenerateInversionError,
    InternalConsistencyError,
    InvalidScalingError,
    NonInvertibleChangeError,
    NoRootError,
    NotSolvableError,
    QuadOdeError,
    SingularPointError,
    SpecFormatError,
)
from .extensions import (
    IsochronyReport,
    LiftedSystem,
    LiftedTrajectory,
    LiftParams,
    ScalingParams,
    eval_lifted,
    isochrony_check,
    lift,
    lifted_singular_times,
    normalize,
    periodicity_deviation,
    rescale,
    solve_lifted,
    time_warp,
)
from .inversion import (
    ConstraintResiduals,
    Decomposition,
    InversionDiagnostics,
    InversionResult,
    alpha_from_change,
    constraint_residuals,
    decompose,
)
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, approx_rational
from .oracle import (
    REACHED_T_END,
    STATE_OVERFLOW,
    STEP_COLLAPSE,
    IntegrationResult,
    compare_trajectories,
    integrate,
)
from .solver import (
    ClosedFormTrajectory,
    branch_equivalence_check,
    default_horizon,
    eval_trajectory,
    first_singular_time,
    solve_ivp,
)
from .transform import (
    LinearChange,
    QuadraticSystem,
    forward_map,
    linear_change_from_b,
    pull_state,
    push_state,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalParams",
    "CanonicalSolution",
    "CanonicalState",
    "ClosedFormTrajectory",
    "ConstraintResiduals",
    "Decomposition",
    "DegenerateInversionError",
    "DEFAULT_TOLERANCES",
    "InternalConsistencyError",
    "IntegrationResult",
    "InvalidScalingError",
    "InversionDiagnostics",
    "InversionResult",
    "IsochronyReport",
    "LiftParams",
    "LiftedSystem",
    "LiftedTrajectory",
    "LinearChange",
    "NonInvertibleChangeError",
    "NoRootError",
    "NotSolvableError",
    "QuadOdeError",
    "QuadraticSystem",
    "REACHED_T_END",
    "STATE_OVERFLOW",
    "STEP_COLLAPSE",
    "ScalingParams",
    "SingularPointError",
    "SolutionCase",
    "SpecFormatError",
    "ToleranceConfig",
    "alpha_from_change",
    "approx_rational",
    "branch_equivalence_check",
    "canonical_rhs",
    "compare_trajectories",
    "constraint_residuals",
    "decompose",
    "default_horizon",
    "eval_canonical",
    "eval_lifted",
    "eval_trajectory",
    "first_singular_time",
    "forward_map",
    "integrate",
    "isochrony_check",
    "lift",
    "lifted_singular_times",
    "linear_change_from_b",
    "normalize",
    "periodicity_deviation",
    "pull_state",
    "push_state",
    "rescale",
    "singular_times",
    "solve_canonical",
    "solve_ivp",
    "solve_lifted",
    "time_warp",
]
