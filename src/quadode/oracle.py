"""Adaptive Dormand-Prince 5(4) integrator used as an independent reference.

States are complex pairs integrated componentwise; the error norm is the
maximum component modulus scaled by (abs_tol + rel_tol * |state|).  The
integrator terminates early when the step size collapses (a movable
singularity) or the state overflows or turns non-finite, and records which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import worst_deviation

Pair = tuple[complex, complex]

REACHED_T_END = "reached_t_end"
STEP_COLLAPSE = "step_collapse"
STATE_OVERFLOW = "state_overflow"

_OVERFLOW_LIMIT = 1e12
_MAX_STEPS = 2_000_000

# Dormand-Prince 5(4) tableau (FSAL): nodes 1/5, 3/10, 4/5, 8/9, 1, 1; _Aij
# is row i, column j of the stage matrix, _B5j and _B4j the weights of the
# fifth- and fourth-order solutions.  The zero entries (_A72, _B52, _B57 and
# _B42) are left out of the sums; row 7 of the matrix is _B5, which makes the
# seventh stage's state the fifth-order solution.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B51, _B53, _B54, _B55, _B56 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_B41, _B43, _B44, _B45, _B46, _B47 = (
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40
)


@dataclass
class IntegrationResult:
    times: list[float]
    states: list[Pair]
    terminated: str
    last_time: float


def _norm(y: Pair) -> float:
    return max(abs(y[0]), abs(y[1]))


def integrate(
    system,
    y0: Pair,
    t_end: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    t_eval: Sequence[float] | None = None,
    overflow_limit: float = _OVERFLOW_LIMIT,
) -> IntegrationResult:
    """Integrate an autonomous complex system from t = 0 to ``t_end``.

    ``system`` is either an object with an ``rhs(state) -> state`` method
    (quadratic or quadratic-plus-affine) or a bare callable.  When ``t_eval``
    is given, steps land exactly on those times and only they are recorded;
    otherwise every accepted step is recorded.
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be positive")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    rhs = getattr(system, "rhs", system)
    y: Pair = (complex(y0[0]), complex(y0[1]))
    t = 0.0

    eval_times: list[float] | None = None
    if t_eval is not None:
        # tolerate sample times within rounding of t_end (grids often end
        # with t_end*n/n, which can land one ulp above)
        eval_times = [
            t_end if t_end < te <= t_end * (1.0 + 1e-12) else float(te)
            for te in sorted(float(te) for te in t_eval)
        ]
        if not all(0 <= te <= t_end for te in eval_times):
            raise ValueError("t_eval times must lie in [0, t_end]")

    times: list[float] = []
    states: list[Pair] = []

    def record(tt: float, yy: Pair):
        times.append(tt)
        states.append(yy)

    next_eval = 0
    if eval_times is not None:
        while next_eval < len(eval_times) and eval_times[next_eval] <= 0.0:
            record(0.0, y)
            next_eval += 1
    else:
        record(0.0, y)

    min_step = 1e-14 * t_end
    # the final capped step can land within rounding of t_end; treat that as done
    end_slack = 4e-16 * t_end
    k1 = rhs(y)
    h = min(t_end, 0.1 * t_end, 0.01 * (1.0 + _norm(y)) / (1.0 + _norm(k1)))
    terminated = REACHED_T_END

    steps = 0
    while t < t_end - end_slack:
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError("integrator exceeded the step budget")
        if h < min_step:
            terminated = STEP_COLLAPSE
            break
        h = min(h, t_end - t)
        target = None
        if eval_times is not None and next_eval < len(eval_times):
            gap = eval_times[next_eval] - t
            if gap <= h:
                h = gap
                target = eval_times[next_eval]

        # Stage sums start from 0j (0 for the solutions) and add their terms
        # in tableau order.  A zero weight's term, left out, adds nothing: a
        # sum started from +0 never holds -0.0, and when that term is not
        # finite, a later stage and y4 are not finite either, so the step ends
        # the integration in both forms.
        y1, y2 = y
        k1a, k1b = k1
        k2a, k2b = rhs((y1 + h * (0j + _A21 * k1a), y2 + h * (0j + _A21 * k1b)))
        k3a, k3b = rhs(
            (
                y1 + h * (0j + _A31 * k1a + _A32 * k2a),
                y2 + h * (0j + _A31 * k1b + _A32 * k2b),
            )
        )
        k4a, k4b = rhs(
            (
                y1 + h * (0j + _A41 * k1a + _A42 * k2a + _A43 * k3a),
                y2 + h * (0j + _A41 * k1b + _A42 * k2b + _A43 * k3b),
            )
        )
        k5a, k5b = rhs(
            (
                y1 + h * (0j + _A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
                y2 + h * (0j + _A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b),
            )
        )
        k6a, k6b = rhs(
            (
                y1 + h * (0j + _A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
                y2 + h * (0j + _A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b),
            )
        )
        y5 = (
            y1 + h * (0 + _B51 * k1a + _B53 * k3a + _B54 * k4a + _B55 * k5a + _B56 * k6a),
            y2 + h * (0 + _B51 * k1b + _B53 * k3b + _B54 * k4b + _B55 * k5b + _B56 * k6b),
        )
        k7 = k7a, k7b = rhs(y5)
        y4 = (
            y1
            + h * (0 + _B41 * k1a + _B43 * k3a + _B44 * k4a + _B45 * k5a + _B46 * k6a + _B47 * k7a),
            y2
            + h * (0 + _B41 * k1b + _B43 * k3b + _B44 * k4b + _B45 * k5b + _B46 * k6b + _B47 * k7b),
        )
        e1 = abs(y5[0] - y4[0]) / (abs_tol + rel_tol * max(abs(y[0]), abs(y5[0])))
        e2 = abs(y5[1] - y4[1]) / (abs_tol + rel_tol * max(abs(y[1]), abs(y5[1])))
        if not e1 + e2 < math.inf:  # a non-finite state makes its error NaN or inf
            terminated = STATE_OVERFLOW
            break
        err = max(e1, e2)

        if err <= 1.0:
            t = t + h if target is None else target
            y = y5
            k1 = k7  # FSAL
            if eval_times is None:
                record(t, y)
            elif target is not None:
                record(t, y)
                next_eval += 1
            if _norm(y) > overflow_limit:
                terminated = STATE_OVERFLOW
                break
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        else:
            h *= max(0.1, min(1.0, 0.9 * err ** -0.2))

    return IntegrationResult(times=times, states=states, terminated=terminated, last_time=t)


def compare_trajectories(
    closed: Callable[[float], Pair],
    numeric: IntegrationResult,
    sample_count: int,
) -> float:
    """Max relative deviation of the closed form from recorded numeric states.

    Samples ``sample_count`` of the recorded times (evenly spread); the
    deviation at each is |closed(t) - numeric(t)| / (1 + |closed(t)|) in the
    max-component norm, and NaN when any of them is NaN.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    if not numeric.times:
        raise ValueError("numeric result holds no states: ranges are disjoint")
    n = len(numeric.times)
    if sample_count >= n:
        indices = range(n)
    elif sample_count == 1:
        indices = [n - 1]
    else:
        indices = sorted(
            {round(i * (n - 1) / (sample_count - 1)) for i in range(sample_count)}
        )
    return worst_deviation((closed(numeric.times[i]), numeric.states[i]) for i in indices)
