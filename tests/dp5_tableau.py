"""The Dormand-Prince 5(4) step written as a loop over the tableau, kept as
a reference for ``oracle.integrate``, which writes the seven stages out.

Both forms add the same terms in the same order from the same start values,
so they must give the same states to the bit; a test pins that.
"""

from __future__ import annotations

import math

from quadode.oracle import REACHED_T_END, STATE_OVERFLOW, STEP_COLLAPSE, IntegrationResult

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _norm(y):
    return max(abs(y[0]), abs(y[1]))


def tableau_integrate(
    system, y0, t_end, rel_tol=1e-10, abs_tol=1e-12, t_eval=None, overflow_limit=1e12
) -> IntegrationResult:
    """``oracle.integrate`` with each stage summed by a loop over its row of
    the tableau, zero entries included."""
    rhs = getattr(system, "rhs", system)
    y = (complex(y0[0]), complex(y0[1]))
    t = 0.0
    eval_times = None
    if t_eval is not None:
        eval_times = [
            t_end if t_end < te <= t_end * (1.0 + 1e-12) else float(te)
            for te in sorted(float(te) for te in t_eval)
        ]
    times, states = [], []
    next_eval = 0
    if eval_times is not None:
        while next_eval < len(eval_times) and eval_times[next_eval] <= 0.0:
            times.append(0.0)
            states.append(y)
            next_eval += 1
    else:
        times.append(0.0)
        states.append(y)

    min_step = 1e-14 * t_end
    end_slack = 4e-16 * t_end
    k1 = rhs(y)
    h = min(t_end, 0.1 * t_end, 0.01 * (1.0 + _norm(y)) / (1.0 + _norm(k1)))
    terminated = REACHED_T_END
    while t < t_end - end_slack:
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

        k = [k1]
        for i in range(1, 7):
            acc1 = 0.0 + 0.0j
            acc2 = 0.0 + 0.0j
            for aij, ki in zip(_A[i], k):
                acc1 += aij * ki[0]
                acc2 += aij * ki[1]
            k.append(rhs((y[0] + h * acc1, y[1] + h * acc2)))

        y5 = (
            y[0] + h * sum(b * ki[0] for b, ki in zip(_B5, k)),
            y[1] + h * sum(b * ki[1] for b, ki in zip(_B5, k)),
        )
        y4 = (
            y[0] + h * sum(b * ki[0] for b, ki in zip(_B4, k)),
            y[1] + h * sum(b * ki[1] for b, ki in zip(_B4, k)),
        )
        e1 = abs(y5[0] - y4[0]) / (abs_tol + rel_tol * max(abs(y[0]), abs(y5[0])))
        e2 = abs(y5[1] - y4[1]) / (abs_tol + rel_tol * max(abs(y[1]), abs(y5[1])))
        if not e1 + e2 < math.inf:
            terminated = STATE_OVERFLOW
            break
        err = max(e1, e2)

        if err <= 1.0:
            t = t + h if target is None else target
            y = y5
            k1 = k[6]
            if eval_times is None or target is not None:
                times.append(t)
                states.append(y)
                if target is not None:
                    next_eval += 1
            if _norm(y) > overflow_limit:
                terminated = STATE_OVERFLOW
                break
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        else:
            h *= max(0.1, min(1.0, 0.9 * err ** -0.2))

    return IntegrationResult(times=times, states=states, terminated=terminated, last_time=t)
