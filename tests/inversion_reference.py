"""The inversion as it was written before its hot paths were unrolled, kept
as a reference for ``inversion.decompose`` and ``transform.forward_map``.

``constraint_residuals`` reads the coefficients through the named accessors,
``_invariant_line`` picks its form with ``sorted`` and its root with ``min``,
``forward_rows`` loops over the rows, and each branch's round trip collects
its six misses in a list.  Both forms evaluate the same expressions in the
same order, so they must give the same bits, and fail on the same inputs
with the same error; a test pins that.
"""

from __future__ import annotations

import cmath
import math

from quadode.canonical import CanonicalParams
from quadode.errors import (
    DegenerateInversionError,
    InternalConsistencyError,
    NonInvertibleChangeError,
    NotSolvableError,
)
from quadode.inversion import (
    ConstraintResiduals,
    Decomposition,
    InversionDiagnostics,
    InversionResult,
)
from quadode.numerics import solve_quadratic
from quadode.transform import LinearChange, QuadraticSystem, linear_change_unchecked

_SCALE_RANGE = (2.0**-100, 2.0**100)


def unit_scaled(sys):
    sys_scale = sys.max_abs()
    if sys_scale == 0.0 or _SCALE_RANGE[0] <= sys_scale <= _SCALE_RANGE[1]:
        return sys, 1.0, sys_scale
    unit = 2.0 ** -max(math.frexp(sys_scale)[1], -1023)
    sys = QuadraticSystem(tuple(tuple(v * unit for v in row) for row in sys.c))
    return sys, unit, sys.max_abs()


def constraint_residuals(sys, tol):
    sys = unit_scaled(sys)[0]
    n_val = sys.c12 * sys.c22 - 4.0 * sys.c13 * sys.c21
    n_scale = abs(sys.c12 * sys.c22) + 4.0 * abs(sys.c13 * sys.c21)
    d_val = (sys.c22 - 2.0 * sys.c11) * sys.c22 + 2.0 * sys.c21 * (sys.c12 - 2.0 * sys.c23)
    d_scale = (
        abs(sys.c22) ** 2
        + 2.0 * abs(sys.c11 * sys.c22)
        + 2.0 * abs(sys.c21 * sys.c12)
        + 4.0 * abs(sys.c21 * sys.c23)
    )
    r1 = (
        2.0 * sys.c21 * n_val * n_val
        + (sys.c22 - 2.0 * sys.c11) * n_val * d_val
        - sys.c12 * d_val * d_val
    )
    scale1 = (
        2.0 * abs(sys.c21) * n_scale * n_scale
        + (abs(sys.c22) + 2.0 * abs(sys.c11)) * n_scale * d_scale
        + abs(sys.c12) * d_scale * d_scale
    )
    r2 = (
        sys.c22 * n_val * n_val
        - (sys.c12 - 2.0 * sys.c23) * n_val * d_val
        - 2.0 * sys.c13 * d_val * d_val
    )
    scale2 = (
        abs(sys.c22) * n_scale * n_scale
        + (abs(sys.c12) + 2.0 * abs(sys.c23)) * n_scale * d_scale
        + 2.0 * abs(sys.c13) * d_scale * d_scale
    )
    satisfied = abs(r1) <= tol.eq_tol * scale1 and abs(r2) <= tol.eq_tol * scale2
    return ConstraintResiduals(r1, r2, scale1, scale2, satisfied)


def invariant_line(sys):
    forms = (
        (sys.c22, 2.0 * sys.c23 - sys.c12, -2.0 * sys.c13),
        (-2.0 * sys.c21, 2.0 * sys.c11 - sys.c22, sys.c12),
    )
    big, other = sorted(forms, key=lambda f: sum(abs(c) for c in f), reverse=True)

    def miss(v):
        terms = (other[0] * v[0] * v[0], other[1] * v[0] * v[1], other[2] * v[1] * v[1])
        scale = sum(abs(t) for t in terms)
        return abs(sum(terms)) / scale if scale > 0 else 0.0

    v = min(solve_quadratic(*big), key=miss)
    return v, miss(v)


def polar(sys, u, w):
    return tuple(
        2.0 * c1 * u[0] * w[0] + c2 * (u[0] * w[1] + u[1] * w[0]) + 2.0 * c3 * u[1] * w[1]
        for c1, c2, c3 in sys.c
    )


def forward_rows(p, ch):
    rho1, rho2 = complex(p.rho1), complex(p.rho2)
    (a11, a12), (a21, a22) = ch.a
    rows = []
    for n in range(2):
        bn1, bn2 = ch.b[n]
        cn1 = bn1 * a11 * a11 + bn2 * (rho1 * a11 * a11 + (rho2 * a11 + a21) * a21)
        cn2 = 2.0 * bn1 * a11 * a12 + bn2 * (
            2.0 * rho1 * a11 * a12 + rho2 * (a11 * a22 + a12 * a21) + 2.0 * a21 * a22
        )
        cn3 = bn1 * a12 * a12 + bn2 * (rho1 * a12 * a12 + (rho2 * a12 + a22) * a22)
        rows.append((cn1, cn2, cn3))
    return (rows[0], rows[1])


def forward_map(p, ch):
    return QuadraticSystem(forward_rows(p, ch))


def unscaled_change(ch, unit):
    det_a, det_b = ch.det_a / unit / unit, ch.det_b * unit * unit
    if cmath.isinf(det_a) or cmath.isinf(det_b):
        raise NonInvertibleChangeError(
            "the determinant of b lies beyond floating point at this coefficient scale"
        )
    return LinearChange(
        a=tuple(tuple(v / unit for v in row) for row in ch.a),
        b=tuple(tuple(v * unit for v in row) for row in ch.b),
        det_a=det_a,
        det_b=det_b,
    )


def decompose(sys, tol):
    sys, unit, sys_scale = unit_scaled(sys)
    if sys_scale == 0.0:
        raise DegenerateInversionError("the zero system has no canonical form", formula="Q")
    residuals = constraint_residuals(sys, tol)
    if not residuals.satisfied:
        raise NotSolvableError(
            "coefficients violate the solvability constraints "
            f"(relative residuals {residuals.rel1:.3e}, {residuals.rel2:.3e})",
            residuals=residuals,
        )
    v, line_residual = invariant_line(sys)
    ell = (2.0 * sys.c11 + sys.c22) * v[0] + (sys.c12 + 2.0 * sys.c23) * v[1]
    if abs(ell) <= tol.eq_tol * sys_scale * max(abs(v[0]), abs(v[1])):
        raise DegenerateInversionError(
            "the invariant line carries no flow: l(v) vanishes", formula="l(v)"
        )
    b12, b22 = 2.0 * v[0] / ell, 2.0 * v[1] / ell
    e = (b22.conjugate(), -b12.conjugate())
    norm = abs(b12) ** 2 + abs(b22) ** 2
    q1, q2 = sys.rhs(e)
    lqe = b22 * q1 - b12 * q2
    if abs(lqe) <= tol.eq_tol * sys_scale * norm * math.sqrt(norm):
        raise DegenerateInversionError("y1' vanishes: no first column", formula="L(Q(e))")
    k = norm / lqe
    b11, b21 = k * e[0], k * e[1]
    det = k * norm
    qc = sys.rhs((b11, b21))
    pc = polar(sys, (b11, b21), (b12, b22))
    rho1 = (b11 * qc[1] - b21 * qc[0]) / det
    rho2 = (b11 * pc[1] - b21 * pc[0]) / det
    delta = cmath.sqrt((1.0 - rho2) ** 2 - 4.0 * rho1)

    if abs(b12) <= tol.eq_tol * abs(b22):
        members = [(b11, 0.0), (b11, 0.0)]
    else:
        members = [(target, (b11 - target) / b12) for target in (0.0, 1.0 / unit)]
    candidates = []
    for target, s in members:
        b = ((complex(target), b12), (b21 - s * b22, b22))
        rho = CanonicalParams(rho1 - rho2 * s + s * s + s, rho2 - 2.0 * s)
        candidates.append((b, rho))
    candidates.sort(key=lambda c: (c[0][1][0].real, c[0][1][0].imag))

    beta = None if abs(b22) <= tol.eq_tol * abs(b12) else b12 / b22
    branches = []
    deviation = 0.0
    for label, (b, rho) in zip(("plus", "minus"), candidates):
        change = linear_change_unchecked(b, tol)
        rebuilt = forward_rows(rho, change)
        diffs = [abs(r - c) for row, sys_row in zip(rebuilt, sys.c) for r, c in zip(row, sys_row)]
        dev = math.nan if any(d != d for d in diffs) else max(diffs)
        deviation = max(dev / sys_scale, deviation)
        if not deviation <= 1e-9:
            raise InternalConsistencyError(
                f"branch {label} does not reproduce the input coefficients "
                f"(deviation {dev / unit:.3e} vs scale {sys_scale / unit:.3e})",
                diagnostics=InversionDiagnostics(line_residual, deviation),
            )
        if unit != 1.0:
            change = unscaled_change(change, unit)
        branches.append(
            Decomposition(beta=beta, change=change, rho=rho, delta=delta, branch=label)
        )

    plus, minus = branches
    return InversionResult(
        plus=plus, minus=minus, diagnostics=InversionDiagnostics(line_residual, deviation)
    )
