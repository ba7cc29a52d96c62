"""Recovery of the conjugacy data from the six coefficients.

Membership in the explicitly solvable subclass is decided by two quintic
polynomial constraints on the coefficients.  When they hold, the
decomposition x = b*y to the canonical system

    y1' = y1**2,   y2' = rho1*y1**2 + rho2*y1*y2 + y2**2

is read off the image of the invariant line y1 = 0.  Let

    l(v) = (2 c11 + c22) v1 + (c12 + 2 c23) v2

be the trace of the Jacobian of Q at v (linear in v), and F(v) = v*l(v) - 2 Q(v):

    F1 = c22 v1**2 + (2 c23 - c12) v1 v2 - 2 c13 v2**2
    F2 = -2 c21 v1**2 + (2 c11 - c22) v1 v2 + c12 v2**2

The trace is invariant under conjugation, so F is covariant: F(b y) =
b F_can(y) with F_can(y) = y1 * (rho2 y1 + 2 y2, -2 rho1 y1 + (2 - rho2) y2).
The line y1 = 0 is therefore a common root of F1 and F2.  A second common
root exists only when delta**2 = 1, and then either root gives a valid
decomposition.  The inversion is:

1. Take both roots of the larger of F1 and F2 projectively (no b22 = 0
   case) and keep the one that best zeroes the other form.
2. On that line Q(v) = v l(v)/2, so the second column (b12, b22) = 2 v/l(v)
   is the fixed point Q(x) = x, the image of (y1, y2) = (0, 1).
3. With L(x) = b22 x1 - b12 x2 (so y1 = L(x)/det b), y1' = y1**2 fixes the
   first column in the normal gauge k*(conj b22, -conj b12):
   k = L(e)/L(Q(e)) for e = (conj b22, -conj b12).
4. rho is read off the pulled y2 row: rho1 = a2.Q(col1) and
   rho2 = a2.(2 B(col1, col2)), with a2 the second row of b**-1 and B the
   symmetric bilinear form of Q.
5. Decompositions differ by the shear y2 -> y2 + s y1, which maps
   col1 -> col1 - s col2, rho2 -> rho2 - 2 s and
   rho1 -> rho1 - rho2 s + s**2 + s.  The two branches are the members
   with b11 = 0 and b11 = 1 (s = (b11 - target)/b12); when b12 = 0 the
   shear cannot move b11, and both branches are the normal gauge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .canonical import CanonicalParams
from .errors import (
    DegenerateInversionError,
    InternalConsistencyError,
    NonInvertibleChangeError,
    NotSolvableError,
)
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, solve_quadratic
from .transform import (
    LinearChange,
    Mat2,
    Pair,
    QuadraticSystem,
    forward_rows,
    linear_change_unchecked,
)

AlphaRows = tuple[tuple[complex, complex, complex], tuple[complex, complex, complex]]

# decompose inverts systems whose largest coefficient lies outside this range
# after scaling them by a power of two, which is exact: the constraints are
# quintic in the coefficients, and the normal gauge forms their inverse
# squares, so they would overflow or underflow long before the coefficients.
_SCALE_RANGE = (2.0**-100, 2.0**100)


@dataclass(frozen=True)
class ConstraintResiduals:
    """Evaluated constraint polynomials with monomial-sum normalizers.

    ``satisfied`` means both |r_i| <= eq_tol * scale_i.  The scales are sums
    of the magnitudes of the expanded monomials, which makes the verdict
    invariant under coefficient rescaling.
    """

    r1: complex
    r2: complex
    scale1: float
    scale2: float
    satisfied: bool

    @property
    def rel1(self) -> float:
        return abs(self.r1) / self.scale1 if self.scale1 > 0 else (0.0 if self.r1 == 0 else float("inf"))

    @property
    def rel2(self) -> float:
        return abs(self.r2) / self.scale2 if self.scale2 > 0 else (0.0 if self.r2 == 0 else float("inf"))


@dataclass(frozen=True)
class Decomposition:
    """One inversion branch: the conjugacy x = b*y, canonical parameters, delta.

    ``change`` is the linear change whose forward map reproduced the input
    coefficients; ``b`` is its matrix.  ``beta`` is the slope b12/b22 of the
    invariant line, None when b22 = 0 (to eq_tol relative to b12).
    """

    beta: complex | None
    change: LinearChange
    rho: CanonicalParams
    delta: complex
    branch: str  # "plus" (lexicographically first b21) or "minus"

    @property
    def b(self) -> Mat2:
        return self.change.b


@dataclass(frozen=True)
class InversionDiagnostics:
    """Quantities recorded for every inversion.

    ``line_residual`` is how far the chosen root of the larger of F1, F2
    misses the other form, relative to its monomial scale (0 on the exact
    invariant line).  ``roundtrip_deviation`` is the largest coefficient
    deviation of either branch's forward map, relative to the largest
    coefficient.
    """

    line_residual: float
    roundtrip_deviation: float


@dataclass(frozen=True)
class InversionResult:
    plus: Decomposition
    minus: Decomposition
    diagnostics: InversionDiagnostics

    @property
    def branches(self) -> tuple[Decomposition, Decomposition]:
        return (self.plus, self.minus)

    def branch(self, label: str) -> Decomposition:
        if label == "plus":
            return self.plus
        if label == "minus":
            return self.minus
        raise ValueError(f"branch must be 'plus' or 'minus', got {label!r}")


def _constraint_parts(sys: QuadraticSystem):
    n_val = sys.c12 * sys.c22 - 4.0 * sys.c13 * sys.c21
    n_scale = abs(sys.c12 * sys.c22) + 4.0 * abs(sys.c13 * sys.c21)
    d_val = (sys.c22 - 2.0 * sys.c11) * sys.c22 + 2.0 * sys.c21 * (sys.c12 - 2.0 * sys.c23)
    d_scale = (
        abs(sys.c22) ** 2
        + 2.0 * abs(sys.c11 * sys.c22)
        + 2.0 * abs(sys.c21 * sys.c12)
        + 4.0 * abs(sys.c21 * sys.c23)
    )
    return n_val, n_scale, d_val, d_scale


def constraint_residuals(
    sys: QuadraticSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> ConstraintResiduals:
    """Evaluate both solvability constraints as written, with normalizers."""
    n_val, n_scale, d_val, d_scale = _constraint_parts(sys)
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


def alpha_from_change(sys: QuadraticSystem, ch: LinearChange) -> AlphaRows:
    """Pulled coefficient rows alpha[n][l] = a_n1 c_1l + a_n2 c_2l."""
    rows = []
    for n in range(2):
        an1, an2 = ch.a[n]
        rows.append(tuple(an1 * sys.c[0][l] + an2 * sys.c[1][l] for l in range(3)))
    return (rows[0], rows[1])


def _invariant_line(sys: QuadraticSystem) -> tuple[Pair, float]:
    """The direction v of the image of y1 = 0, with its line residual."""
    forms = (
        (sys.c22, 2.0 * sys.c23 - sys.c12, -2.0 * sys.c13),
        (-2.0 * sys.c21, 2.0 * sys.c11 - sys.c22, sys.c12),
    )
    big, other = sorted(forms, key=lambda f: sum(abs(c) for c in f), reverse=True)

    def miss(v: Pair) -> float:
        terms = (other[0] * v[0] * v[0], other[1] * v[0] * v[1], other[2] * v[1] * v[1])
        scale = sum(abs(t) for t in terms)
        return abs(sum(terms)) / scale if scale > 0 else 0.0

    v = min(solve_quadratic(*big), key=miss)
    return v, miss(v)


def _polar(sys: QuadraticSystem, u: Pair, w: Pair) -> Pair:
    """2 B(u, w) = Q(u + w) - Q(u) - Q(w), the polarisation of Q."""
    return tuple(
        2.0 * c1 * u[0] * w[0] + c2 * (u[0] * w[1] + u[1] * w[0]) + 2.0 * c3 * u[1] * w[1]
        for c1, c2, c3 in sys.c
    )


def decompose(
    sys: QuadraticSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> InversionResult:
    """Recover both decompositions of a constraint-satisfying system.

    Raises NotSolvableError when the constraints fail, DegenerateInversionError
    when the system satisfies them but has no canonical form (the zero
    system, an invariant line without flow, or y1' = 0), and
    InternalConsistencyError when a branch does not round-trip through the
    forward map.  A system whose largest coefficient lies outside 2**-100 to
    2**100 is inverted after an exact scaling by a power of two, and the
    residuals of a NotSolvableError are then those of the scaled system;
    NonInvertibleChangeError is raised when a branch's b or its inverse has a
    determinant beyond floating point (coefficients below about 1e-154).
    """
    sys_scale = sys.max_abs()
    if sys_scale == 0.0:
        raise DegenerateInversionError("the zero system has no canonical form", formula="Q")
    unit = 1.0
    if not _SCALE_RANGE[0] <= sys_scale <= _SCALE_RANGE[1]:
        # (rho, b) decomposes sys exactly when (rho, b / unit) decomposes sys * unit
        unit = 2.0 ** -max(math.frexp(sys_scale)[1], -1023)
        sys = QuadraticSystem(tuple(tuple(v * unit for v in row) for row in sys.c))
        sys_scale = sys.max_abs()
    residuals = constraint_residuals(sys, tol)
    if not residuals.satisfied:
        raise NotSolvableError(
            "coefficients violate the solvability constraints "
            f"(relative residuals {residuals.rel1:.3e}, {residuals.rel2:.3e})",
            residuals=residuals,
        )
    v, line_residual = _invariant_line(sys)
    ell = (2.0 * sys.c11 + sys.c22) * v[0] + (sys.c12 + 2.0 * sys.c23) * v[1]
    if abs(ell) <= tol.eq_tol * sys_scale * max(abs(v[0]), abs(v[1])):
        raise DegenerateInversionError(
            "the invariant line carries no flow: l(v) vanishes", formula="l(v)"
        )
    b12, b22 = 2.0 * v[0] / ell, 2.0 * v[1] / ell

    # Normal gauge: the first column is k*e with e orthogonal to (b12, b22).
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
    pc = _polar(sys, (b11, b21), (b12, b22))
    rho1 = (b11 * qc[1] - b21 * qc[0]) / det
    rho2 = (b11 * pc[1] - b21 * pc[0]) / det
    # delta is shear-invariant; taken here it escapes the shear's cancellation.
    delta = cmath.sqrt((1.0 - rho2) ** 2 - 4.0 * rho1)

    # Shear to the gauge b11 = 0 or 1 of the input; b12 = 0 leaves b11 where it is.
    if abs(b12) <= tol.eq_tol * abs(b22):
        members = [(b11, 0.0), (b11, 0.0)]
    else:
        members = [(target, (b11 - target) / b12) for target in (0.0, 1.0 / unit)]
    candidates = []
    for target, s in members:
        b: Mat2 = ((complex(target), b12), (b21 - s * b22, b22))
        rho = CanonicalParams(rho1 - rho2 * s + s * s + s, rho2 - 2.0 * s)
        candidates.append((b, rho))
    candidates.sort(key=lambda c: (c[0][1][0].real, c[0][1][0].imag))  # by b21

    beta = None if abs(b22) <= tol.eq_tol * abs(b12) else b12 / b22
    branches = []
    deviation = 0.0
    for label, (b, rho) in zip(("plus", "minus"), candidates):
        change = linear_change_unchecked(b, tol)
        rebuilt = forward_rows(rho, change)
        diffs = [abs(r - c) for row, sys_row in zip(rebuilt, sys.c) for r, c in zip(row, sys_row)]
        # max() drops a NaN that does not come first
        dev = math.nan if any(d != d for d in diffs) else max(diffs)
        deviation = max(dev / sys_scale, deviation)
        if not deviation <= 1e-9:
            raise InternalConsistencyError(
                f"branch {label} does not reproduce the input coefficients "
                f"(deviation {dev / unit:.3e} vs scale {sys_scale / unit:.3e})",
                diagnostics=InversionDiagnostics(line_residual, deviation),
            )
        if unit != 1.0:
            change = _unscaled_change(change, unit)
        branches.append(
            Decomposition(beta=beta, change=change, rho=rho, delta=delta, branch=label)
        )

    plus, minus = branches
    return InversionResult(
        plus=plus, minus=minus, diagnostics=InversionDiagnostics(line_residual, deviation)
    )


def _unscaled_change(ch: LinearChange, unit: float) -> LinearChange:
    """The change that decomposes sys from the one that decomposes sys * unit,
    exactly, unit a power of two: b = b' unit and a = a' / unit."""
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
