"""Planar quadratic systems and 2x2 linear conjugacies to canonical form.

A system is six complex coefficients c[n][l] for

    x_n' = c_n1*x1**2 + c_n2*x1*x2 + c_n3*x2**2,   n = 1, 2.

A LinearChange stores the mutually inverse matrices a and b (y = a*x,
x = b*y) together with their determinants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import CanonicalParams, CanonicalState
from .errors import NonInvertibleChangeError
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, ensure_finite

Pair = tuple[complex, complex]
Mat2 = tuple[tuple[complex, complex], tuple[complex, complex]]
CoeffRows = tuple[tuple[complex, complex, complex], tuple[complex, complex, complex]]


def _coerce_matrix(rows, shape: tuple[int, int], name: str):
    if len(rows) != shape[0]:
        raise ValueError(f"{name} must have {shape[0]} rows")
    out = []
    for i, row in enumerate(rows):
        if len(row) != shape[1]:
            raise ValueError(f"{name} row {i + 1} must have {shape[1]} entries")
        out.append(tuple(ensure_finite(v, f"{name}[{i + 1}]") for v in row))
    return tuple(out)


@dataclass(frozen=True)
class QuadraticSystem:
    """The six coefficients of a homogeneous quadratic planar system."""

    c: CoeffRows

    def __post_init__(self):
        object.__setattr__(self, "c", _coerce_matrix(self.c, (2, 3), "c"))

    # Named accessors keep the algebraic formulas readable.
    @property
    def c11(self) -> complex:
        return self.c[0][0]

    @property
    def c12(self) -> complex:
        return self.c[0][1]

    @property
    def c13(self) -> complex:
        return self.c[0][2]

    @property
    def c21(self) -> complex:
        return self.c[1][0]

    @property
    def c22(self) -> complex:
        return self.c[1][1]

    @property
    def c23(self) -> complex:
        return self.c[1][2]

    def rhs(self, x: Pair) -> Pair:
        (c11, c12, c13), (c21, c22, c23) = self.c
        x1, x2 = x
        q1, q2, q3 = x1 * x1, x1 * x2, x2 * x2
        return (c11 * q1 + c12 * q2 + c13 * q3, c21 * q1 + c22 * q2 + c23 * q3)

    def max_abs(self) -> float:
        return max(map(abs, self.c[0] + self.c[1]))


@dataclass(frozen=True)
class LinearChange:
    """Mutually inverse matrices a, b with determinants det_a * det_b = 1."""

    a: Mat2
    b: Mat2
    det_a: complex
    det_b: complex


def linear_change_from_b(b, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> LinearChange:
    """Build the change of variables from the x = b*y matrix."""
    return linear_change_unchecked(_coerce_matrix(b, (2, 2), "b"), tol)


def linear_change_unchecked(b: Mat2, tol: ToleranceConfig) -> LinearChange:
    """``linear_change_from_b`` for a b of finite complex entries, which it
    does not check again: for b computed inside the package."""
    det_b = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    scale = abs(b[0][0] * b[1][1]) + abs(b[0][1] * b[1][0])
    if abs(det_b) <= tol.eq_tol * scale or scale == 0.0:
        raise NonInvertibleChangeError("b has a numerically vanishing determinant")
    a: Mat2 = (
        (b[1][1] / det_b, -b[0][1] / det_b),
        (-b[1][0] / det_b, b[0][0] / det_b),
    )
    return LinearChange(a=a, b=b, det_a=1.0 / det_b, det_b=det_b)


def forward_map(p: CanonicalParams, ch: LinearChange) -> QuadraticSystem:
    """Coefficients of the system conjugate to the canonical one via ch.

    By construction the result is explicitly solvable, with decomposition
    (p, ch.b).
    """
    return QuadraticSystem(forward_rows(p, ch))


def forward_rows(p: CanonicalParams, ch: LinearChange) -> CoeffRows:
    """The coefficient rows of ``forward_map``, unchecked: they are not
    finite when the data overflow.  Both rows share the factors f of b_n2."""
    rho1, rho2 = complex(p.rho1), complex(p.rho2)
    (a11, a12), (a21, a22) = ch.a
    (b11, b12), (b21, b22) = ch.b
    f1 = rho1 * a11 * a11 + (rho2 * a11 + a21) * a21
    f2 = 2.0 * rho1 * a11 * a12 + rho2 * (a11 * a22 + a12 * a21) + 2.0 * a21 * a22
    f3 = rho1 * a12 * a12 + (rho2 * a12 + a22) * a22
    return (
        (b11 * a11 * a11 + b12 * f1, 2.0 * b11 * a11 * a12 + b12 * f2, b11 * a12 * a12 + b12 * f3),
        (b21 * a11 * a11 + b22 * f1, 2.0 * b21 * a11 * a12 + b22 * f2, b21 * a12 * a12 + b22 * f3),
    )


def pull_state(ch: LinearChange, x: Pair) -> CanonicalState:
    """Map an x-state to canonical coordinates: y = a*x."""
    (a11, a12), (a21, a22) = ch.a
    x1, x2 = x
    return CanonicalState(a11 * x1 + a12 * x2, a21 * x1 + a22 * x2)


def push_state(ch: LinearChange, y: CanonicalState) -> Pair:
    """Map a canonical state back: x = b*y."""
    (b11, b12), (b21, b22) = ch.b
    y1, y2 = y
    return (b11 * y1 + b12 * y2, b21 * y1 + b22 * y2)
