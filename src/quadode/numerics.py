"""Complex scalar utilities: tolerance policy, the deviation measure of the
gates, exp(z) - 1 and log(1 + w) near 0, quadratic roots, and rational
recognition.

All routines work on plain ``complex`` values and are pure functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import NoRootError


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances used throughout.

    eq_tol     -- algebraic identity / constraint checks
    sing_tol   -- proximity threshold for singular denominators and paths
    oracle_tol -- closed form vs numerical integrator agreement
    """

    eq_tol: float = 1e-12
    sing_tol: float = 1e-9
    oracle_tol: float = 1e-6

    def __post_init__(self):
        for name in ("eq_tol", "sing_tol", "oracle_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if self.eq_tol > 1e-9:
            raise ValueError("eq_tol must not exceed 1e-9")


DEFAULT_TOLERANCES = ToleranceConfig()


def ensure_finite(value: complex, name: str = "value") -> complex:
    """Coerce to complex and reject NaN/Inf components."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite components, got {z!r}")
    return z


def worst_deviation(pairs: Iterable[tuple[Sequence[complex], Sequence[complex]]]) -> float:
    """Largest |x - y| / (1 + |x|) over pairs of states (x, y), in the
    max-component norm; 0.0 for no pairs.

    NaN as soon as any term is NaN: ``max`` keeps its first argument when the
    other is NaN, so a plain running maximum would let a NaN state pass a gate.
    """
    worst = 0.0
    for x, y in pairs:
        d1, d2, s1, s2 = abs(x[0] - y[0]), abs(x[1] - y[1]), abs(x[0]), abs(x[1])
        dev = (d2 if d2 > d1 else d1) / (1.0 + (s2 if s2 > s1 else s1))
        if math.isnan(d1 + d2 + s1 + s2 + dev):  # a sum of terms >= 0 is NaN only from a NaN
            return math.nan
        worst = dev if dev > worst else worst
    return worst


def expm1(z: complex) -> complex:
    """exp(z) - 1 without the cancellation of the direct form near z = 0:
    2 exp(z/2) sinh(z/2) for |z| < 1/2 (Higham, Accuracy and Stability,
    sec. 1.14), beyond it exp(z) - 1, which loses at most a bit there."""
    if z.real * z.real + z.imag * z.imag < 0.25:
        h = 0.5 * z
        return 2.0 * cmath.exp(h) * cmath.sinh(h)
    return cmath.exp(z) - 1.0


def log1p(w: complex) -> complex:
    """The principal log(1 + w), with the digits of a tiny w kept: with
    u = 1 + w rounded, log(u)*w/(u - 1), since u - 1 is exact where it
    matters (Higham, sec. 1.14; CPython's complex log takes log|u| by log1p
    near |u| = 1, as Kahan, "Branch cuts for complex elementary functions",
    1987, asks)."""
    u = 1.0 + w
    return cmath.log(u) * (w / (u - 1.0)) if u != 1.0 else w


class QuadraticRoots(NamedTuple):
    first: tuple[complex, complex]
    second: tuple[complex, complex]


def solve_quadratic(c2: complex, c1: complex, c0: complex) -> QuadraticRoots:
    """Both roots ``(x, w)`` of the binary form ``c2 x^2 + c1 x w + c0 w^2``.

    The roots are taken projectively, as the pairs ``(q, c2)`` and
    ``(c0, q)`` with ``q = -(c1 +- sqrt(c1^2 - 4 c2 c0))/2`` signed to avoid
    cancellation, so a vanishing leading coefficient gives the root at
    infinity ``(1, 0)`` rather than a special case.  A double root with
    ``q == 0`` is returned twice.  The zero form raises NoRootError.  The
    coefficients must be finite; they are not checked.
    """
    size = max(abs(c2), abs(c1), abs(c0))
    if size == 0.0:
        raise NoRootError("degenerate equation 0 = 0: every value is a root")
    # Unit size keeps the discriminant clear of underflow and overflow.
    c2, c1, c0 = c2 / size, c1 / size, c0 / size
    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    if c1.real * disc.real + c1.imag * disc.imag >= 0.0:
        q = -(c1 + disc) / 2.0
    else:
        q = -(c1 - disc) / 2.0
    if q == 0:
        # c1 == 0 and c2 * c0 == 0: the double root x = 0 or w = 0.
        return QuadraticRoots((c0, c2), (c0, c2))
    return QuadraticRoots((q, c2), (c0, q))


def approx_rational(x: float, max_den: int, tol: float = 1e-9) -> Optional[tuple[int, int]]:
    """Best rational approximation k1/k2 with k2 <= max_den, if within tol.

    The continued-fraction walk of ``Fraction.limit_denominator``, on the
    exact integer ratio of ``x``: the returned pair is in lowest terms with a
    positive denominator, and the same pair that method gives.  Returns None
    when no denominator-bounded rational lies within ``tol`` of ``x``.
    """
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    n, d = x.as_integer_ratio()
    tol_n, tol_d = tol.as_integer_ratio()
    k1, k2 = n, d
    if d > max_den:
        # convergents p1/q1 of n/d until the next denominator exceeds max_den
        p0, q0, p1, q1 = 0, 1, 1, 0
        num, den = n, d
        while True:
            a = num // den
            q2 = q0 + a * q1
            if q2 > max_den:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            num, den = den, num - a * den
        # the last convergent, or the largest semiconvergent if it is closer
        # (both distances to n/d times d*q1*k2); the convergent on a tie
        m = (max_den - q0) // q1
        k1, k2 = p0 + m * p1, q0 + m * q1
        if abs(p1 * d - n * q1) * k2 <= abs(k1 * d - n * k2) * q1:
            k1, k2 = p1, q1
    if abs(n * k2 - k1 * d) * tol_d <= tol_n * d * k2:
        return k1, k2
    return None
