"""Exception types shared across the package."""

from __future__ import annotations


class QuadOdeError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularPointError(QuadOdeError):
    """Evaluation at, or numerically too close to, a singular point.

    ``factor`` names the offending denominator or path feature; ``t`` is the
    evaluation time when known.
    """

    def __init__(self, message: str, factor: str | None = None, t: float | None = None):
        super().__init__(message)
        self.factor = factor
        self.t = t


class NonInvertibleChangeError(QuadOdeError):
    """A 2x2 change of variables has a (numerically) vanishing determinant,
    or one beyond the floating-point range."""


class NotSolvableError(QuadOdeError):
    """The six coefficients violate the solvability constraints.

    Carries the evaluated ``residuals`` for reporting.
    """

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class DegenerateInversionError(QuadOdeError):
    """The system satisfies the solvability constraints but has no
    canonical form: its invariant line carries no flow, or y1' vanishes.

    ``formula`` names the expression that vanished.
    """

    def __init__(self, message: str, formula: str | None = None):
        super().__init__(message)
        self.formula = formula


class InternalConsistencyError(QuadOdeError):
    """The inversion produced data that fails its own cross-checks.

    Carries the ``diagnostics`` collected up to the failure.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class InvalidScalingError(QuadOdeError):
    """A rescaling parameter is zero, or a normalization is inapplicable."""


class NoRootError(QuadOdeError):
    """A polynomial equation has no roots (or every value is a root)."""


class SpecFormatError(QuadOdeError):
    """A system specification document is malformed."""
