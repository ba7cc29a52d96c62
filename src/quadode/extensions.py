"""Coefficient rescaling, the exponential lift to quadratic-plus-affine
systems, and isochrony analysis.

The lift substitutes z_n(t) = exp(eta*t) * x_n(warp(t)) + zbar_n with the
warped time warp(t) = (exp(eta*t) - 1)/eta into a homogeneous quadratic
system, producing an autonomous system with full quadratic-plus-affine
right-hand side that inherits closed-form solvability.  For eta = i*omega
and a rational power exponent the lifted flow is periodic: every solution
returns after the warped time traverses its circle enough times for the
continued power to come back to its starting branch.

Evaluation continues log s along the warped path s(t) = 1 - y1(0)*warp(t)
in closed form (``_warp_log``), at a cost that does not depend on t; only
the singular-time enumeration walks the path, once per solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .canonical import (
    CanonicalSolution,
    SolutionCase,
    denominator_log_targets,
    eval_canonical_general,
    real_times,
    singular_times,
)
from .errors import InvalidScalingError, SingularPointError
from .inversion import Decomposition, decompose
from .numerics import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    approx_rational,
    ensure_finite,
    log_increment,
)
from .solver import prepare
from .transform import LinearChange, Pair, QuadraticSystem, push_state

_TWO_PI = 2.0 * math.pi

# |eta * t| below which the warped time is evaluated by series, and below
# which (scaled by horizon) the lift degenerates to the unlifted flow.
_SMALL_WARP = 1e-6
_ETA_NEGLIGIBLE = 1e-8

# decompose recovers delta to ~1e-12 relative (worst 8.4e-13 over 4342 seeded
# systems, half of them real; ~1e-14 in Im delta on a complex-rho delta = 2/3);
# isochrony accepts a delta within this of a real rational, in its imaginary
# and real parts alike.
_RATIONAL_TOL = 1e-9


@dataclass(frozen=True)
class ScalingParams:
    """Joint rescaling x_n -> (mu_n/lam) x_n, t -> lam t; all nonzero."""

    lam: complex
    mu1: complex
    mu2: complex

    def __post_init__(self):
        for name in ("lam", "mu1", "mu2"):
            value = ensure_finite(getattr(self, name), name)
            object.__setattr__(self, name, value)
            if value == 0:
                raise InvalidScalingError(f"scaling parameter {name} must be nonzero")


@dataclass(frozen=True)
class LiftParams:
    """Offset zbar and exponential rate eta of the lift."""

    zbar: Pair
    eta: complex

    def __post_init__(self):
        object.__setattr__(
            self, "zbar", (ensure_finite(self.zbar[0], "zbar1"), ensure_finite(self.zbar[1], "zbar2"))
        )
        object.__setattr__(self, "eta", ensure_finite(self.eta, "eta"))


@dataclass(frozen=True)
class LiftedSystem:
    """Quadratic-plus-affine system z' = quad(z) + eta*z + d*lin(z) + const.

    ``d`` rows are (d_n1, d_n2, d_n3): coefficients of z1, z2, and 1.  Built
    by :func:`lift`, whose coefficients keep the system conjugate to the base
    flow under the exponential change of variables.
    """

    base: QuadraticSystem
    d: tuple[tuple[complex, complex, complex], tuple[complex, complex, complex]]
    eta: complex
    zbar: Pair

    def rhs(self, z: Pair) -> Pair:
        q1, q2 = self.base.rhs(z)
        z1, z2 = z
        d1, d2 = self.d
        return (
            q1 + self.eta * z1 + d1[0] * z1 + d1[1] * z2 + d1[2],
            q2 + self.eta * z2 + d2[0] * z1 + d2[1] * z2 + d2[2],
        )


@dataclass(frozen=True)
class IsochronyReport:
    delta: complex
    rational: tuple[int, int] | None
    omega: float
    period: float | None
    isochronous: bool


@dataclass(frozen=True)
class LiftedTrajectory:
    """Closed-form evaluator data for a lifted initial-value problem."""

    lifted: LiftedSystem
    decomposition: Decomposition
    canonical: CanonicalSolution
    z0: Pair
    x0: Pair
    t_singular: tuple[float, ...]


def rescale(sys: QuadraticSystem, s: ScalingParams) -> QuadraticSystem:
    """Coefficients of the jointly rescaled system.

    The time factor lam cancels from the coefficients (it rescales states
    and time together); only mu1, mu2 appear.
    """
    m1, m2 = s.mu1, s.mu2
    rows = []
    for n, mn in enumerate((m1, m2)):
        cn1, cn2, cn3 = sys.c[n]
        rows.append((mn / (m1 * m1) * cn1, mn / (m1 * m2) * cn2, mn / (m2 * m2) * cn3))
    return QuadraticSystem((rows[0], rows[1]))


def normalize(
    sys: QuadraticSystem, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[QuadraticSystem, ScalingParams]:
    """Rescale so the leading coefficients of both rows are 1.

    Applies mu1 = c11, mu2 = c23, cutting the free coefficients from six to
    four; inapplicable when either vanishes.
    """
    scale = sys.max_abs()
    if abs(sys.c11) <= tol.sing_tol * scale or abs(sys.c23) <= tol.sing_tol * scale:
        raise InvalidScalingError("normalization needs nonzero c11 and c23")
    s = ScalingParams(lam=1.0 + 0.0j, mu1=sys.c11, mu2=sys.c23)
    return rescale(sys, s), s


def lift(sys: QuadraticSystem, p: LiftParams) -> LiftedSystem:
    """Affine-plus-linear coefficients of the lifted system.

    The z2-linear coefficient is -2*c_n3*zbar2 - c_n2*zbar1 (the cross term
    of expanding the quadratic in z - zbar); this is validated against
    numerical integration in the test suite.
    """
    zb1, zb2 = p.zbar
    rows = []
    for n in range(2):
        cn1, cn2, cn3 = sys.c[n]
        zbn = p.zbar[n]
        dn1 = -2.0 * cn1 * zb1 - cn2 * zb2
        dn2 = -2.0 * cn3 * zb2 - cn2 * zb1
        dn3 = -p.eta * zbn + cn1 * zb1 * zb1 + cn2 * zb1 * zb2 + cn3 * zb2 * zb2
        rows.append((dn1, dn2, dn3))
    return LiftedSystem(base=sys, d=(rows[0], rows[1]), eta=p.eta, zbar=p.zbar)


def time_warp(eta: complex, t: float) -> complex:
    """Warped time (exp(eta*t) - 1)/eta, continuous through eta = 0.

    Small |eta*t| is evaluated by series to avoid the cancellation in the
    direct quotient.
    """
    x = eta * t
    if abs(x) <= _SMALL_WARP:
        return t * (1.0 + x / 2.0 + x * x / 6.0)
    return (cmath.exp(x) - 1.0) / eta


def _needs_split(a: complex, b: complex) -> bool:
    # split when the chord subtends more than ~pi/4 at the origin or the
    # radial move is large; keeps the polyline homotopic to the true curve
    if a == 0 or b == 0:
        return False  # let the continuation's clearance check raise
    ratio = b / a
    return ratio.real <= 0.0 or abs(ratio.imag) > ratio.real or abs(ratio - 1.0) > 0.75


def _warp_path(y_ref: complex, eta: complex, t: float) -> tuple[list[float], list[complex]]:
    """Parameters tau in [0, t] and waypoints 1 - y_ref * warp(tau).

    Sampling is refined adaptively with midpoints of the true curve wherever
    consecutive waypoints turn too far around the origin, so continuation
    along the polyline tracks the curve even on close approaches.  Only
    ``lifted_singular_times`` walks it, to bound the log targets near the
    path; evaluation uses the closed form of ``_warp_log``.
    """
    n = max(8, int(math.ceil(16.0 * abs(eta) * abs(t))))
    taus = [t * j / n for j in range(n + 1)]
    points = [1.0 - y_ref * time_warp(eta, tau) for tau in taus]
    for _ in range(24):
        new_taus: list[float] = []
        refined = False
        for j in range(len(points) - 1):
            new_taus.append(taus[j])
            if _needs_split(points[j], points[j + 1]):
                new_taus.append(0.5 * (taus[j] + taus[j + 1]))
                refined = True
        new_taus.append(taus[-1])
        if not refined:
            break
        taus = new_taus
        points = [1.0 - y_ref * time_warp(eta, tau) for tau in taus]
    return taus, points


def _warp_log(y10: complex, eta: complex, t: float, sing_tol: float) -> tuple[complex, complex]:
    """s = 1 - y10*warp(t) and its logarithm, continued along the warped path
    from log s(0) = 0, in closed form: the cost does not depend on t.

    With r = y10/eta and c = 1 + r, s(tau) = c - E(tau), E(tau) = r*exp(eta*tau).
    Where |E| < |c|, Re(s/c) > 0 and log s = K_in + Log(s/c); where |E| > |c|,
    Re(-s/E) > 0 and log s = K_out + eta*tau + Log(-s/E), Log principal.  |E|
    is monotone, so [0, t] crosses |E| = |c| at most once, at
    tau* = ln(|c|/|r|)/Re(eta); log s(0) = 0 and continuity at tau* fix the
    constants.  For eta = i*omega nothing is crossed: each period 2*pi/|omega|
    adds 2*pi*i*sign(omega) when |r| > |c| and nothing otherwise.  eta = 0 is
    the straight path, whose continued logarithm is principal.

    Raises SingularPointError when s passes within eval_canonical_general's
    pole test of 0 before t; s at t itself is left to that test.
    """
    s = 1.0 - y10 * time_warp(eta, t)
    if eta == 0:
        log_s, passes = cmath.log(s), [(1.0 / y10).real]  # s vanishes at t = 1/y10
    else:
        r = y10 / eta
        c = 1.0 + r

        def local_log(tau: float, s_tau: complex, outside: bool) -> complex:
            # a logarithm of s(tau), continuous on its side of |E| = |c|
            if outside:
                return eta * tau + cmath.log(-s_tau / (r * cmath.exp(eta * tau)))
            return cmath.log(s_tau / c)

        if eta.real != 0 and c != 0:
            tau_star = math.log(abs(c) / abs(r)) / eta.real
            outside = tau_star <= 0 if eta.real > 0 else tau_star > 0  # just after 0
        else:
            tau_star, outside = math.inf, abs(r) > abs(c)
        log_s = -local_log(0.0, 1.0 + 0.0j, outside)
        if 0 < tau_star < t:
            s_star = 1.0 - y10 * time_warp(eta, tau_star)
            log_s += local_log(tau_star, s_star, outside)
            outside = not outside
            log_s -= local_log(tau_star, s_star, outside)
        log_s += local_log(t, s, outside)
        passes = _nearest_zeros(cmath.log(c / r) / eta, _TWO_PI * 1j / eta, t) if c != 0 else []
    # On the real axis |s| is least near the real parts of its zeros, to
    # first order in their distance from the axis.
    for tau in passes:
        w = y10 * time_warp(eta, tau)
        if 0 < tau < t and abs(1.0 - w) <= sing_tol * (1.0 + abs(w)):
            raise SingularPointError(
                "pole of y1: the warped path passes within tolerance of 1 - y1(0) t = 0",
                factor="1 - y1(0) t",
                t=tau,
            )
    return s, log_s


def _nearest_zeros(first: complex, step: complex, t: float) -> list[float]:
    """Real parts in [0, t] of the points first + m*step, m an integer, that
    lie nearest the real axis."""
    if step.real != 0:
        ends = sorted((-first.real / step.real, (t - first.real) / step.real))
        lo, hi = math.ceil(ends[0]), math.floor(ends[1])
        if lo > hi:
            return []
    elif 0 <= first.real <= t:
        lo, hi = -math.inf, math.inf
    else:
        return []
    m0 = min(max(-first.imag / step.imag, lo), hi) if step.imag != 0 else lo
    ms = {min(max(m, lo), hi) for m in (math.floor(m0), math.ceil(m0))}
    return [(first + m * step).real for m in ms]


def _eval_lifted_state(
    sol: CanonicalSolution,
    change: LinearChange,
    eta: complex,
    zbar: Pair,
    t: float,
    tol: ToleranceConfig,
) -> Pair:
    tau = time_warp(eta, t)
    if sol.case in (SolutionCase.GENERIC, SolutionCase.DELTA_ZERO):
        s, log_s = _warp_log(sol.y10, eta, t, tol.sing_tol)
    else:
        s = 1.0 - sol.y10 * tau
        log_s = 0.0 + 0.0j
    y = eval_canonical_general(sol, tau, s, log_s, tol)
    x = push_state(change, y)
    growth = cmath.exp(eta * t)
    return (growth * x[0] + zbar[0], growth * x[1] + zbar[1])


def solve_lifted(
    ls: LiftedSystem,
    z0: Pair,
    branch: str = "plus",
    t_max: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> LiftedTrajectory:
    """Closed-form evaluator for the lifted flow through z0.

    The base trajectory starts at x0 = z0 - zbar; evaluation continues the
    power branch along the warped-time path, so crossings of the principal
    cut are handled correctly (this is what makes multi-turn periodic orbits
    come back to their starting value).
    """
    z0 = (ensure_finite(z0[0], "z1(0)"), ensure_finite(z0[1], "z2(0)"))
    x0 = (z0[0] - ls.zbar[0], z0[1] - ls.zbar[1])
    x0_prepared, dec, canonical = prepare(ls.base, x0, branch, tol)
    if t_max is None:
        t_max = 10.0 / (1.0 + abs(ls.eta) + ls.base.max_abs() * max(abs(x0[0]), abs(x0[1])))
    sing = lifted_singular_times(canonical, ls.eta, t_max, tol)
    return LiftedTrajectory(
        lifted=ls,
        decomposition=dec,
        canonical=canonical,
        z0=z0,
        x0=x0_prepared,
        t_singular=tuple(sing),
    )


def eval_lifted(
    traj: LiftedTrajectory, t: float, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> Pair:
    """State z(t) = exp(eta*t) x(warp(t)) + zbar at real time t.

    The cost does not depend on t.  Raises SingularPointError at a pole and
    at every t past a point where the warped path 1 - y1(0)*warp came within
    the pole test of 0.
    """
    return _eval_lifted_state(
        traj.canonical, traj.decomposition.change, traj.lifted.eta, traj.lifted.zbar, t, tol
    )


def _warp_times(value: complex, eta: complex, t_max: float) -> list[complex]:
    """Times t with exp(eta*t) equal to ``value``, on every branch that can
    give a real t in (0, t_max]."""
    if value == 0:
        return []
    base_log = cmath.log(value)
    bound = int(math.ceil((abs(eta) * t_max + abs(base_log)) / _TWO_PI)) + 1
    return [(base_log + _TWO_PI * 1j * m) / eta for m in range(-bound, bound + 1)]


def lifted_singular_times(
    sol: CanonicalSolution,
    eta: complex,
    t_max: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[float]:
    """Sorted real singular times of the lifted flow in (0, t_max].

    Poles are the preimages, under the warped time, of the base solution's
    singularities: zeros of 1 - y1(0)*warp(t) (of 1 - y2(0)*warp(t) on the
    y1 = 0 line) and times where the continued logarithm along the warped
    path reaches a denominator-vanishing target.  As for the unlifted flow,
    every such zero is reported except zeros inside the pole's sing_tol band
    (|1 - y1(0) warp(t)| < sing_tol/e), which are reported as the pole.
    Targets are enumerated near the walk along the warped path, which stops
    at the first pole and is then followed into the pole's band; their
    candidate times come from exact inversion of the warp, and each candidate
    is confirmed by the closed-form continued logarithm at that time, which
    also drops candidates the path reaches only past a pole.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if abs(eta) * t_max <= _ETA_NEGLIGIBLE:
        return singular_times(sol, t_max, tol)
    pole_base = sol.y20 if sol.case is SolutionCase.Y1_ZERO else sol.y10
    candidates = _warp_times(1.0 + eta / pole_base, eta, t_max) if pole_base != 0 else []

    if sol.case in (SolutionCase.GENERIC, SolutionCase.DELTA_ZERO):

        def curve(tau: float) -> complex:
            return 1.0 - sol.y10 * time_warp(eta, tau)

        walk_taus, path = _warp_path(sol.y10, eta, t_max)
        logs = [0.0 + 0.0j]
        for a, b in zip(path, path[1:]):
            try:
                logs.append(logs[-1] + log_increment(a, b, tol.sing_tol))
            except SingularPointError:
                break
        taus = walk_taus[: len(logs)]
        poles = real_times(candidates, t_max)
        band = tol.sing_tol / math.e
        if len(logs) < len(path) and poles and poles[0] <= walk_taus[len(logs)]:
            # the walk stopped at this pole; follow the curve into its band
            t_band = poles[0] - band / abs(sol.y10 * cmath.exp(eta * poles[0]))
            if t_band > taus[-1]:
                logs.append(logs[-1] + cmath.log(curve(t_band) / path[len(taus) - 1]))
                taus.append(t_band)
        for lam in denominator_log_targets(sol, curve, taus, logs, 1.0, math.log(band)):
            warp_value = 1.0 + eta * (1.0 - cmath.exp(lam)) / sol.y10
            for tc in real_times(_warp_times(warp_value, eta, t_max), t_max):
                try:
                    log_val = _warp_log(sol.y10, eta, tc, tol.sing_tol)[1]
                except SingularPointError:
                    continue  # an earlier pole dominates this candidate
                if abs(log_val - lam) <= 1e-6 * (1.0 + abs(lam)):
                    candidates.append(tc)
    return real_times(candidates, t_max)


def isochrony_check(
    sys: QuadraticSystem,
    omega: float,
    max_den: int = 64,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> IsochronyReport:
    """Decide whether the lift of ``sys`` with eta = i*omega is isochronous.

    The criterion is a real rational power exponent delta = k1/k2 (lowest
    terms, k2 <= max_den); then every solution of the lifted system is
    periodic with period 2*pi*k2/|omega|.
    """
    if omega == 0:
        raise ValueError("omega must be nonzero")
    delta = decompose(sys, tol).plus.delta
    rational = None
    if abs(delta.imag) <= _RATIONAL_TOL * max(1.0, abs(delta)):
        rational = approx_rational(delta.real, max_den, tol=_RATIONAL_TOL)
    isochronous = rational is not None
    period = _TWO_PI * rational[1] / abs(omega) if isochronous else None
    return IsochronyReport(
        delta=delta,
        rational=rational,
        omega=float(omega),
        period=period,
        isochronous=isochronous,
    )


def periodicity_deviation(
    traj: LiftedTrajectory,
    period: float,
    interior_times=None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> float:
    """Max of |z(t + period) - z(t)| / (1 + |z(t)|) over t = 0 and interiors."""
    if interior_times is None:
        interior_times = [period * f for f in (0.13, 0.29, 0.47, 0.71, 0.88)]
    worst = 0.0
    for t in [0.0, *interior_times]:
        z_t = eval_lifted(traj, t, tol)
        z_shift = eval_lifted(traj, t + period, tol)
        diff = max(abs(z_shift[0] - z_t[0]), abs(z_shift[1] - z_t[1]))
        worst = max(worst, diff / (1.0 + max(abs(z_t[0]), abs(z_t[1]))))
    return worst
