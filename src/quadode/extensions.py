"""Coefficient rescaling, the exponential lift to quadratic-plus-affine
systems, and isochrony analysis.

The lift substitutes z_n(t) = exp(eta*t) * x_n(warp(t)) + zbar_n with the
warped time warp(t) = (exp(eta*t) - 1)/eta = t*phi1(eta*t), taken with no
series and continuous through eta = 0 without dividing by eta, into a
homogeneous quadratic system, producing an autonomous system with full
quadratic-plus-affine right-hand side that inherits closed-form solvability.
For eta = i*omega and a rational power exponent the lifted flow is periodic:
every solution returns after the warped time traverses its circle enough
times for the continued power to come back to its starting branch.

Evaluation and the singular-time enumeration take log s along the warped
path s(t) = 1 - y1(0)*warp(t) from one closed form (``_WarpLog``):
evaluation costs the same at any t.  The enumeration bounds the path's log
image piece by piece in closed form: a tube about the path's side of the
circle |E| = |c| about which it turns, and near the crossing of that circle
a Lipschitz bound on pieces it halves.  Where no target is near, its cost
does not grow with the horizon.  A trajectory builds its form once, and its
singular times and every ``eval_lifted`` share its constants and its
tolerance-free list of the times where the path may pass near 0.  Each point
tests that list against its own sing_tol and takes exp(eta*t) and the warped
time once, from one exponential (and a sinh where |eta*t| < 1/2), for the
form and the state alike.  Where the path is principal up to t it hands the
evaluator no logarithm, as ``eval_canonical`` does, and the evaluator takes
the principal Log s of the s it forms; only a winding or crossing path
reads log s off the closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .canonical import (
    CanonicalSolution,
    denominator_log_targets,
    eval_canonical_general,
    lattice_indices,
    pole_near,
    real_times,
    realness_slack,
    singular_times,
)
from .errors import InvalidScalingError, SingularPointError
from .inversion import Decomposition, decompose
from .numerics import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    approx_rational,
    ensure_finite,
    expm1,
    log1p,
    worst_deviation,
)
from .solver import prepare, saturating_horizon
from .transform import Pair, QuadraticSystem, push_state

_TWO_PI = 2.0 * math.pi

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
    # the closed form of log s that every eval_lifted of this trajectory
    # shares; None when y1(0) = 0, where s = 1
    _warp: _WarpLog | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y10 = self.canonical.y10
        object.__setattr__(self, "_warp", _WarpLog(y10, self.lifted.eta) if y10 else None)


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


def _growth_and_warp(eta: complex, t: float) -> tuple[complex, complex]:
    """exp(eta*t) and the warped time t*phi1(eta*t), phi1(x) = (exp(x) - 1)/x
    (``time_warp``); ValueError naming eta and t where exp(eta*t) lies beyond
    floating point."""
    x = eta * t
    if x.real * x.real + x.imag * x.imag < 0.25:
        # exp(x) - 1 = 2 exp(x/2) sinh(x/2) does not cancel (``numerics.expm1``)
        h = 0.5 * x
        eh = cmath.exp(h)
        return eh * eh, t * (eh * cmath.sinh(h) / h if h else 1.0)
    try:
        growth = cmath.exp(x)
    except (OverflowError, ValueError):  # Re(eta*t) past ~709, or eta*t itself infinite
        raise ValueError(
            f"exp(eta*t) lies beyond floating point at eta = {eta!r}, t = {t!r}"
        ) from None
    return growth, (growth - 1.0) / eta  # |eta*t| >= 1/2: loses at most a bit


def time_warp(eta: complex, t: float) -> complex:
    """Warped time (exp(eta*t) - 1)/eta as t*phi1(eta*t): no series, and
    continuous through eta = 0 without dividing by eta (exactly t there).

    Where |eta*t| < 1/2, phi1 comes from exp and sinh of eta*t/2 (Higham,
    Accuracy and Stability, sec. 1.14).  Where exp(eta*t) lies beyond
    floating point it raises ValueError naming eta and t.
    """
    return _growth_and_warp(eta, t)[1]


class _WarpLog:
    """The logarithm of s = 1 - y10*warp(tau), continued along the warped
    path from log s(0) = 0, in closed form: the cost does not depend on tau.

    With r = y10/eta and c = 1 + r, s(tau) = c - E(tau), E(tau) = r*exp(eta*tau):
    a logarithmic spiral about c, a circle when eta = i*omega.  Where
    |E| < |c|, Re(s/c) > 0 and log s = K_in + Log(s/c); where |E| > |c|,
    Re(-s/E) > 0 and log s = K_out + eta*tau + Log(-s/E), Log principal.  |E|
    is monotone, so [0, tau] crosses |E| = |c| at most once, at
    tau* = Re(ell)/Re(eta), where ell = log(c/r) = log1p(eta/y10) is taken
    once, with the digits of a tiny rate kept (log(eta) - log(y10) where
    eta/y10 overflows); the zeros of s are
    (ell + 2*pi*i*m)/eta.  log s(0) = 0 fixes the constant before tau*,
    and continuity at tau* the one after it, which is built only when a later
    tau asks for it (on a real path the pole sits at tau*, where s = 0).  For
    eta = i*omega nothing is crossed: each period 2*pi/|omega| adds
    2*pi*i*sign(omega) when |r| > |c| and nothing otherwise.  eta = 0 is the
    straight path, whose continued logarithm is principal.  ``box`` bounds
    the log image of a piece of the path in closed form for the singular-time
    enumeration, and ``pieces`` cuts the path where those bounds change.

    One form serves every evaluation of a trajectory.  ``passes`` lists, without any
    tolerance, where the path may pass near 0: the real parts tau > 0 of the
    zeros of s that ``_nearest_zeros`` picks, each with its w = y10*warp(tau),
    sorted by tau; ``run`` holds the zeros between them that approach the
    real axis, or None.  ``first_pass`` tests them against a caller's
    sing_tol.  A zero at which exp(eta*tau) lies beyond floating point is not
    listed: evaluation raises its ValueError before the path gets there.
    """

    __slots__ = (
        "y10", "eta", "r", "c", "ell", "tau_star", "outside", "principal", "k_before", "k_after",
        "passes", "run",
    )

    def __init__(self, y10: complex, eta: complex):
        # A rate component below 2**-53 of the other moves eta*t by less than
        # the rounding of the other's product, yet its reciprocal can put the
        # index of the zeros beyond floating point: the path, and the lifted
        # state of each ``point``, are taken without it.
        if abs(eta.imag) < 2.0**-53 * abs(eta.real):
            eta = complex(eta.real, 0.0)
        elif abs(eta.real) < 2.0**-53 * abs(eta.imag):
            eta = complex(0.0, eta.imag)
        self.y10, self.eta = y10, eta
        self.tau_star, self.outside, self.k_before, self.k_after = math.inf, False, 0j, None
        self.principal = True
        taus, self.run = [], None
        if eta == 0:
            taus = [(1.0 / y10).real]  # s vanishes at t = 1/y10
        else:
            self.r = y10 / eta
            if not 0.0 < math.hypot(self.r.real, self.r.imag) < math.inf:
                raise ValueError(
                    f"eta = {eta!r} is out of range: y1(0)/eta = {self.r!r} lies beyond "
                    "floating point"
                )
            self.c, x = 1.0 + self.r, eta / y10
            # log(c/r), with the digits of a tiny rate kept; None where c = 0.
            # Past floating point 1 + x is x, and any branch of its log will
            # do: only Re(ell) and the lattice of zeros are read.
            if not cmath.isfinite(x):
                self.ell = cmath.log(eta) - cmath.log(y10)
            else:
                self.ell = log1p(x) if self.c != 0 and x != -1 else None
            if eta.real != 0 and self.ell is not None:
                self.tau_star = self.ell.real / eta.real
                # which side of |E| = |c| the path is on just after 0
                self.outside = self.tau_star <= 0 if eta.real > 0 else self.tau_star > 0
            else:
                self.outside = abs(self.r) > abs(self.c)
            self.k_before = -self._local(0.0, 1.0 + 0.0j, cmath.exp(eta * 0.0), self.outside)
            # Inside with Re c > 0, K_in = Log c and Log(s/c) both have arguments
            # in (-pi/2, pi/2), so their sum is the principal Log s.
            self.principal = not self.outside and self.c.real > 0
            if self.ell is not None:
                try:
                    taus, self.run = _nearest_zeros(self.ell / eta, _TWO_PI * 1j / eta)
                except (OverflowError, ValueError):  # an index of the zeros is inf or NaN
                    raise ValueError(
                        f"eta = {eta!r} is out of range: the zeros of 1 - y1(0)*warp(t) "
                        "lie beyond floating point"
                    ) from None
        self.passes = []
        for tau in sorted(tau for tau in set(taus) if tau > 0):
            try:
                self.passes.append((tau, y10 * time_warp(eta, tau)))
            except ValueError:  # here and later exp(eta*tau) is past floating point,
                break  # and evaluation raises before the path gets there

    def _local(self, tau: float, s: complex, growth: complex, outside: bool) -> complex:
        # a logarithm of s(tau), continuous on its side of |E| = |c|
        if outside:
            return self.eta * tau + cmath.log(-s / (self.r * growth))
        return cmath.log(s / self.c)

    def _k_after(self) -> complex:
        # the constant after tau*, fixed by continuity there; built once asked for
        if self.k_after is None:
            growth, warp = _growth_and_warp(self.eta, self.tau_star)
            s = 1.0 - self.y10 * warp
            k = self.k_before + self._local(self.tau_star, s, growth, self.outside)
            self.k_after = k - self._local(self.tau_star, s, growth, not self.outside)
        return self.k_after

    def _log(self, tau: float, growth: complex, w: complex) -> complex | None:
        # the continued logarithm of s = 1 - w at tau, where exp(eta*tau) is
        # growth and w = y10*warp(tau); None where s = 0
        s = 1.0 - w
        if not s:  # no logarithm at s = 0, where the evaluator raises
            return None
        # K + Log(s/c) cancels digits where |c| is large (a tiny rate); the
        # form only selects the branch of the principal Log s.
        log_s = log1p(-w)
        if 0 < self.tau_star < tau:
            value = self._k_after() + self._local(tau, s, growth, not self.outside)
        elif self.principal:
            return log_s
        else:
            value = self.k_before + self._local(tau, s, growth, self.outside)
        return log_s + _TWO_PI * 1j * round((value.imag - log_s.imag) / _TWO_PI)

    def __call__(self, tau: float) -> complex | None:
        """The logarithm of s(tau) continued along the path, None where
        s = 0.  s must not vanish at tau* < tau."""
        growth, warp = _growth_and_warp(self.eta, tau)
        return self._log(tau, growth, self.y10 * warp)

    def point(self, t: float, sing_tol: float) -> tuple[complex, complex, complex | None]:
        """exp(eta*t), the warped time and log s(t) continued along the
        path, that last None where the path is principal up to t, so that
        the evaluator takes the principal Log s of the s it forms.  Raises
        SingularPointError when s passed the pole test (``pole_near``)
        before t, and then ValueError where exp(eta*t) lies beyond floating
        point."""
        if self.passes or self.run is not None:
            t_pass = self.first_pass(t, sing_tol)
            if t_pass < t:
                raise SingularPointError(
                    "pole of y1: the warped path passes within tolerance of 1 - y1(0) t = 0",
                    factor="1 - y1(0) t",
                    t=t_pass,
                )
        growth, warp = _growth_and_warp(self.eta, t)
        if self.principal and not 0 < self.tau_star < t:
            return growth, warp, None
        return growth, warp, self._log(t, growth, self.y10 * warp)

    def pieces(self, t_end: float) -> list[tuple[float, float]]:
        """[0, t_end] cut at tau* and at tau* -+ log(2)/|Re(eta)|, where |E/c|
        is 1/2 or 2: every piece beyond that window lies in a tube with
        m <= 1/2 (``box``), and the window's width does not depend on t_end."""
        cuts = [0.0, t_end]
        if self.eta.real:
            w = math.log(2.0) / abs(self.eta.real)
            cuts += [t for t in (self.tau_star - w, self.tau_star, self.tau_star + w) if 0 < t < t_end]
        cuts.sort()
        return list(zip(cuts, cuts[1:]))

    def box(
        self, t0: float, t1: float
    ) -> tuple[tuple[float, float, float, float], float] | None:
        """A box (re_lo, re_hi, im_lo, im_hi) that holds log s(tau) for every
        real tau in [t0, t1], 0 <= t0 < t1, and a bound on |d log s/dtau| =
        |eta| |E|/|s| there: the enumeration's ``box_of``.  It is the
        intersection of the two closed-form bounds below that hold, None
        where neither does or a term leaves floating point.

        Tube, on a piece that does not cross |E| = |c|.  Inside,
        log s = K_in + Log(1 - E/c) with |E/c| <= m < 1: Re log s lies in
        Re K_in + [log(1 - m), log1p(m)] and Im log s within asin(m) of
        Im K_in.  Outside, log s = K_out + eta*tau + Log(1 - c/E) with
        |c/E| <= m' < 1: the box of the segment K_out + eta*[t0, t1], widened
        as inside by m'.  log m is a difference of logs, and 1 - m is
        -expm1(log m), so the gap below 1 keeps its digits where |c| >> 1.
        For eta = i*omega the tube is the same at every horizon.

        Lipschitz, on a piece with |eta| (t1 - t0) <= 1, for pieces where m
        nears 1 and for refinement: |s| >= |s(t0)| - |E(t0)|
        (exp(|eta| (t1 - t0)) - 1) on the piece, and likewise from t1; where
        that bound L is positive, log s lies within |eta| (t1 - t0) max|E|/L
        of its value at either end.
        """
        speed = math.hypot(self.eta.real, self.eta.imag)
        tube, lipschitz = self._tube(t0, t1, speed), self._lipschitz(t0, t1, speed)
        if tube and lipschitz:
            (a, rate_a), (b, rate_b) = tube, lipschitz
            box = (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))
            tube = box, min(rate_a, rate_b)
        bound = tube or lipschitz
        return bound if bound and all(map(math.isfinite, bound[0])) else None

    def _tube(self, t0: float, t1: float, speed: float) -> tuple | None:
        # the tube bound of ``box``, None on a piece that crosses |E| = |c|
        if t0 < self.tau_star < t1:
            return None
        eta, after = self.eta, 0 < self.tau_star <= t0
        outside = self.outside != after
        re0, re1 = sorted((eta.real * t0, eta.real * t1))
        log_cr = self.ell.real if self.ell is not None else -math.inf  # log|c/r|
        log_m = log_cr - re0 if outside else re1 - log_cr  # of the largest |c/E| or |E/c|
        if not log_m < 0.0:
            return None
        k = self._k_after() if after else self.k_before
        m, gap = math.exp(log_m), -math.expm1(log_m)
        lo, hi, half = k.real + math.log(gap), k.real + math.log1p(m), math.asin(m)
        if not outside:
            return (lo, hi, k.imag - half, k.imag + half), speed * m / gap
        im0, im1 = sorted((eta.imag * t0, eta.imag * t1))
        return (lo + re0, hi + re1, k.imag + im0 - half, k.imag + im1 + half), speed / gap

    def _lipschitz(self, t0: float, t1: float, speed: float) -> tuple | None:
        # the Lipschitz bound of ``box``, None where it does not hold
        if not speed * (t1 - t0) <= 1.0:
            return None
        ends = []
        for tau in (t0, t1):
            try:
                growth, warp = _growth_and_warp(self.eta, tau)
                w = self.y10 * warp
                ends.append((abs(1.0 - w), abs(self.r * growth), self._log(tau, growth, w)))
            except (OverflowError, ValueError):  # a term lies beyond floating point
                return None
        (s0, e0, l0), (s1, e1, l1) = ends
        grow = math.expm1(speed * (t1 - t0))
        least = max(s0 - e0 * grow, s1 - e1 * grow)  # a bound on min |s| over the piece
        if not least > 0.0 or l0 is None or l1 is None:  # None: s = 0 at an end
            return None
        rho = speed * (t1 - t0) * max(e0, e1) / least  # finite where the rate is not
        box = (
            max(l0.real, l1.real) - rho,
            min(l0.real, l1.real) + rho,
            max(l0.imag, l1.imag) - rho,
            min(l0.imag, l1.imag) + rho,
        )
        return box, speed * max(e0, e1) / least

    def first_pass(self, t: float, sing_tol: float) -> float:
        """The first pass in (0, t) at which s meets the pole test
        (``pole_near``), or inf; s at t itself is left to the evaluator."""
        # On the real axis |s| is least near the real parts of its zeros, to
        # first order in their distance from the axis.
        listed = next((tau for tau, w in self.passes if tau < t and pole_near(w, sing_tol)), math.inf)
        if self.run is None:
            return listed
        return min(listed, self._first_in_run(min(t, listed), sing_tol))

    def _first_in_run(self, t: float, sing_tol: float) -> float:
        # The run's zeros come nearer the real axis as m grows, by less per
        # turn the nearer eta is to imaginary, so the ones that pass the test
        # are its last ones: test the last before t, then bisect.
        first, step, m_lo, m_hi = self.run
        m_hi = min(m_hi, math.ceil((t - first.real) / step.real) - 1)

        def meets_test(m: int) -> bool:
            tau = (first + m * step).real
            return pole_near(self.y10 * time_warp(self.eta, tau), sing_tol)

        if m_hi < m_lo or not meets_test(m_hi):
            return math.inf
        while m_lo < m_hi:
            mid = (m_lo + m_hi) // 2
            m_lo, m_hi = (m_lo, mid) if meets_test(mid) else (mid + 1, m_hi)
        return (first + m_hi * step).real


def _nearest_zeros(first: complex, step: complex) -> tuple[list[float], tuple | None]:
    """Real parts of points first + m*step, m an integer: the first with a
    nonnegative real part, and from there on the two nearest the real axis
    (all lie equally near it when step is real).  Also the run of indices
    strictly between those, (first, step, m_lo, m_hi) with m in time order,
    or None when it is empty."""
    if step.real == 0:  # one real part for all
        if first.real < 0:
            return [], None
        m0 = -first.imag / step.imag
        return [(first + m * step).real for m in (math.floor(m0), math.ceil(m0))], None
    if step.real < 0:
        step = -step  # m in time order
    lo = math.ceil(-first.real / step.real)
    if step.imag == 0:
        return [(first + lo * step).real], None
    m0 = -first.imag / step.imag
    near = [max(m, lo) for m in (math.floor(m0), math.ceil(m0))]
    run = (first, step, lo + 1, near[0] - 1) if near[0] - 1 > lo else None
    return [(first + m * step).real for m in {lo, *near}], run


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
    dec, canonical = prepare(ls.base, x0, branch, tol)
    if t_max is None:
        t_max = saturating_horizon(ls.base, x0, abs(ls.eta))
    traj = LiftedTrajectory(
        lifted=ls, decomposition=dec, canonical=canonical, z0=z0, x0=x0, t_singular=()
    )
    # the trajectory's closed form of log s serves the enumeration too, so
    # the times are set, once known, before the trajectory is returned
    sing = _lifted_times(canonical, ls.eta, t_max, tol, traj._warp)
    object.__setattr__(traj, "t_singular", tuple(sing))
    return traj


def eval_lifted(
    traj: LiftedTrajectory, t: float, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> Pair:
    """State z(t) = exp(eta*t) x(warp(t)) + zbar at real time t.

    The cost does not depend on t.  Raises SingularPointError at a pole and
    at every t past a point where the warped path 1 - y1(0)*warp came within
    the pole test of 0.  A non-finite t raises ValueError, as does a t at
    which exp(eta*t) lies beyond floating point.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    sol, zbar = traj.canonical, traj.lifted.zbar
    if traj._warp is None:
        growth, tau = _growth_and_warp(traj.lifted.eta, t)
        log_s = None
    else:
        growth, tau, log_s = traj._warp.point(t, tol.sing_tol)
    x = push_state(traj.decomposition.change, eval_canonical_general(sol, t, tau, log_s, tol))
    return (growth * x[0] + zbar[0], growth * x[1] + zbar[1])


def _warp_times(
    x: complex, eta: complex, t_max: float, base_log: complex | None = None
) -> list[complex]:
    """Times t with exp(eta*t) = 1 + x, on every branch that can give a real
    t in (0, t_max]; ``base_log`` is any branch of log(1 + x), log1p(x)
    when None.

    The branch times t_m = (log1p(x) + 2*pi*i*m)/eta are affine in m, so
    those within ``realness_slack`` of (0, t_max] are one lattice query
    (``lattice_indices``), kept to the turns of eta*t up to t_max, and
    ``real_times`` then filters as for any candidate.  Only where every
    branch is real (a real pole each period of an imaginary eta) does the
    list grow with the turns up to t_max.
    """
    if x == -1:
        return []
    if base_log is None:
        base_log = log1p(x)  # keeps the digits of a tiny x, as log(1 + x) would not
    start, step = base_log / eta, _TWO_PI * 1j / eta
    turns = math.ceil((abs(eta) * t_max + abs(base_log)) / _TWO_PI) + 1
    ms = range(-turns, turns + 1)
    if cmath.isfinite(start):
        slack = realness_slack(t_max)
        ks = lattice_indices(start, step, (-slack, t_max + slack, -slack, slack))
        ms = range(max(ks.start, -turns), min(ks.stop, turns + 1))
    return [(base_log + _TWO_PI * 1j * m) / eta for m in ms]


def lifted_singular_times(
    sol: CanonicalSolution,
    eta: complex,
    t_max: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[float]:
    """Sorted real singular times of the lifted flow in (0, t_max].

    Poles are the preimages, under the warped time, of the base solution's
    singularities: zeros of 1 - y1(0)*warp(t) (of 1 - y2(0)*warp(t) when
    y1(0) = 0) and times where the continued logarithm along the warped
    path reaches a denominator-vanishing target.  As for the unlifted flow,
    every such zero is reported except zeros inside the pole's sing_tol band
    (|1 - y1(0) warp(t)| < sing_tol/e), which are reported as the pole.
    The path ends in the band of the first zero of s it meets: a real pole,
    or a pass within the pole test past which evaluation raises.  Its log
    targets are bounded piece by piece in closed form (``_WarpLog.pieces``
    and ``_WarpLog.box``): a tube about the path's side of |E| = |c| outside
    a window about the crossing whose width does not depend on t_max, and
    within it a Lipschitz bound on pieces the enumeration halves.  Where no
    target is near, the cost does not grow with t_max.  Candidate times come
    from exact inversion of the warp, and each candidate is confirmed by the
    same closed form at that time, which also drops candidates the path
    reaches only past a pole.
    """
    return _lifted_times(sol, eta, t_max, tol, None)


def _lifted_times(
    sol: CanonicalSolution,
    eta: complex,
    t_max: float,
    tol: ToleranceConfig,
    form: _WarpLog | None,
) -> list[float]:
    """``lifted_singular_times`` through a trajectory's closed form of log s,
    or, when ``form`` is None, through one built here unless y1(0) = 0."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    reach = math.hypot(eta.real, eta.imag) * t_max
    if reach == 0:  # exp(eta*t) = 1 and warp(t) = t in floating point
        return singular_times(sol, t_max, tol)
    if reach == math.inf:
        raise ValueError(
            f"|eta|*t_max lies beyond floating point at eta = {eta!r}, t_max = {t_max!r}"
        )
    if not sol.y10:  # the pole of y2 is the only singular point
        if not sol.y20:
            return []
        x = eta / sol.y20
        # past floating point 1 + x is x, and any branch of its log will do:
        # the lattice lists every branch
        base_log = None if cmath.isfinite(x) else cmath.log(eta) - cmath.log(sol.y20)
        return real_times(_warp_times(x, eta, t_max, base_log), t_max)
    if form is None:  # first: it refuses a y1(0)/eta beyond floating point
        form = _WarpLog(sol.y10, eta)
    # the pole's branch times start from the form's log(c/r) = log1p(eta/y1(0))
    candidates = _warp_times(eta / sol.y10, eta, t_max, form.ell)
    band = tol.sing_tol / math.e
    # The path ends in the band of the first zero of s it meets, a real
    # pole or a pass past which evaluation raises: near a zero at t0,
    # s = c*(1 - exp(eta*(t - t0))), and |1 - exp(z)| <= exp(|z|) - 1.
    t_stop = min(real_times(candidates, t_max)[:1], default=math.inf)
    t_stop = min(t_stop, form.first_pass(min(t_stop, t_max), tol.sing_tol))
    t_end = t_stop - math.log1p(band / abs(form.c)) / abs(eta) if t_stop < math.inf else t_max
    pieces = form.pieces(t_end)  # t_end > 0: |s(t_end)| <= band < |s(0)|
    for lam in denominator_log_targets(sol, pieces, form.box, math.log(band)):
        for tc in real_times(_warp_times(-eta * expm1(lam) / sol.y10, eta, t_max), t_max):
            if form.first_pass(tc, tol.sing_tol) < tc:
                continue  # an earlier pole dominates this candidate
            if abs(form(tc) - lam) <= 1e-6 * (1.0 + abs(lam)):
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
    periodic with period 2*pi*k2/|omega|.  An omega so small that this period
    overflows raises ValueError.
    """
    if not (math.isfinite(omega) and omega != 0):
        raise ValueError(f"omega must be finite and nonzero, got {omega!r}")
    delta = decompose(sys, tol).plus.delta
    rational = None
    if abs(delta.imag) <= _RATIONAL_TOL * max(1.0, abs(delta)):
        rational = approx_rational(delta.real, max_den, tol=_RATIONAL_TOL)
    isochronous = rational is not None
    period = _TWO_PI * rational[1] / abs(omega) if isochronous else None
    if period == math.inf:
        raise ValueError(f"omega = {omega!r} is too small: the period 2*pi*k2/|omega| overflows")
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
    """Max of |z(t + period) - z(t)| / (1 + |z(t)|) over t = 0 and interiors,
    NaN when any term is NaN."""
    if interior_times is None:
        interior_times = [period * f for f in (0.13, 0.29, 0.47, 0.71, 0.88)]
    return worst_deviation(
        (eval_lifted(traj, t, tol), eval_lifted(traj, t + period, tol))
        for t in [0.0, *interior_times]
    )
