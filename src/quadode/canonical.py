"""Closed-form flow of the canonical planar system

    y1' = y1**2,
    y2' = rho1*y1**2 + rho2*y1*y2 + y2**2.

The first equation decouples; the ratio u = y2/y1 obeys a Riccati equation
whose solution is a Moebius function of the power [1 - y1(0) t]**(-delta)
with delta = sqrt((1 - rho2)**2 - 4*rho1).  Degenerate situations (initial
data on the y1 = 0 line, coincident ratio fixed points u(0) = u+/-, and the
delta = 0 logarithmic case) are classified once at solve time and evaluated
by their own formulas.

Besides the pole of y1, the movable singularities are the zeros of the ratio
denominator.  They sit where the continued logarithm of s = 1 - y1(0) t
reaches a target lam_k = -(log(dm/dp) + 2 pi i k)/delta, with
dm = u(0) - u-, dp = u(0) - u+: a lattice affine in k.  One enumerator,
``denominator_log_targets``, lists the targets near the log image of a path
given by waypoints, splitting boxes until each holds few lattice indices; the
real flow (``singular_times``, a straight path) and the lifted flow (in
``extensions``, waypoints along the warped path, each with its logarithm in
closed form) differ only in the path they pass and in how a target becomes a
time.  A lifted path whose whole log image is boxed in closed form reads its
targets off that box (``log_targets_in_box``), with the same bound on the
lattice indices.  ``real_times`` filters, sorts and merges the candidate
times of both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import SingularPointError
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, ensure_finite

_TWO_PI = 2.0 * math.pi

# A candidate time counts as real when its imaginary part is at most this
# fraction of 1 + |t|; real times closer than 1e-12 * (1 + |t|) are one time.
_IMAG_TOL = 1e-9
_MERGE_TOL = 1e-12

# Log targets beyond this real part would overflow exp; no reachable |s| is
# that large.
_MAX_LOG_REAL = 700.0

# A box of the log plane holding more branch indices than this is split.
_SPLIT_INDICES = 16


class CanonicalParams(NamedTuple):
    rho1: complex
    rho2: complex


class CanonicalState(NamedTuple):
    y1: complex
    y2: complex


class SolutionCase(str, Enum):
    GENERIC = "generic"
    FIXED_POINT_PLUS = "fixed_point_plus"
    FIXED_POINT_MINUS = "fixed_point_minus"
    DELTA_ZERO = "delta_zero"
    Y1_ZERO = "y1_zero"


# The evaluator tests the case at every point; a member lookup on the enum
# class costs more than the rest of the test, so it compares against these.
_GENERIC, _DELTA_ZERO = SolutionCase.GENERIC, SolutionCase.DELTA_ZERO
_Y1_ZERO = SolutionCase.Y1_ZERO


@dataclass(frozen=True)
class CanonicalSolution:
    """Precomputed solved state of an initial-value problem.

    ``u0`` is y2(0)/y1(0) (None on the y1 = 0 line); ``u_bar`` is the
    coincident fixed point, populated only in the delta = 0 case.
    """

    params: CanonicalParams
    y10: complex
    y20: complex
    u0: complex | None
    u_plus: complex
    u_minus: complex
    delta: complex
    u_bar: complex | None
    case: SolutionCase
    # the constants of the case's ratio formula, which every evaluation shares:
    # (dm, dp, u_plus*dm, u_minus*dp, -delta) with dm = u0 - u_minus and
    # dp = u0 - u_plus in the generic case, (g, u_bar*g) with g = u0 - u_bar
    # in the delta = 0 case, () otherwise
    _consts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        consts: tuple = ()
        if self.case is SolutionCase.GENERIC:
            dm = self.u0 - self.u_minus
            dp = self.u0 - self.u_plus
            consts = (dm, dp, self.u_plus * dm, self.u_minus * dp, -self.delta)
        elif self.case is SolutionCase.DELTA_ZERO:
            g = self.u0 - self.u_bar
            consts = (g, self.u_bar * g)
        object.__setattr__(self, "_consts", consts)


def canonical_rhs(p: CanonicalParams, y: CanonicalState) -> CanonicalState:
    """Time derivative (y1**2, rho1*y1**2 + rho2*y1*y2 + y2**2)."""
    y1, y2 = y
    return CanonicalState(y1 * y1, p.rho1 * y1 * y1 + p.rho2 * y1 * y2 + y2 * y2)


def solve_canonical(
    p: CanonicalParams,
    y0: CanonicalState,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CanonicalSolution:
    """Classify the initial-value problem and precompute its solution data.

    All finite initial data are admitted.  The branch of delta is the
    principal square root; the solution is invariant under delta -> -delta
    (which only swaps u_plus and u_minus).
    """
    rho1 = ensure_finite(p.rho1, "rho1")
    rho2 = ensure_finite(p.rho2, "rho2")
    # also the guard of the solvers: pull_state overflows on some finite
    # data, e.g. x(0) = (1e308, -1e308), or z(0) - zbar of a lift
    y10 = ensure_finite(y0.y1, "y1(0)")
    y20 = ensure_finite(y0.y2, "y2(0)")
    one_minus = 1.0 - rho2
    delta = cmath.sqrt(one_minus * one_minus - 4.0 * rho1)
    u_plus = (one_minus + delta) / 2.0
    u_minus = (one_minus - delta) / 2.0

    params = CanonicalParams(rho1, rho2)
    if abs(y10) <= tol.sing_tol * (1.0 + abs(y20)):
        return CanonicalSolution(
            params, 0.0 + 0.0j, y20, None, u_plus, u_minus, delta, None, SolutionCase.Y1_ZERO
        )
    u0 = y20 / y10
    if abs(delta) ** 2 <= tol.eq_tol * (abs(one_minus) ** 2 + abs(rho1)):
        u_bar = one_minus / 2.0
        return CanonicalSolution(
            params, y10, y20, u0, u_plus, u_minus, delta, u_bar, SolutionCase.DELTA_ZERO
        )
    u_scale = max(1.0, abs(u0), abs(u_plus), abs(u_minus))
    if abs(u0 - u_plus) <= tol.eq_tol * u_scale:
        case = SolutionCase.FIXED_POINT_PLUS
    elif abs(u0 - u_minus) <= tol.eq_tol * u_scale:
        case = SolutionCase.FIXED_POINT_MINUS
    else:
        case = SolutionCase.GENERIC
    return CanonicalSolution(params, y10, y20, u0, u_plus, u_minus, delta, None, case)


def pole_near(w: complex, sing_tol: float) -> bool:
    """The pole test: whether s = 1 - w is within sing_tol*(1 + |w|) of 0."""
    return abs(1.0 - w) <= sing_tol * (1.0 + abs(w))


def eval_canonical_general(
    sol: CanonicalSolution,
    t: float,
    warped_t: complex,
    log_s: complex | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CanonicalState:
    """State at real time t, whose time argument (complex on a lifted path) is
    warped_t, given the logarithm of s = 1 - y1(0)*warped_t continued along it
    (None: the principal one, taken once s has passed the pole test).

    The one judge of a singular point, for real-time evaluation and the
    exponential lift alike: it raises SingularPointError, carrying t, when
    ``pole_near`` holds for s (1 - y2(0)*warped_t on the y1 = 0 line) or a
    ratio denominator is within sing_tol of 0.
    """
    case = sol.case
    w = (sol.y20 if case is _Y1_ZERO else sol.y10) * warped_t
    if pole_near(w, tol.sing_tol):
        pole = "y2" if case is _Y1_ZERO else "y1"
        raise SingularPointError(
            f"pole of {pole}: 1 - {pole}(0) t vanishes", factor=f"1 - {pole}(0) t", t=t
        )
    s = 1.0 - w
    # the NamedTuple's own __new__ is a Python function; the state skips it
    if case is _Y1_ZERO:
        return tuple.__new__(CanonicalState, (0.0 + 0.0j, sol.y20 / s))
    y1 = sol.y10 / s
    if log_s is None:
        log_s = cmath.log(s)  # s != 0: it passed the pole test
    if case is _GENERIC:
        dm, dp, uplus_dm, uminus_dp, neg_delta = sol._consts
        try:
            power = cmath.exp(neg_delta * log_s)
            dp_power = dp * power
            num, den = uplus_dm - uminus_dp * power, dm - dp_power
            scale = abs(dm) + abs(dp_power)
        except OverflowError:  # exp or a modulus past the range of floats
            num = scale = math.inf
        u = math.inf
        if scale < math.inf and cmath.isfinite(num):
            if abs(den) <= tol.sing_tol * scale:
                raise SingularPointError(
                    "zero of the ratio denominator", factor="u denominator", t=t
                )
            u = num / den
        if not cmath.isfinite(u):
            # power, a product with it or their ratio lies past the range of
            # floats: numerator and denominator are multiplied by
            # q = exp(delta*log s) = 1/power
            q = cmath.exp(sol.delta * log_s)
            dm_q = dm * q
            den = dm_q - dp
            if abs(den) <= tol.sing_tol * (abs(dm_q) + abs(dp)):
                raise SingularPointError(
                    "zero of the ratio denominator", factor="u denominator", t=t
                )
            u = (uplus_dm * q - uminus_dp) / den
    elif case is _DELTA_ZERO:
        g, ubar_g = sol._consts
        g_log = g * log_s
        den = 1.0 + g_log
        if abs(den) <= tol.sing_tol * (1.0 + abs(g_log)):
            raise SingularPointError(
                "zero of the logarithmic ratio denominator", factor="log denominator", t=t
            )
        u = (sol.u0 + ubar_g * log_s) / den
    else:  # at a fixed point the ratio stays u(0)
        u = sol.u0
    return tuple.__new__(CanonicalState, (y1, y1 * u))


def eval_canonical(
    sol: CanonicalSolution,
    t: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CanonicalState:
    """State at real time t.

    The power/logarithm branch is continued along the straight base path
    s(t) = 1 - y1(0)*t from s(0) = 1; for a straight path this continuation
    coincides with the principal branch.  A non-finite t raises ValueError.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return eval_canonical_general(sol, t, t, None, tol)


def denominator_log_targets(
    sol: CanonicalSolution,
    curve: Callable[[float], complex],
    taus: Sequence[float],
    logs: Sequence[complex],
    bulge: float,
    re_floor: float,
) -> list[complex]:
    """Values of the continued logarithm of s = curve(tau) at which the ratio
    denominator vanishes, near the path through the waypoints ``taus``.

    ``logs[j]`` is the continued logarithm of curve(taus[j]).  Between two
    waypoints the logarithm is taken to stay in the box its end values span,
    widened by ``bulge`` times their distance (0 for a straight path cut where
    |s| is least, whose pieces have monotone |s| and arg s) and by the
    realness tolerance of a candidate time, carried into the log plane (at
    most 1: where it would be more, |s| is within that tolerance of the pole).
    Boxes are floored at Re = ``re_floor``, where a caller cuts out a pole's
    band, and capped at Re = 700, beyond which exp overflows.

    In the generic case the targets lam_k = -(log(dm/dp) + 2*pi*i*k)/delta are
    affine in the branch index k, so each side of a box bounds k directly.  A
    box holding more than _SPLIT_INDICES indices is split, at its middle
    waypoint or at the curve's midpoint, until its slack outweighs its extent;
    so the work follows the number of targets near the path, not the density
    |delta| of the lattice.  The delta = 0 case has the single target -1/g;
    the other cases have none.
    """
    lattice = _target_lattice(sol)
    if lattice is None:
        return []

    def slack(t0: float, l0: complex, t1: float, l1: complex) -> float:
        # A time within _IMAG_TOL*(1 + t) of the real axis moves s by up to
        # |ds/dt| times that, and log s by that over |s|; on a chord,
        # |ds/dt| / min|s| = |s1 - s0| / (min(|s0|, |s1|) * (t1 - t0)).
        d = l1 - l0 if l1.real >= l0.real else l0 - l1
        near = 1.0
        if d.real <= _MAX_LOG_REAL:
            near = min(near, 2.0 * _IMAG_TOL * (1.0 + abs(t1)) * abs(cmath.exp(d) - 1.0) / (t1 - t0))
        return bulge * abs(d) + near + _IMAG_TOL

    slacks = [slack(*c) for c in zip(taus, logs, taus[1:], logs[1:])]
    stack = [(list(taus), list(logs), slacks)] if slacks else []
    found: set[int] = set()
    while stack:
        node_taus, node_logs, node_slacks = stack.pop()
        pad = max(node_slacks)
        re = [lam.real for lam in node_logs]
        im = [lam.imag for lam in node_logs]
        box = (
            max(min(re) - pad, re_floor),
            min(max(re) + pad, _MAX_LOG_REAL),
            min(im) - pad,
            max(im) + pad,
        )
        ks = _lattice_indices(lattice, box)
        extent = max(max(re) - min(re), max(im) - min(im))
        if len(ks) <= _SPLIT_INDICES or extent <= pad - bulge * extent:
            # few indices, or a box that splitting would not shrink
            found.update(ks)
        elif len(node_taus) > 2:
            mid = len(node_taus) // 2
            stack.append((node_taus[: mid + 1], node_logs[: mid + 1], node_slacks[:mid]))
            stack.append((node_taus[mid:], node_logs[mid:], node_slacks[mid:]))
        else:
            (t0, t1), (l0, l1) = node_taus, node_logs
            tm = 0.5 * (t0 + t1)
            sm = curve(tm)
            if not t0 < tm < t1 or sm == 0:
                found.update(ks)
                continue
            lm = l0 + cmath.log(sm / cmath.exp(l0))
            stack.append(([t0, tm], [l0, lm], [slack(t0, l0, tm, lm)]))
            stack.append(([tm, t1], [lm, l1], [slack(tm, lm, t1, l1)]))
    return _targets(sol, lattice, found)


def log_targets_in_box(
    sol: CanonicalSolution, box: tuple[float, float, float, float], re_floor: float
) -> list[complex] | None:
    """The targets of ``denominator_log_targets`` in a box (re_lo, re_hi,
    im_lo, im_hi) of the log plane that holds the whole log image of a path,
    for every time within ``realness_slack`` of it; or None when the box
    holds more than _SPLIT_INDICES branch indices, where the caller bounds
    the targets along the path instead.  The box is widened by the realness
    tolerance, floored at Re = ``re_floor`` and capped at Re = 700, as the
    boxes of ``denominator_log_targets`` are."""
    lattice = _target_lattice(sol)
    if lattice is None:
        return []
    re_lo, re_hi, im_lo, im_hi = box
    ks = _lattice_indices(
        lattice,
        (
            max(re_lo - _IMAG_TOL, re_floor),
            min(re_hi + _IMAG_TOL, _MAX_LOG_REAL),
            im_lo - _IMAG_TOL,
            im_hi + _IMAG_TOL,
        ),
    )
    return _targets(sol, lattice, ks) if len(ks) <= _SPLIT_INDICES else None


def _target_lattice(sol: CanonicalSolution) -> tuple[complex, complex, complex] | None:
    """(a, b, log_w): the targets are a + k*b, with a = -log_w/delta and
    b = -2*pi*i/delta in the generic case, and the single a = -1/g (b = 0)
    in the delta = 0 case; None when there is no target."""
    if sol.case is SolutionCase.DELTA_ZERO:
        g = sol._consts[0]
        return (-1.0 / g, 0j, 0j) if g != 0 else None
    if sol.case is SolutionCase.GENERIC:
        dm, dp = sol._consts[:2]
        if dm == 0 or dp == 0:
            return None
        log_w = cmath.log(dm / dp)
        return -log_w / sol.delta, -_TWO_PI * 1j / sol.delta, log_w
    return None


def _lattice_indices(lattice: tuple[complex, complex, complex], box: tuple) -> range:
    """The branch indices k whose target a + k*b lies in the box (re_lo,
    re_hi, im_lo, im_hi): each side bounds k directly.  range(1) stands for
    the single target when b = 0."""
    a, b, _ = lattice
    k_lo, k_hi = -math.inf, math.inf
    for a_c, b_c, lo, hi in ((a.real, b.real, box[0], box[1]), (a.imag, b.imag, box[2], box[3])):
        if b_c == 0.0:
            if not lo <= a_c <= hi:
                return range(0)
        else:
            ends = ((lo - a_c) / b_c, (hi - a_c) / b_c)
            k_lo, k_hi = max(k_lo, min(ends)), min(k_hi, max(ends))
    if b == 0:
        return range(1)
    return range(math.ceil(k_lo), math.floor(k_hi) + 1) if k_lo <= k_hi else range(0)


def _targets(sol: CanonicalSolution, lattice: tuple, ks: Iterable[int]) -> list[complex]:
    """The targets of the indices ``ks`` of ``_lattice_indices``."""
    a, b, log_w = lattice
    if b == 0:
        return [a] if ks else []
    return [-(log_w + _TWO_PI * 1j * k) / sol.delta for k in ks]


def realness_slack(t_max: float) -> float:
    """A bound, with a margin for rounding, on |Im t| of the times
    ``real_times`` admits up to t_max: |Im t| <= _IMAG_TOL*(1 + |t|)."""
    return 2.0 * _IMAG_TOL * (1.0 + t_max)


def real_times(candidates: Iterable[complex], t_max: float) -> list[float]:
    """The candidate times that are real and lie in (0, t_max], sorted, with
    coincident times merged."""
    times = sorted(
        tc.real
        for tc in candidates
        if abs(tc.imag) <= _IMAG_TOL * (1.0 + abs(tc)) and 0 < tc.real <= t_max
    )
    out: list[float] = []
    for t in times:
        if not out or t - out[-1] > _MERGE_TOL * (1.0 + abs(t)):
            out.append(t)
    return out


def singular_times(
    sol: CanonicalSolution,
    t_max: float,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[float]:
    """Sorted real singular times of the solution in (0, t_max].

    Reports the pole of y1 (of y2 on the y1 = 0 line) when it falls on the
    real axis, and every real zero of the ratio denominator (or of its
    delta = 0 analogue), except zeros inside a reported pole's sing_tol band
    (|1 - y1(0) t| < sing_tol/e), which are reported as the pole.

    For real t the logarithm of s = 1 - y1(0)*t is principal.  The segment
    s(t), t in [0, t_max], is cut where |s| is least and, around a reported
    pole, where it enters the band; each piece has monotone |s| and arg s, so
    its log image lies in the box of its end values.  A target lam found
    there gives the candidate time (1 - exp(lam))/y1(0).
    """
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    pole_base = sol.y20 if sol.case is SolutionCase.Y1_ZERO else sol.y10
    candidates = [1.0 / pole_base] if pole_base != 0 else []
    if sol.case not in (SolutionCase.GENERIC, SolutionCase.DELTA_ZERO):
        return real_times(candidates, t_max)
    y1 = sol.y10

    def line(t: float) -> complex:
        return 1.0 - y1 * t

    t_foot = y1.real / abs(y1) / abs(y1)  # where |s| is least; the pole if y1(0) is real
    pieces = [(0.0, t_max)]
    re_floor = -math.inf
    gap = (tol.sing_tol / math.e) ** 2 - abs(line(t_foot)) ** 2
    if gap > 0 and real_times(candidates, t_max):
        half = math.sqrt(gap) / abs(y1)
        pieces = [(0.0, min(t_foot - half, t_max)), (t_foot + half, t_max)]
        re_floor = math.log(tol.sing_tol) - 1.0
    for lo, hi in pieces:
        if not lo < hi:
            continue
        taus = [lo, t_foot, hi] if lo < t_foot < hi else [lo, hi]
        logs = [cmath.log(line(t)) for t in taus]
        for lam in denominator_log_targets(sol, line, taus, logs, 0.0, re_floor):
            if abs(lam.imag) <= math.pi + _IMAG_TOL:  # principal branch only
                candidates.append((1.0 - cmath.exp(lam)) / y1)
    return real_times(candidates, t_max)
