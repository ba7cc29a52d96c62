"""Closed-form flow of the canonical planar system

    y1' = y1**2,
    y2' = rho1*y1**2 + rho2*y1*y2 + y2**2.

y1 = y1(0)/s with s = 1 - y1(0) t, and the ratio u = y2/y1 is a Moebius
function of P = s**(-delta), delta = sqrt((1 - rho2)**2 - 4*rho1).  One
formula serves all data: with L = log s, E = (1 - P)/delta = L*phi1(-delta*L),
phi1(z) = (e**z - 1)/z, and a = y2(0) - u-*y1(0),

    y2 = u-*y1 + a/(s*D),    D = a*E/y1(0) + P,

which divides by neither delta nor y1(0).  The degenerate flows, delta = 0,
u(0) = u+- and y1(0) = 0 (where D = 1 - y2(0) t), are its limits; the
``SolutionCase`` of a solution only reports which one the data are near.

Besides the pole of y1, the movable singularities are the zeros of D.  They
sit where the continued logarithm of s reaches a target
lam_k = -(log(dm/dp) + 2 pi i k)/delta, with dm = u(0) - u-, dp = u(0) - u+:
a lattice affine in k.  One enumerator, ``denominator_log_targets``, lists
the targets near the log image of a path given by waypoints, splitting boxes
until each holds few lattice indices.  It reads the path's continued
logarithm, at the waypoints and at the midpoints where it splits, and never
rebuilds it from s: the real flow (``singular_times``) passes the principal
log of its straight path, and the lifted flow (in ``extensions``) the closed
form of log s along the warped path.  The two differ only in that logarithm,
in their waypoints and in how a target becomes a time.  A lifted path whose
whole log image is boxed in closed form reads its targets off that box
(``log_targets_in_box``).  One routine, ``lattice_indices``, turns a box
into the indices of an affine lattice for both, and for the branch times of
the lift's exp(eta*t) = 1 + x as well.  ``real_times`` filters, sorts and
merges the candidate times of both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import SingularPointError
from .numerics import DEFAULT_TOLERANCES, ToleranceConfig, ensure_finite, expm1, log1p

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
    """Which degenerate flow, if any, the data are near: a reported label."""

    GENERIC = "generic"
    FIXED_POINT_PLUS = "fixed_point_plus"
    FIXED_POINT_MINUS = "fixed_point_minus"
    DELTA_ZERO = "delta_zero"
    Y1_ZERO = "y1_zero"


@dataclass(frozen=True)
class CanonicalSolution:
    """Precomputed solved state of an initial-value problem.

    ``u0`` is y2(0)/y1(0), None when y1(0) = 0; ``case`` is a label only.
    """

    params: CanonicalParams
    y10: complex
    y20: complex
    u0: complex | None
    u_plus: complex
    u_minus: complex
    delta: complex
    case: SolutionCase
    # the constants of the closed form, which every evaluation shares:
    # (y1(0), a, u_minus*y1(0), -delta) with a = y2(0) - u_minus*y1(0)
    _consts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        uy = self.u_minus * self.y10
        object.__setattr__(self, "_consts", (self.y10, self.y20 - uy, uy, -self.delta))


def canonical_rhs(p: CanonicalParams, y: CanonicalState) -> CanonicalState:
    """Time derivative (y1**2, rho1*y1**2 + rho2*y1*y2 + y2**2)."""
    y1, y2 = y
    return CanonicalState(y1 * y1, p.rho1 * y1 * y1 + p.rho2 * y1 * y2 + y2 * y2)


def solve_canonical(
    p: CanonicalParams,
    y0: CanonicalState,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> CanonicalSolution:
    """Precompute the solution data of the initial-value problem and label it.

    All finite initial data are admitted and kept as given.  The branch of
    delta is the principal square root; the solution is invariant under
    delta -> -delta (which only swaps u_plus and u_minus).  The label is
    Y1_ZERO when |y1(0)| <= sing_tol*|y2(0)|, else DELTA_ZERO when
    |delta|**2 <= eq_tol*(|1 - rho2|**2 + |rho1|), else FIXED_POINT_PLUS or
    _MINUS when u(0) is within eq_tol*max(1, |u(0)|, |u+|, |u-|) of u+ or
    u-, else GENERIC: every test is invariant under scaling y(0).
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

    u0 = y20 / y10 if y10 else None
    if abs(y10) <= tol.sing_tol * abs(y20):
        case = SolutionCase.Y1_ZERO
    elif abs(delta) ** 2 <= tol.eq_tol * (abs(one_minus) ** 2 + abs(rho1)):
        case = SolutionCase.DELTA_ZERO
    elif abs(u0 - u_plus) <= (u_tol := tol.eq_tol * max(1.0, abs(u0), abs(u_plus), abs(u_minus))):
        case = SolutionCase.FIXED_POINT_PLUS
    elif abs(u0 - u_minus) <= u_tol:
        case = SolutionCase.FIXED_POINT_MINUS
    else:
        case = SolutionCase.GENERIC
    return CanonicalSolution(CanonicalParams(rho1, rho2), y10, y20, u0, u_plus, u_minus, delta, case)


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
    ``pole_near`` holds for s (1 - y2(0)*warped_t when y1(0) = 0) or the
    denominator D is within sing_tol*(|a*E/y1(0)| + |P|) of 0.  Where a test
    fires on a term past floating point, it is taken again on scaled terms
    before it decides: s/y2(0) for an infinite y2(0)*warped_t, D/a for an
    infinite a*E/y1(0).  An infinite y1(0)*warped_t still counts as the pole.
    """
    y10, a, uy, neg_delta = sol._consts
    w = (y10 if y10 else sol.y20) * warped_t
    s = 1.0 - w
    if abs(s) <= tol.sing_tol * (1.0 + abs(w)):  # pole_near(w), on the s formed here
        # where y1(0) = 0, a w past floating point is re-formed as w/y2(0):
        # the same test on s/y2(0) = 1/y2(0) - warped_t
        inv = 0j if y10 else 1.0 / sol.y20
        if y10 or cmath.isfinite(w) or abs(inv - warped_t) <= tol.sing_tol * (
            abs(inv) + abs(warped_t)
        ):
            pole = "y1" if y10 else "y2"
            raise SingularPointError(
                f"pole of {pole}: 1 - {pole}(0) t vanishes", factor=f"1 - {pole}(0) t", t=t
            )
    if not y10:
        w, s = 0j, 1.0  # and D = 1 - y2(0) t, the pole factor just tested
    # g = L/w, so that L/y1(0) = t*g.  The principal L is w*g with
    # g = log(s)/(1 - s): the exact 1 - s makes up for the rounding of s
    # (``numerics.log1p``), so L and L/y1(0) keep their digits as w -> 0.
    if log_s is None:
        g = cmath.log(s) / (1.0 - s) if s != 1.0 else -1.0  # s != 0: it passed the pole test
        z = neg_delta * w * g
    else:
        g = log_s / w if w else -1.0
        z = neg_delta * log_s
    # Where |P| = |exp(z)| > 1, D and a are multiplied by 1/P: with v = -z,
    # E/(P*y1(0)) = (L/y1(0))*phi1(v).  So exp never overflows here.
    past = z.real > 0.0
    v = -z if past else z
    if v.real > -0.5 and abs(v) < 0.5:  # Re v <= 0, so abs cannot overflow
        # exp(v) - 1 = 2 exp(v/2) sinh(v/2) does not cancel (``numerics.expm1``)
        h = 0.5 * v
        eh = cmath.exp(h)
        power = eh * eh
        phi = eh * cmath.sinh(h) / h if h else 1.0
    else:
        power = cmath.exp(v)
        phi = (power - 1.0) / v
    a_e = a * warped_t * g * phi
    if past:  # D and a times 1/P, which is ``power`` here
        a, power = a * power, 1.0
    den = a_e + power
    clear = abs(den) > tol.sing_tol * (abs(a_e) + abs(power))
    if not clear and not cmath.isfinite(a_e) and sol._consts[1]:
        # a term a*E/y1(0) past floating point: D is re-formed as D/a(0), whose
        # terms E/y1(0) and P/a(0) take the same test, and a/D as (a/a(0))/(D/a(0))
        a0 = sol._consts[1]
        a_e, power, a = warped_t * g * phi, power / a0, a / a0
        den = a_e + power
        clear = abs(den) > tol.sing_tol * (abs(a_e) + abs(power))
    if not clear:  # a term still inf or NaN counts as singular
        raise SingularPointError("zero of the ratio denominator", factor="u denominator", t=t)
    # the NamedTuple's own __new__ is a Python function; the state skips it
    return tuple.__new__(CanonicalState, (y10 / s, (a / den + uy) / s))


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
    log_at: Callable[[float], complex | None],
    taus: Sequence[float],
    logs: Sequence[complex],
    bulge: float,
    re_floor: float,
) -> list[complex]:
    """Values of the continued logarithm of s at which the ratio denominator
    vanishes, near the log image of a path through the waypoints ``taus``.

    ``log_at(tau)`` is the continued logarithm of s at tau, None where
    s = 0; ``logs[j]`` is its value at taus[j].  Between two waypoints the
    logarithm is taken to stay in the box its end values span, widened by
    ``bulge`` times their distance (0 for a straight path cut where |s| is
    least, whose pieces have monotone |s| and arg s) and by the realness
    tolerance of a candidate time, carried into the log plane (at most 1:
    where it would be more, |s| is within that tolerance of the pole).
    Boxes are floored at Re = ``re_floor``, where a caller cuts out a pole's
    band, and capped at Re = 700, beyond which exp overflows.

    The targets lam_k = -(log(dm/dp) + 2*pi*i*k)/delta are affine in the
    branch index k, so each side of a box bounds k directly.  A box holding
    more than _SPLIT_INDICES indices is split, at its middle waypoint or at
    the midpoint in tau of its one chord, read from ``log_at`` (a midpoint
    where s = 0 keeps every index of the box), until its slack outweighs its
    extent; so the work follows the number of targets near the path, not the
    density |delta| of the lattice.  At delta = 0 there is the single target -1/dp; where
    y1(0) = 0 or u(0) = u+- exactly there is none.
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
        ks = lattice_indices(*lattice, box)
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
            lm = log_at(tm) if t0 < tm < t1 else None
            if lm is None:
                found.update(ks)
                continue
            stack.append(([t0, tm], [l0, lm], [slack(t0, l0, tm, lm)]))
            stack.append(([tm, t1], [lm, l1], [slack(tm, lm, t1, l1)]))
    return _targets(lattice, found)


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
    ks = lattice_indices(
        *lattice,
        (
            max(re_lo - _IMAG_TOL, re_floor),
            min(re_hi + _IMAG_TOL, _MAX_LOG_REAL),
            im_lo - _IMAG_TOL,
            im_hi + _IMAG_TOL,
        ),
    )
    return _targets(lattice, ks) if len(ks) <= _SPLIT_INDICES else None


def _target_lattice(sol: CanonicalSolution) -> tuple[complex, complex] | None:
    """(lam_0, step): the targets are lam_0 + k*step, with
    lam_0 = -log1p(delta/dp)/delta (-1/dp at delta = 0) and
    step = -2*pi*i/delta (0 at delta = 0); None when there is none.  dm and
    dp are taken times y1(0), as D has them: a and a - delta*y1(0)."""
    y10, a, _, neg_delta = sol._consts
    dp = a + neg_delta * y10
    if not (y10 and a and dp and a / dp):
        return None
    if not neg_delta:
        return -y10 / dp, 0j
    ratio = -neg_delta * y10 / dp  # dm/dp - 1, which dm/dp itself would round where small
    log_w = log1p(ratio) if abs(ratio) < 0.5 else cmath.log(a / dp)
    return log_w / neg_delta, _TWO_PI * 1j / neg_delta


def lattice_indices(origin: complex, step: complex, box: tuple) -> range:
    """The indices k whose point origin + k*step lies in the box (re_lo,
    re_hi, im_lo, im_hi), rounded inward: each side bounds k directly.
    range(1) stands for the single point when step = 0.  Both flows turn a
    box into branch indices here: the log targets of the denominator and the
    branch times of the lift (``extensions._warp_times``)."""
    a, b = origin, step
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


def _targets(lattice: tuple[complex, complex], ks: Iterable[int]) -> list[complex]:
    """The targets of the indices ``ks`` of ``lattice_indices``."""
    a, b = lattice
    return [a + k * b for k in ks]


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

    Reports the pole of y1 (of y2 when y1(0) = 0) when it falls on the real
    axis, and every real zero of the denominator D, except zeros inside a
    reported pole's sing_tol band (|1 - y1(0) t| < sing_tol/e), which are
    reported as the pole.

    For real t the logarithm of s = 1 - y1(0)*t is principal.  The segment
    s(t), t in [0, t_max], is cut where |s| is least and, around a reported
    pole, where it enters the band; each piece has monotone |s| and arg s, so
    its log image lies in the box of its end values.  A target lam found
    there gives the candidate time -expm1(lam)/y1(0).
    """
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    y1 = sol.y10
    if not y1:  # the pole of y2 is the only singular point
        return real_times([1.0 / sol.y20] if sol.y20 else [], t_max)
    candidates = [1.0 / y1]

    def log_line(t: float) -> complex | None:  # principal, as on any straight path from s = 1
        s = 1.0 - y1 * t
        return cmath.log(s) if s else None

    t_foot = y1.real / abs(y1) / abs(y1)  # where |s| is least; the pole if y1(0) is real
    pieces = [(0.0, t_max)]
    re_floor = -math.inf
    gap = (tol.sing_tol / math.e) ** 2 - abs(1.0 - y1 * t_foot) ** 2
    if gap > 0 and real_times(candidates, t_max):
        half = math.sqrt(gap) / abs(y1)
        pieces = [(0.0, min(t_foot - half, t_max)), (t_foot + half, t_max)]
        re_floor = math.log(tol.sing_tol) - 1.0
    for lo, hi in pieces:
        if not lo < hi:
            continue
        taus = [lo, t_foot, hi] if lo < t_foot < hi else [lo, hi]
        logs = [log_line(t) for t in taus]  # s != 0: the pole's band is cut out
        for lam in denominator_log_targets(sol, log_line, taus, logs, 0.0, re_floor):
            if abs(lam.imag) <= math.pi + _IMAG_TOL:  # principal branch only
                candidates.append(-expm1(lam) / y1)
    return real_times(candidates, t_max)
