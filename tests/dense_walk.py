"""A dense chord-by-chord walk along the warped path s(t) = 1 - y1(0)*warp(t),
kept as an independent reference for the closed forms of ``extensions``.

The walk samples ~16 |eta| t waypoints, refines them at midpoints of the
true curve wherever a chord turns too far around the origin, and continues
the logarithm by the principal log of each chord's end ratio.  Its cost grows
with |eta| t; the library takes logarithms in closed form instead.

``per_call_warp_log`` is a reference for evaluation that shares nothing
between calls: a fresh closed form per call, and a pass test over the zeros
of s nearest the real axis within [0, t], found anew for each t.
"""

from __future__ import annotations

import bisect
import cmath
import math

from quadode import SingularPointError, ToleranceConfig, time_warp
from quadode.canonical import denominator_log_targets, real_times, singular_times
from quadode.extensions import _WarpLog, _warp_times
from quadode.numerics import expm1, log1p


def segment_clearance(a: complex, b: complex) -> float:
    """Distance from the segment [a, b] to the origin."""
    d = b - a
    dd = d.real * d.real + d.imag * d.imag
    if dd == 0.0:
        return abs(a)
    t = -(a.real * d.real + a.imag * d.imag) / dd
    t = min(1.0, max(0.0, t))
    return abs(a + t * d)


def log_increment(a: complex, b: complex, sing_tol: float) -> complex:
    """Increment of the logarithm along the chord from a to b.

    A chord avoiding 0 subtends an angle of modulus < pi at the origin, so
    the principal log of the ratio is the exact continuation increment.
    """
    scale = max(abs(a), abs(b))
    if scale == 0.0 or segment_clearance(a, b) <= sing_tol * scale:
        raise SingularPointError(
            "continuation path passes through or within tolerance of 0",
            factor="log path",
        )
    return cmath.log(b / a)


def nearest_zeros_within(first: complex, step: complex, t: float) -> list[float]:
    """Real parts in [0, t] of the points first + m*step, m an integer, that
    lie nearest the real axis; the earliest when all lie equally near."""
    if step.real < 0:
        step = -step
    if step.real != 0:
        lo = math.ceil(-first.real / step.real)
        hi = math.floor((t - first.real) / step.real)
        if lo > hi:
            return []
    elif 0 <= first.real <= t:
        lo, hi = -math.inf, math.inf
    else:
        return []
    m0 = min(max(-first.imag / step.imag, lo), hi) if step.imag != 0 else lo
    ms = {min(max(m, lo), hi) for m in (math.floor(m0), math.ceil(m0))}
    return [(first + m * step).real for m in ms]


def per_call_warp_log(y10: complex, eta: complex, t: float, sing_tol: float):
    """s(t) and log s(t) from a form built for this call; raises
    SingularPointError, with the time of the pass, when s came within the
    pole test of 0 at a zero nearest the real axis in (0, t)."""
    form = _WarpLog(y10, eta)
    if eta == 0:
        passes = [(1.0 / y10).real]
    elif form.c != 0:
        passes = nearest_zeros_within(log1p(eta / y10) / eta, 2j * math.pi / eta, t)
    else:
        passes = []
    for tau in sorted(passes):
        w = y10 * time_warp(eta, tau)
        if 0 < tau < t and abs(1.0 - w) <= sing_tol * (1.0 + abs(w)):
            raise SingularPointError("warped path passed the pole", factor="1 - y1(0) t", t=tau)
    return 1.0 - y10 * time_warp(eta, t), form(t)


def needs_split(a: complex, b: complex) -> bool:
    """Whether the chord subtends more than ~pi/4 at the origin or moves far
    radially."""
    if a == 0 or b == 0:
        return False  # let log_increment raise
    ratio = b / a
    return ratio.real <= 0.0 or abs(ratio.imag) > ratio.real or abs(ratio - 1.0) > 0.75


def dense_warp_path(y10: complex, eta: complex, t: float) -> tuple[list[float], list[complex]]:
    """Parameters tau in [0, t] and waypoints 1 - y10*warp(tau): 16 |eta| t
    of them (at least 8), refined in up to 24 passes."""
    n = max(8, int(math.ceil(16.0 * abs(eta) * abs(t))))
    taus = [t * j / n for j in range(n + 1)]
    points = [1.0 - y10 * time_warp(eta, tau) for tau in taus]
    for _ in range(24):
        new_taus: list[float] = []
        refined = False
        for j in range(len(points) - 1):
            new_taus.append(taus[j])
            if needs_split(points[j], points[j + 1]):
                new_taus.append(0.5 * (taus[j] + taus[j + 1]))
                refined = True
        new_taus.append(taus[-1])
        if not refined:
            break
        taus = new_taus
        points = [1.0 - y10 * time_warp(eta, tau) for tau in taus]
    return taus, points


def walked_log(y10: complex, eta: complex, t: float, sing_tol: float = 1e-9):
    """s(t) and log s(t), continued chord by chord along the dense walk."""
    path = dense_warp_path(y10, eta, t)[1]
    return path[-1], sum((log_increment(a, b, sing_tol) for a, b in zip(path, path[1:])), 0j)


def walked_singular_times(sol, eta: complex, t_max: float, tol: ToleranceConfig) -> list[float]:
    """The lifted flow's singular times with the log targets bounded by the
    dense walk: the walk stops where a chord meets a pole and is followed into
    the pole's band; candidates are confirmed by the closed form, as in
    ``extensions.lifted_singular_times``."""
    if abs(eta) * t_max <= 1e-8:
        return singular_times(sol, t_max, tol)
    pole_base = sol.y10 if sol.y10 else sol.y20
    candidates = _warp_times(eta / pole_base, eta, t_max) if pole_base != 0 else []
    if not sol.y10:
        return real_times(candidates, t_max)

    def curve(tau: float) -> complex:
        return 1.0 - sol.y10 * time_warp(eta, tau)

    walk_taus, path = dense_warp_path(sol.y10, eta, t_max)
    logs = [0j]
    for a, b in zip(path, path[1:]):
        try:
            logs.append(logs[-1] + log_increment(a, b, tol.sing_tol))
        except SingularPointError:
            break
    taus = walk_taus[: len(logs)]
    poles = real_times(candidates, t_max)
    band = tol.sing_tol / math.e
    if len(logs) < len(path) and poles and poles[0] <= walk_taus[len(logs)]:
        t_band = poles[0] - band / abs(sol.y10 * cmath.exp(eta * poles[0]))
        if t_band > taus[-1]:
            logs.append(logs[-1] + cmath.log(curve(t_band) / path[len(taus) - 1]))
            taus.append(t_band)

    def log_at(tau: float) -> complex | None:
        # the walk's own continuation: one chord on from the nearest earlier waypoint
        j = bisect.bisect_right(taus, tau) - 1
        s = curve(tau)
        return logs[j] + cmath.log(s / curve(taus[j])) if s else None

    def box_of(t0: float, t1: float):
        # the walk's bound: the logs at the ends and at the waypoints between
        # them, widened by the longest chord between them, and the largest
        # chord rate |s_b/s_a - 1|/(t_b - t_a), ordered so that |s_a| <= |s_b|
        j0, j1 = bisect.bisect_right(taus, t0), bisect.bisect_left(taus, t1)
        ends = (log_at(t0), log_at(t1))
        if None in ends:
            return None
        ts, ls = [t0, *taus[j0:j1], t1], [ends[0], *logs[j0:j1], ends[1]]
        longest = rate = 0.0
        for ta, la, tb, lb in zip(ts, ls, ts[1:], ls[1:]):
            d = lb - la if lb.real >= la.real else la - lb
            longest = max(longest, abs(d))
            rate = max(rate, abs(cmath.exp(d) - 1.0) / (tb - ta) if d.real <= 700 else math.inf)
        re, im = [lam.real for lam in ls], [lam.imag for lam in ls]
        return (min(re) - longest, max(re) + longest, min(im) - longest, max(im) + longest), rate

    for lam in denominator_log_targets(sol, [(taus[0], taus[-1])], box_of, math.log(band)):
        for tc in real_times(_warp_times(-eta * expm1(lam) / sol.y10, eta, t_max), t_max):
            try:
                log_val = per_call_warp_log(sol.y10, eta, tc, tol.sing_tol)[1]
            except SingularPointError:
                continue
            if abs(log_val - lam) <= 1e-6 * (1.0 + abs(lam)):
                candidates.append(tc)
    return real_times(candidates, t_max)
