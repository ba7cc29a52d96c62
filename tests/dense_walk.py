"""A dense chord-by-chord walk along the warped path s(t) = 1 - y1(0)*warp(t),
kept as an independent reference for the closed forms of ``extensions``.

The walk samples ~16 |eta| t waypoints, refines them at midpoints of the
true curve wherever a chord turns too far around the origin, and continues
the logarithm by the principal log of each chord's end ratio.  Its cost grows
with |eta| t; the library takes logarithms in closed form instead.
"""

from __future__ import annotations

import cmath
import math

from quadode import SingularPointError, SolutionCase, ToleranceConfig, time_warp
from quadode.canonical import denominator_log_targets, real_times, singular_times
from quadode.extensions import _warp_log, _warp_times


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
    pole_base = sol.y20 if sol.case is SolutionCase.Y1_ZERO else sol.y10
    candidates = _warp_times(1.0 + eta / pole_base, eta, t_max) if pole_base != 0 else []
    if sol.case not in (SolutionCase.GENERIC, SolutionCase.DELTA_ZERO):
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
    for lam in denominator_log_targets(sol, curve, taus, logs, 1.0, math.log(band)):
        warp_value = 1.0 + eta * (1.0 - cmath.exp(lam)) / sol.y10
        for tc in real_times(_warp_times(warp_value, eta, t_max), t_max):
            try:
                log_val = _warp_log(sol.y10, eta, tc, tol.sing_tol)[1]
            except SingularPointError:
                continue
            if abs(log_val - lam) <= 1e-6 * (1.0 + abs(lam)):
                candidates.append(tc)
    return real_times(candidates, t_max)
