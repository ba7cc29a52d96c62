"""Computations the benchmark makes apart from the program, to check its outputs.

Nothing here imports ``quadode``: the right-hand sides are written from the
formulas, and the integrator is classical Runge-Kutta (RK4) with its step
chosen by step doubling, unlike the program's Dormand-Prince oracle.
"""

from __future__ import annotations

Pair = tuple[complex, complex]


class UnsettledError(Exception):
    """The reference integration needed more steps than its budget."""


def discriminant(rho1: complex, rho2: complex) -> complex:
    """delta**2 = (1 - rho2)**2 - 4*rho1, invariant under the shear gauge."""
    return (1.0 - rho2) ** 2 - 4.0 * rho1


def quadratic_rhs(c):
    """x_n' = c_n1*x1**2 + c_n2*x1*x2 + c_n3*x2**2 for the 2x3 coefficients c."""
    (c11, c12, c13), (c21, c22, c23) = c

    def rhs(x: Pair) -> Pair:
        x1, x2 = x
        q1, q2, q3 = x1 * x1, x1 * x2, x2 * x2
        return (c11 * q1 + c12 * q2 + c13 * q3, c21 * q1 + c22 * q2 + c23 * q3)

    return rhs


def lifted_rhs(c, eta: complex, zbar: Pair):
    """z' = Q(z - zbar) + eta*(z - zbar), Q the homogeneous quadratic of c."""
    quad = quadratic_rhs(c)
    zb1, zb2 = zbar

    def rhs(z: Pair) -> Pair:
        w = (z[0] - zb1, z[1] - zb2)
        q1, q2 = quad(w)
        return (q1 + eta * w[0], q2 + eta * w[1])

    return rhs


def _rk4_step(rhs, z: Pair, h: float) -> Pair:
    k1 = rhs(z)
    k2 = rhs((z[0] + 0.5 * h * k1[0], z[1] + 0.5 * h * k1[1]))
    k3 = rhs((z[0] + 0.5 * h * k2[0], z[1] + 0.5 * h * k2[1]))
    k4 = rhs((z[0] + h * k3[0], z[1] + h * k3[1]))
    return (
        z[0] + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        z[1] + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
    )


def rel_dev(value: Pair, ref: Pair) -> float:
    """max |value - ref| / (1 + max |ref|), over the two components."""
    diff = max(abs(value[0] - ref[0]), abs(value[1] - ref[1]))
    return diff / (1.0 + max(abs(ref[0]), abs(ref[1])))


def integrate(rhs, z0: Pair, times, tol: float = 1e-13, max_steps: int = 200_000) -> list[Pair]:
    """States at the increasing positive ``times``.

    Classical RK4 with step doubling: a step of size h is accepted when it
    agrees with two steps of h/2 to ``tol`` (relative, as in :func:`rel_dev`),
    and the two half steps, improved by Richardson extrapolation, are kept.
    """
    times = [float(t) for t in times]
    if not times or times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be positive and increasing")
    t, z = 0.0, (complex(z0[0]), complex(z0[1]))
    h = times[-1] / 64.0
    steps = 0
    out = []
    for target in times:
        while t < target:
            steps += 1
            if steps > max_steps or h < 1e-14 * times[-1]:
                raise UnsettledError(f"reference integration did not settle by t = {t}")
            last = h >= target - t
            if last:
                h = target - t
            full = _rk4_step(rhs, z, h)
            half = _rk4_step(rhs, _rk4_step(rhs, z, 0.5 * h), 0.5 * h)
            err = rel_dev(full, half)
            if err <= tol:
                t = target if last else t + h
                z = (half[0] + (half[0] - full[0]) / 15.0, half[1] + (half[1] - full[1]) / 15.0)
            h *= min(2.0, max(0.2, 0.9 * (tol / err) ** 0.2)) if err > 0 else 2.0
        out.append(z)
    return out
