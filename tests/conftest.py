"""Shared fixtures: the three reference solvable systems and seeded samplers."""

from __future__ import annotations

import random
import time

import pytest

from quadode import CanonicalParams, QuadraticSystem, forward_map, linear_change_from_b
from quadode.cli import sample_solvable_parameters as sample_decomposition_data
from quadode.cli import unit_disc

# Reference solvable systems used throughout the suite (exact rational data).
EXAMPLE1 = QuadraticSystem(((7 / 3, 2, 3), (-1, -2, -3)))
EXAMPLE2 = QuadraticSystem(((1, 1, 1), (1 / 8, 2, -1)))
EXAMPLE3 = QuadraticSystem(
    ((-19 / 169, -265 / 507, 110 / 1521), (-27 / 169, -1 / 169, -36 / 169))
)

ALL_EXAMPLES = (EXAMPLE1, EXAMPLE2, EXAMPLE3)


def sample_gauge_decomposition_data(rng: random.Random):
    """Like sample_decomposition_data, but with b11 fixed to 0 or 1.

    The inversion cannot distinguish decompositions related by a shear of the
    canonical variables (y1, y2) -> (y1, s*y1 + y2); it always returns the
    two family representatives with b11 = 0 and b11 = 1.  Generators drawn
    from that section are recovered verbatim.
    """
    rho = CanonicalParams(unit_disc(rng), unit_disc(rng))
    while True:
        b11 = complex(rng.choice((0.0, 1.0)))
        b = ((b11, unit_disc(rng)), (unit_disc(rng), unit_disc(rng)))
        if abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) >= 0.1:
            return rho, b


def sample_solvable_system(rng: random.Random):
    """A random solvable system together with its generating (rho, b)."""
    rho, b = sample_decomposition_data(rng)
    return forward_map(rho, linear_change_from_b(b)), rho, b


@pytest.fixture(scope="session")
def example1():
    return EXAMPLE1


@pytest.fixture(scope="session")
def example2():
    return EXAMPLE2


@pytest.fixture(scope="session")
def example3():
    return EXAMPLE3


_SESSION_START = time.perf_counter()


def session_elapsed() -> float:
    return time.perf_counter() - _SESSION_START


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"total suite wall time: {session_elapsed():.2f}s (target < 30s)"
    )
