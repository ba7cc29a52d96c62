"""Constraint gate and recovery of the decomposition data."""

import cmath
import math
import random

import pytest

from quadode import (
    CanonicalParams,
    DegenerateInversionError,
    InternalConsistencyError,
    NonInvertibleChangeError,
    NotSolvableError,
    QuadOdeError,
    QuadraticSystem,
    alpha_from_change,
    constraint_residuals,
    decompose,
    forward_map,
    linear_change_from_b,
)
from quadode import inversion
from quadode.numerics import DEFAULT_TOLERANCES
import inversion_reference as reference
from conftest import (
    ALL_EXAMPLES,
    EXAMPLE1,
    EXAMPLE2,
    EXAMPLE3,
    sample_decomposition_data,
    sample_gauge_decomposition_data,
    unit_disc,
)


def close(z, w, tol=1e-12):
    return abs(z - w) <= tol * max(1.0, abs(w))


def perturbed(sys, n, l, amount=0.1):
    rows = [list(r) for r in sys.c]
    rows[n][l] += amount
    return QuadraticSystem((tuple(rows[0]), tuple(rows[1])))


def branch_tuples(result):
    """(b11, b21, rho1, rho2) per branch, as a set keyed by rounded values."""
    out = {}
    for dec in result.branches:
        out[dec.branch] = (dec.b[0][0], dec.b[1][0], dec.rho.rho1, dec.rho.rho2)
    return out


class TestConstraints:
    @pytest.mark.parametrize("sys", ALL_EXAMPLES, ids=["ex1", "ex2", "ex3"])
    def test_reference_systems_satisfy(self, sys):
        res = constraint_residuals(sys)
        assert res.satisfied
        assert res.rel1 <= 1e-12 and res.rel2 <= 1e-12

    def test_perturbation_violates(self):
        res = constraint_residuals(perturbed(EXAMPLE1, 0, 0))
        assert not res.satisfied

    @pytest.mark.parametrize("n,l", [(n, l) for n in range(2) for l in range(3)])
    def test_all_single_coefficient_perturbations_violate(self, n, l):
        assert not constraint_residuals(perturbed(EXAMPLE1, n, l)).satisfied


class TestBeta:
    def test_reference_values(self):
        for sys, want in ((EXAMPLE2, 2.0), (EXAMPLE1, -3.0), (EXAMPLE3, 5 / 3)):
            for dec in decompose(sys).branches:
                assert close(dec.beta, want, tol=1e-13)

    def test_canonical_form_gives_zero(self):
        sys = QuadraticSystem(((1, 0, 0), (0.25, 0.5, 1)))
        for dec in decompose(sys).branches:
            assert dec.beta == 0

    def test_indeterminate(self):
        # the invariant line is the x1 axis: b22 = 0 and the slope
        # b12/b22 is reported as None
        sys = QuadraticSystem(((1, 0, 1), (0, 0, 1)))
        for dec in decompose(sys).branches:
            assert dec.beta is None


class TestDecomposeGolden:
    def test_first_reference(self):
        result = decompose(EXAMPLE1)
        for dec in result.branches:
            assert close(dec.beta, -3.0)
            assert close(dec.b[0][1], 0.5)  # b12
            assert close(dec.b[1][1], -1 / 6)  # b22
            assert close(dec.delta**2, -5.0)
        tuples = branch_tuples(result)
        assert all(close(g, w) for g, w in zip(tuples["minus"], (0.0, -0.5, 1.5, 0.0)))
        assert all(close(g, w) for g, w in zip(tuples["plus"], (1.0, -5 / 6, 3.5, 4.0)))

    def test_second_reference(self):
        result = decompose(EXAMPLE2)
        for dec in result.branches:
            assert close(dec.b[0][1], 4 / 7)
            assert close(dec.b[1][1], 2 / 7)
            assert close(dec.delta**2, 7 / 3)
        tuples = branch_tuples(result)
        assert all(close(g, w) for g, w in zip(tuples["plus"], (0.0, -2 / 3, 7 / 9, -4 / 3)))
        assert all(
            close(g, w) for g, w in zip(tuples["minus"], (1.0, -1 / 6, -35 / 144, 13 / 6))
        )

    def test_third_reference(self):
        result = decompose(EXAMPLE3)
        for dec in result.branches:
            assert close(dec.beta, 5 / 3)
            assert close(dec.b[0][1], -2.5)
            assert close(dec.b[1][1], -1.5)
            assert close(dec.delta, 1.5)
        tuples = branch_tuples(result)
        assert all(
            close(g, w) for g, w in zip(tuples["plus"], (0.0, -3.9, -11 / 25, 17 / 10))
        )
        assert all(
            close(g, w) for g, w in zip(tuples["minus"], (1.0, -3.3, -14 / 25, 9 / 10))
        )

    def test_diagnostics_on_references(self):
        for sys in ALL_EXAMPLES:
            diag = decompose(sys).diagnostics
            assert diag.line_residual <= 1e-12
            assert diag.roundtrip_deviation <= 1e-12
            # alpha, which only check reports, is built by check alone
            assert not hasattr(diag, "alpha")

    def test_not_solvable_raises_with_residuals(self):
        with pytest.raises(NotSolvableError) as excinfo:
            decompose(perturbed(EXAMPLE1, 1, 2))
        assert excinfo.value.residuals is not None
        assert not excinfo.value.residuals.satisfied

    def test_branch_labels_deterministic(self):
        a = decompose(EXAMPLE2)
        b = decompose(EXAMPLE2)
        assert a.plus.b == b.plus.b
        # plus carries the lexicographically first b21 root
        first, second = a.plus.b[1][0], a.minus.b[1][0]
        assert (first.real, first.imag) <= (second.real, second.imag)

    def test_canonical_form_passthrough(self):
        sys = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        result = decompose(sys)
        for dec in result.branches:
            assert dec.b == ((1, 0), (0, 1))
            assert close(dec.rho.rho1, 1.0)
            assert close(dec.rho.rho2, 3.0)

    def test_constraint_satisfying_but_indeterminate(self):
        # both constraint polynomials vanish identically, yet the invariant
        # line (the x1 axis) carries no flow: no canonical form, reported
        # as degenerate, not unsolvable
        sys = QuadraticSystem(((0, 2, 0), (0, 0, 1)))
        assert constraint_residuals(sys).satisfied
        with pytest.raises(DegenerateInversionError) as excinfo:
            decompose(sys)
        assert excinfo.value.formula == "l(v)"
        assert not isinstance(excinfo.value, NotSolvableError)

    @pytest.mark.parametrize(
        "coefficients, formula",
        [(((0, 0, 0), (0, 0, 0)), "Q"), (((0, 0, 0), (1, 0, 1)), "L(Q(e))")],
        ids=["zero", "y1-frozen"],
    )
    def test_systems_without_canonical_form(self, coefficients, formula):
        sys = QuadraticSystem(coefficients)
        assert constraint_residuals(sys).satisfied
        with pytest.raises(DegenerateInversionError) as excinfo:
            decompose(sys)
        assert excinfo.value.formula == formula

    def test_b22_zero_system_decomposes(self):
        # formerly 0/0 in the slope b12/b22; the invariant line is the x1 axis
        sys = QuadraticSystem(((1, 0, 1), (0, 0, 1)))
        result = decompose(sys)
        assert branch_tuples(result) == {
            "plus": (0, 1, 1, 0),
            "minus": (1, 1, 1, 2),
        }
        for dec in result.branches:
            assert dec.b[0][1] == 1 and dec.b[1][1] == 0


class TestRandomizedProperties:
    def test_shear_invariants_recovered_for_any_generator(self):
        # beta, b12, b22 do not depend on which member of the shear family of
        # decompositions generated the system; they are always recovered.
        rng = random.Random(101)
        for _ in range(100):
            rho, b = sample_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            result = decompose(sys)
            (b11, b12), (b21, b22) = b
            beta_ref = b12 / b22
            for dec in result.branches:
                assert abs(dec.beta - beta_ref) <= 1e-9 * (1 + abs(beta_ref))
                assert abs(dec.b[0][1] - b12) <= 1e-9 * (1 + abs(b12))
                assert abs(dec.b[1][1] - b22) <= 1e-9 * (1 + abs(b22))

    def test_branches_are_gauge_representatives(self):
        # The two branches are the b11 = 0 and b11 = 1 members of the shear
        # family; the generating decomposition is shear-equivalent to them.
        rng = random.Random(101)
        for _ in range(100):
            rho, b = sample_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            result = decompose(sys)
            values = sorted((dec.b[0][0] for dec in result.branches), key=abs)
            assert abs(values[0]) <= 1e-9
            assert abs(values[1] - 1) <= 1e-9
            (g11, g12), (g21, g22) = b
            dec = result.plus
            shear_from_11 = (g11 - dec.b[0][0]) / g12
            shear_from_21 = (g21 - dec.b[1][0]) / g22
            assert abs(shear_from_11 - shear_from_21) <= 1e-9 * (1 + abs(shear_from_11))

    def test_forward_backward_consistency_on_gauge_section(self):
        # Generators with b11 in {0, 1} are recovered verbatim by one branch.
        rng = random.Random(111)
        for _ in range(100):
            rho, b = sample_gauge_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            result = decompose(sys)
            (b11, b12), (b21, b22) = b
            matches = [
                dec
                for dec in result.branches
                if abs(dec.b[1][0] - b21) <= 1e-8 * (1 + abs(b21))
            ]
            assert matches, "neither branch recovered the generating b21"
            dec = matches[0]
            assert abs(dec.b[0][0] - b11) <= 1e-8 * (1 + abs(b11))
            assert abs(dec.rho.rho1 - rho.rho1) <= 1e-8 * (1 + abs(rho.rho1))
            assert abs(dec.rho.rho2 - rho.rho2) <= 1e-8 * (1 + abs(rho.rho2))

    def test_line_and_roundtrip_residuals_vanish(self):
        rng = random.Random(202)
        for _ in range(100):
            rho, b = sample_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            diag = decompose(sys).diagnostics
            assert diag.line_residual <= 1e-9
            assert diag.roundtrip_deviation <= 1e-9

    def test_branch_deltas_agree_up_to_sign(self):
        # Equal delta**2 across branches; within a branch, negating delta only
        # swaps the two ratio fixed points (the set is sign-invariant).
        rng = random.Random(303)
        for _ in range(60):
            rho, b = sample_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            result = decompose(sys)
            d1, d2 = result.plus.delta, result.minus.delta
            assert abs(d1**2 - d2**2) <= 1e-8 * (1 + abs(d1) ** 2)
            for dec, d in ((result.plus, d1), (result.minus, d2)):
                u_plus = (1 - dec.rho.rho2 + d) / 2
                u_minus = (1 - dec.rho.rho2 - d) / 2
                u_plus_flip = (1 - dec.rho.rho2 - d) / 2
                u_minus_flip = (1 - dec.rho.rho2 + d) / 2
                assert {u_plus, u_minus} == {u_plus_flip, u_minus_flip}

    def test_beta_satisfies_both_ratio_quadratics(self):
        rng = random.Random(404)
        for _ in range(60):
            rho, b = sample_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            beta = decompose(sys).plus.beta
            c = sys
            r_a = 2 * c.c21 * beta**2 + (c.c22 - 2 * c.c11) * beta - c.c12
            s_a = (
                2 * abs(c.c21) * abs(beta) ** 2
                + (abs(c.c22) + 2 * abs(c.c11)) * abs(beta)
                + abs(c.c12)
            )
            r_b = c.c22 * beta**2 - (c.c12 - 2 * c.c23) * beta - 2 * c.c13
            s_b = (
                abs(c.c22) * abs(beta) ** 2
                + (abs(c.c12) + 2 * abs(c.c23)) * abs(beta)
                + 2 * abs(c.c13)
            )
            assert abs(r_a) <= 1e-10 * max(s_a, 1e-30)
            assert abs(r_b) <= 1e-10 * max(s_b, 1e-30)

    def test_alpha_consistency(self):
        # Pulled coefficient rows must match their closed forms in b and rho.
        rng = random.Random(505)
        for _ in range(60):
            rho, b = sample_decomposition_data(rng)
            sys = forward_map(rho, linear_change_from_b(b))
            result = decompose(sys)
            for dec in result.branches:
                ch = linear_change_from_b(dec.b)
                alpha = alpha_from_change(sys, ch)
                (b11, b12), (b21, b22) = dec.b
                bb = ch.det_b * ch.det_b
                r1, r2 = dec.rho.rho1, dec.rho.rho2
                expected = (
                    (b22 * b22 / bb, -2 * b12 * b22 / bb, b12 * b12 / bb),
                    (
                        (b21 * b21 + b22 * b22 * r1 - b21 * b22 * r2) / bb,
                        -(2 * b11 * b21 + 2 * b12 * b22 * r1 - (b11 * b22 + b12 * b21) * r2) / bb,
                        (b11 * b11 + b12 * b12 * r1 - b11 * b12 * r2) / bb,
                    ),
                )
                for n in range(2):
                    for l in range(3):
                        want = expected[n][l]
                        assert abs(alpha[n][l] - want) <= 1e-9 * (1 + abs(want))


def rho_for_delta(delta, rho2):
    return CanonicalParams(((1 - rho2) ** 2 - delta * delta) / 4, rho2)


def _phase(rng):
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _real_b(rng):
    return ((rng.uniform(-1, 1), rng.uniform(-1, 1)), (rng.uniform(-1, 1), rng.uniform(-1, 1)))


def _disc_b(rng):
    return ((unit_disc(rng), unit_disc(rng)), (unit_disc(rng), unit_disc(rng)))


# The strata on which the former beta -> b22 -> b21 -> b11 chain failed.
# Each draws (rho, b); b is redrawn until |det b| >= 0.1.
STRATA = {
    "b22_zero": lambda rng: (
        CanonicalParams(unit_disc(rng), unit_disc(rng)),
        ((unit_disc(rng), unit_disc(rng)), (unit_disc(rng), 0j)),
    ),
    "b22_1e-8": lambda rng: (
        CanonicalParams(unit_disc(rng), unit_disc(rng)),
        ((unit_disc(rng), unit_disc(rng)), (unit_disc(rng), 1e-8 * _phase(rng))),
    ),
    "b21_rho1_zero": lambda rng: (
        CanonicalParams(0j, unit_disc(rng)),
        ((unit_disc(rng), unit_disc(rng)), (0j, unit_disc(rng))),
    ),
    "delta_one_rho_zero": lambda rng: (CanonicalParams(0j, 0j), _disc_b(rng)),
    "delta_one": lambda rng: (rho_for_delta(1.0, unit_disc(rng)), _disc_b(rng)),
    "delta_near_one_real": lambda rng: (
        rho_for_delta(1.0 + 1e-8, rng.uniform(-1, 1)),
        _real_b(rng),
    ),
    "delta_near_one_complex": lambda rng: (
        rho_for_delta(1.0 + 1e-8, unit_disc(rng)),
        _disc_b(rng),
    ),
}

# The fixed fault inputs (rho, b) of the benchmark (bench/workloads.py: FAULTS).
FAULT_INPUTS = {
    "delta_one-0": (CanonicalParams(0j, 0j), ((0.6, 0.3), (-0.2, 0.7))),
    "delta_one-1": (rho_for_delta(1.0, 0.3 + 0.4j), ((0.1 - 0.5j, 0.4), (0.7j, -0.6 + 0.2j))),
    "delta_one-2": (rho_for_delta(1.0, -0.5), ((-0.3, 0.8), (0.5, 0.4))),
    "b22_zero-0": (CanonicalParams(0.3 - 0.2j, 0.5j), ((0.4, 0.7), (-0.5 + 0.3j, 0j))),
    "b22_zero-1": (CanonicalParams(-0.4, 0.2), ((0.9, -0.3), (0.6, 0j))),
    "b22_zero-2": (CanonicalParams(0.1j, -0.7 + 0.1j), ((0.2j, 0.5 - 0.5j), (0.8, 0j))),
    "b21_zero_rho1_zero-0": (CanonicalParams(0j, 0.4 + 0.3j), ((0.5, 0.6), (0j, 0.7 - 0.2j))),
    "b21_zero_rho1_zero-1": (CanonicalParams(0j, -0.6), ((0.8, -0.4), (0j, 0.5))),
    "b21_zero_rho1_zero-2": (CanonicalParams(0j, 0.2j), ((-0.3 + 0.6j, 0.4j), (0j, 0.9))),
    "near_hole_real-0": (rho_for_delta(1.001, 0.5), ((-0.3, -0.56), (-0.71, -0.03))),
    "near_hole_real-1": (rho_for_delta(1.001, -0.28), ((0.45, -0.72), (0.45, -0.01))),
    "near_hole_real-2": (rho_for_delta(1.001, 0.71), ((-0.9, -0.91), (0.7, -0.02))),
}


def assert_recovers_delta(rho, b):
    want = (1 - rho.rho2) ** 2 - 4 * rho.rho1
    result = decompose(forward_map(rho, linear_change_from_b(b)))
    for dec in result.branches:
        assert abs(dec.delta**2 - want) <= 1e-9 * abs(want)


class TestHoleStrata:
    @pytest.mark.parametrize("stratum", sorted(STRATA))
    def test_stratum_decomposes(self, stratum):
        rng = random.Random(f"strata/{stratum}")
        for _ in range(25):
            while True:
                rho, b = STRATA[stratum](rng)
                if abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) >= 0.1:
                    break
            assert_recovers_delta(rho, b)

    @pytest.mark.parametrize("name", sorted(FAULT_INPUTS))
    def test_benchmark_fault_input_decomposes(self, name):
        assert_recovers_delta(*FAULT_INPUTS[name])

    @pytest.mark.xfail(
        strict=True,
        raises=InternalConsistencyError,
        reason="gauge hole near b12 = 0: reaching b11 in {0, 1} takes a shear of "
        "about 1/b12 (CHANGES.md, FOUND line on |b12/b22|)",
    )
    def test_small_b12_over_b22(self):
        b22 = 0.8 - 0.1j
        assert_recovers_delta(
            CanonicalParams(0.3 - 0.2j, 0.5j), ((0.6, 1e-4 * b22), (-0.4 + 0.3j, b22))
        )

    @pytest.mark.xfail(
        strict=True,
        raises=InternalConsistencyError,
        reason="large coefficients reach the b12 = 0 gauge hole: the b11 = 1 branch "
        "shears by about 1/|b12| and rho1 grows like the scale squared "
        "(CHANGES.md, FOUND line on large coefficients)",
    )
    def test_large_coefficients(self):
        # b / 1e4 gives coefficients of about 3e4 (median of 300 draws)
        rng = random.Random(7)
        for _ in range(25):
            rho, b = sample_decomposition_data(rng)
            assert_recovers_delta(rho, tuple(tuple(v / 1e4 for v in row) for row in b))


def scaled_system(sys, factor):
    return QuadraticSystem(tuple(tuple(v * factor for v in row) for row in sys.c))


class TestExtremeScales:
    """Coefficients far from 1 decompose, or fail with a typed error."""

    @pytest.mark.parametrize("size", [1e150, 1e154])
    def test_tiny_coefficients_decompose(self, size):
        # |b| ~ size gives coefficients ~ 1/size: at the parent 1e150 raised a
        # bare OverflowError (norm**1.5) and 1e154 a ZeroDivisionError
        rho = CanonicalParams(0.3 + 0.1j, -0.4 + 0.2j)
        rng = random.Random(f"tiny/{size}")
        checked = 0
        for _ in range(10):
            b = tuple(tuple(size * unit_disc(rng) for _ in range(2)) for _ in range(2))
            if abs(b[0][0] * b[1][1] - b[0][1] * b[1][0]) < 0.1 * size * size:
                continue
            result = decompose(forward_map(rho, linear_change_from_b(b)))
            assert result.diagnostics.roundtrip_deviation <= 1e-9
            assert_recovers_delta(rho, b)
            checked += 1
        assert checked >= 5

    def test_power_of_two_scaling_is_exact(self):
        # outside 2**-100 .. 2**100 decompose scales by a power of two: the
        # b11 = 0 member keeps every digit of rho and its b moves by exactly
        # the inverse power; the other branch keeps b11 = 1 of its own input
        for sys in ALL_EXAMPLES:
            want = next(d for d in decompose(sys).branches if d.b[0][0] == 0)
            for exponent in (-480, -300, -101):
                result = decompose(scaled_system(sys, 2.0**exponent))
                got = next(d for d in result.branches if d.b[0][0] == 0)
                assert got.rho == want.rho and got.delta == want.delta
                assert got.b == tuple(tuple(v * 2.0**-exponent for v in row) for row in want.b)
                assert got.change.a == tuple(
                    tuple(v * 2.0**exponent for v in row) for row in want.change.a
                )
                assert {d.b[0][0] for d in result.branches} == {0, 1}
                assert result.diagnostics.roundtrip_deviation <= 1e-12

    def test_beyond_the_determinant_range(self):
        # coefficients ~1e-200 would need det b ~ 1e400
        with pytest.raises(NonInvertibleChangeError):
            decompose(scaled_system(EXAMPLE1, 1e-200))

    @pytest.mark.parametrize("factor", [1e-200, 1e100, 1e300])
    def test_unsolvable_stays_unsolvable(self, factor):
        with pytest.raises(NotSolvableError):
            decompose(scaled_system(perturbed(EXAMPLE1, 0, 1), factor))

    def test_large_coefficients_pass_the_constraints(self):
        # |b| ~ 1e-100: the quintic constraints would overflow to NaN on the
        # coefficients themselves; judged on the system scaled by a power of
        # two they hold, and the b11 = 1 gauge hole of large coefficients
        # answers, with a typed error
        rho = CanonicalParams(0.3 + 0.1j, -0.4 + 0.2j)
        b = ((0.6e-100, -0.3e-100 + 0.2e-100j), (0.1e-100 + 0.5e-100j, 0.8e-100))
        sys = forward_map(rho, linear_change_from_b(b))
        res = constraint_residuals(sys)
        assert res.satisfied
        assert all(math.isfinite(v) for v in (abs(res.r1), abs(res.r2), res.scale1, res.scale2))
        with pytest.raises((NonInvertibleChangeError, InternalConsistencyError)):
            decompose(sys)


class TestRoundTripCheck:
    def test_nan_rebuild_raises(self, monkeypatch):
        # max() drops a NaN that is not its first argument; the round trip
        # must not take a NaN coefficient for a match
        rebuild = inversion.forward_rows

        def with_nan(rho, change):
            rows = rebuild(rho, change)
            return (rows[0], (rows[1][0], math.nan * 1j, rows[1][2]))

        monkeypatch.setattr(inversion, "forward_rows", with_nan)
        with pytest.raises(InternalConsistencyError) as excinfo:
            decompose(EXAMPLE1)
        assert math.isnan(excinfo.value.diagnostics.roundtrip_deviation)


def outcome(fn, *args):
    """repr of what fn returns, or the class, message and attributes of the
    domain error it raises."""
    try:
        return repr(fn(*args))
    except QuadOdeError as exc:
        return type(exc).__name__, str(exc), repr(vars(exc))


def _pinned_inputs():
    """(rho, b) data whose systems decompose, or fail, along every path."""
    rng = random.Random("pinned/complex")
    data = [sample_decomposition_data(rng) for _ in range(150)]
    rng = random.Random("pinned/real")
    for _ in range(150):
        data.append((CanonicalParams(rng.uniform(-1, 1), rng.uniform(-1, 1)), _real_b(rng)))
    for stratum in sorted(STRATA):
        rng = random.Random(f"strata/{stratum}")
        data += [STRATA[stratum](rng) for _ in range(10)]
    data += list(FAULT_INPUTS.values())
    rng = random.Random("pinned/zero-column")
    for _ in range(10):
        rho = CanonicalParams(unit_disc(rng), unit_disc(rng))
        data.append((rho, ((unit_disc(rng), 0j), (unit_disc(rng), unit_disc(rng)))))  # b12 = 0
        data.append((rho, ((unit_disc(rng), unit_disc(rng)), (unit_disc(rng), 0j))))  # b22 = 0
    # the gauge holes, which fail the round trip
    b22 = 0.8 - 0.1j
    data.append((CanonicalParams(0.3 - 0.2j, 0.5j), ((0.6, 1e-4 * b22), (-0.4 + 0.3j, b22))))
    rng = random.Random(7)
    for _ in range(10):
        rho, b = sample_decomposition_data(rng)
        data.append((rho, tuple(tuple(v / 1e4 for v in row) for row in b)))
    return data


class TestSameBitsAsReference:
    """decompose and forward_map give the reference's bits, and its errors."""

    def systems(self):
        out = []
        for rho, b in _pinned_inputs():
            try:
                ch = linear_change_from_b(b)
            except NonInvertibleChangeError:
                continue
            sys = forward_map(rho, ch)
            out += [sys, scaled_system(sys, 2.0**150), scaled_system(sys, 2.0**-150)]
            out.append(perturbed(sys, len(out) % 2, len(out) % 3, 1e-3))  # not solvable
        out += [QuadraticSystem(((0, 0, 0), (0, 0, 0))), QuadraticSystem(((0, 0, 0), (0, 0, 1)))]
        out += [QuadraticSystem(((0, 1, 0), (0, 0, 1))), *ALL_EXAMPLES]
        return out

    def test_forward_map(self):
        for rho, b in _pinned_inputs():
            try:
                ch = linear_change_from_b(b)
            except NonInvertibleChangeError:
                continue
            assert repr(forward_map(rho, ch)) == repr(reference.forward_map(rho, ch))

    def test_decompose(self):
        kinds = set()
        for sys in self.systems():
            got = outcome(decompose, sys, DEFAULT_TOLERANCES)
            assert got == outcome(reference.decompose, sys, DEFAULT_TOLERANCES)
            kinds.add(got[0] if isinstance(got, tuple) else "InversionResult")
        assert kinds == {
            "InversionResult",
            "NotSolvableError",
            "DegenerateInversionError",
            "InternalConsistencyError",
            "NonInvertibleChangeError",
        }

    def test_constraint_residuals(self):
        for sys in self.systems():
            got = constraint_residuals(sys, DEFAULT_TOLERANCES)
            assert repr(got) == repr(reference.constraint_residuals(sys, DEFAULT_TOLERANCES))
