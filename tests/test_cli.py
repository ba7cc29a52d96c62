"""Command-line interface: spec I/O, subcommands, exit codes."""

import json
import math
import sys
import time
from dataclasses import replace

import pytest

from quadode import (
    CanonicalParams,
    QuadraticSystem,
    decompose,
    eval_trajectory,
    forward_map,
    linear_change_from_b,
    solve_ivp,
)
from quadode import cli
from quadode.cli import main
from quadode.inversion import alpha_from_change
from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3


def write_spec(path, system, x0=None, lift=None, tolerances=None):
    doc = {"coefficients": [[[v.real, v.imag] for v in row] for row in system.c]}
    if x0 is not None:
        doc["x0"] = [[complex(v).real, complex(v).imag] for v in x0]
    if lift is not None:
        doc["lift"] = lift
    if tolerances is not None:
        doc["tolerances"] = tolerances
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def spec1(tmp_path):
    return str(write_spec(tmp_path / "ex1.json", EXAMPLE1, x0=(1, 1)))


@pytest.fixture
def spec2(tmp_path):
    return str(write_spec(tmp_path / "ex2.json", EXAMPLE2, x0=(1, 1)))


@pytest.fixture
def spec3(tmp_path):
    return str(
        write_spec(
            tmp_path / "ex3.json",
            EXAMPLE3,
            x0=(0.26, -0.13),
            lift={"zbar": [[0.25, 0.0], [-0.1, 0.0]], "eta": [0.0, 1.0]},
        )
    )


class TestCheck:
    def test_reference_system_passes(self, spec1, capsys):
        assert main(["check", spec1]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["constraints"]["satisfied"] is True
        assert len(report["branches"]) == 2
        assert report["diagnostics"]["line_residual"] <= 1e-12
        assert report["diagnostics"]["roundtrip_deviation"] <= 1e-12
        # alpha, the pulled coefficient rows of the plus branch, is built by check
        alpha = alpha_from_change(EXAMPLE1, decompose(EXAMPLE1).plus.change)
        assert report["diagnostics"]["alpha"] == [[[v.real, v.imag] for v in row] for row in alpha]
        betas = {tuple(b["beta"]) for b in report["branches"]}
        assert betas == {(-3.0, 0.0)} or all(abs(b[0] + 3) < 1e-12 for b in betas)

    def test_perturbed_system_fails(self, tmp_path, capsys):
        rows = [list(r) for r in EXAMPLE1.c]
        rows[0][0] += 0.1
        from quadode import QuadraticSystem

        bad = QuadraticSystem((tuple(rows[0]), tuple(rows[1])))
        spec = str(write_spec(tmp_path / "bad.json", bad))
        assert main(["check", spec]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["constraints"]["satisfied"] is False

    def test_truncated_file(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"coefficients": [[[1, 0]')
        assert main(["check", str(broken)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 2

    def test_bad_shape(self, tmp_path):
        doc = tmp_path / "shape.json"
        doc.write_text(json.dumps({"coefficients": [[1, 2, 3], [4, 5, 6]]}))
        assert main(["check", str(doc)]) == 2

    def test_huge_coefficients_report_finite_residuals(self, tmp_path, capsys):
        # coefficients ~1e62: the quintic constraints overflow unless judged
        # on the system scaled by a power of two; the b11 = 1 gauge hole then
        # answers with a typed error in the report
        rho = CanonicalParams(0.3 + 0.1j, -0.4 + 0.2j)
        b = ((0.5e-62, 0.3e-62), (-0.2e-62, 0.7e-62))
        sys = forward_map(rho, linear_change_from_b(b))
        assert sys.max_abs() > 1e61
        assert main(["check", str(write_spec(tmp_path / "huge.json", sys))]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["constraints"]["satisfied"] is True
        assert all(math.isfinite(report["constraints"][k]) for k in ("rel1", "rel2"))
        assert report["error"]["type"] in ("NonInvertibleChangeError", "InternalConsistencyError")


def strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens, which are not JSON."""

    def refuse(token):
        raise ValueError(f"invalid JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Every JSON report on the reference specs is valid JSON."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{spec}"],
            ["solve", "{spec}", "--t-end", "0.3", "--t-step", "0.05", "--format", "doc"],
            ["validate", "{spec}"],
        ],
        ids=["check", "solve-doc", "validate"],
    )
    @pytest.mark.parametrize("fixture", ["spec1", "spec2", "spec3"])
    def test_reports_parse_strictly(self, argv, fixture, request, capsys):
        spec = request.getfixturevalue(fixture)
        assert main([a.format(spec=spec) for a in argv]) == 0
        strict_json(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "argv",
        [["lift"], ["iso", "--verify-period"], ["iso", "--omega", "-1.5", "--verify-period"]],
        ids=["lift", "iso-verify", "iso-verify-negative-omega"],
    )
    def test_lift_reports_parse_strictly(self, argv, spec3, capsys):
        assert main([argv[0], spec3, *argv[1:]]) == 0
        strict_json(capsys.readouterr().out)


class TestNonFiniteFlags:
    """A non-finite time, step or rate on the command line, or one whose use
    overflows, is a usage error that names its flag: one error line, no
    output, exit 2."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve", "{spec}", "--t-end", "1", "--t-step", "inf"], "--t-step"),
            (["solve", "{spec}", "--t-end", "inf", "--t-step", "0.1"], "--t-end"),
            (["solve", "{spec}", "--t-end", "nan", "--t-step", "0.1"], "--t-end"),
            (["iso", "{spec}", "--omega", "nan"], "--omega"),
            (["iso", "{spec}", "--omega", "inf"], "--omega"),
            (["iso", "{spec}", "--omega=-inf", "--verify-period"], "--omega"),
            (["validate", "{spec}", "--t-end", "inf"], "--t-end"),
            (["validate", "{spec}", "--t-end", "nan"], "--t-end"),
            (["solve", "{spec}", "--t-end", "1e300", "--t-step", "1e-10"], "--t-end / --t-step"),
            (["iso", "{spec}", "--omega", "1e-320"], "--omega"),
            (["iso", "{spec}", "--omega", "1e-320", "--verify-period"], "--omega"),
            (["iso", "{spec}", "--omega", "1", "--max-den", "0"], "--max-den"),
        ],
    )
    def test_usage_error(self, argv, flag, spec3, capsys):
        assert main([a.format(spec=spec3) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert flag in lines[0]


class TestSolve:
    def test_csv_rows_match_closed_form(self, spec2, capsys):
        assert main(["solve", spec2, "--t-end", "0.3", "--t-step", "0.05"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "t,re_x1,im_x1,re_x2,im_x2"
        assert len(lines) == 8  # header + 7 rows
        traj = solve_ivp(EXAMPLE2, (1, 1))
        for line in lines[1:]:
            t, re1, im1, re2, im2 = map(float, line.split(","))
            x = eval_trajectory(traj, t)
            assert abs(complex(re1, im1) - x[0]) <= 1e-12 * (1 + abs(x[0]))
            assert abs(complex(re2, im2) - x[1]) <= 1e-12 * (1 + abs(x[1]))

    def test_grid_crossing_pole_skips_rows(self, tmp_path, capsys):
        # canonical decoupled system: poles at t = 0.5 and t = 1
        from quadode import QuadraticSystem

        sys = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        spec = str(write_spec(tmp_path / "canon.json", sys, x0=(1.0, 1.0)))
        assert main(["solve", spec, "--t-end", "2.0", "--t-step", "0.25", "--format", "doc"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["skipped"], "expected at least one skipped grid point"
        assert doc["singular_times"]
        skipped = set(doc["skipped"])
        assert all(
            any(abs(t - ts) < 1e-6 for ts in doc["singular_times"]) for t in skipped
        )

    @pytest.mark.parametrize("sing_tol", [1e-9, 1e-5, 0.05])
    def test_band_skip_with_many_singular_times(self, tmp_path, capsys, sing_tol):
        # canonical rho2 = 0.5, delta = 3000i: 3298 singular times below t = 0.999
        sys = QuadraticSystem(((1, 0, 0), ((0.25 + 3000**2) / 4, 0.5, 1)))
        spec = str(write_spec(tmp_path / "d3000.json", sys, x0=(1, 0.3)))
        argv = ["solve", spec, "--t-end", "0.999", "--t-step", "0.001", "--format", "doc"]
        start = time.perf_counter()
        assert main(argv + ["--sing-tol", str(sing_tol)]) == 0
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        sing = doc["singular_times"]
        assert len(sing) > 3000
        assert len(doc["rows"]) + len(doc["skipped"]) == 1000
        # the linear scan of every singular time for every row
        band = 10 * sing_tol
        grid = [i * 0.001 for i in range(1000)]
        assert doc["skipped"] == [
            t for t in grid if any(abs(t - ts) <= band * max(1.0, abs(ts)) for ts in sing)
        ]
        assert elapsed < 0.5

    @pytest.mark.parametrize("sing_tol", [1e-9, 1e-5, 0.05])
    @pytest.mark.parametrize(
        "c2, x0, count",
        [((1, 3, 1), (1j, 0.3), 0), ((0, 0.5, 1), (2, 0.5), 1)],  # one pole, at 0.5
        ids=["no-time", "one-time"],
    )
    def test_band_skip_is_the_full_scan(self, tmp_path, capsys, c2, x0, count, sing_tol):
        spec = str(write_spec(tmp_path / "s.json", QuadraticSystem(((1, 0, 0), c2)), x0=x0))
        argv = ["solve", spec, "--t-end", "0.999", "--t-step", "0.001", "--format", "doc"]
        assert main(argv + ["--sing-tol", str(sing_tol)]) == 0
        doc = json.loads(capsys.readouterr().out)
        sing = doc["singular_times"]
        assert len(sing) == count
        band = 10 * sing_tol
        grid = [i * 0.001 for i in range(1000)]
        assert doc["skipped"] == [
            t for t in grid if any(abs(t - ts) <= band * max(1.0, abs(ts)) for ts in sing)
        ]
        assert sorted(doc["skipped"] + [row[0] for row in doc["rows"]]) == grid

    @pytest.mark.parametrize(
        "system, x0, t_end, kind",
        [
            (EXAMPLE1, (0, 0), 0.3, "-0.0"),
            (EXAMPLE1, (1e-309, 2e-309), 0.3, "subnormal"),
            (EXAMPLE1, (1e300, -1e300), 3e-301, "1e300"),
            (EXAMPLE2, (1 + 0.5j, -0.3j), 0.2, None),
            (QuadraticSystem(((1, 0, 0), (1, 3, 1))), (1, 1), 2.0, None),  # rows skipped
        ],
    )
    def test_csv_lines_are_the_doc_rows_formatted(self, tmp_path, capsys, system, x0, t_end, kind):
        spec = str(write_spec(tmp_path / "s.json", system, x0=x0))
        argv = ["solve", spec, "--t-end", repr(t_end), "--t-step", repr(t_end / 40)]
        assert main(argv) == 0
        csv = capsys.readouterr().out
        assert main(argv + ["--format", "doc"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        formatted = [",".join(format(v, ".17g") for v in row) for row in rows]
        assert csv == "\n".join(["t,re_x1,im_x1,re_x2,im_x2"] + formatted) + "\n"
        values = [v for row in rows for v in row]
        assert kind != "-0.0" or any(v == 0 and math.copysign(1, v) < 0 for v in values)
        assert kind != "subnormal" or any(0 < abs(v) < sys.float_info.min for v in values)
        assert kind != "1e300" or any(abs(v) > 1e299 for v in values)

    @pytest.mark.parametrize("d", [300, 3000])
    def test_grid_past_the_pole_with_imaginary_delta(self, tmp_path, capsys, d):
        # |s**-delta| leaves the float range past the pole at t = 1
        system = QuadraticSystem(((1, 0, 0), ((0.25 + d**2) / 4, 0.5, 1)))
        spec = str(write_spec(tmp_path / "s.json", system, x0=(1, 0.3)))
        assert main(["solve", spec, "--t-end", "2", "--t-step", "0.25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = [float(v) for line in lines[1:] for v in line.split(",")]
        assert [line.split(",")[0] for line in lines[5:]] == ["1.25", "1.5", "1.75", "2"]
        assert all(math.isfinite(v) for v in values)

    def test_canonical_spec_matches_closed_form(self, tmp_path, capsys):
        from quadode import CanonicalParams, CanonicalState, eval_canonical, solve_canonical
        from quadode import QuadraticSystem

        sys = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        spec = str(write_spec(tmp_path / "canon.json", sys, x0=(0.5, 0.25)))
        assert main(["solve", spec, "--t-end", "0.4", "--t-step", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        sol = solve_canonical(CanonicalParams(1, 3), CanonicalState(0.5, 0.25))
        for line in lines:
            t, re1, im1, re2, im2 = map(float, line.split(","))
            y = eval_canonical(sol, t)
            assert abs(complex(re1, im1) - y.y1) <= 1e-12 * (1 + abs(y.y1))
            assert abs(complex(re2, im2) - y.y2) <= 1e-12 * (1 + abs(y.y2))

    def test_output_file(self, spec2, tmp_path):
        target = tmp_path / "traj.csv"
        assert main(
            ["solve", spec2, "--t-end", "0.1", "--t-step", "0.05", "--output", str(target)]
        ) == 0
        content = target.read_text()
        assert content.startswith("t,re_x1,im_x1,re_x2,im_x2\n")
        assert content.endswith("\n")

    def test_requires_x0(self, tmp_path):
        spec = str(write_spec(tmp_path / "nox0.json", EXAMPLE2))
        assert main(["solve", spec, "--t-end", "0.1", "--t-step", "0.05"]) == 2

    def test_unsolvable_spec_emits_constraint_report(self, tmp_path, capsys):
        from quadode import QuadraticSystem

        rows = [list(r) for r in EXAMPLE1.c]
        rows[1][2] += 0.1
        bad = QuadraticSystem((tuple(rows[0]), tuple(rows[1])))
        spec = str(write_spec(tmp_path / "bad.json", bad, x0=(1, 1)))
        assert main(["solve", spec, "--t-end", "0.1", "--t-step", "0.05"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["constraints"]["satisfied"] is False

    def test_csv_singular_metadata_on_stderr(self, tmp_path, capsys):
        from quadode import QuadraticSystem

        sys = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        spec = str(write_spec(tmp_path / "canon.json", sys, x0=(1.0, 1.0)))
        assert main(["solve", spec, "--t-end", "2.0", "--t-step", "0.3"]) == 0
        captured = capsys.readouterr()
        assert "metadata: singular_time=" in captured.err
        assert captured.out.startswith("t,re_x1,im_x1,re_x2,im_x2\n")


class TestGenerate:
    def test_explicit_parameters_reproduce_reference(self, capsys):
        code = main(
            [
                "generate",
                "--rho1", "1.5", "--rho2", "0",
                "--b11", "0", "--b12", "0.5",
                "--b21", "-0.5", "--b22", "-0.16666666666666666",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        got = [[complex(*v) for v in row] for row in doc["coefficients"]]
        for n in range(2):
            for l in range(3):
                assert abs(got[n][l] - EXAMPLE1.c[n][l]) <= 1e-12 * (1 + abs(EXAMPLE1.c[n][l]))

    def test_seeded_batch_all_pass_check(self, tmp_path, capsys):
        assert main(["generate", "--seed", "42", "--count", "10"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 10
        for i, doc in enumerate(docs):
            spec = tmp_path / f"gen{i}.json"
            spec.write_text(json.dumps(doc))
            assert main(["check", str(spec)]) == 0
            capsys.readouterr()

    def test_round_trip_bit_identical(self, tmp_path, capsys):
        assert main(["generate", "--seed", "7", "--count", "3"]) == 0
        first = capsys.readouterr().out
        docs = json.loads(first)
        spec = tmp_path / "roundtrip.json"
        spec.write_text(json.dumps(docs[0]))
        reparsed = json.loads(spec.read_text())
        assert reparsed["coefficients"] == docs[0]["coefficients"]

    def test_singular_b_rejected(self):
        assert main(
            [
                "generate",
                "--rho1", "0", "--rho2", "0",
                "--b11", "1", "--b12", "2",
                "--b21", "2", "--b22", "4",
            ]
        ) == 1

    def test_incomplete_parameters(self):
        assert main(["generate", "--rho1", "1"]) == 2


class TestValidate:
    @pytest.mark.parametrize("fixture", ["spec1", "spec2", "spec3"])
    def test_reference_systems_pass(self, fixture, request, capsys):
        spec = request.getfixturevalue(fixture)
        assert main(["validate", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["oracle_deviation"] <= 1e-6

    def test_mutated_closed_form_fails(self, spec2, capsys, monkeypatch):
        # a sign-flipped exponent is a wrong closed form that the oracle
        # comparison must flag
        def flipped(*args, **kwargs):
            traj = solve_ivp(*args, **kwargs)
            return replace(traj, canonical=replace(traj.canonical, delta=-traj.canonical.delta))

        monkeypatch.setattr(cli, "solve_ivp", flipped)
        assert main(["validate", spec2]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["oracle_deviation"] > 1e-3

    def test_no_mutate_flag(self, spec2):
        assert main(["validate", spec2, "--mutate"]) == 2

    def test_oracle_overflow_is_an_error_line(self, tmp_path, capsys):
        # the DP5 oracle took NaN steps to "reached_t_end", and validate
        # printed "oracle_deviation": NaN
        canonical = QuadraticSystem(((1, 0, 0), (1, 3, 1)))
        spec = write_spec(tmp_path / "big.json", canonical, x0=(1e200, 1e200))
        assert main(["validate", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the oracle stopped (state_overflow)")

    def test_nan_closed_form_is_an_error_line(self, spec2, capsys, monkeypatch):
        monkeypatch.setattr(cli, "eval_trajectory", lambda traj, t, tol: (complex(math.nan), 0j))
        assert main(["validate", spec2]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: a closed form is not finite at a sample time"]

    def test_unsolvable_spec(self, tmp_path):
        from quadode import QuadraticSystem

        rows = [list(r) for r in EXAMPLE1.c]
        rows[0][1] += 0.1
        bad = QuadraticSystem((tuple(rows[0]), tuple(rows[1])))
        spec = str(write_spec(tmp_path / "bad.json", bad, x0=(1, 1)))
        assert main(["validate", spec]) == 1

    def test_complex_coefficient_workflow(self, tmp_path, capsys):
        # generate (equals-form flags carry complex values with leading
        # minus), re-check, and validate a fully complex system
        assert main(
            [
                "generate",
                "--rho1=0.3-0.6j", "--rho2=-0.1+0.4j",
                "--b11=1", "--b12=0.5+0.2j", "--b21=-0.4j", "--b22=0.8-0.1j",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["x0"] = [[0.5, 0.2], [-0.3, 0.4]]
        spec = tmp_path / "complex.json"
        spec.write_text(json.dumps(doc))
        assert main(["check", str(spec)]) == 0
        capsys.readouterr()
        assert main(["validate", str(spec)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True


class TestLiftAndIso:
    def test_lift_coefficients(self, spec3, capsys):
        assert main(["lift", spec3]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta"] == [0.0, 1.0]
        from quadode import LiftParams, lift

        ref = lift(EXAMPLE3, LiftParams(zbar=(0.25, -0.1), eta=1j))
        got = [[complex(*v) for v in row] for row in doc["d"]]
        for n in range(2):
            for l in range(3):
                assert abs(got[n][l] - ref.d[n][l]) <= 1e-14 * (1 + abs(ref.d[n][l]))

    def test_iso_report_and_period_verification(self, spec3, capsys):
        assert main(["iso", spec3, "--omega", "1", "--verify-period"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["isochronous"] is True
        assert doc["rational"] == [3, 2]
        assert doc["period"] == pytest.approx(4 * math.pi, rel=1e-12)
        assert doc["period_verified"] is True
        assert doc["period_deviation"] <= 1e-6 * 2

    def test_iso_not_isochronous(self, spec2, capsys):
        assert main(["iso", spec2, "--omega", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["isochronous"] is False

    def test_omega_zero_usage_error(self, spec3):
        assert main(["iso", spec3, "--omega", "0"]) == 2

    def test_omega_defaults_to_lift_eta(self, spec3, capsys):
        assert main(["iso", spec3]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["omega"] == 1.0

    def test_max_den_caps_denominator(self, spec3, capsys):
        # the exponent 3/2 needs denominator 2; a cap of 1 rejects it
        assert main(["iso", spec3, "--omega", "1", "--max-den", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["isochronous"] is False

    def test_lift_requires_block(self, spec1):
        assert main(["lift", spec1]) == 2


class TestToleranceOverrides:
    def test_document_override_accepted(self, tmp_path, capsys):
        spec = str(
            write_spec(
                tmp_path / "tol.json",
                EXAMPLE1,
                x0=(1, 1),
                tolerances={"oracle_tol": 1e-4},
            )
        )
        assert main(["validate", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_tol"] == 1e-4

    def test_flag_override_wins_over_document(self, tmp_path, capsys):
        spec = str(
            write_spec(
                tmp_path / "tol.json",
                EXAMPLE1,
                x0=(1, 1),
                tolerances={"oracle_tol": 1e-4},
            )
        )
        assert main(["validate", spec, "--oracle-tol", "1e-5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_tol"] == 1e-5

    def test_bad_document_override_rejected(self, tmp_path):
        spec = str(
            write_spec(
                tmp_path / "tol.json", EXAMPLE1, x0=(1, 1), tolerances={"eq_tol": -1.0}
            )
        )
        assert main(["check", spec]) == 2

    def test_bad_flag_override_rejected(self, spec1):
        assert main(["check", spec1, "--eq-tol", "-1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "--sing-tol", "1e-8"],
            ["lift", "--eq-tol", "1e-12"],
            ["check", "--sing-tol", "1e-8"],
            ["check", "--oracle-tol", "1e-5"],
            ["solve", "--t-end", "1", "--t-step", "0.5", "--oracle-tol", "1e-5"],
        ],
        ids=" ".join,
    )
    def test_flag_the_command_does_not_read_is_refused(self, argv, spec3, capsys):
        # each subcommand takes only the tolerance flags it reads
        assert main([argv[0], spec3, *argv[1:]]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--eq-tol", "1e-12"],
            ["solve", "--t-end", "1", "--t-step", "0.5", "--eq-tol", "1e-12", "--sing-tol", "1e-8"],
            ["validate", "--eq-tol", "1e-12", "--sing-tol", "1e-8", "--oracle-tol", "1e-5"],
            ["iso", "--eq-tol", "1e-12", "--sing-tol", "1e-8", "--oracle-tol", "1e-5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_flags_the_command_reads_are_taken(self, argv, spec3):
        assert main([argv[0], spec3, *argv[1:]]) == 0


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_parser_built_once(self, spec1, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        assert main(["check", spec1]) == 0
        assert main(["frobnicate"]) == 2
        assert main(["check", spec1]) == 0
        assert len(built) == 1
