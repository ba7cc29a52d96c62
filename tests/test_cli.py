"""Command-line interface: spec I/O, subcommands, exit codes."""

import json
import math
import time

import pytest

from quadode import QuadraticSystem, decompose, eval_trajectory, solve_ivp
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

    @pytest.mark.parametrize("sing_tol", [1e-9, 1e-5])
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

    def test_mutated_closed_form_fails(self, spec2, capsys):
        assert main(["validate", spec2, "--mutate"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["oracle_deviation"] > 1e-3

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
