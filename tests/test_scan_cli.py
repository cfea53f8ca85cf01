import copy
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import killing_lambda
from lieforge import cli, scan
from lieforge.catalog import parse_group_name, structure_constants
from lieforge.errors import InvalidInputError, LieForgeError
from lieforge.metric import (MetricConfig, closed_form_metric_su2_euler, exp_metric_field,
                             metric_field, resolve_k)
from lieforge.curvature import EinsteinVerdict, einstein_check, sample_safe_points
from lieforge.scan import (
    ScanConfig,
    ScanReport,
    dumps_json,
    emit_report,
    run_scan,
)
from lieforge.sphere import pullback_metric, sphere_einstein_check


def mask_times(report_dict, value=0.0):
    masked = copy.deepcopy(report_dict)
    for row in masked["groups"]:
        row["wall_time_ms"] = value
    return masked


class TestRunScan:
    def test_su2_small(self):
        rep = run_scan(ScanConfig(groups=("su2",), samples=5, seed=42))
        assert rep.passed
        row = rep.rows[0]
        assert row.dim == 3
        assert row.lambda_hat == pytest.approx(0.25, abs=1e-6)

    def test_unknown_group_fails_before_compute(self):
        with pytest.raises(InvalidInputError):
            run_scan(ScanConfig(groups=("su2", "e8"), samples=5))

    def test_deterministic(self):
        cfg = ScanConfig(groups=("su2", "so3"), samples=3, seed=7)
        a = mask_times(run_scan(cfg).to_dict())
        b = mask_times(run_scan(cfg).to_dict())
        assert emit_report(a, "json") == emit_report(b, "json")

    def test_empty_group_list(self):
        rep = run_scan(ScanConfig(groups=(), samples=5))
        assert rep.passed
        assert rep.to_dict()["groups"] == []

    def test_bad_config(self):
        with pytest.raises(InvalidInputError):
            ScanConfig(groups=("su2",), samples=0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1e-6])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(InvalidInputError, match="tolerance"):
            ScanConfig(groups=("su2",), tolerance=tol)
        with pytest.raises(InvalidInputError):
            ScanConfig(groups=("su2",), tolerance=-1.0)
        with pytest.raises(InvalidInputError):
            ScanConfig(groups=("su2",), tolerance=float("nan"))
        with pytest.raises(InvalidInputError):
            ScanConfig(groups=("su2",), samples=float("nan"))

    def test_negative_seed(self):
        with pytest.raises(InvalidInputError):
            ScanConfig(groups=("su2",), seed=-1)

    def test_rows_pinned_to_killing_lambda(self):
        groups = ("su2", "su3", "so3", "so4", "so5", "sp1", "sp2", "su4", "so6", "sp3",
                  "su5", "so7", "so8", "su10", "sp6")
        rep = run_scan(ScanConfig(groups=groups, samples=2, seed=3))
        assert rep.passed
        assert [row.dim for row in rep.rows[-5:]] == [24, 21, 28, 99, 78]
        for row in rep.rows:
            exact = killing_lambda(structure_constants(parse_group_name(row.name)).f)
            assert abs(row.lambda_hat - exact) <= 1e-12, (row.name, row.lambda_hat, exact)

    def test_forced_fail_tolerance(self):
        rep = run_scan(ScanConfig(groups=("su2",), samples=2, tolerance=1e-20))
        assert not rep.passed

    def test_sampling_failure_is_a_failed_row(self, monkeypatch):
        def no_room(field, count, rng):
            raise LieForgeError("no room in the box")

        monkeypatch.setattr(scan, "sample_safe_points", no_room)
        row = run_scan(ScanConfig(groups=("su2",), samples=2)).rows[0]
        assert (row.passed, row.verdict.failure) == (False, "no room in the box")
        assert np.isnan(row.lambda_hat) and row.max_residual == np.inf

    def test_failure_reason_in_report(self):
        failing = run_scan(ScanConfig(groups=("su2",), samples=2, tolerance=1e-20)).to_dict()
        reason = failing["groups"][0]["failure"]
        assert "residual" in reason and "1.000e-20" in reason
        assert json.loads(emit_report(failing, "json"))["groups"][0]["failure"] == reason
        passing = run_scan(ScanConfig(groups=("su2",), samples=2)).to_dict()
        assert passing["groups"][0]["failure"] is None


class TestOneVerdictPath:
    """einstein, sphere --einstein and every scan group sample through
    ``scan.verdict``, and every verdict's report keys come from ``verdict_dict``."""

    @staticmethod
    def recorder(monkeypatch):
        seen = []

        def recording(field, count, rng):
            seen.append((field, sample_safe_points(field, count, rng)))
            return seen[-1][1]

        monkeypatch.setattr(scan, "sample_safe_points", recording)
        return seen

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40])
    def test_verdict_draws_the_seed_stream(self, seed, monkeypatch):
        field = exp_metric_field(parse_group_name("su3"))
        seen = self.recorder(monkeypatch)
        v = scan.verdict(field, 4, 1e-6, seed)
        [(drawn_from, pts)] = seen
        expected = sample_safe_points(field, 4, np.random.default_rng(seed))
        assert drawn_from is field and np.array_equal(pts, expected)
        assert v == einstein_check(field, expected, 1e-6)

    def test_scan_group_i_draws_stream_i(self, monkeypatch):
        seen = self.recorder(monkeypatch)
        rows = run_scan(ScanConfig(groups=("su2", "so3", "su3"), samples=3, seed=7)).rows
        assert len(seen) == 3
        for i, ((field, pts), row) in enumerate(zip(seen, rows)):
            assert field is metric_field(parse_group_name(row.name), "exp", resolve_k("auto"))
            expected = sample_safe_points(field, 3, np.random.default_rng([7, i]))
            assert np.array_equal(pts, expected)
            assert row.verdict == einstein_check(field, expected, 1e-6)

    def test_every_report_lists_the_verdict_keys_alike(self, capsys):
        keys = list(scan.verdict_dict(EinsteinVerdict.failed("none")))
        row = run_scan(ScanConfig(groups=("su2",), samples=2)).to_dict()["groups"][0]
        assert list(row) == ["name", "dim", *keys, "wall_time_ms"]
        assert cli.main(["einstein", "--group", "su2", "--samples", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["group", "chart", "samples", "tolerance", *keys]
        field = exp_metric_field(parse_group_name("su2"))
        assert out == {"group": "su2", "chart": "exp", "samples": 2, "tolerance": 1e-6,
                       **scan.verdict_dict(scan.verdict(field, 2, 1e-6, 0))}
        assert cli.main(["sphere", "--dim", "4", "--einstein", "--samples", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["sphere", "samples", "tolerance", *keys]
        assert out == {"sphere": "S3", "samples": 2, "tolerance": 1e-6,
                       **scan.verdict_dict(sphere_einstein_check(4, 2, 1e-6))}


@pytest.fixture(scope="module")
def report():
    return run_scan(ScanConfig(groups=("su2",), samples=3, seed=1)).to_dict()


class TestReportFormats:

    def test_json_roundtrip_byte_identical(self, report):
        payload = emit_report(report, "json")
        assert emit_report(json.loads(payload), "json") == payload

    def test_csv_row(self, report):
        lines = emit_report(report, "csv").decode().strip().splitlines()
        assert lines[0] == "name,dim,lambda_hat,lambda_spread,max_residual,status,wall_time_ms"
        fields = lines[1].split(",")
        assert fields[0] == "su2"
        assert int(fields[1]) == 3
        assert float(fields[2]) == pytest.approx(0.25, abs=1e-6)
        assert fields[5] == "pass"

    def test_unknown_format(self, report):
        for fmt in ("xml", "table"):
            with pytest.raises(InvalidInputError):
                emit_report(report, fmt)

    def test_float_serialization_precision(self):
        x = 0.1 + 0.2
        text = dumps_json({"x": x})
        assert json.loads(text)["x"] == x


class TestCli:
    def test_metric_command(self, capsys):
        code = cli.main(["metric", "--group", "su2", "--chart", "exp",
                         "--point", "0.3,0.4,0.5", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["group"] == "su2"
        assert np.allclose(np.array(out["g"]) @ np.array(out["g_inv"]), np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("argv", [
        ["--group", "so5", "--point=0.1,0.2,0.3,0.1,0,0,0,0,0,0.2"],
        ["--group", "su2", "--chart", "euler", "--point", "1.0,0.2,-0.4"],
    ], ids=["so5-exp", "su2-euler"])
    def test_metric_csv_is_the_json_g(self, argv, capsys):
        # d rows of .17g floats, which read back bitwise as the JSON output's g
        assert cli.main(["metric", *argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert cli.main(["metric", *argv, "--format", "json"]) == 0
        g = json.loads(capsys.readouterr().out)["g"]
        assert len(rows) == len(g) == len(g[0])
        assert np.array(rows).tobytes() == np.array(g).tobytes()

    def test_einstein_command(self, capsys):
        code = cli.main(["einstein", "--group", "so4", "--samples", "5",
                         "--tol", "1e-6", "--seed", "42"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["pass"] is True

    def test_scan_defaults(self, capsys):
        code = cli.main(["scan", "--groups", "su2", "--samples", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["config"]["samples"] == 2
        assert out["config"]["tolerance"] == 1e-6
        assert out["config"]["seed"] == 0
        assert out["config"]["k"] == "auto"
        assert "seed" not in out  # the seed is reported once, in config

    def test_scan_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli.main(["scan", "--groups", "su2", "--samples", "2",
                         "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_bytes())["pass"] is True

    def test_scan_unwritable_path(self, capsys):
        code = cli.main(["scan", "--groups", "su2", "--samples", "2",
                         "--out", "/nonexistent-dir/report.json"])
        assert code == 2

    def test_unknown_group_exit_2(self, capsys):
        assert cli.main(["einstein", "--group", "g2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["curvature", "--group", "su2", "--point", "1,2"],
        ["curvature", "--group", "sp1", "--chart", "euler", "--point", "1,0.2,0.3"],
        ["metric", "--group", "su2", "--chart", "euler", "--point", "1,2"],
        ["metric", "--group", "su3", "--chart", "euler", "--point", "1,0.2,0.3"],
    ], ids=["curvature-width", "curvature-euler-sp1", "metric-euler-width", "metric-euler-su3"])
    def test_chart_table_rejections_exit_2(self, argv, capsys):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("lieforge: ") and err.count("\n") == 1

    def test_bad_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--groups", "su2", "--frobnicate"])
        assert exc.value.code == 2

    def test_forced_fail_exit_1(self, capsys):
        code = cli.main(["einstein", "--group", "su2", "--samples", "2",
                         "--tol", "1e-20"])
        assert code == 1
        assert "not below tolerance" in json.loads(capsys.readouterr().out)["failure"]

    def test_einstein_pass_has_null_failure(self, capsys):
        code = cli.main(["einstein", "--group", "su2", "--samples", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["failure"] is None

    def test_sphere_command(self, capsys):
        code = cli.main(["sphere", "--dim", "3", "--einstein", "--samples", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["lambda_hat"] == pytest.approx(0.5, abs=1e-5)

    def test_sphere_einstein_reports_field_residual(self, capsys):
        # the field residual a sphere verdict can fail on is in the JSON,
        # right after the residual, as in the einstein command
        code = cli.main(["sphere", "--dim", "4", "--einstein", "--samples", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        keys = list(out)
        assert keys[keys.index("residual") + 1] == "field_residual"
        assert out["field_residual"] == sphere_einstein_check(4, 2, 1e-6, 0).field_residual

    def test_sphere_point_prints_the_pullback_metric(self, capsys):
        # diag(1, sin^2 1, sin^4 1), printed at 12 decimals
        assert cli.main(["sphere", "--dim", "4", "--point=1,1,1"]) == 0
        head, *rows = capsys.readouterr().out.splitlines()
        assert head == "pullback metric on S3:"
        printed = np.array([[float(v) for v in row.split()] for row in rows])
        assert np.array_equal(printed, np.diag([1.0, 0.708073418274, 0.501367965666]))
        assert np.abs(printed - pullback_metric(4, np.ones(3)).g).max() < 5e-13

    def test_sphere_needs_point_or_einstein(self, capsys):
        assert cli.main(["sphere", "--dim", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lieforge: sphere needs --point unless --einstein is given\n"

    def test_failed_sphere_verdict_writes_null_floats(self, capsys):
        # S^17 fails on the curvature guard: no Lambda, infinite residuals, all null
        assert cli.main(["sphere", "--dim", "18", "--einstein", "--samples", "20"]) == 1
        text = capsys.readouterr().out
        out = json.loads(text)
        for key in ("lambda_hat", "lambda_spread", "residual", "field_residual"):
            assert f'"{key}": null' in text and out[key] is None
        assert out["pass"] is False
        assert out["failure"].endswith("failed: metric condition 2.791e+08 exceeds 1e+08")

    def test_curvature_command(self, capsys):
        code = cli.main(["curvature", "--group", "su2", "--chart", "exp",
                         "--point", "0.8,0.1,-0.3"])
        assert code == 0
        scalar = capsys.readouterr().out.split("scalar:")[1].split()[0]
        assert float(scalar) == pytest.approx(1.5, abs=1e-6)

    def test_curvature_at_su2_origin(self, capsys):
        # the adjoint-representation metric is analytic at theta = 0
        code = cli.main(["curvature", "--group", "su2", "--point", "0,0,0"])
        assert code == 0
        lam = capsys.readouterr().out.split("lambda (R / 2d):")[1].split()[0]
        assert float(lam) == pytest.approx(0.25, abs=1e-6)

    def test_degenerate_point_exit_2(self, capsys):
        code = cli.main(["metric", "--group", "su2", "--chart", "euler",
                         "--point", "0,0.3,0.3"])
        assert code == 2

    @pytest.mark.parametrize("k", ["2", "1e9"])
    def test_euler_metric_scales_with_k(self, k, capsys):
        # the Euler Gram's imaginary-part guard must not scale with k
        code = cli.main(["metric", "--group", "su2", "--chart", "euler",
                         "--point", "1.0,0.2,-0.4", "--k", k, "--format", "json"])
        assert code == 0
        g = np.array(json.loads(capsys.readouterr().out)["g"])
        ref = float(k) / 2.0 * closed_form_metric_su2_euler(1.0, 0.2, -0.4).g
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_euler_einstein_at_large_k(self, capsys):
        code = cli.main(["einstein", "--group", "su2", "--chart", "euler",
                         "--k", "1e8", "--samples", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_euler_einstein_at_round_off(self, capsys):
        code = cli.main(["einstein", "--group", "su2", "--chart", "euler",
                         "--samples", "20", "--tol", "1e-12"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["pass"] is True
        assert abs(out["lambda_hat"] - 0.25) <= 1e-12

    @pytest.mark.parametrize("theta", ["1e-4", "3e-4", repr(np.pi - 3e-4)])
    def test_euler_stencil_across_pole_exit_2(self, theta, capsys):
        # within EULER_POLE_MARGIN of theta = 0 or pi, outside the safe domain
        code = cli.main(["curvature", "--group", "su2", "--chart", "euler",
                         "--point", f"{theta},0.2,0.3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "safe domain" in captured.err

    @pytest.mark.parametrize("point,angle", [("-0.3,0.4", "-0.3"), ("4.0,0.4", "4")])
    def test_sphere_pole_message_names_angle_and_range(self, point, angle, capsys):
        assert cli.main(["sphere", "--dim", "3", "--point", point]) == 2
        err = capsys.readouterr().err
        assert f"t1 = {angle} " in err
        assert "(1e-06, pi - 1e-06)" in err


HUGE = "1" + "0" * 30


def exit_code(argv):
    """Exit status of one CLI call, whether it returns or raises SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ["einstein", "--group", "su2", "--samples", "0"],
        ["einstein", "--group", "su2", "--samples", "-3"],
        ["scan", "--groups", "su2", "--samples", "0"],
        ["sphere", "--dim", "3", "--einstein", "--samples", "0"],
    ])
    def test_no_samples_exit_2(self, argv, capsys):
        assert exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("argv", [
        ["einstein", "--group", "su2", "--samples", "2"],
        ["scan", "--groups", "su2", "--samples", "2"],
        ["sphere", "--dim", "3", "--einstein", "--samples", "2"],
    ])
    def test_bad_tolerance_exit_2(self, argv, tol, capsys):
        assert exit_code(argv + ["--tol", tol]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["einstein", "--group", "su2", "--samples", "2"],
        ["scan", "--groups", "su2", "--samples", "2"],
        ["sphere", "--dim", "4", "--einstein", "--samples", "2"],
    ])
    def test_negative_seed_exit_2(self, argv, capsys):
        assert exit_code(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("groups", [",", "", " , "])
    def test_scan_without_groups_exit_2(self, groups, capsys):
        assert exit_code(["scan", "--groups", groups, "--samples", "2"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["metric", "--group", "su2", "--chart", "euler", "--point", "{},0,0"],
        ["metric", "--group", "su2", "--point", "0.1,{},0"],
        ["curvature", "--group", "su2", "--point", "0.3,0,{}"],
        ["sphere", "--dim", "3", "--point", "{},0"],
    ])
    def test_non_finite_point_exit_2(self, argv, value, capsys):
        argv = [a.format(value) for a in argv]
        assert exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("head,tail", [
        (["metric", "--group", "su2", "--point"], ["--k", "2"]),
        (["curvature", "--group", "su2", "--chart", "euler", "--point"], []),
        (["sphere", "--dim", "3", "--point"], ["--seed", "1"]),
    ])
    @pytest.mark.parametrize("text,value", [("-0.3,0.4,0.5", [-0.3, 0.4, 0.5]),
                                            ("-.5,-1e-3", [-0.5, -1e-3])])
    def test_negative_point_parses(self, head, tail, text, value):
        assert np.array_equal(cli.parse_cli(head + [text] + tail).point, value)

    def test_negative_point_metric_output(self, capsys):
        assert cli.main(["metric", "--group", "su2", "--point", "-0.3,0.4,0.5"]) == 0
        spaced = capsys.readouterr().out
        assert cli.main(["metric", "--group", "su2", "--point=-0.3,0.4,0.5"]) == 0
        assert spaced == capsys.readouterr().out

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf", "0", "-2", "1e-160", "1e200", "1e308"])
    @pytest.mark.parametrize("argv", [
        ["metric", "--group", "su2", "--point", "0.3,0,0"],
        ["curvature", "--group", "su2", "--point", "0.3,0,0"],
        ["einstein", "--group", "su2", "--samples", "2"],
        ["scan", "--groups", "su2", "--samples", "2"],
    ])
    def test_bad_k_exit_2(self, argv, k, capsys):
        assert exit_code(argv + ["--k", k]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), 0.0, -1.0, "two", 1e-101, 1e101])
    def test_bad_k_rejected_by_configs(self, k):
        with pytest.raises(InvalidInputError):
            MetricConfig(group=parse_group_name("su2"), k=k).resolve_k()
        with pytest.raises(InvalidInputError):
            ScanConfig(groups=("su2",), k=k)

    @pytest.mark.parametrize("argv", [
        ["einstein", "--group", "su2", "--samples", HUGE],
        ["scan", "--groups", "su2", "--samples", HUGE],
        ["sphere", "--dim", "3", "--einstein", "--samples", HUGE],
        ["sphere", "--dim", "100000000000000000000", "--point", "1"],
        ["einstein", "--group", "su99999999999999999999", "--samples", "1"],
        ["einstein", "--group", "su" + "9" * 5000, "--samples", "1"],
        ["einstein", "--group", "su20", "--samples", "1"],
        ["sphere", "--dim", "3000", "--einstein", "--samples", "1"],
    ])
    def test_oversized_input_exit_2(self, argv, capsys):
        # sizes past the allocation budget are input errors, not numpy tracebacks
        assert exit_code(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("lieforge: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["metric", "curvature"])
    def test_huge_coordinates_exit_2_without_warnings(self, command, capsys):
        # ad^2 and the domain's norm overflow; stderr carries only the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exit_code([command, "--group", "su2", "--point=1e300,0,0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("lieforge: ") and out.err.count("\n") == 1

    def test_oversized_group_exits_fast(self, capsys):
        # the jet's allocation check fires before any d^3 array exists and
        # before the structure constants are built
        for argv in (["einstein", "--group", "su20", "--samples", "20"],
                     ["einstein", "--group", "su20", "--samples", "1"]):
            start = time.perf_counter()
            assert exit_code(argv) == 2
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err.startswith("lieforge: ")

    def test_sampler_rejects_empty_request(self):
        with pytest.raises(InvalidInputError):
            sample_safe_points(exp_metric_field(parse_group_name("su2")), 0,
                               np.random.default_rng(0))

    @pytest.mark.parametrize("call", [
        lambda: run_scan(ScanConfig(groups=("su2",), samples=2.5)),
        lambda: run_scan(ScanConfig(groups=(), samples=2.5)),
        lambda: sphere_einstein_check(4, 2.5, 1e-6),
        lambda: sphere_einstein_check(4, 2.0, 1e-6),
        lambda: run_scan(ScanConfig(groups=("su2",), samples=2, seed=1.5)),
        lambda: sphere_einstein_check(4, 2, 1e-6, seed=-1),
        lambda: sphere_einstein_check(4, 2, 1e-6, seed=1.5),
        lambda: sphere_einstein_check(4, 2, float("nan")),
        lambda: sphere_einstein_check(4, 2, float("inf")),
        lambda: sphere_einstein_check(4, 2, 0.0),
        # bool is an int in Python, but True is neither a sample count nor a seed
        lambda: run_scan(ScanConfig(groups=("su2",), samples=True)),
        lambda: ScanConfig(groups=("su2",), seed=False),
        lambda: scan.verdict(exp_metric_field(parse_group_name("su2")), 2, 1e-6, True),
        lambda: sample_safe_points(exp_metric_field(parse_group_name("su2")), True,
                                   np.random.default_rng(0)),
        lambda: sphere_einstein_check(4, True, 1e-6),
        lambda: sphere_einstein_check(4, 2, 1e-6, np.True_),
    ], ids=["scan-samples", "empty-scan-samples", "sphere-samples", "sphere-float-samples",
            "scan-seed", "sphere-negative-seed", "sphere-float-seed", "sphere-nan-tol",
            "sphere-inf-tol", "sphere-zero-tol", "scan-bool-samples", "scan-bool-seed",
            "verdict-bool-seed", "sampler-bool-count", "sphere-bool-samples",
            "sphere-numpy-bool-seed"])
    def test_api_verdict_inputs_raise_invalid_input(self, call):
        # argparse rejects all of these before the CLI reaches the API
        with pytest.raises(InvalidInputError):
            call()

    def test_numpy_integers_count_and_seed(self):
        field = exp_metric_field(parse_group_name("su2"))
        pts = sample_safe_points(field, np.int64(3), np.random.default_rng(0))
        assert np.array_equal(pts, sample_safe_points(field, 3, np.random.default_rng(0)))
        cfg = ScanConfig(groups=("su2",), samples=np.int64(2), seed=np.int64(5))
        assert run_scan(cfg).rows[0].lambda_hat == run_scan(cfg._replace(seed=5)).rows[0].lambda_hat
        verdict = sphere_einstein_check(4, np.int64(2), 1e-6, np.int64(1))
        assert verdict == sphere_einstein_check(4, 2, 1e-6, 1)


_WITHOUT_SCIPY = """
import contextlib, json, os, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from lieforge.cli import main
codes = []
for args in json.loads(sys.argv[1]):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        codes.append(main(args))
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_without_scipy():
    # scipy is a test-only dependency: no command may import it
    commands = [
        ["scan", "--groups", "su2,so3", "--samples", "2"],
        ["einstein", "--group", "su2", "--chart", "euler"],
        ["sphere", "--dim", "4", "--einstein"],
        ["metric", "--group", "su2", "--point", "0.3,0.4,0.5"],
        ["curvature", "--group", "su2", "--point", "0.8,0.1,-0.3"],
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0] * len(commands), "scipy": []}
