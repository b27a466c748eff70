import contextlib
import copy
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sil
from sil import Field, VectorField, make_box
from sil.cli import build_parser, main
from sil.grid_domain import _DOMAIN_BUILTINS, _SPEC_KEYS, domain_from_spec
from sil.operators import _BUILTIN_OPERATORS, _OPERATOR_FORMS
from sil.suites import SuiteConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


_UNIT_BOX = {"lo": [0, 0], "hi": [1, 1]}
_HUGE = 10**400  # json writes it as a 401-digit integer literal
_TOO_LARGE = "int too large to convert to float"


def _two_block_rigid(c0, c1):
    """The two-block operator as per-component rigid motions of components ``c0``, ``c1``;
    a component given as ``"missing"`` leaves its motion's key out."""
    motions = [{"Q": [[1, 0], [0, 1]], "b": [0, 1]}, {"Q": [[1, 0], [0, 1]], "b": [0, -1]}]
    return {"h": 0.1, "source": "example_5_4_omega1", "target": "example_5_4_omega2",
            "rigid": [m if c == "missing" else {**m, "component": c}
                      for m, c in zip(motions, (c0, c1))]}


@pytest.fixture
def square_spec(tmp_path):
    return write_json(tmp_path / "square.json",
                      {"dim": 2, "h": 0.01, "boxes": [{"lo": [0, 0], "hi": [1, 1]}]})


class TestVerify:
    def test_clarkson_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--suite", "clarkson", "--p", "2", "--seed", "7",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert abs(payload["checks"][0]["defect"]) <= 1e-12
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_seed_default_is_the_suite_config_default(self):
        args = build_parser().parse_args(["verify", "--suite", "clarkson"])
        assert args.seed == SuiteConfig.seed == 7

    def test_reports_are_deterministic(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", "--suite", "clarkson", "--p", "3", "--seed", "11",
              "--report", str(r1)])
        main(["verify", "--suite", "clarkson", "--p", "3", "--seed", "11",
              "--report", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_examples_report_contains_paper_values(self, tmp_path):
        report = tmp_path / "examples.json"
        code = main(["verify", "--suite", "examples", "--p", "2", "--h", "1e-4",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        by_name = {c["check"]: c for c in payload["checks"]}
        assert by_name["norm_sq_T1"]["value"] == pytest.approx(23.66, abs=0.05)
        assert by_name["omega1_measure"]["value"] == pytest.approx(0.118, abs=0.001)

    def test_congruence_with_spec_file(self, tmp_path):
        spec = write_json(tmp_path / "example_5_4.json", {"builtin": "example_5_4"})
        report = tmp_path / "congruence.json"
        code = main(["verify", "--suite", "congruence", "--spec", spec,
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        verdict = payload["checks"][0]
        assert verdict["n_components"] == 2
        assert len(verdict["pairing"]) == 2

    def test_builtin_operator_reads_the_spec_domains(self, tmp_path):
        # the identity with the square minus a hole as source and the whole square
        # as target once compared the square with itself: "all checks passed", exit 0
        square = {"dim": 2, "h": 0.05, "boxes": [_UNIT_BOX]}
        spec = write_json(tmp_path / "holed.json", {
            "builtin": "identity", "target": square,
            "source": {**square, "subtract": [{"lo": [0.3, 0.3], "hi": [0.8, 0.8]}]}})
        report = tmp_path / "holed_report.json"
        code = main(["verify", "--suite", "congruence", "--spec", spec, "--report", str(report)])
        assert code == 1
        by_name = {c["check"]: c for c in json.loads(report.read_text())["checks"]}
        assert by_name["image_defect_measure"]["defect"] == pytest.approx(0.25, abs=1e-12)
        assert by_name["image_defect_measure"]["status"] == "fail"

    def test_exit_code_on_config_error(self, tmp_path):
        code = main(["verify", "--suite", "congruence",
                     "--spec", str(tmp_path / "missing.json")])
        assert code == 2

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2

    def test_exit_code_on_check_failure(self, tmp_path):
        # shrink the Clarkson tolerance scenario by faking a failing suite run:
        # a congruence run between incongruent shapes must exit 1
        op = write_json(tmp_path / "op.json", {
            "builtin": "example_4_8", "h": 1e-3})
        code = main(["verify", "--suite", "congruence", "--spec", op])
        assert code == 1


class TestReconstructCommand:
    def test_identity_spec(self, tmp_path, square_spec):
        op = write_json(tmp_path / "op.json", {"builtin": "identity"})
        out = tmp_path / "out"
        code = main(["reconstruct", "--spec", op, "--domain", square_spec,
                     "--out", str(out)])
        assert code == 0
        domain = make_box((0, 0), (1, 1), 0.01)
        xi = VectorField.from_csv(out / "xi_hat.csv", domain)
        assert np.abs(xi.values - domain.centers).max() <= 1e-10
        fit = json.loads((out / "rigid_fit.json").read_text())
        assert fit["rigid"] is True

    def test_hyperbolic_spec_reports_non_rigid(self, tmp_path):
        op = write_json(tmp_path / "op.json", {"builtin": "example_4_8", "h": 1e-3})
        out = tmp_path / "out48"
        code = main(["reconstruct", "--spec", op, "--out", str(out)])
        assert code == 0
        fit = json.loads((out / "rigid_fit.json").read_text())
        assert fit["rigid"] is False
        assert fit["orthogonality_defect"] > 0.5

    def test_rotation_angle_recovered(self, tmp_path, square_spec):
        angle = math.pi / 5
        op = write_json(tmp_path / "rot.json", {
            "rigid": [{"Q": [[math.cos(angle), -math.sin(angle)],
                             [math.sin(angle), math.cos(angle)]],
                       "b": [0.25, -0.5], "sign": 1}]})
        out = tmp_path / "outrot"
        code = main(["reconstruct", "--spec", op, "--domain", square_spec,
                     "--p", "3", "--out", str(out)])
        assert code == 0
        fit = json.loads((out / "rigid_fit.json").read_text())
        Q = np.asarray(fit["motions"][0]["Q"])
        recovered = math.atan2(Q[1, 0], Q[0, 0])
        assert abs(recovered - angle) <= 1e-6

    def test_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["reconstruct", "--spec", str(bad), "--out",
                     str(tmp_path / "o")]) == 2

    def test_large_zero_set_exits_1(self, tmp_path):
        # a tabulated weight vanishing on 2% of cells poisons that many probes
        domain = make_box(0.0, 1.0, 0.01)
        g_vals = np.ones(domain.n_cells)
        g_vals[: domain.n_cells // 50] = 0.0
        Field(domain, g_vals).to_csv(tmp_path / "g.csv")
        VectorField(domain, domain.centers).to_csv(tmp_path / "xi.csv")
        op = write_json(tmp_path / "tab.json", {
            "tabulated": {"g": "g.csv", "xi": "xi.csv"},
            "target": {"dim": 1, "h": 0.01, "boxes": [{"lo": [0], "hi": [1]}]},
            "source": {"dim": 1, "h": 0.01, "boxes": [{"lo": [0], "hi": [1]}]},
        })
        code = main(["reconstruct", "--spec", op, "--out", str(tmp_path / "outz")])
        assert code == 1


def _reconstruct_2x2_tabulated(tmp_path, edit, name="g.csv"):
    """``sil reconstruct`` of the identity tabulated on a 2x2 square, with
    ``edit`` applied to the body lines of ``name``: g.csv holds weights 1.0,
    xi.csv the cell centers."""
    domain = make_box((0, 0), (1, 1), 0.5)
    cells = list(zip(domain.cells.tolist(), domain.centers.tolist()))
    files = {"g.csv": ("i,j,x,y,value", [f"{i},{j},{x!r},{y!r},1.0" for (i, j), (x, y) in cells]),
             "xi.csv": ("i,j,x,y,v0,v1",
                        [f"{i},{j},{x!r},{y!r},{x!r},{y!r}" for (i, j), (x, y) in cells])}
    for fname, (header, body) in files.items():
        body = edit(body) if fname == name else body
        (tmp_path / fname).write_text("\r\n".join([header] + body) + "\r\n")
    square = {"dim": 2, "h": 0.5, "boxes": [{"lo": [0, 0], "hi": [1, 1]}]}
    op = write_json(tmp_path / "tab.json", {"tabulated": {"g": "g.csv", "xi": "xi.csv"},
                                            "target": square, "source": square})
    return main(["reconstruct", "--spec", op, "--out", str(tmp_path / "out")])


class TestCongruenceCommand:
    def test_same_square_identity(self, tmp_path, square_spec):
        motion = write_json(tmp_path / "id.json",
                            {"Q": [[1, 0], [0, 1]], "b": [0, 0]})
        code = main(["congruence", "--domain1", square_spec,
                     "--domain2", square_spec, "--motion", motion])
        assert code == 0

    def test_unit_square_vs_tall_box(self, tmp_path, square_spec, capsys):
        tall = write_json(tmp_path / "tall.json",
                          {"dim": 2, "h": 0.01,
                           "boxes": [{"lo": [0, -1], "hi": [1, 1]}]})
        code = main(["congruence", "--domain1", square_spec, "--domain2", tall])
        assert code == 1
        out = capsys.readouterr().out
        defect = float(out.split("measure:")[1].split()[0])
        assert defect == pytest.approx(1.0, abs=0.05)

    def test_rotated_square(self, tmp_path, square_spec):
        c = 0.5
        motion = write_json(tmp_path / "rot90.json", {
            "Q": [[0, -1], [1, 0]], "b": [2 * c, 0]})
        code = main(["congruence", "--domain1", square_spec,
                     "--domain2", square_spec, "--motion", motion,
                     "--tol", str(4 * 0.01)])
        assert code == 0

    def test_parse_failure_exits_2(self, tmp_path, square_spec):
        assert main(["congruence", "--domain1", square_spec,
                     "--domain2", str(tmp_path / "nope.json")]) == 2

    def test_nan_gate_fails_the_congruence_suite(self, monkeypatch, capsys):
        # a NaN gate fails the verdict check, so the suite exits 1, not 0
        fit = sil.operators.rigid_motion_fit
        monkeypatch.setattr(sil.operators, "rigid_motion_fit", lambda rec: dataclasses.replace(
            fit(rec), orthogonality_defect=math.nan))
        assert main(["verify", "--suite", "congruence", "--h", "0.05"]) == 1
        assert "FAIL pipeline_verdict" in capsys.readouterr().out

    def test_nan_defect_is_null_in_the_report(self, tmp_path, monkeypatch):
        # a bare NaN token is not JSON; the report writes it as null and keeps exit 1
        sets = sil.operators.defect_sets
        monkeypatch.setattr(sil.operators, "defect_sets", lambda rec, omega1: dataclasses.replace(
            sets(rec, omega1), n1_measure=math.nan))
        report = tmp_path / "nan.json"
        assert main(["verify", "--suite", "congruence", "--h", "0.05",
                     "--report", str(report)]) == 1

        def no_constant(token):
            raise AssertionError(f"report holds the non-JSON token {token}")

        payload = json.loads(report.read_text(), parse_constant=no_constant)
        by_name = {c["check"]: c for c in payload["checks"]}
        assert by_name["uncovered_source_measure"]["defect"] is None
        assert by_name["uncovered_source_measure"]["status"] == "fail"

    def test_finite_report_bytes_unchanged(self, tmp_path):
        payload = {"a": [0.1, -0.0, 1e-300, 2**70], "b": {"c": (1, "x")}, "d": None}
        sil.cli._write_report(str(tmp_path / "r.json"), payload)
        assert (tmp_path / "r.json").read_text() == json.dumps(payload, indent=2) + "\n"


class TestInputErrorsExit2:
    """Bad input exits 2 with a message, never 1 (a verdict) or a traceback."""

    def _assert_input_error(self, code, capsys, needle):
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert needle in err

    def test_reconstruct_p_at_most_one(self, tmp_path, square_spec, capsys):
        op = write_json(tmp_path / "op.json", {"builtin": "identity"})
        code = main(["reconstruct", "--spec", op, "--domain", square_spec,
                     "--p", "1.0", "--out", str(tmp_path / "o")])
        self._assert_input_error(code, capsys, "p in (1, inf)")

    def test_congruence_motion_dimension_mismatch(self, tmp_path, square_spec, capsys):
        motion = write_json(tmp_path / "m1.json", {"Q": [[1]], "b": [0]})
        code = main(["congruence", "--domain1", square_spec,
                     "--domain2", square_spec, "--motion", motion])
        self._assert_input_error(code, capsys, "motion dimension")

    def test_overlapping_boxes_over_budget(self, tmp_path, monkeypatch, capsys):
        # the budget bounds the cells the merge copies, repeats included: three
        # copies of one 400-cell box once passed as their 400-cell union, so
        # overlapping boxes allocated without bound
        monkeypatch.setenv("SIL_CELL_BUDGET", "1000")
        halves = [{"lo": [0, 0], "hi": [0.5, 1]}, {"lo": [0.5, 0], "hi": [1, 1]}]
        apart = [{"lo": [2 * k, 0], "hi": [2 * k + 1, 1]} for k in range(3)]
        specs = {name: write_json(tmp_path / f"{name}.json", {"dim": 2, "h": 0.05, "boxes": boxes})
                 for name, boxes in (("square", [_UNIT_BOX]), ("copies", [_UNIT_BOX] * 3),
                                     ("halves", halves), ("apart", apart))}
        for name in ("copies", "apart"):
            code = main(["congruence", "--domain1", specs[name], "--domain2", specs["square"]])
            self._assert_input_error(
                code, capsys, "domain spec needs 1200 cells, exceeding the budget of 1000")
        # disjoint boxes within the budget read as before
        assert main(["congruence", "--domain1", specs["halves"],
                     "--domain2", specs["square"]]) == 0

    def test_congruence_refinement_grid_over_budget(self, square_spec, monkeypatch,
                                                    capsys):
        # the 100x100 square fits the budget; its 103x103 refinement grid does not
        monkeypatch.setenv("SIL_CELL_BUDGET", "10000")
        code = main(["congruence", "--domain1", square_spec, "--domain2", square_spec])
        self._assert_input_error(code, capsys, "congruence refinement grid")

    def test_index_box_too_large_for_cell_keys(self, tmp_path, capsys):
        # three 8x8 blocks at h = 2^-30 span 2^31 x 2^33 cell indices; their int64
        # keys once wrapped, and the identity read 88 cells "mapped outside the source"
        h = 2.0**-30
        boxes = [{"lo": [x, y], "hi": [x + 8 * h, y + 8 * h]} for x, y in ((0, 0), (0, 8), (2, 0))]
        spec = write_json(tmp_path / "op.json", {"builtin": "identity",
                                                 "target": {"dim": 2, "h": h, "boxes": boxes}})
        code = main(["verify", "--suite", "congruence", "--spec", spec])
        self._assert_input_error(code, capsys, "too many for int64 cell keys")

    def test_box_offset_out_of_int64_range(self, tmp_path, capsys):
        # a box 1e19 cells from the first once exited 2 with numpy's "invalid value
        # encountered in cast" from the shift's int64 cast
        boxes = [{"lo": [0], "hi": [1]}, {"lo": [1e17], "hi": [1e17 + 32]}]
        spec = write_json(tmp_path / "far.json", {"dim": 1, "h": 0.01, "boxes": boxes})
        code = main(["congruence", "--domain1", spec, "--domain2", spec])
        self._assert_input_error(
            code, capsys, "congruence error: box 1 lies 2**62 or more cells from the first box")

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_clarkson_non_finite_p(self, capsys, p):
        # a configuration error, not a NaN slack in every sample
        code = main(["verify", "--suite", "clarkson", "--p", p])
        self._assert_input_error(code, capsys, "p must lie in [1, inf)")

    @pytest.mark.parametrize("suite", ["norm-calculus", "clarkson", "plaplace", "examples",
                                       "reconstruction", "congruence"])
    @pytest.mark.parametrize("p", ["nan", "inf", "-inf", "below"])
    def test_verify_p_out_of_range_before_any_battery(self, monkeypatch, capsys, suite, p):
        # Clarkson's inequality holds from p = 1; every other suite needs p > 1
        lo = "[1, inf)" if suite == "clarkson" else "(1, inf)"
        if p == "below":
            p = "0.5" if suite == "clarkson" else "1"
        ran = []
        monkeypatch.setattr(sil.cli, "run_suite", lambda cfg: ran.append(cfg) or [])
        code = main(["verify", "--suite", suite, f"--p={p}"])
        self._assert_input_error(code, capsys, f"p must lie in {lo}, got {float(p)}")
        assert ran == []

    @pytest.mark.parametrize("suite, p", [("clarkson", 1.0), ("plaplace", 1.5)])
    def test_verify_p_at_the_edge_of_its_range(self, suite, p):
        assert SuiteConfig(suite, p=p).p == p

    def test_clarkson_overflowing_p(self):
        # |f|^p overflows: an input error, not an inf - inf = NaN slack per
        # sample, and no numpy warning on stderr
        run = _run_sil("verify", "--suite", "clarkson", "--p", "1e308")
        assert run.returncode == 2
        assert run.stderr.startswith("verify error: the power sum of |u|^p overflows")
        assert "RuntimeWarning" not in run.stderr and "Traceback" not in run.stderr

    def test_plaplace_overflowing_probe(self, capsys):
        # exp(alpha x) at alpha = (p - 1)^(-1/p), about 1e7, once exited 2 with
        # numpy's bare "overflow encountered in exp"
        assert main(["verify", "--suite", "plaplace", "--p", "1.0000001"]) == 2
        assert capsys.readouterr().err == ("verify error: the probe exp(+1 * 9.99998e+06 x_0) "
                                           "overflows\n")

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_congruence_tol_out_of_range(self, square_spec, capsys, tol):
        code = main(["congruence", "--domain1", square_spec, "--domain2", square_spec,
                     "--tol", tol])
        self._assert_input_error(code, capsys, "tol must lie in [0, inf)")

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_verify_tol_out_of_range(self, tmp_path, capsys, tol):
        # with tol = inf the incongruent hyperbolic operator passed every check
        op = write_json(tmp_path / "op.json", {"builtin": "example_4_8", "h": 1e-3})
        code = main(["verify", "--suite", "congruence", "--spec", op, "--tol", tol])
        self._assert_input_error(code, capsys, "tol must lie in (0, inf)")

    @pytest.mark.parametrize("argv, needle", [
        pytest.param(["reconstruction", "--tol", "1e-30", "--spec", "missing.json"],
                     "tol and spec apply only to the congruence suite", id="tol-and-spec"),
        pytest.param(["clarkson", "--spec", "missing.json"],
                     "tol and spec apply only to the congruence suite", id="spec"),
        pytest.param(["examples", "--tol", "0.1"],
                     "tol and spec apply only to the congruence suite", id="tol"),
        pytest.param(["congruence", "--h", "0.02", "--spec", "missing.json"],
                     "h cannot be given with a spec", id="h-with-spec"),
        # the congruence suite never draws, so a negative seed once exited 0; every
        # other suite exited 2 with numpy's "expected non-negative integer"
        *[pytest.param([suite, "--seed", "-1"], "seed must be a nonnegative integer, got -1",
                       id=f"negative-seed-{suite}") for suite in ("congruence", "plaplace")],
    ])
    def test_verify_flag_the_suite_ignores(self, monkeypatch, capsys, argv, needle):
        # each once ran without the flag, and the report's config recorded it as applied
        ran = []
        monkeypatch.setattr(sil.cli, "run_suite", lambda cfg: ran.append(cfg) or [])
        code = main(["verify", "--suite", *argv])
        self._assert_input_error(code, capsys, needle)
        assert ran == []

    def test_misspelt_source_fails_the_congruence_suite(self, tmp_path, capsys):
        # the misspelt "source" went unread, and the identity on the whole box
        # read "all checks passed", exit 0
        box = {"dim": 2, "h": 0.05, "boxes": [_UNIT_BOX]}
        holed = {**box, "subtract": [{"lo": [0.3, 0.3], "hi": [0.8, 0.8]}]}
        op = write_json(tmp_path / "op.json",
                        {"builtin": "identity", "h": 0.05, "target": box, "sourse": holed})
        code = main(["verify", "--suite", "congruence", "--spec", op])
        self._assert_input_error(code, capsys, "'operator spec' has an unknown key 'sourse'")

    def test_builtin_outside_its_domain_of_definition(self, tmp_path, capsys):
        # the weight sqrt(sinh 2y) is undefined at y <= 0: numpy's "invalid value
        # encountered in sqrt" once named neither the operator nor the target
        line = {"dim": 1, "h": 0.01, "boxes": [{"lo": [-1], "hi": [1]}]}
        op = write_json(tmp_path / "op.json", {"builtin": "example_4_8", "target": line})
        code = main(["reconstruct", "--spec", op, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and "encountered" not in err
        assert err == ("reconstruct error: the builtin operator 'example_4_8' is not defined "
                       "at the target node (-0.995,)\n")

    def test_builtin_operator_reads_the_given_domain(self, tmp_path, capsys):
        # the 2D two-block operator once ignored a 1D --domain and reconstructed, exit 0
        op = write_json(tmp_path / "op.json", {"builtin": "example_5_4", "h": 0.05})
        line = write_json(tmp_path / "line.json",
                          {"dim": 1, "h": 0.05, "boxes": [{"lo": [0], "hi": [1]}]})
        code = main(["reconstruct", "--spec", op, "--domain", line, "--out", str(tmp_path / "o")])
        self._assert_input_error(code, capsys, "source and target must have the same dimension")

    @pytest.mark.parametrize("kind, payload", [
        pytest.param("operator", {"builtin": "example_5_4", "h": 0}, id="operator"),
        pytest.param("domain", {"builtin": "example_5_4_omega2", "h": 0}, id="domain"),
        pytest.param("domain", {"builtin": "fat_cantor(0.5)", "h": 0}, id="fat-cantor"),
    ])
    def test_zero_cell_width_in_a_builtin_spec(self, tmp_path, capsys, kind, payload):
        # "h": 0 once meant the default cell width: every check passed, exit 0
        spec = write_json(tmp_path / "spec.json", payload)
        argv = (["verify", "--suite", "congruence", "--spec", spec] if kind == "operator"
                else ["congruence", "--domain1", spec, "--domain2", spec])
        self._assert_input_error(main(argv), capsys, "cell width must be positive, got 0")

    @pytest.mark.parametrize("edit, needle", [
        pytest.param(lambda b: b[:3] + ["1.5,1,0.75,0.75,1.0"], "'1.5' to int64",
                     id="non-integer-index"),
        pytest.param(lambda b: b[:3] + ["1,1,0.75,0.75,abc"], "'abc' to float64",
                     id="non-numeric-value"),
        pytest.param(lambda b: b[:3] + ["1,1,0.75,0.75"], "4 were found", id="ragged-row"),
        pytest.param(lambda b: b[:3], "3 rows, 3 distinct cells", id="missing-cell"),
        pytest.param(lambda b: b + ["1,1,0.75,0.75,-1.0"], "5 rows, 4 distinct cells",
                     id="duplicate-cell"),
        pytest.param(lambda b: b[:3] + ["2,2,1.25,1.25,1.0"], "outside the domain",
                     id="cell-outside-domain"),
        pytest.param(lambda b: b[:3] + ["1,1,0.75,0.75,nan"], "finite", id="nan-value"),
        pytest.param(lambda b: [], "0 rows, 0 distinct cells", id="header-only"),
        pytest.param(lambda b: b[:3] + ["1,1,nan,0.75,1.0"], "finite", id="nan-center"),
        pytest.param(lambda b: b[:3] + ["\U00083550,1,0.75,0.75,1.0"], "'ascii' codec",
                     id="non-ascii-index"),
    ])
    def test_malformed_tabulated_csv(self, tmp_path, capsys, edit, needle):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _reconstruct_2x2_tabulated(tmp_path, edit)
        err = capsys.readouterr().err
        assert code == 2 and caught == []
        assert err.startswith("reconstruct error:") and err.count("\n") == 1
        assert needle in err and "g.csv: " in err and "xi.csv" not in err

    def test_malformed_xi_csv_named(self, tmp_path, capsys):
        code = _reconstruct_2x2_tabulated(
            tmp_path, lambda b: b[:3] + ["1,1,0.75,0.75,abc,0.75"], "xi.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "xi.csv: could not convert string 'abc' to float64" in err
        assert "g.csv" not in err

    def test_overflowing_tabulated_weight(self, tmp_path, capsys):
        # the probe product g^2 overflows; the message names the probe axis and the
        # weight, not numpy's multiply
        code = _reconstruct_2x2_tabulated(tmp_path, lambda b: b[:3] + ["1,1,0.75,0.75,1e200"])
        err = capsys.readouterr().err
        assert code == 2 and "overflow encountered" not in err and "Traceback" not in err
        assert err == ("reconstruct error: the product of the probe images along axis 0, "
                       "the squared weight, overflows at the target node (0.75, 0.75)\n")

    def test_tabulated_csv_rows_in_any_order(self, tmp_path):
        assert _reconstruct_2x2_tabulated(tmp_path, lambda b: b[::-1]) == 0

    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_bad_cell_budget_setting(self, square_spec, monkeypatch, capsys, raw):
        monkeypatch.setenv("SIL_CELL_BUDGET", raw)
        code = main(["congruence", "--domain1", square_spec, "--domain2", square_spec])
        self._assert_input_error(code, capsys, "SIL_CELL_BUDGET")

    @pytest.mark.parametrize("motion, needle", [
        pytest.param({"Q": [[1, 0], [0, 1]], "b": [math.nan, 0]}, "Q and b must be finite",
                     id="nan-b"),
        pytest.param({"Q": [[math.nan, 0], [0, 1]], "b": [0, 0]}, "Q and b must be finite",
                     id="nan-Q"),
        pytest.param({"Q": [[1, 0], [0, 1]], "b": [1e300, 0]}, "out-of-range bounds",
                     id="far-b"),
    ])
    def test_congruence_motion_fails_closed(self, tmp_path, capsys, motion, needle):
        # each motion once emptied the refinement grid: "measure 0 -> congruent", exit 0
        square = write_json(tmp_path / "sq.json",
                            {"dim": 2, "h": 0.1, "boxes": [{"lo": [0, 0], "hi": [1, 1]}]})
        far = write_json(tmp_path / "far.json",
                         {"dim": 2, "h": 0.1, "boxes": [{"lo": [5, 5], "hi": [7, 6]}]})
        assert main(["congruence", "--domain1", square, "--domain2", far]) == 1
        capsys.readouterr()
        code = main(["congruence", "--domain1", square, "--domain2", far,
                     "--motion", write_json(tmp_path / "m.json", motion)])
        self._assert_input_error(code, capsys, needle)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind, payload, needle", [
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": [5]}, "'box' must be an object",
                     id="box-int"),
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": 5}, "'boxes' must be an array",
                     id="boxes-int"),
        pytest.param("domain", {"dim": 2, "h": None, "boxes": [_UNIT_BOX]},
                     "'h' must be a finite number", id="h-null"),
        pytest.param("domain", {"builtin": 5}, "'builtin' must be a string", id="builtin-int"),
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": [_UNIT_BOX], "subtract": 5},
                     "'subtract' must be an array", id="subtract-int"),
        pytest.param("domain", {"dim": 2, "h": 0.1,
                                "boxes": [{"lo": [0, 0], "hi": [1, math.inf]}]},
                     "'hi' must be a finite number", id="hi-infinite"),
        pytest.param("motion", [1, 2], "'motion' must be an object", id="motion-list"),
        pytest.param("operator", {"builtin": ["x"]}, "'builtin' must be a string",
                     id="op-builtin-list"),
        pytest.param("operator", {"rigid": 5, "target": "example_5_4_omega2"},
                     "'rigid' must be an array", id="op-rigid-int"),
        pytest.param("operator", {"tabulated": {"g": 5, "xi": "xi.csv"},
                                  "target": "example_5_4_omega2"},
                     "'g' must be a string", id="op-tabulated-g-int"),
        pytest.param("operator", {"builtin": "example_4_8", "h": "fine"},
                     "'h' must be a finite number or null", id="op-h-string"),
        # a missing key is named as such, not only quoted
        pytest.param("motion", {"b": [0, 0]}, "'Q' must be an array, got None", id="motion-no-Q"),
        pytest.param("motion", {"Q": [[1, 0], [0, 1]]}, "'b' must be an array, got None",
                     id="motion-no-b"),
        pytest.param("operator", {"tabulated": {"xi": "xi.csv"}, "target": "example_5_4_omega2"},
                     "'g' must be a string, got None", id="op-tabulated-no-g"),
        # JSON integer literals too large for a float
        pytest.param("domain", {"dim": 2, "h": _HUGE, "boxes": [_UNIT_BOX]}, _TOO_LARGE,
                     id="h-huge"),
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": [{"lo": [0, 0], "hi": [_HUGE, 1]}]},
                     _TOO_LARGE, id="hi-huge"),
        pytest.param("motion", {"Q": [[1, 0], [0, 1]], "b": [_HUGE, 0]}, _TOO_LARGE,
                     id="motion-b-huge"),
        pytest.param("operator", {"builtin": "example_4_8", "h": _HUGE}, _TOO_LARGE,
                     id="op-h-huge"),
        # numpy and `in` read true, false and "1" as numbers: each once read
        # as a valid motion or component, down to a congruent verdict and exit 0
        pytest.param("motion", {"Q": [[True, 0], [0, True]], "b": [0, 0]},
                     "'Q' must be a number, got True", id="motion-Q-bool"),
        pytest.param("motion", {"Q": [[1, 0], [0, 1]], "b": [False, 0], "sign": True},
                     "'b' must be a number, got False", id="motion-b-bool"),
        pytest.param("motion", {"Q": [[1, 0], [0, 1]], "b": [0, 0], "sign": True},
                     "'sign' must be a number, got True", id="motion-sign-bool"),
        pytest.param("motion", {"Q": [["1", 0], [0, 1]], "b": [0, 0]},
                     "'Q' must be a number, got '1'", id="motion-Q-string"),
        pytest.param("motion", {"Q": [[{}, 0], [0, 1]], "b": [0, 0]},
                     "'Q' must be a number, got {}", id="motion-Q-object"),
        pytest.param("operator", _two_block_rigid(False, True),
                     "'component' must be an integer or null, got False", id="op-component-bool"),
        pytest.param("operator", _two_block_rigid(0.0, 1.0),
                     "'component' must be an integer or null, got 0.0", id="op-component-float"),
        # a fractional dim once built the 2D square, down to a congruent verdict
        pytest.param("domain", {"dim": 2.7, "h": 0.1, "boxes": [_UNIT_BOX]},
                     "'dim' must be an integer, got 2.7", id="dim-fractional"),
        pytest.param("domain", {"dim": 2.0, "h": 0.1, "boxes": [_UNIT_BOX]},
                     "'dim' must be an integer, got 2.0", id="dim-float"),
        # a spec names one form: the tabulated CSVs were never opened, and the
        # builtin domain took its 800 cells in place of the 3x3 box's 3,600
        pytest.param("operator", {"builtin": "identity", "rigid": [{"Q": [[1, 0], [0, 1]],
                                                                    "b": [0, 0]}]},
                     "got ['builtin', 'rigid']", id="op-builtin-and-rigid"),
        pytest.param("operator", {"rigid": [{"Q": [[1, 0], [0, 1]], "b": [0, 0]}],
                                  "tabulated": {"g": "nope.csv", "xi": "nope.csv"},
                                  "target": "example_5_4_omega2"},
                     "got ['rigid', 'tabulated']", id="op-rigid-and-tabulated"),
        pytest.param("operator", {"h": 0.1}, "got []", id="op-no-form"),
        pytest.param("domain", {"builtin": "example_5_4_omega1", "h": 0.05,
                                "boxes": [{"lo": [0, 0], "hi": [3, 3]}]},
                     "'builtin' cannot go with ['boxes']", id="builtin-and-boxes"),
        pytest.param("domain", {"builtin": "example_5_4_omega1", "h": 0.05, "subtract": []},
                     "'builtin' cannot go with ['subtract']", id="builtin-and-subtract"),
        # a key no form reads: each of these once went unread, down to a congruent
        # verdict; the one-form checks still come first
        pytest.param("domain", {"builtin": "example_5_4_omega1", "dim": 1},
                     "'builtin domain spec' has an unknown key 'dim'; it reads only builtin, h",
                     id="builtin-domain-dim"),
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": [_UNIT_BOX], "substract": []},
                     "'domain spec' has an unknown key 'substract'", id="domain-substract"),
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": [{**_UNIT_BOX, "hole": 1}]},
                     "'box' has an unknown key 'hole'; it reads only lo, hi", id="box-hole"),
        pytest.param("motion", {"Q": [[1, 0], [0, 1]], "b": [0, 0], "sing": -1},
                     "'motion' has an unknown key 'sing'; it reads only Q, b, sign",
                     id="motion-sing"),
        pytest.param("motion", {"Q": [[1, 0], [0, 1]], "b": [0, 0], "component": 0},
                     "'motion' has an unknown key 'component'", id="motion-component"),
        pytest.param("operator", {"builtin": "example_5_4", "h": 0.1,
                                  "sourse": "example_5_4_omega1"},
                     "'operator spec' has an unknown key 'sourse'; it reads only builtin, "
                     "source, target, h", id="op-sourse"),
        pytest.param("operator", {"rigid": [{"Q": [[1, 0], [0, 1]], "b": [0, 0], "compnent": 0}],
                                  "target": "example_5_4_omega2"},
                     "'rigid entry' has an unknown key 'compnent'", id="op-rigid-compnent"),
        pytest.param("operator", {"tabulated": {"g": "g.csv", "xi": "xi.csv", "h": 0.1},
                                  "target": "example_5_4_omega2"},
                     "'tabulated' has an unknown key 'h'; it reads only g, xi",
                     id="op-tabulated-h"),
        pytest.param("operator", {"builtin": "identity", "rigid": [], "sourse": 1},
                     "got ['builtin', 'rigid']", id="op-two-forms-before-unknown-key"),
        pytest.param("domain", {"builtin": "example_5_4_omega1", "boxes": [], "dim": 1},
                     "'builtin' cannot go with ['boxes']", id="builtin-and-boxes-before-dim"),
        # each of these once exited 2 with a message of numpy's or of a later check
        pytest.param("domain", {"h": 0.1, "boxes": [{"lo": [], "hi": []}]},
                     "dim must be 1 or 2, got 0", id="box-empty-corners"),
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": [{"lo": [0], "hi": [1]}]},
                     "box 0's 'lo' must be a point of dimension 2, got [0]",
                     id="box-corner-wrong-length"),
        pytest.param("domain", {"dim": 2, "h": 0.1, "boxes": [_UNIT_BOX],
                                "subtract": [{"lo": [0.2], "hi": [0.4]}]},
                     "hole 0's 'lo' must be a point of dimension 2, got [0.2]",
                     id="hole-corner-wrong-length"),
        pytest.param("domain", {"h": 0.1, "boxes": [{"lo": [0, 0], "hi": [1]}]},
                     "box 0's 'hi' must be a point of dimension 2, got [1]", id="box-hi-short"),
        pytest.param("motion", {"Q": [[1, 0], [0]], "b": [0, 0]},
                     "'Q' must be a square array of numbers, got [[1, 0], [0]]",
                     id="motion-Q-ragged"),
        pytest.param("operator", {"rigid": [], "target": "example_5_4_omega2"},
                     "a rigid operator needs at least one motion", id="op-rigid-empty-no-source"),
        pytest.param("operator", _two_block_rigid(0, "missing"),
                     "each motion needs a component assignment", id="op-rigid-component-missing"),
    ])
    def test_wrong_json_type(self, tmp_path, capsys, square_spec, kind, payload, needle):
        # each of these once ended in a traceback and exit 1, the code of a failed
        # check, named a missing key by nothing but its quoted name, or read only
        # the first of two forms
        path = write_json(tmp_path / "spec.json", payload)
        argv = {"domain": ["congruence", "--domain1", square_spec, "--domain2", path],
                "motion": ["congruence", "--domain1", square_spec, "--domain2", square_spec,
                           "--motion", path],
                "operator": ["reconstruct", "--spec", path, "--out", str(tmp_path / "o")]}
        code = main(argv[kind])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"{argv[kind][0]} error: ") and needle in err


def _run_python(*args):
    """A fresh interpreter that imports this checkout's ``sil``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sil.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _run_sil(*argv):
    return _run_python("-m", "sil.cli", *argv)


def test_cli_import_does_not_load_scipy():
    # scipy costs every `sil` process about 0.3 s and 33 MB at start-up
    probe = ("import sys, sil.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = _run_python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_congruence_and_csv_do_not_load_numpy_ma(tmp_path):
    # numpy 2.x imports numpy.ma in np.unique when no return_* flag is set;
    # that cost every congruence and CSV-reading process about 1 MiB
    probe = ("import sys, numpy as np\n"
             "from sil import Field, GridDomain, make_box\n"
             "from sil.cli import main\n"
             "assert main(['verify', '--suite', 'congruence']) == 0\n"
             "box = make_box((0.0, 0.0), (1.0, 1.0), 0.25)\n"
             f"path = {str(tmp_path / 'f.csv')!r}\n"
             "Field(box, np.arange(16.0)).to_csv(path)\n"
             "Field.from_csv(path, box)\n"
             "GridDomain(2, 0.1, (0.0, 0.0), [[1, 0], [0, 1], [1, 0]])\n"
             "print('numpy.ma' in sys.modules)\n")
    run = _run_python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


# -- one malformed node in an otherwise valid spec -------------------------------

_FUZZ_SQUARE = {"dim": 2, "h": 0.25, "boxes": [_UNIT_BOX]}
_FUZZ_RECONSTRUCT = ["reconstruct", "--spec", "{spec}", "--out", "{out}"]
_FUZZ_BASES = {  # a valid spec, and the command that reads it
    "domain": ({"dim": 2, "h": 0.25, "boxes": [_UNIT_BOX, {"lo": [1, 0], "hi": [1.5, 0.5]}],
                "subtract": [{"lo": [0.25, 0.25], "hi": [0.5, 0.5]}]},
               ["congruence", "--domain1", "{spec}", "--domain2", "{square}"]),
    "motion": ({"Q": [[0, -1], [1, 0]], "b": [1, 0], "sign": -1},
               ["congruence", "--domain1", "{square}", "--domain2", "{square}",
                "--motion", "{spec}"]),
    "rigid-operator": ({"rigid": [{"Q": [[0, -1], [1, 0]], "b": [1, 0], "sign": 1,
                                   "component": 0}],
                        "target": {"dim": 2, "h": 0.125, "boxes": [{"lo": [0, 0], "hi": [1, 0.5]}]},
                        "source": {"dim": 2, "h": 0.125,
                                   "boxes": [{"lo": [0.5, 0], "hi": [1, 1]}]}},
                       _FUZZ_RECONSTRUCT),
    "builtin-operator": ({"builtin": "example_5_4", "h": 0.1}, _FUZZ_RECONSTRUCT),
    "builtin-operator-domains": ({"builtin": "example_5_4",
                                  "source": {"dim": 2, "h": 0.1,
                                             "boxes": [{"lo": [0, -1], "hi": [1, 1]}]},
                                  "target": {"dim": 2, "h": 0.1,
                                             "boxes": [{"lo": [0, -2], "hi": [1, 2]}],
                                             "subtract": [{"lo": [0, -1], "hi": [1, 1]}]}},
                                 _FUZZ_RECONSTRUCT),
}
_NODE_VALUES = st.one_of(st.integers(-3, 3), st.text(max_size=3), st.none(), st.booleans(),
                         st.just({}),
                         st.lists(st.integers(-3, 3), max_size=2),
                         st.sampled_from([math.nan, math.inf, -math.inf]))


def _json_paths(node, path=()):
    """Every node of a JSON tree, as the keys and indices that lead to it."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    node = copy.copy(node)
    node[path[0]] = _replaced(node[path[0]], path[1:], value)
    return node


def _run_in(tmp, argv, spec):
    files = {"spec": write_json(tmp / "spec.json", spec),
             "square": write_json(tmp / "square.json", _FUZZ_SQUARE), "out": str(tmp / "out")}
    return main([arg.format(**files) for arg in argv])


@pytest.mark.parametrize("base", list(_FUZZ_BASES))
def test_valid_fuzz_base_passes(tmp_path, base):
    spec, argv = _FUZZ_BASES[base]
    assert _run_in(tmp_path, argv, spec) == 0


@pytest.mark.parametrize("base", list(_FUZZ_BASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_malformed_node_keeps_the_exit_code_contract(base, data):
    # exit 0, 1 or 2 and no escaped exception, whatever one node holds; a
    # non-finite number or a boolean is always an input error, never a verdict
    # (a NaN motion once made two far-apart domains congruent)
    spec, argv = _FUZZ_BASES[base]
    path = data.draw(st.sampled_from(list(_json_paths(spec))), label="path")
    value = data.draw(_NODE_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        code = _run_in(pathlib.Path(tmp), argv, _replaced(spec, path, value))
    assert code in (0, 1, 2)
    if isinstance(value, bool) or isinstance(value, float) and not math.isfinite(value):
        assert code == 2


_READ_KEYS = {*_OPERATOR_FORMS, *itertools.chain(*_SPEC_KEYS.values())}


@pytest.mark.parametrize("base", list(_FUZZ_BASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_one_unread_key_exits_2_naming_it(base, data):
    # a key that no form reads is an input error that names it, whatever object
    # holds it (a misspelt "source" or "sign" once went unread, down to exit 0)
    spec, argv = _FUZZ_BASES[base]
    objects = {path: node for path in _json_paths(spec)
               if isinstance(node := functools.reduce(lambda n, k: n[k], path, spec), dict)}
    path = data.draw(st.sampled_from(list(objects)), label="path")
    key = data.draw(st.text("abcdefghijklmnopqrstuvwxyzBQ_", min_size=1, max_size=8)
                    .filter(lambda k: k not in _READ_KEYS), label="key")
    value = data.draw(_NODE_VALUES, label="value")
    edited = _replaced(spec, path, {**objects[path], key: value})
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = _run_in(pathlib.Path(tmp), argv, edited)
    assert code == 2 and f"has an unknown key {key!r}" in err.getvalue()


# -- one changed token or line in a valid CSV ------------------------------------

_CSV_TOKENS = st.one_of(
    st.sampled_from(["nan", "-inf", "1e400", "", "0x10", "+0", "-0", "1.5", "\x00", "\ufeff0",
                     str(2**63), "1_0", " 1", "1e200", "0\x1f"]),
    st.integers(-3, 3).map(str), st.floats().map(repr),
    st.text(st.characters(codec="utf-8", exclude_characters=",\r\n"), max_size=4))


def _finite_in_column(token, column):
    """Whether ``token`` is a finite value of its CSV column's type: an int64
    index in the first two columns, a float in the others."""
    try:
        if column < 2:  # int() and float() take no ASCII separator (\x1c-\x1f) as a space
            return (re.fullmatch(r"\s*[+-]?[0-9]+\s*", token) is not None
                    and -2**63 <= int(token) < 2**63)
        return math.isfinite(float(token))
    except ValueError:
        return False


@pytest.mark.parametrize("name", ["g.csv", "xi.csv"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_changed_csv_token_or_line_keeps_the_exit_code_contract(name, data):
    # exit 0, 1 or 2 and no escaped exception, whatever one token or line
    # holds; a token that is not a finite value of its column's type, and a
    # dropped or repeated line, are input errors that name the file (a NaN
    # cell center once read as valid, and a non-ASCII index could crash numpy)
    line = data.draw(st.integers(0, 3), label="line")
    kind = data.draw(st.sampled_from(["token", "drop", "repeat", "replace"]), label="kind")
    if kind == "token":
        column = data.draw(st.integers(0, 4 if name == "g.csv" else 5), label="column")
        token = data.draw(_CSV_TOKENS, label="token")

        def edit(body):
            fields = body[line].split(",")
            fields[column] = token
            return body[:line] + [",".join(fields)] + body[line + 1:]
    else:
        text = data.draw(st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                                 max_size=12), label="text")
        edit = {"drop": lambda b: b[:line] + b[line + 1:],
                "repeat": lambda b: b[:line + 1] + b[line:],
                "replace": lambda b: b[:line] + [text] + b[line + 1:]}[kind]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = _reconstruct_2x2_tabulated(pathlib.Path(tmp), edit, name)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if kind in ("drop", "repeat") or kind == "token" and not _finite_in_column(token, column):
        assert code == 2 and f"{name}: " in err.getvalue()


# -- README's tables against the code ---------------------------------------------

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_table(header):
    """The rows under the README table line ``header``, each a list of its cells."""
    lines = _README.read_text().splitlines()
    body = itertools.takewhile(lambda line: line.startswith("|"), lines[lines.index(header) + 2:])
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in body]


def _quoted(text):
    return tuple(re.findall(r"`([^`]+)`", text))


def test_readme_key_table_is_the_spec_key_table():
    # row by row, the object its messages name and the keys it reads, in order;
    # the operator spec's row also lists the forms, one of which it names
    rows = [(_quoted(name)[0], *map(_quoted, keys.rpartition(", and ")[::2]))
            for name, keys in _readme_table("| object | keys |")]
    assert rows == [(name, _OPERATOR_FORMS if name == "operator spec" else (), keys)
                    for name, keys in _SPEC_KEYS.items()]


def test_readme_builtin_table_is_the_builtin_registries():
    # each row's kind and default cell width, and a row for every builtin: an
    # operator's default is its domains', and fat_cantor(m)'s is read as it is used
    table = _readme_table("| builtin | kind | default `h` | definition |")
    rows = {name.strip("`"): (kind, None if h == "none" else float(h)) for name, kind, h, _ in table}
    want = {name: ("domain", h) for name, (h, _) in _DOMAIN_BUILTINS.items()}
    want["fat_cantor(m)"] = ("domain", domain_from_spec("fat_cantor(0.5)").h)
    for name, (domains, _) in _BUILTIN_OPERATORS.items():
        widths = {_DOMAIN_BUILTINS[d][0] for d in domains if d is not None}
        assert len(widths) <= 1
        want[name] = ("operator", widths.pop() if widths else None)
    assert len(rows) == len(table) and rows == want
