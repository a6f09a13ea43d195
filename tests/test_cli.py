"""Command-line behaviour: output schema, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holoinv import registry_get
from holoinv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- list -------------------------------------------------------------------


def test_list_mentions_localization_only(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "hopf-blowup (localization only)" in out
    assert "suites [automorphy, deformation, invariance, vaisman]" in out


def test_list_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "list"
    names = {entry["name"] for entry in report["results"]}
    assert {"cp1", "hopf", "hopf-blowup"} <= names
    blowup = next(e for e in report["results"] if e["name"] == "hopf-blowup")
    assert blowup["fixed_point_data"]["manifold_dim"] == 2
    assert blowup["suites"] == []
    cp1 = next(e for e in report["results"] if e["name"] == "cp1")
    assert cp1["suites"] == ["automorphy", "convergence", "deformation", "invariance"]
    assert report["environment"]["version"]
    assert report["environment"]["normalization"]


# --- invariant ---------------------------------------------------------------


def test_localization_headline(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--example", "hopf-blowup",
                           "--field", "x1", "--method", "localization", "--json")
    assert code == 0
    report = json.loads(out)
    row = report["results"][0]
    assert row["exact_residue_sum"] == "-2"
    assert row["value_re"] == pytest.approx(-26.318945069571623, abs=1e-9)
    assert row["value_im"] == 0.0


def test_direct_invariant_small(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--example", "cp1",
                           "--volume", "fs", "--field", "z-ddz",
                           "--method", "direct", "--refine", "3", "--json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert abs(complex(row["value_re"], row["value_im"])) < 1e-6
    assert row["error_estimate"] > 0


def test_alt_method(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--example", "hopf",
                           "--volume", "r4", "--field", "radial",
                           "--method", "alt", "--json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert abs(complex(row["value_re"], row["value_im"])) < 1e-6
    assert row["method"] == "alternative"


def test_invariant_determinism(capsys):
    args = ("invariant", "--example", "hopf", "--volume", "r4-bump",
            "--field", "x1", "--method", "direct", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# --- usage errors ------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("invariant", "--example", "nowhere", "--method", "direct"),
    ("invariant", "--example", "cp1", "--method", "direct", "--field", "z-ddz"),
    ("invariant", "--example", "cp1", "--volume", "nope", "--field", "z-ddz",
     "--method", "direct"),
    ("invariant", "--example", "hopf-blowup", "--field", "x1", "--method", "direct"),
    ("invariant", "--example", "hopf-blowup", "--field", "x2",
     "--method", "localization"),
    ("invariant", "--example", "hopf", "--field", "x1", "--method", "localization"),
    ("check", "--example", "cp1", "--suite", "vaisman"),
    ("check", "--example", "hopf", "--suite", "convergence"),
    ("invariant", "--example", "cp1", "--volume", "fs", "--field", "z-ddz",
     "--method", "direct", "--points", "0"),
    ("check", "--example", "cp1", "--suite", "deformation", "--points", "0"),
    ("check", "--example", "cp1", "--suite", "convergence", "--tol", "0"),
    ("check", "--example", "cp1", "--suite", "convergence", "--tol=-1e-8"),
    ("check", "--example", "hopf-blowup", "--suite", "automorphy"),
])
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.strip()


def test_refine_below_two_rejected(capsys):
    code, _, err = run_cli(capsys, "invariant", "--example", "cp1",
                           "--volume", "fs", "--field", "z-ddz",
                           "--method", "direct", "--refine", "1")
    assert code == 2
    assert "refine" in err


def test_undeclared_suite_lists_declared_ones(capsys):
    code, _, err = run_cli(capsys, "check", "--example", "cp1", "--suite", "vaisman")
    assert code == 2
    assert "available: automorphy, convergence, deformation, invariance" in err


def test_usage_error_carries_hint(capsys):
    code, _, err = run_cli(capsys, "invariant", "--example", "hopf-blowup",
                           "--field", "x1", "--method", "direct")
    assert code == 2
    assert "localization" in err


# --- fixed point files --------------------------------------------------------


def test_fixed_point_file(capsys, tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({
        "label": "two points on the line",
        "manifold_dim": 1,
        "components": [
            {"name": "origin", "dim": 0, "trace_L": 1, "normal_weights": [1]},
            {"name": "infinity", "dim": 0, "trace_L": "-1", "normal_weights": ["-1"]},
        ],
    }))
    code, out, _ = run_cli(capsys, "invariant", "--example", "cp1",
                           "--method", "localization",
                           "--fixed-point-file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["exact_residue_sum"] == "0"


def test_fixed_point_file_zero_weight_surfaced(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "label": "degenerate",
        "manifold_dim": 1,
        "components": [{"name": "p", "dim": 0, "trace_L": 1, "normal_weights": [0]}],
    }))
    code, _, err = run_cli(capsys, "invariant", "--example", "cp1",
                           "--method", "localization",
                           "--fixed-point-file", str(path))
    assert code == 2
    assert "nonsingular" in err


@pytest.mark.parametrize("components", [
    [{"dim": 0, "trace_L": 1, "normal_weights": [1]}],
    ["not an object"],
    {"p": {"name": "p", "dim": 0, "trace_L": 1, "normal_weights": [1]}},
    [{"name": "p", "dim": "0", "trace_L": 1, "normal_weights": [1]}],
    [{"name": "p", "dim": 0, "trace_L": 1, "normal_weights": 1}],
], ids=["no-name", "not-object", "components-object", "dim-string", "weights-scalar"])
def test_malformed_fixed_point_file_exits_two(capsys, tmp_path, components):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"label": "malformed", "manifold_dim": 1,
                                "components": components}))
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1",
                             "--method", "localization",
                             "--fixed-point-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("holoinv: ValueError:")


def test_fixed_point_file_requires_localization(capsys, tmp_path):
    path = tmp_path / "data.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "invariant", "--example", "cp1",
                           "--volume", "fs", "--field", "z-ddz",
                           "--method", "direct", "--fixed-point-file", str(path))
    assert code == 2


# --- check -------------------------------------------------------------------


def test_check_vaisman_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--example", "hopf",
                           "--suite", "vaisman", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(row["passed"] for row in report["results"])


def test_check_convergence_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--example", "cp1",
                           "--suite", "convergence")
    assert code == 0
    assert "pass" in out


def test_check_deformation_passes(capsys):
    assert run_cli(capsys, "check", "--example", "cp1", "--suite", "deformation")[0] == 0
    assert run_cli(capsys, "check", "--example", "hopf", "--suite", "deformation")[0] == 0


def test_check_automorphy_and_invariance_pass(capsys):
    for example in ("cp1", "hopf"):
        for suite in ("automorphy", "invariance"):
            code, _, _ = run_cli(capsys, "check", "--example", example,
                                 "--suite", suite)
            assert code == 0, (example, suite)


@pytest.mark.parametrize("example", ["cp1", "hopf"])
def test_check_rows_pass_by_their_own_bound(capsys, example):
    for suite in registry_get(example).suites:
        code, out, _ = run_cli(capsys, "check", "--example", example,
                               "--suite", suite, "--json")
        assert code == 0, suite
        for row in json.loads(out)["results"]:
            if row["label"] == "convergence:order":  # a lower bound
                continue
            value = complex(row["value_re"], row["value_im"])
            assert row["passed"] == (abs(value) <= row["bound"]), row


def test_tol_reaches_every_vaisman_bound(capsys):
    # r4-bump:x1 reads about 1e-9, above this --tol
    code, out, _ = run_cli(capsys, "check", "--example", "hopf", "--suite", "vaisman",
                           "--tol", "1e-12")
    assert code == 1
    assert "[FAIL] vaisman:f:r4-bump:x1" in out


def test_failing_check_exits_one(capsys):
    code, out, _ = run_cli(capsys, "check", "--example", "hopf",
                           "--suite", "automorphy", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "holoinv.cli", "list"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "cp1" in proc.stdout
