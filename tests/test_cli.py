"""Command-line behaviour: output schema, exit codes, determinism."""

import argparse
import dataclasses
import importlib
import json
import logging
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from holoinv import invariant_direct, jets, localization, quadrature, registry_get
from holoinv import invariant as invariant_module
from holoinv.cli import main, run_suite
from references import r4_ricci


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which JSON does not allow")


def load_report(out):
    """The --json report, refusing NaN and Infinity (RFC 8259 has neither)."""
    return json.loads(out, parse_constant=_reject_constant)


# --- list -------------------------------------------------------------------


def test_list_mentions_localization_only(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "hopf-blowup (localization only)" in out
    assert "suites [automorphy, deformation, invariance, vaisman]" in out


def test_list_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    report = load_report(out)
    assert report["command"] == "list"
    names = {entry["name"] for entry in report["results"]}
    assert {"cp1", "hopf", "hopf-blowup"} <= names
    blowup = next(e for e in report["results"] if e["name"] == "hopf-blowup")
    assert blowup["fixed_points"]["x1"]["manifold_dim"] == 2
    assert blowup["suites"] == []
    cp1 = next(e for e in report["results"] if e["name"] == "cp1")
    assert cp1["suites"] == ["automorphy", "convergence", "deformation", "invariance"]
    assert report["environment"]["version"]
    assert report["environment"]["normalization"]


def test_list_json_keys_residue_data_by_field(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    fixed_points = {e["name"]: e["fixed_points"] for e in load_report(out)["results"]}
    # radial has no zeros on hopf, so it carries no residue data
    assert {name: list(data) for name, data in fixed_points.items()} == {
        "cp1": ["z-ddz"], "hopf": ["x1", "x2"], "hopf-blowup": ["x1"], "blcp2": ["z1-ddz1"]}
    assert fixed_points["cp1"]["z-ddz"] == localization.fixed_point_data_to_dict(
        registry_get("cp1").fixed_points["z-ddz"])


# --- invariant ---------------------------------------------------------------


def test_localization_headline(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--example", "hopf-blowup",
                           "--field", "x1", "--method", "localization", "--json")
    assert code == 0
    report = load_report(out)
    row = report["results"][0]
    assert row["exact_residue_sum"] == "-2"
    assert row["value_re"] == pytest.approx(-26.318945069571623, abs=1e-9)
    assert row["value_im"] == 0.0


def test_localization_route_sums_the_residues_once(capsys, monkeypatch):
    # the exact sum feeds both the printed residue sum and f(X)
    calls = []
    exact_sum = localization.localization_sum

    def counted(data):
        calls.append(data.label)
        return exact_sum(data)

    monkeypatch.setattr(localization, "localization_sum", counted)
    code, out, _ = run_cli(capsys, "invariant", "--example", "cp1",
                           "--method", "localization", "--json")
    assert code == 0
    assert len(calls) == 1
    row = load_report(out)["results"][0]
    assert row["value_re"] == localization.unnormalized_invariant(
        registry_get("cp1").fixed_points["z-ddz"])


def test_direct_invariant_small(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--example", "cp1",
                           "--volume", "fs", "--field", "z-ddz",
                           "--method", "direct", "--refine", "3", "--json")
    assert code == 0
    row = load_report(out)["results"][0]
    assert abs(complex(row["value_re"], row["value_im"])) < 1e-6
    assert row["error_estimate"] > 0


def test_alt_method(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--example", "hopf",
                           "--volume", "r4", "--field", "radial",
                           "--method", "alt", "--json")
    assert code == 0
    row = load_report(out)["results"][0]
    assert abs(complex(row["value_re"], row["value_im"])) < 1e-6
    assert row["method"] == "alt"


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
    ("invariant", "--example", "hopf", "--field", "radial", "--method", "localization"),
    ("check", "--example", "cp1", "--suite", "vaisman"),
    ("check", "--example", "hopf", "--suite", "convergence"),
    ("invariant", "--example", "cp1", "--volume", "fs", "--field", "z-ddz",
     "--method", "direct", "--points", "0"),
    ("check", "--example", "cp1", "--suite", "deformation", "--points", "0"),
    ("check", "--example", "hopf-blowup", "--suite", "automorphy"),
    # the step and the tolerances are set in the code, not on the command line
    ("invariant", "--example", "cp1", "--volume", "fs", "--field", "z-ddz",
     "--method", "direct", "--step", "1e-3"),
    ("check", "--example", "cp1", "--suite", "convergence", "--tol", "1e-6"),
    # rejected by argparse itself; main returns its exit code
    (),
    ("frobnicate",),
    ("invariant", "--example", "cp1"),
    ("invariant", "--example", "cp1", "--method", "residue"),
    ("invariant", "--example", "cp1", "--volume", "fs", "--field", "z-ddz",
     "--method", "direct", "--points", "many"),
    ("check", "--example", "cp1"),
    ("check", "--example", "cp1", "--suite", "automorphy", "--seed", "x"),
    # refused at parse time, not by numpy's random generator
    ("check", "--example", "hopf", "--suite", "automorphy", "--seed", "-1"),
    # one point suits hopf's invariant t axis only, not u or the angles
    ("invariant", "--example", "hopf", "--volume", "r4", "--field", "x1",
     "--method", "direct", "--points", "1"),
    ("check", "--example", "hopf", "--suite", "invariance", "--points", "1"),
    # sample counts outside 1..MAX_SAMPLES, refused before any array is made
    ("check", "--example", "hopf", "--suite", "automorphy", "--samples", "0"),
    ("check", "--example", "hopf", "--suite", "automorphy", "--samples", "10000000000"),
    # refused for every suite, also those that ignore the count
    ("check", "--example", "hopf", "--suite", "vaisman", "--samples", "0"),
    ("check", "--example", "hopf", "--suite", "deformation", "--samples", "-1"),
    ("check", "--example", "cp1", "--suite", "convergence", "--samples", "1000001"),
    ("check", "--example", "cp1", "--suite", "invariance", "--samples", "0"),
    # a band-limited grid of 10^16 nodes per sample, refused before any is made
    ("check", "--example", "hopf", "--suite", "invariance", "--points", "100000000"),
    # options the residue route would ignore
    ("invariant", "--example", "cp1", "--method", "localization", "--volume", "nope"),
    ("invariant", "--example", "cp1", "--method", "localization", "--volume", "fs"),
    ("invariant", "--example", "cp1", "--method", "localization", "--refine", "7"),
    ("invariant", "--example", "cp1", "--method", "localization", "--points", "3"),
    ("invariant", "--example", "cp1", "--method", "localization", "--field", "nope",
     "--fixed-point-file", "unread.json"),
    ("invariant", "--example", "cp1", "--method", "localization", "--field", "z-ddz",
     "--fixed-point-file", "unread.json"),
])
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip()
    if "--step" in argv or "--tol" in argv:
        # the subcommand's own parser reads them, and names itself
        assert err.startswith(f"usage: holoinv {argv[0]}")
        assert f"holoinv {argv[0]}: error: unrecognized arguments: " in err
    if "localization" in argv and {"--volume", "--refine", "--points",
                                   "--fixed-point-file"} & set(argv):
        # refused as unused, before the fixed-point file is opened
        assert "does not apply" in err


@pytest.mark.parametrize("extra, limit", [
    # 10^8 points per axis: unguarded, the first array (hopf's 10^8 x 10^8
    # Gauss-Legendre companion matrix) cannot even be allocated
    (("--points", "100000000"), None),
    # the default hopf job has 72 nodes and --refine 3 has 168: under a
    # limit of 100, refinement alone crosses it
    (("--refine", "3"), 100),
    # the level sizes are added only until they pass the cap: summed over all
    # 100,000 levels they took 46 s, to a count with too many digits to print
    (("--refine", "100000"), None),
], ids=["points", "refine", "huge-refine"])
def test_oversized_grid_exits_two(capsys, monkeypatch, extra, limit):
    if limit is not None:
        monkeypatch.setattr(quadrature, "_MAX_NODES", limit)
    quadrature._node_set.cache_clear()
    job = ("invariant", "--example", "hopf", "--volume", "r4", "--field", "x1",
           "--method", "direct")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *job, *extra)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("holoinv: ValueError: the quadrature grid has more than")
    assert err.count("\n") == 1 and "Traceback" not in err
    if limit is not None:
        assert run_cli(capsys, *job)[0] == 0


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "invariant", "--help")
    assert code == 0
    assert "usage: holoinv invariant" in out
    assert err == ""


# --- one parser per process ----------------------------------------------------


CP1_JOB = ("invariant", "--example", "cp1", "--volume", "fs", "--field", "z-ddz",
           "--method", "direct", "--json")


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(capsys, *CP1_JOB)[0] == 0
    assert run_cli(capsys, "list")[0] == 0
    assert built == []


def test_options_do_not_carry_over_between_calls(capsys):
    _, first, _ = run_cli(capsys, *CP1_JOB)
    code, coarse, _ = run_cli(capsys, *CP1_JOB, "--points", "4")
    assert code == 0
    assert load_report(coarse)["inputs"]["points"] == 4
    _, again, _ = run_cli(capsys, *CP1_JOB)
    assert load_report(again)["inputs"]["points"] is None
    assert again == first != coarse


@pytest.mark.parametrize("argv, expected", [
    (("invariant", "--example", "cp1", "--method", "sideways"), 2),
    (("check", "--help"), 0),
])
def test_parser_survives_early_exits(capsys, argv, expected):
    _, first, _ = run_cli(capsys, *CP1_JOB)
    assert run_cli(capsys, *argv)[0] == expected
    code, again, err = run_cli(capsys, *CP1_JOB)
    assert (code, err) == (0, "")
    assert again == first


def _parsers_read(monkeypatch):
    """The prog of every parser that parse_known_args runs on, in call order."""
    read = []
    parse = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        read.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    return read


def test_subcommand_first_is_parsed_by_its_own_parser(capsys, monkeypatch):
    # an argv that starts with the subcommand skips the top-level parser; one
    # that starts with --verbose goes through it; both give the same report
    read = _parsers_read(monkeypatch)
    code, direct, _ = run_cli(capsys, *CP1_JOB)
    assert (code, read) == (0, ["holoinv invariant"])
    read.clear()
    code, through, err = run_cli(capsys, "--verbose", *CP1_JOB)
    assert (code, read) == (0, ["holoinv", "holoinv invariant"])
    assert err.startswith("holoinv: direct invariant on cp1 took ")
    assert load_report(through) == load_report(direct)


@pytest.mark.parametrize("argv, expected, usage", [
    ((), 2, "usage: holoinv [-h]"),
    (("frobnicate",), 2, "usage: holoinv [-h]"),
    (("-h",), 0, "usage: holoinv [-h]"),
    (("check", "--help"), 0, "usage: holoinv check"),
])
def test_top_level_and_help_paths_keep_their_exit_codes(capsys, argv, expected, usage):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert (out if expected == 0 else err).startswith(usage)


def test_log_level_is_set_only_when_it_changes(capsys, monkeypatch):
    # Logger.setLevel clears every logger's cache under the logging lock:
    # calls at an unchanged level make no such call
    cleared = []
    clear = logging.Manager._clear_cache
    monkeypatch.setattr(logging.Manager, "_clear_cache",
                        lambda self: cleared.append(1) or clear(self))
    assert run_cli(capsys, *CP1_JOB)[0] == 0
    before = len(cleared)
    for flags, added in (((), 0), ((), 0), (("--verbose",), 1), (("--verbose",), 0),
                         ((), 1), ((), 0)):
        assert run_cli(capsys, *flags, *CP1_JOB)[0] == 0
        assert len(cleared) - before == added, flags
        before = len(cleared)
    assert logging.getLogger("holoinv").level == logging.WARNING


def test_vaisman_rows_are_the_one_pair_calls(hopf, monkeypatch):
    # the suite makes one direct-route call over its six pairs; each f row
    # holds the value and bar of that pair's own invariant_direct call
    p, q = hopf.suites["vaisman"], hopf.default_quadrature
    calls = []
    route = invariant_module._integrate_route
    monkeypatch.setattr(invariant_module, "_integrate_route",
                        lambda m, pairs, *rest: calls.append(len(pairs)) or route(m, pairs, *rest))
    rows, _ = run_suite(hopf, "vaisman", samples=1, seed=0, q=q)
    assert calls == [6]
    monkeypatch.undo()
    f_rows = {row["label"]: row for row in rows if row["label"].startswith("vaisman:f:")}
    assert len(f_rows) == 2 * len(p["fields"]) == 6
    for vol_name in (p["volume"], p["perturbed"]):
        for name in p["fields"]:
            alone = invariant_direct(hopf.manifold, hopf.volumes[vol_name],
                                     hopf.fields[name], q=q)
            row = f_rows.pop(f"vaisman:f:{vol_name}:{name}")
            assert [float.hex(row[k]) for k in ("value_re", "value_im", "error")] == [
                float.hex(x) for x in (alone.value.real, alone.value.imag,
                                       alone.error_estimate)], (vol_name, name)


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


def test_localization_hint_names_every_example_with_fixed_point_data(capsys, monkeypatch):
    # every registered example carries residue data, so hopf without its
    # own stands in for an example that has none
    bare = dataclasses.replace(registry_get("hopf"), fixed_points={})
    monkeypatch.setattr("holoinv.cli.registry_get",
                        lambda name: bare if name == "hopf" else registry_get(name))
    code, out, err = run_cli(capsys, "invariant", "--example", "hopf",
                             "--method", "localization")
    assert code == 2
    assert out == ""
    hint = err.split("choose ", 1)[1].rstrip().removesuffix(")")
    assert hint.split(" / ") == ["cp1", "hopf-blowup", "blcp2"]


@pytest.fixture
def cp1_two_residue_fields(monkeypatch):
    # cp1 with a second residue entry; the lookup only reads the mapping, so
    # hopf-blowup's data (sum -2, where z-ddz sums to 0) stands in for z2-ddz
    cp1 = registry_get("cp1")
    bundle = dataclasses.replace(cp1, fixed_points={
        **cp1.fixed_points, "z2-ddz": registry_get("hopf-blowup").fixed_points["x1"]})
    monkeypatch.setattr("holoinv.cli.registry_get", lambda name: bundle)
    return bundle


def test_localization_with_two_fields_needs_field(capsys, cp1_two_residue_fields):
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1",
                             "--method", "localization")
    assert code == 2
    assert out == ""
    assert "--field" in err and "z-ddz" in err and "z2-ddz" in err


def test_localization_field_picks_its_entry(capsys, cp1_two_residue_fields):
    for name in ("z-ddz", "z2-ddz"):
        code, out, _ = run_cli(capsys, "invariant", "--example", "cp1", "--field", name,
                               "--method", "localization", "--json")
        assert code == 0
        row = load_report(out)["results"][0]
        assert row["label"] == f"cp1:{name}"
        assert row["value_re"] == localization.unnormalized_invariant(
            cp1_two_residue_fields.fixed_points[name])


def test_localization_field_without_data_lists_the_fields(capsys,
                                                           cp1_two_residue_fields):
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1", "--field", "ddz",
                             "--method", "localization")
    assert code == 2
    assert out == ""
    assert "'ddz'" in err and "available: z-ddz, z2-ddz" in err


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
    assert load_report(out)["results"][0]["exact_residue_sum"] == "0"


def test_fixed_point_file_residue_sum_beyond_the_digit_limit(capsys, tmp_path):
    # a trace (10^2500 + 1) / 10^2500 of 2,501-digit numerals squares to
    # 5,001-digit ones: more than Python writes in decimal by default, so
    # the sum is written in hexadecimal
    trace = Fraction(10**2500 + 1, 10**2500)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "label": "big", "manifold_dim": 1,
        "components": [{"name": "p", "dim": 0, "trace_L": str(trace),
                        "normal_weights": [1]}],
    }))
    expected = trace**2
    argv = ("invariant", "--example", "cp1", "--method", "localization",
            "--fixed-point-file", str(path))
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    written = load_report(out)["results"][0]["exact_residue_sum"]
    numerator, denominator = (int(part, 16) for part in written.split("/"))
    assert Fraction(numerator, denominator) == expected
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert f"residue sum = {written} (exact)" in out


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


def _fixed_point_text(components, manifold_dim=1):
    return json.dumps({"label": "malformed", "manifold_dim": manifold_dim,
                       "components": components})


@pytest.mark.parametrize("text", [
    _fixed_point_text([{"dim": 0, "trace_L": 1, "normal_weights": [1]}]),
    _fixed_point_text(["not an object"]),
    _fixed_point_text({"p": {"name": "p", "dim": 0, "trace_L": 1, "normal_weights": [1]}}),
    _fixed_point_text([{"name": "p", "dim": "0", "trace_L": 1, "normal_weights": [1]}]),
    _fixed_point_text([{"name": "p", "dim": 0, "trace_L": 1, "normal_weights": 1}]),
    "[" * 100000 + "]" * 100000,
    # residue sum 10^600: exact as a rational, but f(X) is no finite float
    _fixed_point_text([{"name": "p", "dim": 0, "trace_L": 10**200, "normal_weights": [1, 1]}],
                      manifold_dim=2),
], ids=["no-name", "not-object", "components-object", "dim-string", "weights-scalar",
        "nested-too-deeply", "f-beyond-float-range"])
def test_malformed_fixed_point_file_exits_two(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1",
                             "--method", "localization",
                             "--fixed-point-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("holoinv: ValueError:")


_ONE_POINT = _fixed_point_text([{"name": "p", "dim": 0, "trace_L": 1, "normal_weights": [1]}])


@pytest.mark.parametrize("content", [
    _ONE_POINT[:-7].encode(),
    _ONE_POINT.replace("malformed", "caf\u00e9").encode("latin-1"),
    _ONE_POINT.encode("utf-16"),
    # json reads integers with int(), which refuses more than 4,300 digits
    _ONE_POINT.replace('"trace_L": 1', '"trace_L": ' + "9" * 5000).encode(),
], ids=["truncated", "latin-1", "utf-16", "5000-digit-integer"])
def test_undecodable_fixed_point_file_names_the_file(capsys, tmp_path, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1",
                             "--method", "localization",
                             "--fixed-point-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"holoinv: ValueError: fixed-point file {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("trace, weight", [
    ("1e1000000000", "1"),
    ("1", "-1E-1_000_000_000"),
    ("1", "1e10001"),
    # 10^5000 would not write back: str() of it passes the 4,300-digit limit
    ("1e5000", "1"),
], ids=["trace-1e1000000000", "weight-underscored", "just-past-the-bound", "unwritable"])
def test_decimal_exponent_is_bounded(capsys, tmp_path, trace, weight):
    # the wire format has no decimal exponents, so none is expanded:
    # Fraction("1e1000000000") alone would build a billion-digit integer
    path = tmp_path / "exponent.json"
    path.write_text(_fixed_point_text([{"name": "p", "dim": 0, "trace_L": trace,
                                        "normal_weights": [weight]}]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1",
                             "--method", "localization",
                             "--fixed-point-file", str(path), "--json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("holoinv: ValueError: component 'p': invalid rational")


def test_residue_beyond_the_bit_budget_is_refused(capsys, tmp_path):
    # 10 KB of JSON whose residue has (3 * 10^4299)^801 in it: refused
    # from its entries, before any power is taken
    path = tmp_path / "power.json"
    path.write_text(_fixed_point_text([{"name": "p", "dim": 0, "trace_L": str(3 * 10**4299),
                                        "normal_weights": ["1/7"] * 800}],
                                      manifold_dim=800))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1",
                             "--method", "localization", "--fixed-point-file", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("holoinv: ValueError: component 'p': its residue may need")
    assert err.count("\n") == 1


def test_residue_sum_beyond_the_bit_budget_is_refused(capsys, tmp_path):
    # 40 point components, each with unrelated 4,300-digit p/q entries and
    # far inside its own budget, whose sum would take seconds: refused from
    # the summed estimates before any addition
    rng = random.Random(7)

    def entry():
        return f"{rng.randrange(10**4299, 10**4300)}/{rng.randrange(10**4299, 10**4300)}"

    path = tmp_path / "many.json"
    path.write_text(_fixed_point_text([{"name": f"p{k}", "dim": 0, "trace_L": entry(),
                                        "normal_weights": [entry()]} for k in range(40)]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1",
                             "--method", "localization", "--fixed-point-file", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("holoinv: ValueError: fixed-point data 'malformed': its residue sum")
    assert err.count("\n") == 1


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
    report = load_report(out)
    assert all(row["passed"] for row in report["results"])
    # the quadrature error bar of every invariant row is within its bound
    rows = [row for row in report["results"] if row["label"].startswith("vaisman:f:")]
    assert len(rows) == 6
    assert all(row["error"] <= row["bound"] for row in rows), rows


def test_check_vaisman_without_exact_ricci_uses_jets(capsys, monkeypatch):
    # a declared volume with no closed form takes the jet Ricci, as every
    # route does, instead of failing on the missing entry
    hopf = registry_get("hopf")
    r4 = dataclasses.replace(hopf.volumes["r4"], exact_ricci={})
    jets_only = dataclasses.replace(hopf, volumes={**hopf.volumes, "r4": r4})
    monkeypatch.setattr("holoinv.cli.registry_get", lambda name: jets_only)
    code, out, _ = run_cli(capsys, "check", "--example", "hopf", "--suite", "vaisman",
                           "--json")
    assert code == 0
    rows = {row["label"]: row for row in load_report(out)["results"]}
    assert rows["vaisman:max|det R|"]["value_re"] <= 1e-8
    assert all(row["passed"] for row in rows.values())


def test_check_convergence_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--example", "cp1",
                           "--suite", "convergence")
    assert code == 0
    assert "pass" in out


def test_check_convergence_runs_in_two_dimensions(capsys, monkeypatch):
    # the sample points take the manifold's dimension: a hopf copy that
    # declares the suite on r4, with r4's closed form as its reference,
    # checks its stencil against it
    hopf = registry_get("hopf")
    r4 = dataclasses.replace(hopf.volumes["r4"], exact_ricci={"punctured": r4_ricci})
    declared = dataclasses.replace(hopf, volumes={**hopf.volumes, "r4": r4}, suites={
        **hopf.suites, "convergence": {"volume": "r4", "bound": 1e-7, "order_floor": 3.5}})
    monkeypatch.setattr("holoinv.cli.registry_get", lambda name: declared)
    code, out, _ = run_cli(capsys, "check", "--example", "hopf", "--suite", "convergence",
                           "--json")
    assert code == 0
    rows = {row["label"]: row for row in load_report(out)["results"]}
    assert rows["convergence:order"]["value_re"] >= 3.5
    assert rows["convergence:match@1e-3"]["value_re"] <= 1e-7


def test_check_deformation_passes(capsys):
    assert run_cli(capsys, "check", "--example", "cp1", "--suite", "deformation")[0] == 0
    assert run_cli(capsys, "check", "--example", "hopf", "--suite", "deformation")[0] == 0


def test_check_automorphy_and_invariance_pass(capsys):
    for example in ("cp1", "hopf"):
        for suite in ("automorphy", "invariance"):
            code, _, _ = run_cli(capsys, "check", "--example", example,
                                 "--suite", suite)
            assert code == 0, (example, suite)


def test_cp1_automorphy_has_no_vacuous_rows(capsys):
    # cp1's deck group has no generator: only the chart transitions are measured
    code, out, _ = run_cli(capsys, "check", "--example", "cp1", "--suite", "automorphy",
                           "--json")
    assert code == 0
    labels = [row["label"] for row in load_report(out)["results"]]
    assert labels == ["transitions:fs", "transitions:fs-bump"]


@pytest.mark.parametrize("example", ["cp1", "hopf"])
def test_check_rows_pass_by_their_own_bound(capsys, example):
    for suite in registry_get(example).suites:
        code, out, _ = run_cli(capsys, "check", "--example", example,
                               "--suite", suite, "--json")
        assert code == 0, suite
        for row in load_report(out)["results"]:
            if row["label"] == "convergence:order":  # a lower bound
                continue
            value = complex(row["value_re"], row["value_im"])
            assert row["passed"] == (abs(value) + row["error"] <= row["bound"]), row


def test_failing_check_exits_one(capsys, monkeypatch):
    hopf = registry_get("hopf")
    strict = dataclasses.replace(hopf, suites={
        **hopf.suites, "automorphy": {"bound": 1e-30, "transitions_bound": 1e-30}})
    monkeypatch.setattr("holoinv.cli.registry_get", lambda name: strict)
    code, out, _ = run_cli(capsys, "check", "--example", "hopf", "--suite", "automorphy")
    assert code == 1
    assert "FAIL" in out


def test_nonfinite_density_exits_two_naming_the_level(capsys, monkeypatch):
    # the log-density and its derivatives are NaN at one node of level 1 (the
    # first node of the affine piece), so the alternative route's integrand
    # is refused there: a typed error on stderr, exit 2, no report and no
    # traceback
    cp1 = registry_get("cp1")
    dom = cp1.manifold.fundamental_domain["affine"]
    nodes = quadrature._node_set(dom, cp1.default_quadrature)
    node = nodes.chart_pts[0]
    fs = cp1.volumes["fs"]
    logd = fs.log_density["affine"]

    def nan_at_node(coords):
        # a plain factor, so the evaluator stays jet-safe: on a (nested) jet
        # it scales the value and every derivative at that node by NaN
        points = coords
        while isinstance(points, jets.Jet):
            points = points.value
        return logd(coords) * np.where(np.all(points == node, axis=-1), np.nan, 1.0)

    broken = dataclasses.replace(cp1, volumes={**cp1.volumes, "fs": dataclasses.replace(
        fs, log_density={**fs.log_density, "affine": nan_at_node})})
    monkeypatch.setattr("holoinv.cli.registry_get", lambda name: broken)
    code, out, err = run_cli(capsys, "invariant", "--example", "cp1", "--volume", "fs",
                             "--field", "z-ddz", "--method", "alt", "--json")
    assert code == 2
    assert out == ""
    assert err == (f"holoinv: IllPosedIntegrandError: 1 of {nodes.starts[1]} "
                   "samples non-finite at level 1\n")
    assert "Traceback" not in err


def test_hopf_invariance_checks_the_t_axis_on_every_route(capsys):
    # t is hopf's invariant axis and the angles its band-limited ones: one
    # axis row per volume, field and route checks all three, each held to
    # the declared 1e-5; cp1 declares neither rule
    code, out, _ = run_cli(capsys, "check", "--example", "hopf", "--suite", "invariance",
                           "--json")
    assert code == 0
    rows = {row["label"]: row for row in load_report(out)["results"]
            if row["label"].startswith("axis:")}
    assert set(rows) == {f"axis:{v}:{f}:{r}" for v in ("r4", "lebesgue", "r4-bump")
                         for f in ("x1", "x2", "radial") for r in ("direct", "alt")}
    assert all(row["bound"] == 1e-5 and row["passed"] for row in rows.values())
    code, out, _ = run_cli(capsys, "check", "--example", "cp1", "--suite", "invariance",
                           "--json")
    assert code == 0
    assert not [row for row in load_report(out)["results"]
                if row["label"].startswith("axis:")]


def test_false_invariant_axis_fails_the_check(capsys, monkeypatch):
    # declaring cp1's mu axis invariant is wrong: every route's density
    # depends on |z|, so the axis rows fail and the suite exits 1
    cp1 = registry_get("cp1")
    pieces = {chart: dataclasses.replace(dom, rules=("invariant", "periodic"))
              for chart, dom in cp1.manifold.fundamental_domain.items()}
    wrong = dataclasses.replace(
        cp1, manifold=dataclasses.replace(cp1.manifold, fundamental_domain=pieces),
        suites={**cp1.suites,
                "invariance": {**cp1.suites["invariance"], "axis_bound": 1e-5}})
    monkeypatch.setattr("holoinv.cli.registry_get", lambda name: wrong)
    code, out, _ = run_cli(capsys, "check", "--example", "cp1", "--suite", "invariance",
                           "--json")
    assert code == 1
    rows = [row for row in load_report(out)["results"] if row["label"].startswith("axis:")]
    assert len(rows) == 2 * 3 * 2
    failed = [row for row in rows if not row["passed"]]
    assert failed and all(row["value_re"] > row["bound"] for row in failed)
    assert all(row["passed"] for row in load_report(out)["results"]
               if not row["label"].startswith("axis:"))


def test_false_band_limited_axis_fails_the_check(capsys, monkeypatch):
    # declaring cp1's theta band-limited is wrong: fs-bump's
    # exp(2 Re z/(1+|z|^2)) carries every charge, so at 4 nodes per axis the
    # grid means move with their offset, the axis rows fail and the suite
    # exits 1
    cp1 = registry_get("cp1")
    pieces = {chart: dataclasses.replace(dom, rules=("gauss", "band-limited"))
              for chart, dom in cp1.manifold.fundamental_domain.items()}
    wrong = dataclasses.replace(
        cp1, manifold=dataclasses.replace(cp1.manifold, fundamental_domain=pieces),
        suites={**cp1.suites,
                "invariance": {**cp1.suites["invariance"], "axis_bound": 1e-5}})
    monkeypatch.setattr("holoinv.cli.registry_get", lambda name: wrong)
    code, out, _ = run_cli(capsys, "check", "--example", "cp1", "--suite", "invariance",
                           "--points", "4", "--json")
    assert code == 1
    rows = [row for row in load_report(out)["results"] if row["label"].startswith("axis:")]
    assert len(rows) == 2 * 3 * 2
    failed = {row["label"] for row in rows if not row["passed"]}
    assert {f"axis:fs-bump:{f}:{r}" for f in ("ddz", "z-ddz", "z2-ddz")
            for r in ("direct", "alt")} <= failed
    assert all(row["value_re"] > row["bound"] for row in rows if row["label"] in failed)
    assert all(row["passed"] for row in load_report(out)["results"]
               if not row["label"].startswith("axis:"))


def test_verbose_holds_for_its_own_call_only(capsys):
    # three calls in one process: only the verbose one logs its timing, to
    # the sys.stderr of that call, and the root logger is left alone
    root_handlers = list(logging.getLogger().handlers)
    job = ("invariant", "--example", "cp1", "--volume", "fs", "--field", "ddz",
           "--method", "direct")
    errs = [run_cli(capsys, *flags, *job)[2] for flags in ((), ("--verbose",), ())]
    assert errs[0] == errs[2] == ""
    assert errs[1].startswith("holoinv: direct invariant on cp1 took ")
    assert errs[1].count("\n") == 1
    assert logging.getLogger().handlers == root_handlers


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "holoinv.cli", "list"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "cp1" in proc.stdout


def test_package_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "holoinv", "list", "--json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    report = load_report(proc.stdout)
    assert report["command"] == "list"
    assert "cp1" in {entry["name"] for entry in report["results"]}


def test_closed_stdout_exits_quietly(tmp_path):
    # as in `holoinv ... --json | head -c 80` when head has exited first:
    # the reader is gone before the report is written, so the write fails
    # with EPIPE
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for json_flag in (("--json",), ()):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "holoinv.cli", "invariant", "--example", "cp1",
                 "--method", "localization", *json_flag],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": path})
        finally:
            os.close(write_end)
        assert proc.returncode == 141, json_flag
        assert proc.stderr == b"", json_flag


@pytest.mark.parametrize("argv", [
    ("list",),
    ("invariant", "--example", "hopf", "--volume", "r4", "--field", "x1", "--method", "alt"),
    ("invariant", "--example", "cp1", "--method", "localization"),
    ("check", "--example", "cp1", "--suite", "deformation"),
], ids=["list", "invariant-quadrature", "invariant-localization", "check"])
def test_json_report_is_one_line(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    report = load_report(out)
    assert report["command"] == argv[0] and report["results"]


# --- benchmark hooks ---------------------------------------------------------


def test_benchmark_hooks_resolve():
    # the benchmark's tracer skips a callable it cannot find and reads its
    # per-layer metric as 0, so a rename would pass unnoticed there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = runpy.run_path(str(path))
    hooks = [hook[:2] for hook in tracer["HOOKS"] + tracer["SPAN_ONLY_HOOKS"]]
    hooks += [("holoinv.cli", "registry_get"), ("holoinv.invariant", "integrate")]
    missing = [f"{module}.{attr}" for module, attr in hooks
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_benchmark_counts_what_the_program_evaluates(capsys):
    # the benchmark counts evaluations through the bundles it wraps: a job
    # whose evaluators or residue sum escape its tracer would shrink
    # evals_per_sweep with no change in the work
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = runpy.run_path(str(path))["Tracer"](record_spans=False)
    cli = importlib.import_module("holoinv.cli")
    with tracer:
        assert cli.main(["invariant", "--example", "hopf", "--volume", "r4",
                         "--field", "x1", "--method", "direct", "--json"]) == 0
        assert cli.main(["invariant", "--example", "hopf-blowup",
                         "--method", "localization", "--json"]) == 0
    capsys.readouterr()
    assert tracer.missing == []
    counts = tracer.counts
    assert counts["quadrature.nodes"] == 72
    assert counts["eval.log_density.points"] == counts["eval.field.points"] == 72
    assert counts["localization.components"] == 2


def test_benchmark_jobs_pass_in_process():
    # one pass of each workload's seed-1 jobs, judged by the benchmark's own
    # rules, so a job the benchmark would count as failed fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))["WORKLOADS"]
    failed = [(name, job.label, outcome.reason)
              for name, workload in workloads.items()
              for job in workload.jobs(1)
              for outcome in [job.run()] if not outcome.ok]
    assert failed == []
