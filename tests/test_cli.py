"""Command-line surface: argument handling, exit codes, file output."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsalg import (
    AlgebraParams,
    FockSpace,
    Realization,
    build_realization,
    representation_table,
    verify_realization,
)
from higgsalg import cli
from higgsalg.cli import main
from higgsalg.verify import exit_code, interior_check_states, report_to_json
from test_golden import GOLDEN
from test_survey import _off_band_cell, _off_band_entry, _subparser


def test_table_output_matches_library(capsys):
    code = main(["table", "--c1", "3", "--c3", "-1", "--j2", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == representation_table(AlgebraParams.of(3, -1), 2).to_csv()
    assert "# c1 = 3" in out
    assert "n,j3,plus,minus,admissible" in out


def test_build_then_verify_saved_file(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = main([
        "build", "--c1", "2", "--c3", "0", "--j2", "4",
        "--kind", "dyson:1", "--dim", "8", "-o", str(path),
    ])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == "dyson"
    assert doc["jm"]["field"] == "rational"

    code = main(["verify", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("overall: pass")
    assert "ladder-closure" in out


def test_verify_json_format(capsys):
    code = main([
        "verify", "--c1", "2", "--c3", "0", "--j2", "4",
        "--kind", "hp:1", "--dim", "10", "--format", "json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {"ladder-closure", "adjoint-pairing"}


def test_tampered_file_fails_verification(tmp_path, capsys):
    path = tmp_path / "r.json"
    main([
        "build", "--c1", "2", "--c3", "0", "--j2", "4",
        "--kind", "dyson:1", "--dim", "6", "-o", str(path),
    ])
    doc = json.loads(path.read_text())
    doc["jm"]["entries"][6] = "9"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_vacuous_point_exits_two(capsys):
    code = main([
        "verify", "--c1", "-2", "--c3", "0", "--j2", "4",
        "--kind", "hp:1", "--dim", "10",
    ])
    assert code == 2
    assert capsys.readouterr().out.strip().endswith("overall: vacuous")


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--c1", "three", "--c3", "0", "--j2", "2"])
    assert exc.value.code == 64

    with pytest.raises(SystemExit) as exc:
        main(["build", "--c1", "2", "--c3", "0", "--j2", "2", "--kind", "bogus:1"])
    assert exc.value.code == 64

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64

    # villain form outside {1, 2} is a token problem, not a domain problem
    with pytest.raises(SystemExit) as exc:
        main(["build", "--c1", "1", "--c3", "1", "--j2", "2", "--kind", "villain:3"])
    assert exc.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize("command", [["build"], ["verify"], ["export", "operator", "--which", "jp"]])
def test_no_flag_picks_a_weight_convention(capsys, command):
    """The step-k weights have one convention, so no flag picks another."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--c1", "1", "--c3", "1", "--j2", "12", "--kind", "hp:4",
              "--coefficients", "derived"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --coefficients" in capsys.readouterr().err


def test_verify_needs_point_or_file(capsys):
    code = main(["verify"])
    assert code == 64
    assert "need either" in capsys.readouterr().err


def test_domain_errors_exit_65(tmp_path, capsys):
    # second spectral form requires a positive cubic coupling
    code = main([
        "verify", "--c1", "3", "--c3", "-1", "--j2", "4", "--kind", "villain:2",
    ])
    assert code == 65

    # no real scale constant at (-2, 0)
    code = main([
        "build", "--c1", "-2", "--c3", "0", "--j2", "2", "--kind", "villain:1",
    ])
    assert code == 65

    code = main(["verify", "--input", str(tmp_path / "missing.json")])
    assert code == 65
    capsys.readouterr()


def test_sweep_text_and_grid_file(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"c1": "2", "c3": "0", "j2": 2},
        {"c1": "2", "c3": "0", "j2": 3},
    ]))
    code = main([
        "sweep", "--kinds", "hp:1,dyson:1", "--grid", str(grid), "--dim", "10",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "total=4 failed=0 vacuous=0" in out


def test_sweep_json_deterministic_across_threads(capsys, monkeypatch):
    """``HIGGSALG_THREADS`` is ignored: a sweep prints the same JSON with
    it unset and with any value, a number or not."""
    argv = ["sweep", "--kinds", "hp:1,dyson:1,dyson:2", "--dim", "12", "--format", "json"]
    monkeypatch.delenv("HIGGSALG_THREADS", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr().out
    for value in ("1", "4", "x"):
        monkeypatch.setenv("HIGGSALG_THREADS", value)
        assert main(argv) == 0
        assert capsys.readouterr().out == unset


def test_export_transform(capsys):
    code = main([
        "export", "transform", "--c1", "2", "--c3", "0", "--j2", "6",
        "--map", "s1", "--dim", "10",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["q0"] == 1.0
    assert len(doc["entries"]) == 10
    assert "q0_odd" not in doc

    code = main([
        "export", "transform", "--c1", "2", "--c3", "0", "--j2", "6",
        "--map", "s2", "--dim", "10", "--q0-odd", "0.5",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["q0_odd"] == 0.5


def test_export_operator(capsys):
    code = main([
        "export", "operator", "--c1", "2", "--c3", "0", "--j2", "4",
        "--kind", "dyson:1", "--dim", "6", "--which", "j3",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["field"] == "rational"
    # diagonal runs j, j - 1, ... in the number basis
    diag = [Fraction(doc["entries"][i * 6 + i]) for i in range(6)]
    assert diag == [Fraction(2) - n for n in range(6)]


def _saved_realization(tmp_path, field="rational"):
    """dyson:1 in ``field``, or villain:1 when ``field`` is "villain"."""
    path = tmp_path / "r.json"
    kind = ["villain:1"] if field == "villain" else ["dyson:1", "--field", field]
    code = main([
        "build", "--c1", "2", "--c3", "0", "--j2", "4", "--dim", "4",
        "--kind", *kind, "-o", str(path),
    ])
    assert code == 0
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("field,path,value", [
    pytest.param("rational", ("kind",), "bogus", id="unknown-kind"),
    pytest.param("rational", ("j3",), {"dim": 5, "field": "rational", "entries": ["0"] * 25},
                 id="dims-differ"),
    pytest.param("rational", ("mask",), [1, 1, 1], id="short-mask"),
    pytest.param("rational", ("kind",), "villain1", id="villain-without-window"),
    pytest.param("rational", ("window",), ["-2", "2"], id="window-on-step-kind"),
    pytest.param("villain", ("window",), ["-1/8", "1/8"], id="moved-window"),
    pytest.param("complex", ("jp", "entries", 1, 0), float("inf"), id="infinite-entry"),
    pytest.param("complex", ("j3", "entries", 0, 1), float("nan"), id="nan-entry"),
    pytest.param("rational", ("mask",), 4, id="mask-not-a-list"),
    pytest.param("rational", ("c1",), "1/0", id="zero-denominator"),
    pytest.param("rational", ("c1",), 0.1, id="float-c1"),
    pytest.param("rational", ("c1",), True, id="boolean-c1"),
    pytest.param("rational", ("c1",), float("inf"), id="infinite-c1"),
    pytest.param("rational", ("c3",), 0.1, id="float-c3"),
    pytest.param("rational", ("k",), -1, id="negative-step"),
    pytest.param("rational", ("k",), 0, id="zero-step"),
    pytest.param("rational", ("k",), "1", id="string-step"),
    pytest.param("rational", ("k",), 1.5, id="fractional-step"),
    pytest.param("rational", ("k",), True, id="boolean-step"),
    pytest.param("rational", ("j2",), "2", id="string-j2"),
    pytest.param("rational", ("j2",), -3, id="negative-j2"),
    pytest.param("rational", ("jm",), {"dim": 4, "field": "complex", "entries": [[0.0, 0.0]] * 16},
                 id="mixed-fields"),
    pytest.param("rational", ("mask",), [1, 1, 1, 2], id="mask-entry-not-0-or-1"),
    pytest.param("rational", ("mask", 0), True, id="boolean-mask-entry"),
    pytest.param("rational", ("mask", 0), 1.0, id="float-mask-entry"),
    pytest.param("complex", ("jp", "entries", 1, 0), True, id="boolean-complex-part"),
    pytest.param("complex", ("jp", "entries", 0, 1), False, id="boolean-zero-complex-part"),
    pytest.param("complex", ("jp", "entries", 1, 0), "1.5", id="string-complex-part"),
    pytest.param("complex", ("jp", "entries", 1, 0), 10 ** 400, id="complex-part-beyond-floats"),
    pytest.param("rational", ("jp", "entries", 1), True, id="boolean-rational-entry"),
    pytest.param("rational", ("jp", "entries", 1), 0.1, id="float-rational-entry"),
    pytest.param("rational", ("jp", "entries"), "0" * 16, id="entries-not-a-list"),
    pytest.param("rational", ("mask",), None, id="null-mask"),
    pytest.param("rational", ("jp",), None, id="null-operator"),
    pytest.param("rational", ("jm",), [1], id="operator-not-an-object"),
    pytest.param("rational", (), [1], id="file-not-an-object"),
])
def test_malformed_realization_file_exits_65(tmp_path, capsys, field, path, value):
    """An empty ``path`` puts ``value`` in place of the whole file."""
    saved, doc = _saved_realization(tmp_path, field)
    if path:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        doc = value
    saved.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--input", str(saved)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("window,spelled", [
    pytest.param([True, "1"], '[true, "1"]', id="boolean-end"),
    pytest.param(["-1", "1", "2"], '["-1", "1", "2"]', id="three-ends"),
    pytest.param(["x", "1"], '["x", "1"]', id="not-a-rational"),
    pytest.param("-1", '"-1"', id="string-window"),
    pytest.param([None, "1"], '[null, "1"]', id="null-end"),
])
def test_malformed_window_exits_65_spelled_as_json(tmp_path, capsys, window, spelled):
    """A villain window must be a list of exactly two p/q strings or
    integers; anything else is refused with the value as the file spells it."""
    path = tmp_path / "v.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "2", "--dim", "6",
                 "--kind", "villain:1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["window"] = window
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: window must be a list of two p/q strings or integers,"
                            f" got {spelled}\n")


@pytest.mark.parametrize("grid", [
    [{"c1": "1/0", "c3": "1", "j2": 2}],
    {"c1": "1", "c3": "1", "j2": 2},
    [{"c1": "1", "c3": "1", "j2": "two"}],
    [{"c1": 0.1, "c3": "1", "j2": 2}],
    [{"c1": True, "c3": "1", "j2": 2}],
    [{"c1": float("inf"), "c3": "1", "j2": 2}],
    [{"c1": "1", "c3": "1"}],
    None,
    [5],
    [{"c1": "1", "c3": "1", "j2": 2}, "x"],
])
def test_malformed_grid_file_exits_65(tmp_path, capsys, grid):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code = main(["sweep", "--grid", str(path), "--dim", "8"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_missing_key_is_named(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"c1": "1", "c3": "1"}]))
    assert main(["sweep", "--grid", str(grid), "--dim", "8"]) == 65
    assert capsys.readouterr().err == "error: malformed grid file: missing key 'j2'\n"
    saved, doc = _saved_realization(tmp_path)
    del doc["c3"]
    saved.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(saved)]) == 65
    assert capsys.readouterr().err == "error: malformed realization file: missing key 'c3'\n"


@pytest.mark.parametrize("command,what", [(["verify", "--input"], "realization"),
                                          (["sweep", "--grid"], "grid")])
def test_deeply_nested_file_exits_65(tmp_path, capsys, command, what):
    """JSON nested deeper than the decoder can recurse is a malformed file:
    exit 65 with one line, not an internal error."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main([*command, str(path)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed {what} file: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value,spelled", [(True, "true"), (None, "null"), (2.5, "2.5"),
                                           ("3", '"3"')], ids=["true", "null", "float", "string"])
def test_bad_value_is_quoted_as_in_the_file(tmp_path, capsys, value, spelled):
    """A refused value is spelled as JSON, as the file holds it, not as
    Python's repr (True, None, '3')."""
    want = {
        "k": f'kind "dyson" needs a step k >= 1 (1 if spectral), got {spelled}',
        "j2": f"j2 must be an integer >= 0, got {spelled}",
        "c1": f"c1 must be a p/q string or an integer, got {spelled}",
        "mask": f"mask must be a list, got {spelled}",
        "jp": f"operator must be an object, got {spelled}",
    }
    if isinstance(value, str):
        del want["c1"]  # a string c1 is a p/q
    for key, message in want.items():
        saved, doc = _saved_realization(tmp_path)
        doc[key] = value
        saved.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--input", str(saved)]) == 65
        assert capsys.readouterr().err == f"error: {message}\n"
    grid = tmp_path / "grid.json"
    for key in want.keys() & {"j2", "c1"}:
        row = {"c1": "1", "c3": "1", "j2": 2, key: value}
        grid.write_text(json.dumps([row]))
        assert main(["sweep", "--grid", str(grid), "--dim", "8", "--kinds", "hp:1"]) == 65
        assert capsys.readouterr().err == f"error: grid {want[key]}\n"
    saved.write_text(json.dumps(value))
    assert main(["verify", "--input", str(saved)]) == 65
    assert capsys.readouterr().err == f"error: realization file must be an object, got {spelled}\n"
    for doc, message in ((value, "grid must be a list of objects"),
                         ([value], "grid row must be an object")):
        grid.write_text(json.dumps(doc))
        assert main(["sweep", "--grid", str(grid), "--dim", "8", "--kinds", "hp:1"]) == 65
        assert capsys.readouterr().err == f"error: {message}, got {spelled}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
@pytest.mark.parametrize("command", [
    ["verify", "--c1", "2", "--c3", "0", "--j2", "4", "--kind", "hp:1", "--dim", "8"],
    ["sweep", "--kinds", "hp:1", "--dim", "8"],
])
def test_bad_tolerance_is_a_usage_error(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tolerance-coefficient", value])
    assert exc.value.code == 64
    assert capsys.readouterr().out == ""


_POINT = ["--c1", "1", "--c3", "1", "--j2", "4"]


@pytest.mark.parametrize("command", [
    ["build", *_POINT],
    ["verify", *_POINT],
    ["export", "operator", *_POINT, "--which", "jp"],
    ["export", "transform", *_POINT],
], ids=["build", "verify", "export-operator", "export-transform"])
def test_dim_below_two_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--dim", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert "truncation dimension must be >= 2" in captured.err


@pytest.mark.parametrize("command", [
    ["build"], ["verify"], ["table"], ["export", "operator", "--which", "jp"],
    ["export", "transform"],
], ids=["build", "verify", "table", "export-operator", "export-transform"])
@pytest.mark.parametrize("j2", ["-1", "two"])
def test_bad_j2_is_a_usage_error(capsys, command, j2):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--c1", "1", "--c3", "1", "--j2", j2])
    assert exc.value.code == 64
    assert capsys.readouterr().out == ""


def test_sweep_dim_checked_before_fan_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dim", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert "truncation dimension must be >= 2" in captured.err


def test_export_transform_is_strict_json_at_large_spin(capsys):
    # the float squares of the s1 chain overflow from n = 46 on at this point
    code = main(["export", "transform", "--c1", "1", "--c3", "1", "--j2", "400", "--dim", "402"])
    out = capsys.readouterr().out
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out, parse_constant=reject)
    assert sum(doc["mask"]) == 46
    assert all(m == 0 for m in doc["mask"][46:])
    assert all(x == 0.0 for x in doc["entries"][46:])

    with pytest.raises(SystemExit) as exc:
        main(["export", "transform", "--c1", "1", "--c3", "1", "--j2", "4", "--q0", "nan"])
    assert exc.value.code == 64


@pytest.mark.parametrize("option", ["--q0", "--q0-odd"])
@pytest.mark.parametrize("seed", ["0", "-0", "0.0", "1e-400"])
def test_a_zero_seed_is_a_usage_error(capsys, option, seed):
    """A zero seed makes an all-zero map, which no conjugation can invert."""
    with pytest.raises(SystemExit) as exc:
        main(["export", "transform", "--c1", "1", "--c3", "1", "--j2", "4", "--map", "s2",
              option, seed])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert captured.err.startswith("usage: higgsalg export transform")
    assert captured.err.endswith(f"error: argument {option}: seed must be nonzero,"
                                 f" got {seed!r}\n")


@pytest.mark.parametrize("j2", [2.5, -1, True, "3"], ids=["float", "negative", "bool", "string"])
def test_bad_grid_j2_exits_65(tmp_path, capsys, j2):
    """Grid rows and realization files read their j2 the same way."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"c1": "1", "c3": "1", "j2": j2}]))
    code = main(["sweep", "--grid", str(path), "--dim", "8", "--kinds", "hp:1"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: grid j2 must be an integer >= 0")
    assert captured.err.count("\n") == 1

    path = tmp_path / "r.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "4", "--dim", "8", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["j2"] = j2
    path.write_text(json.dumps(doc))
    code = main(["verify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == f"error: j2 must be an integer >= 0, got {json.dumps(j2)}\n"


def test_unexpected_exception_exits_70(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("builder broke\non two lines")

    monkeypatch.setattr(cli, "build_realization", broken)
    code = main(["build", "--c1", "1", "--c3", "1", "--j2", "4", "--dim", "8"])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: builder broke on two lines\n"


_VERIFY_POINTS = [
    ["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12"],
    ["--c1", "3", "--c3", "-1", "--j2", "6", "--dim", "40"],
]


# the spectral kinds need a real coupling constant, and form 2 needs c3 > 0
_SPECTRAL_POINTS = [
    ["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12"],
    ["--c1", "1", "--c3", "1", "--j2", "3", "--dim", "24"],
]
# the radicand is positive on most states here (the second form refuses c3 <= 0)
_FULL_SUPPORT_POINT = ["--c1", "3", "--c3", "-1", "--j2", "4", "--dim", "40"]


@pytest.mark.parametrize("kind,points", [
    (["--kind", "hp:1"], _VERIFY_POINTS), (["--kind", "hp:2"], _VERIFY_POINTS),
    (["--kind", "hp:3"], _VERIFY_POINTS),
    (["--kind", "dyson:1", "--field", "complex"], _VERIFY_POINTS),
    (["--kind", "dyson:2", "--field", "complex"], _VERIFY_POINTS),
    (["--kind", "dyson:3", "--field", "complex"], _VERIFY_POINTS),
    (["--kind", "dyson:1"], _VERIFY_POINTS), (["--kind", "dyson:2"], _VERIFY_POINTS),
    (["--kind", "dyson:3"], _VERIFY_POINTS),
    (["--kind", "villain:1"], [*_SPECTRAL_POINTS, _FULL_SUPPORT_POINT]),
    (["--kind", "villain:2"], _SPECTRAL_POINTS),
], ids=["hp-1", "hp-2", "hp-3", "dyson-complex-1", "dyson-complex-2", "dyson-complex-3",
        "dyson-rational-1", "dyson-rational-2", "dyson-rational-3", "villain-1", "villain-2"])
def test_verify_input_matches_direct_verify(tmp_path, capsys, kind, points):
    """A saved realization loads as its kind holds it: as bands for hp and
    dyson in either field, dense for villain; verifying it prints what
    verifying the in-memory original prints, byte for byte."""
    for i, point in enumerate(points):
        path = tmp_path / f"r{i}.json"
        assert main(["build", *point, *kind, "-o", str(path)]) == 0
        for fmt in ("text", "json"):
            direct = main(["verify", *point, *kind, "--format", fmt]), capsys.readouterr().out
            loaded = main(["verify", "--input", str(path), "--format", fmt])
            loaded = loaded, capsys.readouterr().out
            assert loaded == direct


_HUGE_SPIN = ["--c1", "1", "--c3", "1", "--dim", "4", "--kind", "hp:1"]


_HUGE_C3 = ["verify", "--c1", "1", "--j2", "11", "--dim", "32", "--c3"]


@pytest.mark.parametrize("argv,row", [
    (["verify", *_HUGE_SPIN, "--j2", str(10 ** 60), "--format", "json"], None),
    (["verify", *_HUGE_SPIN, "--j2", str(10 ** 90)], None),
    (["build", *_HUGE_SPIN, "--j2", str(10 ** 200)], None),
    ([*_HUGE_C3, "1e303", "--kind", "hp:1"], "casimir-commutes"),
    ([*_HUGE_C3, "1e306", "--kind", "hp:1"], "ladder-closure"),
    ([*_HUGE_C3, "1e303", "--kind", "dyson:1", "--field", "complex"], "grading-raise-k1"),
    ([*_HUGE_C3, "1e304", "--kind", "dyson:1", "--field", "complex"], "ladder-closure"),
], ids=["verify-residual-overflows", "verify-casimir-overflows", "build-weight-overflows",
        "hp-commutes-overflows", "hp-closure-overflows", "dyson-grading-overflows",
        "dyson-closure-overflows"])
def test_spin_beyond_the_float_range_exits_65(capsys, argv, row):
    """Float entries that leave the float range give one error line, not a
    NaN residual, a numpy warning or an internal error.  Where ``row`` is
    given, the line names it: the first row whose residual or scale is not
    finite."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if row is not None:
        assert captured.err == (f"error: {row}: the float residual or its scale is not finite;"
                                " the entries are beyond the float range\n")


_TRANSFORM_AT = ["export", "transform", "--j2", "4", "--dim", "10", "--map"]


@pytest.mark.parametrize("argv,what", [
    (["table", "--c1=1e400", "--c3=0", "--j2", "4"], "a squared ladder element"),
    ([*_TRANSFORM_AT, "s1", "--c1=1e400", "--c3=0"], "a weight of the chain"),
    ([*_TRANSFORM_AT, "s2", "--c1=1e400", "--c3=0"], "a weight of the chain"),
    ([*_TRANSFORM_AT, "s1-closed", "--c1=-1e400", "--c3=1"],
     "the discriminant of the bond quadratic"),
    ([*_TRANSFORM_AT, "s1-closed", "--c1=-1e401", "--c3=1e400"], "c3"),
], ids=["table", "transform-s1", "transform-s2", "transform-s1-closed",
        "transform-s1-closed-c3"])
def test_a_weight_beyond_the_float_range_is_a_domain_error(capsys, argv, what):
    """A table element, a chain weight, or the discriminant or c3 of the
    closed form past the float range exits 65 with one line, not 70."""
    assert main(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} is beyond the float range\n"


_HUGE_POINT = ["--c1", "1", "--c3", "1", "--dim", "4", "--j2", str(10 ** 103)]


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("kind", [
    *[["--kind", f"hp:{k}"] for k in (1, 2, 3)],
    *[["--kind", f"dyson:{k}", "--field", field] for k in (1, 2, 3)
      for field in ("rational", "complex")],
    *[["--kind", f"villain:{k}"] for k in (1, 2)],
], ids=lambda kind: "-".join(kind[1::2]).replace(":", ""))
def test_huge_spin_survey_has_no_internal_error_or_non_finite_token(capsys, command, kind):
    """At a spin whose weights reach the float range, every kind either
    reports or exits 65 with one line: no exit 70, no NaN or Infinity in
    the output, no numpy warning."""
    code = main([command, *_HUGE_POINT, *kind])
    captured = capsys.readouterr()
    assert code != 70
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    assert captured.err.count("\n") <= 1
    if code == 65:
        assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_empty_spectral_window_is_vacuous(tmp_path, capsys, fmt):
    """At j = 0 the window is the point p = 0, and an even dimension has no
    zero momentum eigenvalue: every windowed check is vacuous, not 0.0.
    No villain build has an empty window, so such a realization is made in
    the library; a file moved to j = 0 keeps a J+ that is not built there
    and is refused."""
    path = tmp_path / "villain.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "2", "--dim", "24",
                 "--kind", "villain:1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc.update(j2=0, window=["0", "0"])
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path), "--format", fmt]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    r = build_realization(FockSpace(24), AlgebraParams.of(1, 1), Fraction(1), "villain", 1)
    report = verify_realization(Realization(r.kind, 1, 0, r.params, r.jp, r.jm, r.j3,
                                            r.admissible_mask))
    assert exit_code(report) == 2
    if fmt == "text":
        out = report.to_text()
        rows = [line.split() for line in out.splitlines() if "-window" in line]
        assert len(rows) == 5
        assert all(row[1:] == ["-", "-", "0", "vacuous"] for row in rows)
        assert out.endswith("overall: vacuous\n")
        return
    report = json.loads(report_to_json(report))
    windowed = [c for c in report["checks"] if c["name"].endswith("-window")]
    assert len(windowed) == 5
    assert all(c["vacuous"] and c["residual"] is None and c["block"] == 0 for c in windowed)
    assert report["passed"] and report["vacuous_only"]


@pytest.mark.parametrize("kind", ["villain:1", "villain:2"])
def test_villain_file_needs_the_j_plus_built_at_its_point(tmp_path, capsys, kind):
    """A villain file's J+ is compared with the one built at its point: the
    identity in place of J+ and J- is refused with exit 65 and one line,
    and a J+ off by less than the stated bound still loads."""
    path = tmp_path / "villain.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "4", "--dim", "24",
                 "--kind", kind, "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    one = {"dim": 24, "field": "complex",
           "entries": [[1.0 if i % 25 == 0 else 0.0, 0.0] for i in range(24 * 24)]}
    path.write_text(json.dumps(dict(doc, jp=one, jm=one)))
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    doc["jp"]["entries"][1][0] += 1e-13
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 0


@pytest.mark.parametrize("kind,point,cell", [
    pytest.param("villain:1", ["--j2", "4", "--dim", "24"], 0, id="villain"),
    pytest.param("hp:1", ["--j2", "5", "--dim", "12"], 3 * 12 + 2, id="hp"),
])
def test_loaded_j_minus_is_compared_with_j_plus(tmp_path, capsys, kind, point, cell):
    """A built J- is J+'s own adjoint, so its pairing residual is the exact
    0.0 without forming the difference; a file's J- is a separate matrix,
    and one changed entry of it fails ``adjoint-pairing`` with exit 1."""
    path = tmp_path / "r.json"
    argv = ["--c1", "1", "--c3", "1", *point, "--kind", kind]
    assert main(["build", *argv, "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["jm"]["entries"][cell][0] += 0.5
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--format", "json"]) == 1
    pairing = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}["adjoint-pairing"]
    assert not pairing["passed"] and pairing["residual"] == 0.5
    assert main(["verify", *argv, "--format", "json"]) == 0
    pairing = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}["adjoint-pairing"]
    assert pairing["passed"] and pairing["residual"] == 0.0


def _set_dyson_j_plus_5_6(doc):
    doc["jp"]["entries"][5 * 12 + 6] = "1000"


def _scale_hp_bond_2(doc):
    """Bond 2 -> 3 of J+ and J- times 1.5."""
    for name, cell in (("jp", 2 * 12 + 3), ("jm", 3 * 12 + 2)):
        doc[name]["entries"][cell][0] *= 1.5


@pytest.mark.parametrize("kind,edit,state", [
    pytest.param("dyson:1", _set_dyson_j_plus_5_6, 5, id="dyson-j-plus-5-6-set"),
    pytest.param("hp:1", _scale_hp_bond_2, 2, id="hp-bond-2-scaled"),
    pytest.param("dyson:1", None, 7, id="dyson-mask-alone"),
])
def test_mask_is_derived_from_the_point(tmp_path, capsys, kind, edit, state):
    """The admissibility mask is a function of the point.  A tampered
    operator fails its checks, and masking out the tampered state as well
    would hide it from every row, so such a file is refused with exit 65,
    naming the first state whose mask differs."""
    path = tmp_path / "r.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12",
                 "--kind", kind, "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    if edit is not None:
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["verify", "--input", str(path)]) == 1
    doc["mask"][state] = 0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    name = kind.split(":")[0]
    assert captured.err == (f'error: realization kind "{name}" needs the admissibility mask of'
                            f" its point; mask[{state}] is 0, not 1\n")


@pytest.mark.parametrize("kind", [
    ["--kind", "hp:1"], ["--kind", "dyson:1"], ["--kind", "dyson:1", "--field", "complex"],
], ids=["hp-1", "dyson-1", "dyson-complex-1"])
def test_the_closure_reads_its_whole_block(tmp_path, capsys, kind):
    """One J+ entry off its band, at (n, n + 2) for the first interior
    state n, lies inside the block.  The closure and the Casimir's scalar
    deviation read J+ on the whole block, and an entry off the band is
    measured, never dropped (``verify._Steps``): both take the
    entry itself as their residual, 1 in either field, and FAIL, with
    exit 1."""
    path = tmp_path / "r.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12", *kind,
                 "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    n = interior_check_states(Realization.from_json_dict(doc))[0]
    rational = doc["jp"]["field"] == "rational"
    doc["jp"]["entries"][n * 12 + n + 2] = "1" if rational else [1.0, 0.0]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("ladder-closure", "casimir-scalar"):
        assert not checks[name]["passed"]
        assert checks[name]["residual"] == ("1" if rational else 1.0)


_BLOCK_ROWS = ("ladder-closure", "casimir-two-forms", "casimir-commutes", "casimir-scalar")


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("name", ["jm", "j3"])
@pytest.mark.parametrize("kind", [
    ["--kind", "hp:1"], ["--kind", "dyson:1"], ["--kind", "dyson:2"],
    ["--kind", "dyson:1", "--field", "complex"], ["--kind", "dyson:2", "--field", "complex"],
], ids=["hp-1", "dyson-1", "dyson-2", "dyson-complex-1", "dyson-complex-2"])
def test_an_entry_off_a_band_is_read_by_the_rows_that_read_it(tmp_path, capsys, kind, name,
                                                               inside):
    """One J- entry just below its band, or one J3 entry just above its
    diagonal, with both ends inside the interior block or in the last row
    or column, outside it.  The block rows take it only inside the block;
    the grading rows that read the generator take it wherever it lies,
    and so does hp's ``adjoint-pairing``, which compares J- with
    J+-dagger entry by entry.  Every other row passes, and the exit is 1."""
    path = tmp_path / "r.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12", *kind,
                 "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    k, (row, col) = doc["k"], _off_band_cell(doc, name, inside)
    states = interior_check_states(Realization.from_json_dict(doc))
    assert (row in states and col in states) == inside
    _off_band_entry(name, inside)(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    graded = {f"grading-lower-k{k}"} | ({f"grading-raise-k{k}"} if name == "j3" else set())
    paired = {"adjoint-pairing"} if name == "jm" and doc["kind"] == "hp" else set()
    block = {c["name"] for c in checks if c["name"] in _BLOCK_ROWS} if inside else set()
    assert {c["name"] for c in checks if not c["passed"]} == graded | paired | block


def test_spectral_window_beyond_the_float_range_is_a_domain_error(tmp_path, capsys):
    """A villain file whose spin, and so its window (-j, j), is past the
    float range exits 65 with one line, not 70."""
    path = tmp_path / "villain.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "3", "--dim", "6",
                 "--kind", "villain:1", "-o", str(path)]) == 0
    j2 = 10 ** 400 + 1
    doc = json.loads(path.read_text())
    doc.update(j2=j2, window=[f"-{j2}/2", f"{j2}/2"])
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the momentum window is beyond the float range\n"


def test_sweep_row_beyond_the_float_range_is_an_entry_error(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"c1": "1", "c3": "1", "j2": 10 ** 60},
                                {"c1": "1", "c3": "1", "j2": 3}]))
    code = main(["sweep", "--grid", str(path), "--dim", "4", "--kinds", "hp:1",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    huge, small = json.loads(captured.out)["entries"]
    assert "report" not in huge
    assert huge["error"].startswith("casimir-commutes: ")
    assert small["report"]["passed"] is True


_GOLDEN_POINT = ["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12"]


@pytest.mark.parametrize("argv,build", [
    *[(["--kind", f"hp:{k}"], ("hp", k, "rational")) for k in (1, 2, 3)],
    *[(["--kind", f"dyson:{k}", "--field", "complex"], ("dyson", k, "complex"))
      for k in (1, 2, 3)],
    *[(["--c1", "1", "--c3", "1", "--j2", "3", "--dim", "24", "--kind", f"villain:{k}"],
       ("villain", k, "rational")) for k in (1, 2)],
], ids=["hp-1", "hp-2", "hp-3", "dyson-complex-1", "dyson-complex-2", "dyson-complex-3",
        "villain-1", "villain-2"])
def test_build_writes_every_zero_as_0_0(capsys, argv, build):
    """An operator file spells every zero 0.0 and holds the realization's
    entries exactly."""
    if argv[0] == "--kind":
        argv = _GOLDEN_POINT + argv
    assert main(["build", *argv]) == 0
    out = capsys.readouterr().out
    assert re.search(r"-0\.0(?=[,\s\]])", out) is None
    doc = json.loads(out)
    kind, k, field = build
    r = build_realization(FockSpace(doc["dim"]), AlgebraParams.of(doc["c1"], doc["c3"]),
                          Fraction(doc["j2"], 2), kind, k, field=field)
    for name in ("jp", "jm", "j3"):
        written = np.array([complex(re_, im) for re_, im in doc[name]["entries"]])
        assert np.all(written == getattr(r, name).entries.ravel())


_PASS_ROW = {"c1": "1", "c3": "1", "j2": 3}
_VACUOUS_ROW = {"c1": "-2", "c3": "0", "j2": 4}
_ERROR_ROW = {"c1": "1", "c3": "1", "j2": 10 ** 60}
_VERIFY_AT = ["verify", "--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12", "--kind", "hp:1"]
_INFINITE_TOLERANCE = ("ladder-closure: the float tolerance is not finite;"
                       " coefficient x dim x scale is beyond the float range")


def _sweep_tag(row):
    return f"c1={row['c1']} c3={row['c3']} j2={row['j2']} hp:1".ljust(40)


@pytest.mark.parametrize("argv,lines,flags,code", [
    pytest.param(_VERIFY_AT, ["overall: pass"],
                 {"passed": True, "vacuous_only": False}, 0, id="verify-pass"),
    pytest.param([*_VERIFY_AT, "--tolerance-coefficient", "0"], ["overall: FAIL"],
                 {"passed": False, "vacuous_only": False}, 1, id="verify-fail"),
    pytest.param(["verify", "--c1", "-2", "--c3", "0", "--j2", "4", "--kind", "hp:1",
                  "--dim", "10"], ["overall: vacuous"],
                 {"passed": True, "vacuous_only": True}, 2, id="verify-vacuous"),
    pytest.param(["sweep", [_PASS_ROW], "--tolerance-coefficient", "0"],
                 [f"{_sweep_tag(_PASS_ROW)} FAIL", "total=1 failed=1 vacuous=0"],
                 {"total": 1, "failed": 1, "vacuous": 0}, 1, id="sweep-fail"),
    pytest.param(["sweep", [_ERROR_ROW, _PASS_ROW]],
                 [f"{_sweep_tag(_ERROR_ROW)} error: casimir-commutes: the float residual or"
                  " its scale is not finite; the entries are beyond the float range",
                  f"{_sweep_tag(_PASS_ROW)} pass", "total=2 failed=1 vacuous=0"],
                 {"total": 2, "failed": 1, "vacuous": 0}, 1, id="sweep-error"),
    pytest.param(["sweep", [_VACUOUS_ROW, _VACUOUS_ROW]],
                 [f"{_sweep_tag(_VACUOUS_ROW)} vacuous"] * 2 + ["total=2 failed=0 vacuous=2"],
                 {"total": 2, "failed": 0, "vacuous": 2}, 2, id="sweep-all-vacuous"),
    pytest.param(["sweep", [_VACUOUS_ROW, _PASS_ROW]],
                 [f"{_sweep_tag(_VACUOUS_ROW)} vacuous", f"{_sweep_tag(_PASS_ROW)} pass",
                  "total=2 failed=0 vacuous=1"],
                 {"total": 2, "failed": 0, "vacuous": 1}, 0, id="sweep-mixed"),
    pytest.param(["sweep", []], ["total=0 failed=0 vacuous=0"],
                 {"total": 0, "failed": 0, "vacuous": 0}, 0, id="sweep-empty"),
    pytest.param(["sweep", [_PASS_ROW], "--tolerance-coefficient", "1e308"],
                 [f"{_sweep_tag(_PASS_ROW)} error: {_INFINITE_TOLERANCE}",
                  "total=1 failed=1 vacuous=0"],
                 {"total": 1, "failed": 1, "vacuous": 0}, 1, id="sweep-infinite-tolerance"),
])
def test_verdict_table(tmp_path, capsys, argv, lines, flags, code):
    """Each outcome, pass, FAIL or vacuous, as the text lines, the JSON
    flags and the exit code of verify and of sweep give it.  A sweep case
    lists its grid rows where the grid file goes."""
    if argv[0] == "sweep":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(argv[1]))
        argv = ["sweep", "--grid", str(grid), "--kinds", "hp:1", "--dim", "8", *argv[2:]]
    assert main(argv) == code
    text = capsys.readouterr()
    assert text.err == ""
    tail = text.out.splitlines()[-len(lines):]
    assert tail == lines
    if argv[0] == "sweep":
        assert len(text.out.splitlines()) == len(lines)
    assert main([*argv, "--format", "json"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert {key: doc[key] for key in flags} == flags


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_infinite_tolerance_is_a_domain_error(capsys, fmt):
    """A tolerance (coefficient x dim x scale) past the float range is
    refused as a non-finite residual is, never printed as inf or Infinity."""
    assert main([*_VERIFY_AT, "--tolerance-coefficient", "1e308", "--format", fmt]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_INFINITE_TOLERANCE}\n"


# The fast path of ``main`` (``cli._quick``) against argparse.  Argv are
# drawn from each command's vocabulary: its own option strings, exact,
# abbreviated or joined to a value by "="; values its types accept or
# refuse, negative numbers and rationals, empty strings and values that
# start with "-"; repeats, stray tokens, help and missing required options.

_COMMANDS = [("verify",), ("build",), ("sweep",), ("table",), ("export", "transform"),
             ("export", "operator")]
_NUMBERS = ("1", "-2", "0.5", "-.5", "3")
# Per option, values its type takes; an option with choices takes those.
_TAKEN = {
    # integers and p/q take int()'s path of fock._fraction, the rest Fraction's regex
    "c1": (*_NUMBERS, "2/3", "0", "-0", "007", "4/6"),
    "c3": (*_NUMBERS, "2/3", "0", "-0", "007", "4/6"),
    "q0": _NUMBERS, "q0_odd": _NUMBERS,
    "tolerance_coefficient": ("1", "0.5", "0", "1e-3"),
    "j2": ("0", "5", "4"),
    "dim": ("2", "8", "12"),
    "kind": ("hp:1", "dyson:2", "villain:1", "hp"),
    "kinds": ("hp:1", " hp:1 , hp:2", "dyson:1,hp:2"),
    "grid": ("default", "-", "grid.json"),
    "input": ("missing.json",),
    "output": ("-", "out.json"),
}
# Values that some or all of the types refuse, or that argparse reads as an
# option after a space.
_REFUSED = ("-1/2", "1e400", "nan", "x", "", "bogus", "hp:0", "-1", "-", "--", "-x", "-1e3")
_STRAY = ("-", "--", "-h", "--help", "--bogus", "-1", "stray", "")
_FAULTS = (None, None, "refused", "refused", "abbreviated", "bare", "repeated", "missing",
           "stray")


@st.composite
def _argv(draw):
    """A command line with every required option and a few others, each
    once with a value its type takes, spelled ``--opt value`` or
    ``--opt=value``; then at most one fault."""
    words = draw(st.sampled_from(_COMMANDS + [(), ("export",), ("bogus",)]))
    if words not in _COMMANDS:
        return [*words, *draw(st.lists(st.sampled_from(_STRAY), max_size=3))]
    options = [a for a in _subparser(cli.build_parser(), words)._actions if a.option_strings]
    chosen = [a for a in options if a.required]
    chosen += draw(st.lists(st.sampled_from([a for a in options if not a.required]),
                            unique=True, max_size=4))
    chosen = draw(st.permutations(chosen))

    def item(action, values=None):
        taken = tuple(action.choices) if action.choices else _TAKEN.get(action.dest, ("1",))
        return [draw(st.sampled_from(action.option_strings)),
                draw(st.sampled_from(values or taken)), draw(st.sampled_from(("space", "equals")))]

    items = [item(a) for a in chosen]
    fault = draw(st.sampled_from(_FAULTS))
    at = draw(st.integers(0, max(len(items) - 1, 0)))
    if fault in ("refused", "repeated", "missing") and not items:
        fault = "stray"
    if fault == "refused":
        items[at] = item(chosen[at], _REFUSED)
    elif fault == "repeated":
        items.insert(draw(st.integers(0, len(items))), item(chosen[at]))
    elif fault == "missing":
        del items[at]
    elif fault in ("abbreviated", "bare") and items and len(items[at][0]) > 3:
        items[at][2] = fault
    argv = list(words)
    for option, value, shape in items:
        if shape == "space":
            argv += [option, value]
        elif shape == "equals":
            argv.append(f"{option}={value}")
        elif shape == "abbreviated":
            argv += [option[:draw(st.integers(3, len(option) - 1))], value]
        else:
            argv.append(option)
    if fault == "stray":
        argv.insert(draw(st.integers(len(words), len(argv))), draw(st.sampled_from(_STRAY)))
    return argv


def _argparse(argv):
    """What a fresh parser makes of ``argv``: its namespace, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_quick_reads_what_argparse_reads(argv):
    """The fast path either gives up or returns argparse's own namespace."""
    quick = cli._quick(argv)
    assert quick is None or quick == _argparse(argv)


def test_quick_reads_a_refused_default_once(monkeypatch):
    """A string default its type refuses is read once, into the table of its
    parser, and the fast path gives up whenever that option is left out,
    as argparse refuses it then; given, the option reads as usual."""
    calls = []

    def count(text):
        calls.append(text)
        return int(text)

    parser = argparse.ArgumentParser(prog="scratch")
    parser.add_argument("--count", type=count, default="many")
    parser.add_argument("--name", default="x")
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    assert cli._quick([]) is None
    assert cli._quick(["--name", "y"]) is None
    assert calls == ["many"]
    assert vars(cli._quick(["--count", "3"])) == {"count": 3, "name": "x"}
    assert calls == ["many", "3"]
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        parser.parse_args([])


# One argv of each shape the benchmark workloads send (perfbench/workloads.py):
# an exact verify, a float sweep over a grid file, a spectral verify, and the
# transport pair of a complex build to a file and a transform export.
_WORKLOAD_ARGVS = [
    ["verify", "--kind", "dyson:2", "--c1", "-2", "--c3", "1", "--j2", "5", "--dim", "17",
     "--format", "json"],
    ["sweep", "--kinds", "hp:1,hp:2,hp:3", "--grid", "grid-0000.json", "--dim", "64",
     "--format", "json"],
    ["verify", "--kind", "villain:1", "--c1", "3", "--c3", "-1", "--j2", "4", "--dim", "96",
     "--format", "json"],
    ["build", "--kind", "dyson:1", "--field", "complex", "--c1", "-2", "--c3", "1", "--j2", "3",
     "--dim", "24", "-o", "realization.json"],
    ["export", "transform", "--map", "s1-closed", "--c1", "2", "--c3", "0", "--j2", "6",
     "--dim", "40"],
]


def test_quick_reads_every_golden_and_workload_argv():
    """Every golden command line and every workload shape is read by the
    fast path, so that a later change cannot lose it unnoticed."""
    for argv in [list(p.values[0]) for p in GOLDEN] + _WORKLOAD_ARGVS:
        quick = cli._quick(argv)
        assert quick is not None, argv
        assert quick == _argparse(argv)


def test_main_reads_sys_argv(monkeypatch, capsys):
    """``main()`` with no argv reads ``sys.argv[1:]``, on the fast path and
    off it."""
    monkeypatch.setattr("sys.argv", ["higgsalg", "table", "--c1", "3", "--c3", "-1", "--j2", "4"])
    assert main() == 0
    assert capsys.readouterr().out == representation_table(AlgebraParams.of(3, -1), 2).to_csv()
    monkeypatch.setattr("sys.argv", ["higgsalg", "table", "--c1", "1", "--c3", "-1/2", "--j2", "4"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 64
    assert capsys.readouterr().err.splitlines()[-1] == (
        "higgsalg table: error: argument --c3: expected one argument")
