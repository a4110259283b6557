"""Command-line surface: argument handling, exit codes, file output."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from higgsalg import AlgebraParams, FockSpace, build_realization, representation_table
from higgsalg import cli
from higgsalg.cli import main


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


def test_sweep_json_deterministic_across_threads(tmp_path, capsys, monkeypatch):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"c1": "2", "c3": "1", "j2": j2} for j2 in (2, 3, 4)
    ]))
    argv = ["sweep", "--kinds", "hp:1,dyson:2", "--grid", str(grid),
            "--dim", "12", "--format", "json"]
    monkeypatch.delenv("HIGGSALG_THREADS", raising=False)
    assert main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("HIGGSALG_THREADS", "3")
    assert main(argv) == 0
    assert capsys.readouterr().out == serial


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
    path = tmp_path / "r.json"
    code = main([
        "build", "--c1", "2", "--c3", "0", "--j2", "4",
        "--kind", "dyson:1", "--dim", "4", "--field", field, "-o", str(path),
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
    pytest.param("complex", ("jp", "entries", 1, 0), float("inf"), id="infinite-entry"),
    pytest.param("complex", ("j3", "entries", 0, 1), float("nan"), id="nan-entry"),
    pytest.param("rational", ("mask",), 4, id="mask-not-a-list"),
    pytest.param("rational", ("c1",), "1/0", id="zero-denominator"),
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
])
def test_malformed_realization_file_exits_65(tmp_path, capsys, field, path, value):
    saved, doc = _saved_realization(tmp_path, field)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    saved.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", "--input", str(saved)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("grid", [
    [{"c1": "1/0", "c3": "1", "j2": 2}],
    {"c1": "1", "c3": "1", "j2": 2},
    [{"c1": "1", "c3": "1", "j2": "two"}],
])
def test_malformed_grid_file_exits_65(tmp_path, capsys, grid):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    code = main(["sweep", "--grid", str(path), "--dim", "8"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("j2", [2.5, -1, True, "3"], ids=["float", "negative", "bool", "string"])
def test_bad_grid_j2_exits_65(tmp_path, capsys, j2):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([{"c1": "1", "c3": "1", "j2": j2}]))
    code = main(["sweep", "--grid", str(path), "--dim", "8", "--kinds", "hp:1"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: grid j2 must be an integer >= 0")
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize("kind", [
    ["--kind", "hp:1"], ["--kind", "hp:2"], ["--kind", "hp:3"],
    ["--kind", "dyson:1", "--field", "complex"],
], ids=["hp-1", "hp-2", "hp-3", "dyson-complex-1"])
def test_verify_input_matches_direct_verify(tmp_path, capsys, kind):
    """A saved realization loads as dense arrays; verifying it prints what
    verifying the banded original prints, byte for byte."""
    for i, point in enumerate(_VERIFY_POINTS):
        path = tmp_path / f"r{i}.json"
        assert main(["build", *point, *kind, "-o", str(path)]) == 0
        for fmt in ("text", "json"):
            direct = main(["verify", *point, *kind, "--format", fmt]), capsys.readouterr().out
            loaded = main(["verify", "--input", str(path), "--format", fmt])
            loaded = loaded, capsys.readouterr().out
            assert loaded == direct


_HUGE_SPIN = ["--c1", "1", "--c3", "1", "--dim", "4", "--kind", "hp:1"]


@pytest.mark.parametrize("argv", [
    ["verify", *_HUGE_SPIN, "--j2", str(10 ** 60), "--format", "json"],
    ["verify", *_HUGE_SPIN, "--j2", str(10 ** 90)],
    ["build", *_HUGE_SPIN, "--j2", str(10 ** 200)],
], ids=["verify-residual-overflows", "verify-casimir-overflows", "build-weight-overflows"])
def test_spin_beyond_the_float_range_exits_65(capsys, argv):
    """Float entries that leave the float range give one error line, not a
    NaN residual, a numpy warning or an internal error."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


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
