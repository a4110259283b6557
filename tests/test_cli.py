"""Command-line surface: argument handling, exit codes, file output."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from higgsalg import AlgebraParams, representation_table
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
