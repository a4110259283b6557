"""The step kinds run without numpy, and their float reducers keep NaN.

Each command runs ``higgsalg.cli.main`` in a fresh interpreter, which then
reports whether numpy was imported.  A spectral verify must import it, so
the check can fail.  The package's own import loads no ``dataclasses``,
``inspect`` or ``typing`` either."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import higgsalg
from higgsalg import (
    COMPLEX,
    AlgebraParams,
    FockSpace,
    Realization,
    build_realization,
)
from higgsalg import fock, verify
from higgsalg.fock import BandedOperator
from higgsalg.cli import main

_SRC = str(Path(higgsalg.__file__).resolve().parent.parent)

# runs cli.main on its arguments with stdout swallowed, then prints whether
# numpy is loaded and the exit code
_CHILD = """\
import contextlib, io, sys
from higgsalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print("numpy" in sys.modules, code)
"""

# prints which of the modules named in its arguments importing higgsalg.cli
# adds; one loaded before the import, as a site hook may load typing, is not
# counted
_IMPORT_CHILD = """\
import sys
before = set(sys.modules)
import higgsalg.cli
print(*sorted(set(sys.argv[1:]) & (set(sys.modules) - before)))
"""

_POINT = ["--c1", "1", "--c3", "1", "--j2", "5"]


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _fresh_run(argv, cwd) -> tuple[bool, int]:
    """(numpy imported, exit code) of ``cli.main(argv)`` in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=cwd, env=_child_env(),
                          capture_output=True, text=True, check=True)
    loaded, code = done.stdout.split()
    return loaded == "True", int(code)


def test_the_package_imports_no_dataclasses_inspect_or_typing(tmp_path):
    """A fresh interpreter's import of ``higgsalg.cli`` adds none of
    ``dataclasses``, ``inspect`` and ``typing``; it does add ``fractions``,
    so the check can fail."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, "dataclasses", "inspect",
                           "typing", "fractions"], cwd=tmp_path, env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["fractions"]


@pytest.mark.parametrize("argv", [
    ["verify", *_POINT, "--kind", "hp:1"],
    ["verify", *_POINT, "--kind", "hp:3"],
    ["verify", *_POINT, "--kind", "dyson:1", "--field", "rational"],
    ["verify", *_POINT, "--kind", "dyson:1", "--field", "complex"],
    ["verify", *_POINT, "--kind", "dyson:3"],
    ["build", *_POINT, "--kind", "dyson:2", "-o", "built.json"],
    ["verify", "--input", "rational.json"],
    ["verify", "--input", "hp.json"],
    ["verify", "--input", "complex.json"],
    ["sweep"],
    ["table", *_POINT],
    ["export", "operator", *_POINT, "--kind", "hp:2", "--which", "jp"],
    ["export", "transform", *_POINT],
], ids=["verify-hp1", "verify-hp3", "verify-dyson1-rational", "verify-dyson1-complex",
        "verify-dyson3", "build", "verify-rational-file", "verify-hp-file",
        "verify-complex-dyson-file", "sweep", "table", "export-operator", "export-transform"])
def test_the_step_paths_import_no_numpy(tmp_path, argv):
    for name, kind in (("rational", ["dyson:1"]), ("hp", ["hp:1"]),
                       ("complex", ["dyson:1", "--field", "complex"])):
        assert main(["build", *_POINT, "--kind", *kind, "--dim", "12",
                     "-o", str(tmp_path / f"{name}.json")]) == 0
    loaded, code = _fresh_run(argv, tmp_path)
    assert code == 0
    assert not loaded


def test_a_spectral_verify_imports_numpy(tmp_path):
    assert _fresh_run(["verify", *_POINT, "--kind", "villain:1"], tmp_path) == (True, 0)


# -- NaN through the float reducers --------------------------------------------

_WHERE = {"first": 0, "middle": 2, "last": 4}


def _with_nan(values: list, where: str) -> list:
    out = list(values)
    out[_WHERE[where]] = math.nan
    return out


@pytest.mark.parametrize("where", _WHERE)
def test_the_float_reducers_give_nan_wherever_it_stands(where):
    """Python's max keeps a NaN that comes first and drops one anywhere
    else; every reducer of the float step rows gives NaN wherever it is."""
    values = _with_nan([1.0, 3.0, 2.0, 5.0, 4.0], where)
    assert math.isnan(max(values)) == (where == "first")  # what a bare max does
    assert math.isnan(fock._peak(values))
    assert math.isnan(fock._peak([complex(x, -1.0) for x in values]))
    space = FockSpace(6)
    op = BandedOperator(space, COMPLEX, {1: values})
    assert math.isnan(op.max_norm())
    # a NaN in one band of several, beside a band of larger entries
    assert math.isnan(BandedOperator(space, COMPLEX, {-2: [9.0] * 4, 1: values}).max_norm())
    assert math.isnan(op._gap(BandedOperator(space, COMPLEX, {-1: [1.0] * 5})))


def test_a_modulus_past_the_float_range_is_inf_not_an_error():
    """abs of a finite complex past the float range raises OverflowError in
    Python; the reducer reads it as inf, as numpy does, and still gives NaN
    beside a NaN."""
    huge = complex(1.7e308, 1e308)
    with pytest.raises(OverflowError):
        abs(huge)
    assert fock._peak([1.0, huge, 2.0]) == math.inf
    assert math.isnan(fock._peak([1.0, huge, math.nan]))


def _float_rows() -> verify._FloatSteps:
    """The float step rows of hp:1 at (c1, c3) = (2, 0), 2j = 12: a block
    of twelve states and eleven bonds."""
    r = build_realization(FockSpace(32), AlgebraParams.of(2, 0), 6, "hp", 1)
    rows = verify._FloatSteps(r)
    assert len(rows.states) == 12 and len(rows._bonds()) == 11
    return rows


def _poisoned(seq, at: int):
    """``seq`` with entry ``at`` replaced by NaN, of the same type."""
    return type(seq)([*seq[:at], math.nan, *seq[at + 1:]])


@pytest.mark.parametrize("where", _WHERE)
def test_the_grading_and_commutes_loops_give_nan_wherever_it_stands(where):
    """A NaN in the first, a middle or the last entry a loop reads makes
    the row NaN: every band entry for the grading rows; the bands on the
    bonds and C on the block for ``casimir-commutes``."""
    rows = _float_rows()
    assert all(math.isfinite(x) for x in (rows.raising()[0], rows.lowering()[0],
                                           rows.commutes()[0]))

    def pick(seq) -> int:
        return {"first": 0, "middle": len(seq) // 2, "last": len(seq) - 1}[where]

    p, m, sym = rows.p, rows.m, rows.sym
    bonds = [n for _, _, n in rows._bonds()]
    rows.p = _poisoned(p, pick(p))
    assert math.isnan(rows.raising()[0])
    rows.p = _poisoned(p, bonds[pick(bonds)])
    assert math.isnan(rows.commutes()[0])
    rows.p = p
    rows.m = _poisoned(m, pick(m))
    assert math.isnan(rows.lowering()[0])
    rows.m = _poisoned(m, bonds[pick(bonds)])
    assert math.isnan(rows.commutes()[0])
    rows.m = m
    rows.sym = _poisoned(sym, pick(sym))
    assert math.isnan(rows.commutes()[0])
    assert math.isnan(rows.two_forms()[0]) and math.isnan(rows.scalar()[0])


def test_every_row_runs_on_python_numbers():
    """A built step realization's bands are tuples of Python floats or
    ints, and the float rows give floats."""
    for field in ("complex", "rational"):
        r = build_realization(FockSpace(12), AlgebraParams.of(1, 1), Fraction(5, 2), "dyson", 1,
                              field)
        for op in (r.jp, r.jm, r.j3):
            want = float if field == COMPLEX else int
            assert all(type(band) is tuple and {type(x) for x in band} == {want}
                       for band in op._bands.values())
    rows = _float_rows()
    values = tuple(measure(rows)[0] for _, _, _, measure in rows.rows)
    assert {type(x) for x in values} == {float}
    assert json.dumps(values)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("n,row", [(0, "ladder-closure"), (3, "ladder-closure"),
                                   (31, "grading-raise-k1")])
def test_a_j3_entry_that_is_not_finite_is_refused_by_the_first_row_that_reads_it(value, n, row):
    """A J3 entry that is not finite makes the grading rows' scale
    max |J3| max |op| not finite, so the realization is refused whatever
    those rows read: by ``ladder-closure`` where the entry lies in the
    interior block (states 0 .. 11), by ``grading-raise-k1`` at the last
    state, outside it."""
    r = build_realization(FockSpace(32), AlgebraParams.of(2, 0), 6, "hp", 1)
    t = list(r.j3.diagonal())
    t[n] = value
    broken = Realization(r.kind, r.step_k, r.j2, r.params, r.jp, r.jm,
                         BandedOperator(r.space, COMPLEX, {0: t}), r.admissible_mask)
    with pytest.raises(ValueError) as refused:
        verify.verify_realization(broken)
    assert str(refused.value) == (f"{row}: the float residual or its scale is not finite;"
                                  " the entries are beyond the float range")
