"""Operator and realization files: the direct indent-2 writer against
``json.dumps(..., indent=2)``, and the storage an operator gets when it is
read back."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from higgsalg import COMPLEX, RATIONAL, AlgebraParams, FockSpace, build_realization
from higgsalg import fock, realizations
from higgsalg.cli import main
from higgsalg.fock import BandedOperator, DenseOperator, _operator_text
from higgsalg.realizations import Realization, _realization_text
from reference import operator_json_dict, rational_operator, realization_json_dict


def _reference(doc: dict) -> str:
    """A file as ``json.dumps`` spells it: the layout the writer must match."""
    return json.dumps(doc, indent=2) + "\n"


# -- the writer, differentially ------------------------------------------------

# edge floats of the file format: signed zeros, the smallest subnormal and
# the ends of the float range, beside ordinary finite values
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
# large and negative p/q, and zero
_FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 25)),
)


@st.composite
def _operators(draw):
    """A banded or dense operator of either field, with edge entries."""
    dim = draw(st.integers(min_value=2, max_value=7))
    field = draw(st.sampled_from([COMPLEX, RATIONAL]))
    values = _COMPLEX if field == COMPLEX else _FRACTIONS
    space = FockSpace(dim)
    if draw(st.booleans()):
        offsets = draw(st.sets(st.integers(1 - dim, dim - 1), max_size=3))
        sizes = {d: dim - abs(d) for d in offsets}
        bands = {d: draw(st.lists(values, min_size=size, max_size=size))
                 for d, size in sizes.items()}
        if field == RATIONAL:
            return BandedOperator._exact(space, bands)
        return BandedOperator(space, field, bands)
    flat = draw(st.lists(values, min_size=dim * dim, max_size=dim * dim))
    if field == RATIONAL:
        return rational_operator(space, np.array(flat, dtype=object).reshape(dim, dim))
    return DenseOperator(space, np.array(flat, dtype=complex).reshape(dim, dim))


@given(_operators())
@settings(max_examples=200, deadline=None)
def test_operator_writer_matches_json_dumps(op):
    assert _operator_text(op) + "\n" == _reference(operator_json_dict(op))


_KINDS = [("hp", k, COMPLEX) for k in (1, 2, 3)]
_KINDS += [("dyson", k, field) for k in (1, 2, 3) for field in (RATIONAL, COMPLEX)]
_KINDS += [("villain", 1, COMPLEX), ("villain", 2, COMPLEX)]
_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@given(
    st.sampled_from(_KINDS),
    _SMALL,
    _SMALL,
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=2, max_value=20),
)
@settings(max_examples=120, deadline=None)
def test_realization_writer_matches_json_dumps(kind, c1, c3, j2, dim):
    name, k, field = kind
    try:
        r = build_realization(FockSpace(dim), AlgebraParams(c1, c3), Fraction(j2, 2),
                              name, k, field)
    except ValueError:
        assume(False)  # no spectral coupling or no state in the window
    assert _realization_text(r) + "\n" == _reference(realization_json_dict(r))


def test_villain_files_carry_the_window():
    r = build_realization(FockSpace(12), AlgebraParams.of(1, 1), Fraction(5, 2), "villain", 2)
    text = _realization_text(r)
    assert text + "\n" == _reference(realization_json_dict(r))
    assert json.loads(text)["window"] == ["-5/2", "5/2"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("storage", ["banded", "dense"])
def test_writer_refuses_a_non_finite_entry(bad, storage):
    """json.dumps would write NaN or Infinity; the writer raises instead."""
    space = FockSpace(3)
    band = np.array([1.0, bad, 2.0], dtype=complex)
    op = BandedOperator(space, COMPLEX, {0: band})
    if storage == "dense":
        op = DenseOperator(space, np.diag(band))
    with pytest.raises(ValueError, match="not finite"):
        _operator_text(op)


# -- storage of loaded operators -----------------------------------------------

_POINT = ["--c1", "1", "--c3", "1", "--j2", "5"]
_SINGLE_BAND = [("hp", k) for k in (1, 2, 3)] + [("dyson", k) for k in (1, 2, 3)]


def _loaded(tmp_path, argv) -> Realization:
    path = tmp_path / "r.json"
    assert main(["build", *argv, "-o", str(path)]) == 0
    return Realization.from_json_dict(json.loads(path.read_text()))


@pytest.mark.parametrize("kind,k", _SINGLE_BAND)
def test_single_band_files_load_banded(tmp_path, kind, k):
    """hp and complex dyson files load as one band per operator, the band
    the in-memory build holds."""
    r = _loaded(tmp_path, [*_POINT, "--dim", "12", "--kind", f"{kind}:{k}", "--field", "complex"])
    built = build_realization(FockSpace(12), r.params, r.j, kind, k, COMPLEX)
    for got, want in ((r.jp, built.jp), (r.jm, built.jm), (r.j3, built.j3)):
        assert isinstance(got, BandedOperator) and len(got._bands) == 1
        assert got._bands.keys() == want._bands.keys()
        (d,) = got._bands
        assert np.array_equal(got._bands[d], want._bands[d])


@pytest.mark.parametrize("argv,length", [
    (["--c1", "4", "--c3=-1", "--j2", "4", "--dim", "12", "--kind", "hp:1"], 3),
    (["--c1=-2", "--c3", "0", "--j2", "4", "--dim", "32", "--kind", "hp:1"], 0),
    ([*_POINT, "--dim", "3", "--kind", "dyson:3", "--field", "rational"], 0),
    ([*_POINT, "--dim", "3", "--kind", "dyson:3", "--field", "complex"], 0),
], ids=["hp-zero-weight-end", "hp-vacuous", "dyson-past-dim-rational", "dyson-past-dim-complex"])
def test_built_and_loaded_bands_agree(tmp_path, argv, length):
    """Where a generator is not one band of N - |d| entries, a file loads
    the bands the in-memory build holds: an hp chain that ends inside the
    truncation on a zero weight (F_1(3) = 0 at this point) stores J+ and
    J- up to their last nonzero entry, ``length`` of them, and they hold no
    band at a point with no admissible bond, nor at a step k >= dim, in
    either field."""
    r = _loaded(tmp_path, argv)
    built = build_realization(r.space, r.params, r.j, r.kind, r.step_k, r.field)
    for got, want in ((r.jp, built.jp), (r.jm, built.jm), (r.j3, built.j3)):
        assert got.field == want.field and got._bands == want._bands
    k = r.step_k
    assert [len(built.jp._bands.get(k, ())), len(built.jm._bands.get(-k, ()))] == [length] * 2


@pytest.mark.parametrize("form", ["villain:1", "villain:2"])
def test_villain_files_load_dense(tmp_path, form):
    r = _loaded(tmp_path, [*_POINT, "--dim", "12", "--kind", form])
    assert all(isinstance(op, DenseOperator) for op in (r.jp, r.jm, r.j3))


def test_a_rational_villain_file_is_refused_as_it_loads(tmp_path, capsys, monkeypatch):
    """A villain file whose three operators are respelled in the rational
    field (each entry as its real part) exits 65 with one stderr line
    naming the field, before the point is rebuilt to compare J+."""
    path = tmp_path / "r.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", "4", "--dim", "8",
                 "--kind", "villain:1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    for name in ("jp", "jm", "j3"):
        doc[name] = {"dim": 8, "field": "rational",
                     "entries": [str(Fraction(re)) for re, _ in doc[name]["entries"]]}
    path.write_text(json.dumps(doc))

    def rebuilt(*args, **kwargs):
        raise AssertionError("a rational villain file was rebuilt")

    monkeypatch.setattr(realizations, "build_realization", rebuilt)
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 65
    out, err = capsys.readouterr()
    assert out == ""
    assert err == 'error: a dense (spectral) operator is complex, not "rational"\n'


def test_rational_file_parses_each_distinct_entry_once(tmp_path, monkeypatch):
    """A rational file spells almost every entry "0": loading one parses
    each distinct entry string of an operator once, decides zero or nonzero
    once per spelling (fewer than dim^2 truth tests of a Fraction for the
    whole file), and keeps the bands the in-memory build holds."""
    path = tmp_path / "r.json"
    assert main(["build", *_POINT, "--dim", "40", "--kind", "dyson:1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    parse, calls = fock._parse_rational, []
    truth, tests = Fraction.__bool__, []

    def counted(x):
        calls.append(x)
        return parse(x)

    def counted_truth(self):
        tests.append(self)
        return truth(self)

    monkeypatch.setattr(fock, "_parse_rational", counted)
    monkeypatch.setattr(Fraction, "__bool__", counted_truth)
    r = Realization.from_json_dict(doc)
    monkeypatch.undo()
    distinct = [x for name in ("jp", "jm", "j3") for x in set(doc[name]["entries"])]
    assert sorted(calls) == sorted(distinct)
    assert len(tests) < 40 * 40
    built = build_realization(FockSpace(40), r.params, r.j, "dyson", 1)
    for got, want in ((r.jp, built.jp), (r.jm, built.jm), (r.j3, built.j3)):
        assert got._bands.keys() == want._bands.keys()
        assert np.array_equal(got.entries, want.entries)


def test_zero_operator_loads_banded_without_bands():
    op = BandedOperator.from_json_dict({"dim": 3, "field": "complex", "entries": [[0.0, 0.0]] * 9})
    assert op._bands == {}
    assert op.max_norm() == 0.0


def test_large_loaded_hp_file_verifies_on_its_band(tmp_path, capsys, monkeypatch):
    """A dim-400 hp:1 file verifies without ever forming an N x N array, and
    prints what verifying the in-memory build prints."""
    point = [*_POINT, "--dim", "400", "--kind", "hp:1"]
    path = tmp_path / "r.json"
    assert main(["build", *point, "-o", str(path)]) == 0
    direct = main(["verify", *point]), capsys.readouterr().out

    def dense_view(self):
        raise AssertionError("verifying a loaded single-band file built a dense view")

    monkeypatch.setattr(BandedOperator, "entries", property(dense_view))
    loaded = main(["verify", "--input", str(path)]), capsys.readouterr().out
    assert loaded == direct
    assert direct[0] == 0


@pytest.mark.parametrize("entry", [4, 8], ids=["on-band", "off-band"])
def test_a_rational_hp_file_is_paired_exactly(tmp_path, capsys, entry):
    """An hp:1 file spelled in the rational field, with one J- entry set to
    1/3 on its band at (1, 0) or off it at (2, 0), reports the exact
    max |J- - J+-dagger| as its adjoint-pairing residual, a p/q string."""
    path = tmp_path / "r.json"
    assert main(["build", "--c1", "2", "--c3", "0", "--j2", "2", "--dim", "4", "--kind", "hp:1",
                 "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    for name in ("jp", "jm", "j3"):
        doc[name]["field"] = "rational"
        doc[name]["entries"] = [str(Fraction(re)) for re, _ in doc[name]["entries"]]
    doc["jm"]["entries"][entry] = "1/3"
    path.write_text(json.dumps(doc))
    jp, jm = (np.array([Fraction(x) for x in doc[name]["entries"]]).reshape(4, 4)
              for name in ("jp", "jm"))
    want = max(abs(x) for x in (jm - jp.T).flat)
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["adjoint-pairing"]["residual"] == str(want)
    assert not checks["adjoint-pairing"]["passed"]


# -- malformed values, spelled as the file holds them --------------------------

_DIM = "truncation dimension must be an integer >= 2, got"


@pytest.mark.parametrize("path,key,value,message", [
    ((), "dim", True, "operator dims [4, 4, 4] do not all equal dim true"),
    ((), "dim", None, "operator dims [4, 4, 4] do not all equal dim null"),
    ((), "dim", "3", 'operator dims [4, 4, 4] do not all equal dim "3"'),
    (("jp",), "dim", True, f"{_DIM} true"),
    (("jp",), "dim", None, f"{_DIM} null"),
    (("jp",), "dim", "3", f'{_DIM} "3"'),
    (("jp", "entries"), 1, "1/0", 'not a finite rational entry: "1/0"'),
    (("jp",), "field", "octonion", 'unknown field "octonion"'),
], ids=["dim-true", "dim-null", "dim-string", "op-dim-true", "op-dim-null", "op-dim-string",
        "rational-entry", "field"])
def test_bad_dim_field_or_entry_is_quoted_as_in_the_file(tmp_path, capsys, path, key, value,
                                                       message):
    """A dyson:1 file with one value replaced exits 65 with one line that
    spells the value as JSON, not as Python's repr (True, None, '3')."""
    saved = tmp_path / "r.json"
    assert main(["build", *_POINT, "--dim", "4", "--kind", "dyson:1", "-o", str(saved)]) == 0
    doc = json.loads(saved.read_text())
    parent = doc
    for step in path:
        parent = parent[step]
    parent[key] = value
    saved.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(saved)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
