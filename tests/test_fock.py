"""Fock-space constructors: canonical commutation, both scalar fields,
serialization, spectral helpers, and the reference band products the
other tests define their expected values by."""

from __future__ import annotations

import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsalg import (
    COMPLEX,
    RATIONAL,
    FockSpace,
    annihilation,
    momentum,
    pochhammer,
)
from higgsalg import fock
from higgsalg.fock import BandedOperator, DenseOperator, FieldError, _operator_text
from reference import (
    add,
    commutator,
    creation,
    diagonal_operator,
    mul,
    operator_json_dict,
    position,
    rational_operator,
    scale,
    sub,
    unitary_exp,
)


def test_truncation_guard():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(0)


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_exact_canonical_commutator(dim):
    sp = FockSpace(dim)
    a = annihilation(sp, RATIONAL).entries
    ap = creation(sp, RATIONAL).entries
    defect = a @ ap - ap @ a - np.eye(dim, dtype=int)
    # truncation shows up only in the very last diagonal slot
    for i in range(dim):
        for l in range(dim):
            want = Fraction(-dim) if i == l == dim - 1 else Fraction(0)
            assert defect[i, l] == want


def test_normalized_ladder_adjoint():
    sp = FockSpace(9)
    a = annihilation(sp, COMPLEX)
    assert np.array_equal(a.adjoint().entries, np.diag(np.sqrt(np.arange(1.0, 9.0)), -1))


def test_number_operator_from_ladders():
    sp = FockSpace(8)
    exact = creation(sp, RATIONAL).entries @ annihilation(sp, RATIONAL).entries
    assert np.array_equal(exact, np.diag(range(8)))
    # squaring sqrt(n) reintroduces roundoff in the float field
    a = annihilation(sp, COMPLEX).entries
    assert np.abs(a.conj().T @ a - np.diag(np.arange(8.0))).max() < 1e-14


def test_quadrature_commutator_interior():
    sp = FockSpace(24)
    x, p = position(sp).entries, momentum(sp).entries
    block = (x @ p - p @ x)[:23, :23]
    target = 1j * np.eye(23)
    assert np.abs(block - target).max() < 1e-13


def test_unitary_exp_is_unitary():
    sp = FockSpace(20)
    u = unitary_exp(position(sp), 1.0).entries
    drift = np.abs(u @ u.conj().T - np.eye(20)).max()
    assert drift < 1e-12


def test_unitary_exp_diagonal_phases():
    sp = FockSpace(6)
    u = unitary_exp(diagonal_operator(sp, range(6)), 0.7)
    for n in range(6):
        assert abs(u.entries[n, n] - np.exp(0.7j * n)) < 1e-12


def test_unitary_exp_rejects_nonhermitian():
    sp = FockSpace(4)
    with pytest.raises(ValueError):
        unitary_exp(annihilation(sp), 1.0)


def test_mixed_field_promotion():
    sp = FockSpace(5)
    promoted = creation(sp, RATIONAL)._promote()
    assert promoted.field == COMPLEX
    mixed = annihilation(sp, COMPLEX).entries @ promoted.entries
    # normalized lowering against the unit-entry monomial raising gives
    # sqrt(n+1) on the diagonal
    for n in range(4):
        assert abs(mixed[n, n] - np.sqrt(n + 1.0)) < 1e-15


def test_max_norm_is_exact_for_rationals():
    sp = FockSpace(3)
    op = diagonal_operator(sp, [Fraction(1, 3), Fraction(-7, 2), Fraction(0)], RATIONAL)
    norm = op.max_norm()
    assert isinstance(norm, Fraction) and norm == Fraction(7, 2)


def _diag_norm_case(storage: str, values: list):
    sp = FockSpace(len(values))
    if storage == "dense":
        return DenseOperator(sp, np.diag(np.array(values, dtype=complex)))
    return diagonal_operator(sp, values, RATIONAL if storage == "rational" else COMPLEX)


@pytest.mark.parametrize("storage,values,want", [
    pytest.param("dense", [1.0, -3.5, 0.5], 3.5, id="dense"),
    pytest.param("dense", [1.0, -3.5, math.nan], math.nan, id="dense-nan"),
    pytest.param("banded", [1.0, -3.5, 0.5], 3.5, id="banded"),
    pytest.param("banded", [1.0, -3.5, math.nan], math.nan, id="banded-nan"),
    pytest.param("rational", [Fraction(1, 3), Fraction(-7, 2), 0], Fraction(7, 2), id="rational"),
])
def test_max_norm_is_the_same_on_every_call(storage, values, want):
    """``max_norm`` is computed on the first call and remembered: later
    calls return the same value, a NaN norm included."""
    op = _diag_norm_case(storage, values)
    assert isinstance(op, DenseOperator) == (storage == "dense")
    for _ in range(3):
        norm = op.max_norm()
        assert type(norm) is type(want)
        assert math.isnan(norm) if math.isnan(want) else norm == want


def test_adjoint_is_remembered_both_ways():
    """The adjoint of an adjoint is the operator itself, in either storage
    and field, and neither keeps the other alive."""
    sp = FockSpace(5)
    ops = [annihilation(sp), annihilation(sp, RATIONAL), momentum(sp)]
    for op in ops:
        dag = op.adjoint()
        assert op.adjoint() is dag and dag.adjoint() is op
        assert np.array_equal(dag.entries, op.entries.conj().T)
    dag = ops[0].adjoint()
    ref = weakref.ref(dag)
    del dag
    assert ref() is None
    assert np.array_equal(ops[0].adjoint().entries, ops[0].entries.conj().T)


def test_entries_are_frozen():
    sp = FockSpace(3)
    op = diagonal_operator(sp, range(3))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_pochhammer_values():
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(0.5, 0) == 1.0
    assert pochhammer(-2.0, 3) == 0.0
    assert abs(pochhammer(0.5, 2) - 0.75) < 1e-15


@st.composite
def _rational_matrices(draw):
    dim = draw(st.integers(min_value=2, max_value=4))
    vals = draw(
        st.lists(
            st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
            min_size=dim * dim,
            max_size=dim * dim,
        )
    )
    ent = np.array(vals, dtype=object).reshape(dim, dim)
    return rational_operator(FockSpace(dim), ent)


def _through_json(op):
    """``op`` written as an operator file and read back."""
    return BandedOperator.from_json_dict(json.loads(_operator_text(op)))


@given(_rational_matrices())
@settings(max_examples=60, deadline=None)
def test_rational_serialization_bit_exact(op):
    back = _through_json(op)
    assert back.field == RATIONAL
    for i in range(op.space.dim):
        for l in range(op.space.dim):
            assert back.entries[i, l] == op.entries[i, l]


def test_complex_serialization_round_trip():
    sp = FockSpace(6)
    op = unitary_exp(position(sp), 0.3)
    back = _through_json(op)
    assert np.array_equal(back.entries, op.entries)


@pytest.mark.parametrize("bad", [0.0, 0j, np.float64(0.0), 0.5, None, "1"])
def test_rational_operator_rejects_a_non_rational_entry(bad):
    """Every entry of a dense array given to the rational field must be
    rational, zeros included; the rational ones keep their nonzero bands."""
    entries = np.array([[Fraction(0), 1], [Fraction(2, 3), 0]], dtype=object)
    op = rational_operator(FockSpace(2), entries)
    assert sorted(op._bands) == [-1, 1] and op.entries.tolist() == entries.tolist()
    entries[1, 1] = bad
    with pytest.raises(FieldError):
        rational_operator(FockSpace(2), entries)


def test_serialization_rejects_bad_payload():
    with pytest.raises(ValueError):
        BandedOperator.from_json_dict({"dim": 2, "field": "rational", "entries": ["1"]})
    with pytest.raises(ValueError):
        BandedOperator.from_json_dict({"dim": 2, "field": "octonion", "entries": ["1"] * 4})
    # entries that are not finite numbers of the field, or that are spelled
    # as another JSON type: a boolean, a float for a rational, a string for
    # a float
    for bad in ("1/0", "inf", "nan", float("inf"), [1, 2], True, 0.1, None):
        with pytest.raises(ValueError):
            BandedOperator.from_json_dict(
                {"dim": 2, "field": "rational", "entries": ["1", bad, "0", "0"]})
    for bad in ([float("nan"), 0.0], [0.0, float("-inf")], ["x", 0.0], [1.0], [True, 0.0],
                [0.0, False], ["1.5", 0.0], [10 ** 400, 0.0], [1.0, 0.0, 0.0], (1.0, 0.0), 1.0):
        with pytest.raises(ValueError):
            BandedOperator.from_json_dict(
                {"dim": 2, "field": "complex", "entries": [[1.0, 0.0], bad, [0.0, 0.0], [0.0, 0.0]]}
            )


@pytest.mark.parametrize("payload", [
    pytest.param({"dim": 2, "field": "complex", "entries": [[1.0, 0.0]] * 3}, id="count"),
    pytest.param({"dim": 1, "field": "complex", "entries": [[1.0, 0.0]]}, id="dim"),
    pytest.param({"dim": 2, "field": "octonion", "entries": [[1.0, 0.0]] * 4}, id="field"),
    pytest.param({"dim": 2, "field": "complex", "entries": [[1.0, 0.0], [True, 0.0]] * 2},
                 id="boolean-part"),
    pytest.param({"dim": 2, "field": "complex", "entries": [[0.0, 0.0], [math.nan, 0.0]] * 2},
                 id="nan-part"),
    pytest.param({"dim": 2, "field": "complex", "entries": [[0.0, 10 ** 400]] * 4},
                 id="int-past-floats"),
    pytest.param({"dim": 2, "field": "complex", "entries": "x"}, id="entries-not-a-list"),
    pytest.param({"field": "complex", "entries": []}, id="missing-dim"),
    pytest.param([1], id="not-an-object"),
])
def test_the_dense_loader_refuses_as_the_band_loader(payload):
    """A villain file's operators go through ``DenseOperator.from_json_dict``;
    a malformed one is refused with the error the band loader raises."""
    errors = []
    for load in (BandedOperator.from_json_dict, DenseOperator.from_json_dict):
        with pytest.raises((ValueError, KeyError)) as info:
            load(payload)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_the_dense_loader_holds_the_band_loaders_matrix():
    """A complex payload loads dense and holds the matrix the band loader
    reads; a rational one, which the band loader reads, the dense loader
    refuses, naming its field."""
    entries = [[0.0, 0.0], [1.5, -2.0], [0.0, 0.0], [-0.5, 0.0]] * 2 + [[0.0, 0.0]] * 8
    payload = {"dim": 4, "field": "complex", "entries": entries}
    banded, dense = BandedOperator.from_json_dict(payload), DenseOperator.from_json_dict(payload)
    assert dense.entries.tolist() == banded.entries.tolist()
    payload = {"dim": 2, "field": "rational", "entries": ["0", "1/3", "-2", "0"]}
    assert BandedOperator.from_json_dict(payload).field == RATIONAL
    with pytest.raises(ValueError, match='operator is complex, not "rational"'):
        DenseOperator.from_json_dict(payload)


# -- band products and views against dense Fraction matrices ------------------

_SMALL_FRACTIONS = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=12)
)


@st.composite
def _rational_operator_pairs(draw):
    """Two rational operators on one space, each either dense (every entry
    drawn) or banded (entries drawn on a random set of offsets only)."""
    dim = draw(st.integers(min_value=2, max_value=8))

    def operator():
        if draw(st.booleans()):
            vals = draw(st.lists(_SMALL_FRACTIONS, min_size=dim * dim, max_size=dim * dim))
            ent = np.array(vals, dtype=object).reshape(dim, dim)
        else:
            ent = np.full((dim, dim), Fraction(0), dtype=object)
            for d in draw(st.sets(st.integers(1 - dim, dim - 1), max_size=4)):
                size = dim - abs(d)
                band = draw(st.lists(_SMALL_FRACTIONS, min_size=size, max_size=size))
                for t, v in enumerate(band):
                    ent[(t - d, t) if d < 0 else (t, t + d)] = v
        return rational_operator(FockSpace(dim), ent)

    return operator(), operator()


def _assert_exact(op, ref):
    assert op.field == RATIONAL
    assert op.entries.shape == ref.shape
    for got, want in zip(op.entries.flat, ref.flat):
        assert isinstance(got, Fraction) and got == want


@given(_rational_operator_pairs(), _SMALL_FRACTIONS)
@settings(max_examples=100, deadline=None)
def test_banded_arithmetic_matches_dense_reference(pair, c):
    a, b = pair
    x, y = a.entries, b.entries
    dim = a.space.dim
    _assert_exact(mul(a, b), x @ y)
    _assert_exact(add(a, b), x + y)
    _assert_exact(sub(a, b), x - y)
    _assert_exact(scale(c, a), c * x)
    _assert_exact(a.adjoint(), x.T)
    norm = a.max_norm()
    assert isinstance(norm, Fraction) and norm == max(abs(v) for v in x.flat)
    assert list(a.diagonal()) == list(x.diagonal())
    for d in range(1 - dim, dim):
        assert list(a.diagonal(d)) == list(x.diagonal(d))
    assert np.array_equal(a._promote().entries, x.astype(float).astype(complex))
    _assert_exact(_through_json(a), x)


# -- integer bands over one denominator ----------------------------------------

# numerators far past 2**53, where a float numerator would already be rounded
_NUMERATORS = st.one_of(st.integers(-60, 60), st.integers(-2 ** 80, 2 ** 80))
_DENOMINATORS = st.sampled_from([1, 2, 3, 24, 48, 7 * 9, 2 ** 61 - 1])


@st.composite
def _over_denominators(draw, dim):
    """A rational operator whose entries are numerators over one drawn
    denominator, on a random set of offsets, and its dense Fraction matrix."""
    den = draw(_DENOMINATORS)
    ref = np.full((dim, dim), Fraction(0), dtype=object)
    for d in draw(st.sets(st.integers(1 - dim, dim - 1), max_size=4)):
        for t in range(dim - abs(d)):
            ref[(t - d, t) if d < 0 else (t, t + d)] = Fraction(draw(_NUMERATORS), den)
    return rational_operator(FockSpace(dim), ref), ref


def _assert_integer_bands(op):
    """Rational storage: int numerators over one positive int denominator."""
    assert type(op._den) is int and op._den > 0
    assert all(type(x) is int for band in op._bands.values() for x in band)


@given(st.data(), st.integers(min_value=2, max_value=7), _NUMERATORS,
       st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=150, deadline=None)
def test_integer_bands_match_dense_fractions(data, dim, p, q):
    """Every rational band routine, and every view that leaves the operator,
    against the same arithmetic on dense Fraction matrices, with operands
    over different denominators and numerators past 2**53."""
    (a, x), (b, y) = (data.draw(_over_denominators(dim)) for _ in range(2))
    c = Fraction(p, q)
    cases = [(a, x), (b, y), (mul(a, b), x @ y), (add(a, b), x + y), (sub(a, b), x - y),
             (scale(c, a), c * x), (a.adjoint(), x.T), (scale(-1, b), -y)]
    for op, ref in cases:
        _assert_integer_bands(op)
        _assert_exact(op, ref)
        assert op.max_norm() == max(abs(v) for v in ref.flat)
        assert isinstance(op.max_norm(), Fraction)
        for d in range(1 - dim, dim):
            got = op.diagonal(d)
            assert all(isinstance(v, Fraction) for v in got)
            assert list(got) == list(ref.diagonal(d))
        spelled = {"dim": dim, "field": RATIONAL, "entries": [str(v) for v in ref.flat]}
        assert operator_json_dict(op) == spelled
        assert fock._operator_text(op) == json.dumps(spelled, indent=2)
        # each entry promotes as complex(Fraction) does, bit for bit
        want = np.array([complex(v) for v in ref.flat]).reshape(dim, dim)
        assert op._promote().entries.tobytes() == want.tobytes()


def test_promotion_divides_the_numerator_exactly():
    """2**53 + 1 has no float; rounding it before the division by 3 would
    give a different quotient than the correctly rounded one."""
    value = Fraction(2 ** 53 + 1, 3)
    assert float(2 ** 53 + 1) / 3 != float(value)
    op = diagonal_operator(FockSpace(2), [value, 0], RATIONAL)
    assert op._promote().diagonal()[0] == complex(value)


def test_zero_has_one_spelling_whatever_the_storage():
    """An operator file depends only on the matrix: the banded creator and
    a dense copy of the transposed annihilator are equal, so they write
    the same bytes, although the conjugate leaves -0.0 imaginary parts in
    the bands and in every dense view made from them."""
    sp = FockSpace(3)
    banded = creation(sp)
    dense = DenseOperator(sp, annihilation(sp).entries.T.copy())
    assert np.array_equal(banded.entries, dense.entries)
    assert _operator_text(banded) == _operator_text(dense)
    assert "-0.0" not in _operator_text(banded)
    # products that leave signed zeros in the bands or the dense view do
    # not reach the file either
    d = diagonal_operator(sp, [1.0, -2.0, -0.5])
    for op in (scale(-1, banded), mul(d, banded), scale(-1.5, banded), sub(banded, banded),
               DenseOperator(sp, d.entries @ dense.entries)):
        payload = json.loads(_operator_text(op))
        assert all(math.copysign(1.0, x) == 1.0
                   for pair in payload["entries"] for x in pair if x == 0)


@pytest.mark.parametrize("field", [COMPLEX, RATIONAL])
def test_a_band_of_zeros_reads_as_an_absent_band(field):
    """A band of zeros is no band at all: the reference products that
    cancel every entry leave an operator with no band, as a built generator
    with no admissible bond is, and every reader sees it as the zero
    matrix."""
    sp = FockSpace(5)
    op = mul(diagonal_operator(sp, [1, -2, Fraction(-1, 2), 3, -4], field), creation(sp, field))
    j3 = diagonal_operator(sp, [Fraction(3, 2) - n for n in range(5)], field)
    grading = add(commutator(j3, op), op)  # op raises n, so it lowers j - n by one
    zero = (rational_operator(sp, np.zeros((5, 5), dtype=object)) if field == RATIONAL
            else DenseOperator(sp, np.zeros((5, 5), dtype=complex)))
    for residual in (sub(op, op), scale(0, op), grading):
        assert residual._bands == {}
        written = _operator_text(residual)
        assert written == _operator_text(zero) and "-0.0" not in written
        assert residual.max_norm() == 0
        assert BandedOperator.from_json_dict(json.loads(written))._bands == {}


# -- banded complex field against dense numpy ----------------------------------

_BAND_VALUES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _same_numbers(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal, and bit for bit on every nonzero real or imaginary part (a
    zero part may differ in sign only)."""
    g, w = (np.ascontiguousarray(m).view(float) for m in (got, want))
    nz = w != 0
    return np.array_equal(g, w) and g[nz].tobytes() == w[nz].tobytes()


@st.composite
def _complex_band_operands(draw):
    """Two banded complex operators on one space and their dense numpy twins.

    ``shape`` picks the product class: "single" (one band each),
    "diag-left" / "diag-right" (one factor diagonal, the other up to three
    bands) or "multi" (up to three bands each).  Within an operator every
    entry is real or every entry is imaginary, as in the step kinds and
    the quadratures; products of general complex entries round differently
    in BLAS, which fuses multiply and add.
    """
    dim = draw(st.integers(min_value=2, max_value=9))
    shape = draw(st.sampled_from(["single", "diag-left", "diag-right", "multi"]))

    def operator(most):
        if most == 0:
            offsets = {0}
        else:
            offsets = draw(st.sets(st.integers(1 - dim, dim - 1), min_size=1, max_size=most))
        axis = draw(st.sampled_from([1.0, 1j]))
        bands, dense = {}, np.zeros((dim, dim), dtype=complex)
        for d in sorted(offsets):
            size = dim - abs(d)
            band = np.array(draw(st.lists(_BAND_VALUES, min_size=size, max_size=size))) * axis
            bands[d] = band.tolist()
            dense += np.diag(band, d)
        return BandedOperator(FockSpace(dim), COMPLEX, bands), dense

    most = {"single": (1, 1), "diag-left": (0, 3), "diag-right": (3, 0), "multi": (3, 3)}[shape]
    return shape, operator(most[0]), operator(most[1])


@given(
    _complex_band_operands(),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=150, deadline=None)
def test_banded_complex_matches_dense_numpy(operands, c):
    shape, (a, x), (b, y) = operands
    product = mul(a, b).entries
    if shape == "multi":
        # several terms per entry: the band sums may round differently
        assert np.all(np.abs(product - x @ y) <= 1e-12 * (np.abs(x) @ np.abs(y)))
    else:
        # every entry is a single product
        assert _same_numbers(product, x @ y)
    assert _same_numbers(add(a, b).entries, x + y)
    assert _same_numbers(sub(a, b).entries, x - y)
    assert _same_numbers(scale(c, a).entries, complex(c) * x)
    assert _same_numbers(a.adjoint().entries, x.conj().T)
    dense = DenseOperator(a.space, x)
    assert a.max_norm() == dense.max_norm() == float(np.abs(x).max())
    assert np.array_equal(a.diagonal(), x.diagonal())
