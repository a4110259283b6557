"""Fock-space constructors: canonical commutation, both scalar fields,
serialization, spectral helpers."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsalg import (
    COMPLEX,
    RATIONAL,
    FockSpace,
    Operator,
    annihilation,
    commutator,
    creation,
    diagonal_operator,
    identity_op,
    momentum,
    number_op,
    pochhammer,
    pochhammer_operator,
    position,
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
    a = annihilation(sp, RATIONAL)
    ap = creation(sp, RATIONAL)
    defect = commutator(a, ap) - identity_op(sp, RATIONAL)
    # truncation shows up only in the very last diagonal slot
    for i in range(dim):
        for l in range(dim):
            want = Fraction(-dim) if i == l == dim - 1 else Fraction(0)
            assert defect.entries[i, l] == want


def test_normalized_ladder_adjoint():
    sp = FockSpace(9)
    a = annihilation(sp, COMPLEX)
    assert (creation(sp, COMPLEX) - a.adjoint()).max_norm() == 0.0


def test_number_operator_from_ladders():
    sp = FockSpace(8)
    exact = creation(sp, RATIONAL) @ annihilation(sp, RATIONAL)
    assert (exact - number_op(sp, RATIONAL)).max_norm() == 0
    # squaring sqrt(n) reintroduces roundoff in the float field
    rounded = creation(sp, COMPLEX) @ annihilation(sp, COMPLEX)
    assert float((rounded - number_op(sp, COMPLEX)).max_norm()) < 1e-14


def test_quadrature_commutator_interior():
    sp = FockSpace(24)
    defect = commutator(position(sp), momentum(sp))
    block = defect.interior(23)
    target = 1j * np.eye(23)
    assert np.abs(block - target).max() < 1e-13


def test_unitary_exp_is_unitary():
    sp = FockSpace(20)
    u = unitary_exp(position(sp), 1.0)
    drift = (u @ u.adjoint() - identity_op(sp)).max_norm()
    assert drift < 1e-12


def test_unitary_exp_diagonal_phases():
    sp = FockSpace(6)
    u = unitary_exp(number_op(sp), 0.7)
    for n in range(6):
        assert abs(u.entries[n, n] - np.exp(0.7j * n)) < 1e-12


def test_unitary_exp_rejects_nonhermitian():
    sp = FockSpace(4)
    with pytest.raises(ValueError):
        unitary_exp(annihilation(sp), 1.0)


def test_mixed_field_promotion():
    sp = FockSpace(5)
    mixed = annihilation(sp, COMPLEX) @ creation(sp, RATIONAL)
    assert mixed.field == COMPLEX
    # normalized lowering against the unit-entry monomial raising gives
    # sqrt(n+1) on the diagonal
    for n in range(4):
        assert abs(mixed.entries[n, n] - np.sqrt(n + 1.0)) < 1e-15


def test_exact_scaling_stays_rational():
    sp = FockSpace(4)
    op = number_op(sp, RATIONAL).scale(Fraction(2, 3))
    assert op.field == RATIONAL
    assert op.entries[3, 3] == Fraction(2)
    promoted = number_op(sp, RATIONAL).scale(0.5)
    assert promoted.field == COMPLEX


def test_max_norm_is_exact_for_rationals():
    sp = FockSpace(3)
    op = diagonal_operator(sp, [Fraction(1, 3), Fraction(-7, 2), Fraction(0)], RATIONAL)
    norm = op.max_norm()
    assert isinstance(norm, Fraction) and norm == Fraction(7, 2)


def test_entries_are_frozen():
    sp = FockSpace(3)
    op = number_op(sp)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_pochhammer_values():
    assert pochhammer(Fraction(3), 4) == 360
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(-2), 3) == 0
    assert abs(pochhammer(0.5, 2) - 0.75) < 1e-15
    sp = FockSpace(5)
    op = pochhammer_operator(sp, Fraction(1, 2), RATIONAL)
    assert op.entries[2, 2] == Fraction(3, 4)
    assert op.entries[4, 4] == Fraction(105, 16)


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
    return Operator(FockSpace(dim), ent, RATIONAL)


@given(_rational_matrices())
@settings(max_examples=60, deadline=None)
def test_rational_serialization_bit_exact(op):
    back = Operator.from_json(op.to_json())
    assert back.field == RATIONAL
    for i in range(op.space.dim):
        for l in range(op.space.dim):
            assert back.entries[i, l] == op.entries[i, l]


def test_complex_serialization_round_trip():
    sp = FockSpace(6)
    op = unitary_exp(position(sp), 0.3)
    back = Operator.from_json(op.to_json())
    assert (back - op).max_norm() == 0.0


def test_serialization_rejects_bad_payload():
    with pytest.raises(ValueError):
        Operator.from_json_dict({"dim": 2, "field": "rational", "entries": ["1"]})
    with pytest.raises(ValueError):
        Operator.from_json_dict({"dim": 2, "field": "octonion", "entries": ["1"] * 4})
    # entries that are not finite numbers of the field
    for bad in ("1/0", "inf", "nan", float("inf"), [1, 2]):
        with pytest.raises(ValueError):
            Operator.from_json_dict({"dim": 2, "field": "rational", "entries": ["1", bad, "0", "0"]})
    for bad in ([float("nan"), 0.0], [0.0, float("-inf")], ["x", 0.0], [1.0]):
        with pytest.raises(ValueError):
            Operator.from_json_dict(
                {"dim": 2, "field": "complex", "entries": [[1.0, 0.0], bad, [0.0, 0.0], [0.0, 0.0]]}
            )


# -- banded exact core against a dense reference -------------------------------

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
        return Operator(FockSpace(dim), ent, RATIONAL)

    return operator(), operator()


def _assert_exact(op, ref):
    assert op.field == RATIONAL
    assert op.entries.shape == ref.shape
    for got, want in zip(op.entries.flat, ref.flat):
        assert isinstance(got, Fraction) and got == want


@given(
    _rational_operator_pairs(),
    _SMALL_FRACTIONS,
    st.integers(min_value=0, max_value=3),
    st.sets(st.integers(min_value=0, max_value=7)),
)
@settings(max_examples=100, deadline=None)
def test_banded_arithmetic_matches_dense_reference(pair, c, k, states):
    a, b = pair
    x, y = a.entries, b.entries
    dim = a.space.dim
    _assert_exact(a @ b, x @ y)
    _assert_exact(a + b, x + y)
    _assert_exact(a - b, x - y)
    _assert_exact(-a, -x)
    _assert_exact(a.scale(c), c * x)
    _assert_exact(a.adjoint(), x.T)
    ref = np.full((dim, dim), Fraction(0), dtype=object)
    np.fill_diagonal(ref, Fraction(1))
    for _ in range(k):
        ref = ref @ x
    _assert_exact(a.power(k), ref)
    norm = a.max_norm()
    assert isinstance(norm, Fraction) and norm == max(abs(v) for v in x.flat)
    assert list(a.diagonal()) == list(x.diagonal())
    block = sorted(s for s in states if s < dim)
    want = max((abs(x[i, l]) for i in block for l in block), default=Fraction(0))
    assert a.block_max(block) == want
    promoted = a + Operator.zeros(a.space, COMPLEX)
    assert np.array_equal(promoted.entries, x.astype(float).astype(complex))
    _assert_exact(Operator.from_json(a.to_json()), x)


def test_zero_has_one_spelling_whatever_the_storage():
    """An operator file depends only on the matrix: the banded creator and
    a dense copy of the transposed annihilator are equal, so they write
    the same bytes, although the conjugate leaves -0.0 imaginary parts in
    the bands and in every dense view made from them."""
    sp = FockSpace(3)
    banded = creation(sp)
    dense = Operator(sp, annihilation(sp).entries.T.copy(), COMPLEX)
    assert np.array_equal(banded.entries, dense.entries)
    assert banded.to_json() == dense.to_json()
    assert "-0.0" not in banded.to_json()
    # the arithmetic that left signed zeros in the bands or the dense view
    # does not reach the file either
    d = diagonal_operator(sp, [1.0, -2.0, -0.5])
    for op in (-banded, d @ banded, banded.scale(-1.5), banded - banded, d @ dense):
        payload = json.loads(op.to_json())
        assert all(math.copysign(1.0, x) == 1.0
                   for pair in payload["entries"] for x in pair if x == 0)


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
            bands[d] = band
            dense += np.diag(band, d)
        return Operator._banded(FockSpace(dim), COMPLEX, bands), dense

    most = {"single": (1, 1), "diag-left": (0, 3), "diag-right": (3, 0), "multi": (3, 3)}[shape]
    return shape, operator(most[0]), operator(most[1])


@given(
    _complex_band_operands(),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=3),
    st.sets(st.integers(min_value=0, max_value=8)),
)
@settings(max_examples=150, deadline=None)
def test_banded_complex_matches_dense_numpy(operands, c, k, states):
    shape, (a, x), (b, y) = operands
    dim = a.space.dim
    product = (a @ b).entries
    if shape == "multi":
        # several terms per entry: the band sums may round differently
        assert np.all(np.abs(product - x @ y) <= 1e-12 * (np.abs(x) @ np.abs(y)))
    else:
        # every entry is a single product, as the checks of the step kinds form
        assert _same_numbers(product, x @ y)
    assert _same_numbers((a + b).entries, x + y)
    assert _same_numbers((a - b).entries, x - y)
    assert _same_numbers((-a).entries, -x)
    assert _same_numbers(a.scale(c).entries, complex(c) * x)
    assert _same_numbers(a.adjoint().entries, x.conj().T)
    if shape == "single" or shape == "diag-left":
        assert _same_numbers(a.power(k).entries, np.linalg.matrix_power(x, k))
    dense = Operator(a.space, x, COMPLEX)
    assert a.max_norm() == dense.max_norm() == float(np.abs(x).max())
    assert np.array_equal(a.diagonal(), x.diagonal())
    block = sorted(s for s in states if s < dim)
    assert a.block_max(block) == dense.block_max(block)
    assert a.field == COMPLEX and (a @ dense).field == COMPLEX
    assert np.array_equal((a @ dense).entries, x @ x)
