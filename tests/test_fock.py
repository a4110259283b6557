"""Fock-space constructors: canonical commutation, both scalar fields,
serialization, spectral helpers."""

from __future__ import annotations

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
