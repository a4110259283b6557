"""Constructors: weight sequences, the three realization families, masks,
and serialization."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from higgsalg import (
    AlgebraParams,
    COMPLEX,
    FockSpace,
    RATIONAL,
    Realization,
    annihilation,
    build_realization,
    g_constant,
    parse_kind_token,
    product_recurrence,
    verify_realization,
    villain_boson,
)
from higgsalg.algebra import _prefix_sums
from higgsalg.cli import main
from higgsalg.fock import _to_float
from higgsalg.realizations import (
    _realization_text,
    _villain_radicand,
    _weight_float,
)
from higgsalg.similarity import conjugate, s1_recurrence
from higgsalg.verify import default_grid
from reference import (
    SU2_PARAMS,
    SU11_PARAMS,
    closed_form_k1,
    closed_form_k2,
    commutator,
    creation,
    diagonal_operator,
    identity_op,
    mul,
    scale,
    sub,
    window_columns,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
spins = st.integers(min_value=1, max_value=10).map(lambda j2: Fraction(j2, 2))


def _inhomogeneity(params, j, n):
    return params.c1 * (j - n) + params.c3 * (j - n) ** 3


@given(c1=rationals, c3=rationals, j=spins)
@settings(max_examples=60, deadline=None)
def test_recurrence_matches_step1_closed_form(c1, c3, j):
    params = AlgebraParams(c1, c3)
    seq = product_recurrence(params, j, 1, 25)
    for n in range(26):
        assert seq[n] == closed_form_k1(params, j, n)


@given(c1=rationals, c3=rationals, j=spins)
@settings(max_examples=60, deadline=None)
def test_recurrence_matches_step2_closed_form(c1, c3, j):
    params = AlgebraParams(c1, c3)
    seq = product_recurrence(params, j, 2, 25)
    for n in range(26):
        assert seq[n] == closed_form_k2(params, j, n)


@given(c1=rationals, c3=rationals, j=spins, n=st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_step2_closed_form_solves_difference_equation(c1, c3, j, n):
    params = AlgebraParams(c1, c3)
    lhs = (n + 1) * (n + 2) * closed_form_k2(params, j, n)
    if n >= 2:
        lhs -= n * (n - 1) * closed_form_k2(params, j, n - 2)
    assert lhs == _inhomogeneity(params, j, n)


def _order_k_reference(params, j, k, nmax, coefficients):
    """The order-k recurrence solved step by step in Fractions, as written:
    den(n) F(n) = rhs(n) + fall(n) F(n - k).  ``coefficients`` picks den(n):
    "derived" is (n + 1) ... (n + k), the one ``product_recurrence`` uses;
    "printed" is (n + 1) (n + 2) (n + 3) (n + 5) ... (n + 2^(k - 2) + 1),
    the denominators as the paper prints them.  The two agree for k <= 3
    and part ways at k = 4."""
    vals = []
    for n in range(nmax + 1):
        rhs = params.c1 * (j - n) + params.c3 * (j - n) ** 3
        fall = Fraction(1)
        for i in range(1, k + 1):
            fall *= n - i + 1
        if n >= k and fall != 0:
            rhs += fall * vals[n - k]
        if coefficients == "derived":
            den = Fraction(1)
            for i in range(1, k + 1):
                den *= n + i
        else:
            den = Fraction(n + 1)
            for i in range(2, k + 1):
                den *= n + 2 ** (i - 2) + 1
        vals.append(rhs / den)
    return tuple(vals)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_denominator_variants_agree_through_step3(k):
    params = AlgebraParams.of(2, 1)
    printed = _order_k_reference(params, Fraction(5, 2), k, 20, "printed")
    assert product_recurrence(params, Fraction(5, 2), k, 20) == printed


def test_denominator_variants_split_at_step4():
    params = AlgebraParams.of(2, 1)
    a = _order_k_reference(params, Fraction(5, 2), 4, 20, "printed")
    b = product_recurrence(params, Fraction(5, 2), 4, 20)
    assert a != b
    # only the derived denominators keep the order-4 closure identity:
    # prod_{i=1..4}(n+i) F(n) - prod_{i=0..3}(n-i) F(n-4) = R(n)
    def closure_defects(seq):
        bad = []
        for n in range(4, 21):
            lhs = seq[n]
            for i in range(1, 5):
                lhs *= n + i
            fall = Fraction(1)
            for i in range(4):
                fall *= n - i
            lhs -= fall * seq[n - 4]
            if lhs != _inhomogeneity(params, Fraction(5, 2), n):
                bad.append(n)
        return bad

    assert closure_defects(b) == []
    assert closure_defects(a) != []


def _matrix_power(op, k):
    """1 op ... op with k factors op, multiplied from the left.  The
    identity in front sets every zero imaginary part of a complex product
    to +0.0, as in the products the constructors reproduce."""
    return mul(identity_op(op.space, op.field), *[op] * k)


def _printed_step4(space, params, j2, kind):
    """hp:4 or dyson:4 assembled from public pieces as the constructors
    assemble them, but on the printed denominators' weights."""
    k, jf = 4, Fraction(j2, 2)
    if kind == "hp":
        top = min(space.dim - 1, j2 - k)
        weights = _order_k_reference(params, jf, k, top, "printed")
        mask = tuple(n <= top and weights[n] >= 0 for n in range(space.dim))
        root = [math.sqrt(weights[n]) if mask[n] else 0.0 for n in range(space.dim)]
        jm = mul(_matrix_power(creation(space, COMPLEX), k), diagonal_operator(space, root, COMPLEX))
        j3 = diagonal_operator(space, [jf - n for n in range(space.dim)], COMPLEX)
        return Realization("hp", k, j2, params, jm.adjoint(), jm, j3, mask)
    weights = _order_k_reference(params, jf, k, space.dim - 1, "printed")
    lowering = _matrix_power(annihilation(space, RATIONAL), k)
    jp = mul(diagonal_operator(space, weights, RATIONAL), lowering)
    j3 = diagonal_operator(space, [jf - n for n in range(space.dim)], RATIONAL)
    return Realization("dyson", k, j2, params, jp, _matrix_power(creation(space, RATIONAL), k), j3,
                       tuple([True] * space.dim))


@pytest.mark.parametrize("kind", ["hp", "dyson"])
def test_printed_denominators_break_the_step4_closure(kind):
    """The erratum at k = 4: on the printed denominators the ladder closure
    fails at (c1, c3, 2j) = (1, 1, 12), dim 32, where the constructor's
    weights pass."""
    space, params = FockSpace(32), AlgebraParams.of(1, 1)
    printed = verify_realization(_printed_step4(space, params, 12, kind))
    derived = verify_realization(build_realization(space, params, Fraction(6), kind, 4))
    closure = {c.name: c for c in printed.checks}["ladder-closure"]
    assert closure.block_size > 0 and not closure.passed
    assert printed.outcome == "FAIL"
    assert derived.outcome == "pass"


@given(
    c1=st.fractions(max_denominator=40).filter(lambda x: abs(x) < 10 ** 4),
    c3=st.fractions(max_denominator=40).filter(lambda x: abs(x) < 10 ** 4),
    j=st.one_of(spins, st.just(Fraction(7, 3))),
    k=st.integers(min_value=1, max_value=5),
    nmax=st.integers(min_value=-1, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_recurrence_matches_order_k_fraction_loop(c1, c3, j, k, nmax):
    """The integer prefix sum gives exactly the values of the order-k loop
    on the derived denominators, also for a j that is not a half-integer."""
    params = AlgebraParams(c1, c3)
    got = product_recurrence(params, j, k, nmax)
    assert got == _order_k_reference(params, j, k, nmax, "derived")
    assert all(type(x) is Fraction for x in got)


def test_recurrence_guards():
    with pytest.raises(ValueError):
        product_recurrence(SU2_PARAMS, 2, 0, 5)
    # one weight convention: there is no keyword to pick another
    with pytest.raises(TypeError):
        product_recurrence(SU2_PARAMS, 2, 1, 5, coefficients="derived")
    with pytest.raises(ValueError):
        build_realization(FockSpace(8), SU2_PARAMS, Fraction(1, 3), "hp", 1)


def test_hp_reproduces_su2_ladder():
    j = 3
    r = build_realization(FockSpace(16), SU2_PARAMS, j, "hp", 1)
    for n in range(2 * j):
        m = j - n - 1  # target weight of the raising element into state n
        want = math.sqrt(j * (j + 1) - m * (m + 1))
        assert abs(r.jm.entries[n + 1, n] - want) < 1e-12
        assert abs(r.jp.entries[n, n + 1] - want) < 1e-12
    # nothing beyond the multiplet
    assert np.abs(r.jm.entries[2 * j + 1:, :]).max() == 0.0


def test_dyson_su2_is_displaced_number_form():
    # at (2, 0) the one-sided weight is 2j - n, so J+ = (2j - nhat) a
    # and J- = a+, exactly, in the monomial basis
    j2 = 4
    sp = FockSpace(12)
    r = build_realization(sp, SU2_PARAMS, Fraction(j2, 2), "dyson", 1)
    weight = diagonal_operator(sp, [Fraction(j2 - n) for n in range(12)], RATIONAL)
    assert np.array_equal(mul(weight, annihilation(sp, RATIONAL)).entries, r.jp.entries)
    assert np.array_equal(creation(sp, RATIONAL).entries, r.jm.entries)


def test_step2_ladder_grading():
    # a two-quantum step shifts the displaced weight by two units, and
    # the realization satisfies exactly that grading, not the unit one
    r = build_realization(FockSpace(20), AlgebraParams.of(1, 1), 3, "hp", 2)
    double = sub(commutator(r.j3, r.jp), scale(2, r.jp)).max_norm()
    single = sub(commutator(r.j3, r.jp), scale(1, r.jp)).max_norm()
    assert double < 1e-13
    assert abs(single - float(r.jp.max_norm())) < 1e-12


def test_mask_su11_is_empty():
    r = build_realization(FockSpace(10), SU11_PARAMS, 2, "hp", 1)
    assert not any(r.admissible_mask)
    assert r.jp.max_norm() == 0.0 and r.jm.max_norm() == 0.0


def test_mask_partial_point():
    # (3, -1), j = 2: weights vanish at n = 1, 2 and the displaced range
    # cap removes everything from n = 4 up
    r = build_realization(FockSpace(10), AlgebraParams.of(3, -1), 2, "hp", 1)
    assert r.admissible_mask == (False, True, True, False, False, False, False, False, False, False)


def test_mask_range_cap_blocks_tail():
    # for c1 < 0 the weight turns positive again past n = 2j; the mask
    # must not resurrect those bonds
    r = build_realization(FockSpace(12), SU11_PARAMS, 2, "hp", 1)
    assert not any(r.admissible_mask[5:])
    r2 = build_realization(FockSpace(12), AlgebraParams.of(1, 1), Fraction(1, 2), "hp", 2)
    assert not any(r2.admissible_mask)  # a two-quantum step cannot fit in 2j = 1


def test_dyson_mask_all_true():
    r = build_realization(FockSpace(9), AlgebraParams.of(-2, 1), Fraction(3, 2), "dyson", 2)
    assert all(r.admissible_mask)


def test_g_constant_su2_value():
    for j2 in (1, 2, 3, 4, 7):
        j = Fraction(j2, 2)
        assert abs(g_constant(SU2_PARAMS, j, 1) - (float(j) + 0.5)) < 1e-15


def test_g_constant_no_real_value():
    with pytest.raises(ValueError):
        g_constant(SU11_PARAMS, 2, 1)


@given(c1=rationals, c3=rationals, j=spins, p=st.fractions(min_value=-12, max_value=12,
                                                            max_denominator=8))
@settings(max_examples=150, deadline=None)
def test_villain_radicand_forms_are_one_polynomial(c1, c3, j, p):
    # form 1 with g1^2, form 2 with g2 (where c3 > 0) and the factored form
    # of the one radicand are the same polynomial in p
    big_j, q = j * (j + 1), p * (p + 1)
    g1_squared = c1 / 2 * (j + Fraction(1, 2)) ** 2 + c3 / 4 * big_j ** 2
    form1 = g1_squared - c3 / 4 * q ** 2 - c1 / 2 * (p + Fraction(1, 2)) ** 2
    factored = (j - p) * (j + 1 + p) * (c3 / 4 * (big_j + q) + c1 / 2)
    assert form1 == factored == c3 / 4 * (big_j ** 2 - q ** 2) + c1 / 2 * (big_j - q)
    if c3 > 0:
        g2 = abs(c1 + c3 * big_j)
        assert (g2 ** 2 - (c3 * q + c1) ** 2) / (4 * c3) == factored


@given(c1=rationals, c3=rationals, j=spins)
@settings(max_examples=80, deadline=None)
def test_villain_radicand_is_zero_at_window_edges(c1, c3, j):
    edges = np.array([float(j), -float(j) - 1.0])
    assert _villain_radicand(AlgebraParams.of(c1, c3), j, edges).tolist() == [0.0, 0.0]


def test_villain_adjoint_exact_and_window():
    r = villain_boson(FockSpace(24), AlgebraParams.of(1, 1), 2, form=1)
    assert np.array_equal(r.jm.entries, r.jp.adjoint().entries)
    assert r.window == (Fraction(-2), Fraction(2))
    cols = window_columns(r.space, -2.0, 2.0)
    q = cols @ cols.conj().T
    rank = round(float(np.trace(q).real))
    assert 1 <= rank < 24
    # projector property
    assert np.abs(q @ q - q).max() < 1e-12


def test_villain_form2_needs_positive_cubic():
    with pytest.raises(ValueError):
        villain_boson(FockSpace(16), AlgebraParams.of(3, -1), 2, form=2)
    with pytest.raises(ValueError):
        villain_boson(FockSpace(16), SU2_PARAMS, 2, form=2)


def test_parse_kind_token():
    assert parse_kind_token("hp:2") == ("hp", 2)
    assert parse_kind_token("dyson") == ("dyson", 1)
    assert parse_kind_token("villain:2") == ("villain", 2)
    for bad in ("hp:0", "villain:3", "unknown:1", "hp:x"):
        with pytest.raises(ValueError):
            parse_kind_token(bad)


def test_dispatch_matches_named_constructors():
    sp = FockSpace(10)
    params = AlgebraParams.of(2, 1)
    j = Fraction(5, 2)
    v = build_realization(sp, params, j, "villain", 2)
    assert v.kind == "villain2" and v.step_k == 1
    assert np.array_equal(v.jp.entries, villain_boson(sp, params, j, form=2).jp.entries)
    with pytest.raises(ValueError):
        build_realization(sp, params, j, "borel", 1)
    # the stored spectral kinds are not constructor kinds
    with pytest.raises(ValueError):
        build_realization(sp, params, j, "villain2", 1)


def test_realization_json_round_trip_exact():
    r = build_realization(FockSpace(8), AlgebraParams.of(-2, 1), Fraction(5, 2), "dyson", 1)
    back = Realization.from_json_dict(json.loads(_realization_text(r)))
    assert back.kind == r.kind and back.step_k == r.step_k and back.j2 == r.j2
    assert back.params == r.params
    assert back.admissible_mask == r.admissible_mask
    assert np.array_equal(back.jm.entries, r.jm.entries)
    assert back.field == RATIONAL


def test_realization_json_round_trip_float_and_window():
    r = villain_boson(FockSpace(12), AlgebraParams.of(1, 1), 2, form=1)
    back = Realization.from_json_dict(json.loads(_realization_text(r)))
    assert back.window == r.window
    assert np.array_equal(back.jp.entries, r.jp.entries)
    assert back.field == COMPLEX


def test_unitary_entries_are_masked_roots():
    # every present lowering entry is sqrt((n+1)...(n+k) F_k(n)); every
    # masked-out bond is exactly zero
    params = AlgebraParams.of(3, -1)
    r = build_realization(FockSpace(10), params, 2, "hp", 1)
    for n in range(9):
        if r.admissible_mask[n]:
            want = math.sqrt((n + 1) * float(closed_form_k1(params, Fraction(2), n)))
            assert abs(r.jm.entries[n + 1, n] - want) < 1e-14
        else:
            assert r.jm.entries[n + 1, n] == 0.0


def _closed_form_weights(params, jf, k, nmax):
    """F_k(0) .. F_k(nmax) from the closed forms for k = 1 and 2, from the
    recurrence beyond; the constructors take every k from the recurrence."""
    if k == 1:
        return [closed_form_k1(params, jf, n) for n in range(nmax + 1)]
    if k == 2:
        return [closed_form_k2(params, jf, n) for n in range(nmax + 1)]
    return list(product_recurrence(params, jf, k, nmax))


def _hp_from_all_weights(space, params, j2, k):
    """hp:k with every weight F_k(0) .. F_k(dim - 1) computed, as the
    constructor did before it stopped at the last bond inside [0, 2j], and
    taken from the closed forms where they exist."""
    jf = Fraction(j2, 2)
    weights = _closed_form_weights(params, jf, k, space.dim - 1)
    mask = tuple(weights[n] >= 0 and n + k <= j2 for n in range(space.dim))
    root = [math.sqrt(float(weights[n])) if mask[n] else 0.0 for n in range(space.dim)]
    jm = mul(_matrix_power(creation(space, COMPLEX), k), diagonal_operator(space, root, COMPLEX))
    j3 = diagonal_operator(space, [float(jf) - n for n in range(space.dim)], COMPLEX)
    return jm.adjoint(), jm, j3, mask


@pytest.mark.parametrize("dim", [8, 32, 128])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_hp_weights_past_the_last_bond_change_nothing(k, dim):
    space = FockSpace(dim)
    for params, j2 in default_grid():
        r = build_realization(space, params, Fraction(j2, 2), "hp", k)
        jp, jm, j3, mask = _hp_from_all_weights(space, params, j2, k)
        assert r.admissible_mask == mask
        for got, want in ((r.jp, jp), (r.jm, jm), (r.j3, j3)):
            assert got.entries.tobytes() == want.entries.tobytes()


def test_hp_bands_end_at_the_multiplet():
    """A built hp J+ and J- each hold one band of at most
    min(2j - k + 1, dim - k) entries: the bonds of the multiplet, not the
    dim - k of the truncation, so building and verifying them is O(2j)
    work at any dim."""
    space = FockSpace(128)
    for params, j2 in default_grid():
        for k in (1, 2, 3):
            r = build_realization(space, params, Fraction(j2, 2), "hp", k)
            most = max(0, min(j2 - k + 1, space.dim - k))
            for op, d in ((r.jp, k), (r.jm, -k)):
                assert op._bands.keys() <= {d}
                assert len(op._bands.get(d, ())) <= most


def _step_reference(space, params, j2, kind, k, field):
    """(J+, J-, J3, mask) of hp:k or dyson:k assembled from the public
    ladder and diagonal operators by repeated ``@``, on the weights
    ``product_recurrence`` gives; hp is complex whatever ``field``."""
    jf, dim = Fraction(j2, 2), space.dim
    if kind == "hp":
        top = min(dim - 1, j2 - k)
        weights = product_recurrence(params, jf, k, top)
        mask = tuple(n <= top and weights[n] >= 0 for n in range(dim))
        root = [math.sqrt(float(weights[n])) if mask[n] else 0.0 for n in range(dim)]
        jm = mul(_matrix_power(creation(space, COMPLEX), k), diagonal_operator(space, root, COMPLEX))
        j3 = diagonal_operator(space, [jf - n for n in range(dim)], COMPLEX)
        return jm.adjoint(), jm, j3, mask
    weights = product_recurrence(params, jf, k, dim - 1)
    jp = mul(diagonal_operator(space, weights, field), _matrix_power(annihilation(space, field), k))
    j3 = diagonal_operator(space, [jf - n for n in range(dim)], field)
    return jp, _matrix_power(creation(space, field), k), j3, (True,) * dim


@given(kind=st.sampled_from(["hp", "dyson"]), k=st.integers(1, 4),
       field=st.sampled_from([RATIONAL, COMPLEX]), dim=st.integers(2, 40),
       c1=rationals, c3=rationals, j2=st.integers(0, 40))
@example(kind="dyson", k=3, field=RATIONAL, dim=3, c1=Fraction(1), c3=Fraction(1), j2=5)
@example(kind="dyson", k=4, field=COMPLEX, dim=2, c1=Fraction(1), c3=Fraction(1), j2=5)
@example(kind="hp", k=4, field=COMPLEX, dim=4, c1=Fraction(1), c3=Fraction(1), j2=12)
@settings(max_examples=300, deadline=None)
def test_step_generators_are_the_ladder_products(kind, k, field, dim, c1, c3, j2):
    """Each hp and dyson generator, built as its one band, is the matrix
    the k-fold ladder product and the weight diagonal give: the same bytes
    in the complex field, the same rationals in the exact one, and the
    same mask.  Where k >= dim there is no band at all.  The built bands
    are tuples, so read-only."""
    space, params = FockSpace(dim), AlgebraParams(c1, c3)
    r = build_realization(space, params, Fraction(j2, 2), kind, k, field)
    *want, mask = _step_reference(space, params, j2, kind, k, field)
    assert r.admissible_mask == mask
    for got, ref in zip((r.jp, r.jm, r.j3), want):
        assert got.field == ref.field
        if got.field == COMPLEX:
            assert got.entries.tobytes() == ref.entries.tobytes()
        else:
            assert got.entries.tolist() == ref.entries.tolist()
        assert all(type(band) is tuple for band in got._bands.values())
    if k >= dim:
        assert r.jp._bands == r.jm._bands == {}


def _float_or_message(convert):
    """The float ``convert()`` gives, spelled bit for bit, or the text of
    the ValueError it raises."""
    try:
        return convert().hex()
    except ValueError as err:
        return str(err)


huge_rationals = st.builds(Fraction, st.integers(-10 ** 400, 10 ** 400), st.integers(1, 10 ** 30))


@given(c1=st.one_of(rationals, huge_rationals), c3=st.one_of(rationals, huge_rationals),
       j2=st.one_of(st.integers(0, 40), st.integers(0, 10 ** 40)), k=st.integers(1, 4),
       nmax=st.integers(0, 12))
@example(c1=Fraction(1), c3=Fraction(10 ** 400), j2=5, k=1, nmax=3)
@example(c1=Fraction(1), c3=Fraction(1), j2=2 ** 60 + 1, k=2, nmax=6)
@example(c1=Fraction(0), c3=Fraction(-1, 10 ** 320), j2=7, k=3, nmax=8)
@example(c1=Fraction(0), c3=Fraction(-1, 10 ** 400), j2=7, k=3, nmax=8)
@settings(max_examples=200, deadline=None)
def test_weight_floats_are_the_fraction_floats(c1, c3, j2, k, nmax):
    """A float weight taken from the integer prefix sum H(n) over q den(n)
    has the bits of the float of the exact weight, also past 2^53, below
    the smallest normal float and at -0.0, and a weight beyond the float
    range is refused with the same text."""
    params, jf = AlgebraParams(c1, c3), Fraction(j2, 2)
    h, q = _prefix_sums(params, jf, k, nmax)
    for n, w in enumerate(product_recurrence(params, jf, k, nmax)):
        want = _float_or_message(lambda: _to_float(w, "an hp weight"))
        assert _float_or_message(lambda: _weight_float(h, q, n, k, "an hp weight")) == want


@pytest.mark.parametrize("field", [RATIONAL, COMPLEX])
@pytest.mark.parametrize("kind", ["hp", "dyson"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_step_builds_at_one_point_share_their_j3(k, kind, field, tmp_path):
    """Two builds at one (dim, 2j, field) hold one J3 object but each its
    own J+ and J-, so the realizations still compare unequal.  The shared
    J3 is, band for band and in its denominator, the J3 its ``build -o``
    file loads, and verifying, conjugating, reading the entries or the
    adjoint of one realization leaves its bands as they were."""
    space, params, j2 = FockSpace(12), AlgebraParams.of(1, 1), 5
    one, two = (build_realization(space, params, Fraction(j2, 2), kind, k, field)
                for _ in range(2))
    assert one.j3 is two.j3
    assert one.jp is not two.jp and one.jm is not two.jm and one != two
    path = tmp_path / "r.json"
    assert main(["build", "--c1", "1", "--c3", "1", "--j2", str(j2), "--dim", "12",
                 "--kind", f"{kind}:{k}", "--field", field, "-o", str(path)]) == 0
    loaded = Realization.from_json_dict(json.loads(path.read_text())).j3
    assert loaded._bands == one.j3._bands and loaded._den == one.j3._den
    bands = dict(one.j3._bands)
    verify_realization(one)
    conjugate(one, s1_recurrence(space, params, Fraction(j2, 2)))
    assert one.j3.entries.shape == (12, 12) and one.j3.adjoint() is not one.j3
    assert one.j3._bands == bands and all(one.j3._bands[d] is band for d, band in bands.items())
    assert two.j3 is one.j3
