"""Exact structure data: invariant eigenvalues, squared elements, root
boundaries, and the chain decomposition of a multiplet."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsalg import (
    AlgebraParams,
    admissible_chain,
    admissible_states,
    casimir_eigenvalue,
    discriminant,
    representation_table,
    root_side_admissible,
    z_boundaries,
)
from reference import (
    SU2_PARAMS,
    SU11_PARAMS,
    bond_product,
    bond_quadratic,
    casimir_eigenvalue_by_definition,
    minus_square,
    monic_bond_quadratic,
    plus_square,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)
spins = st.integers(min_value=0, max_value=12).map(lambda j2: Fraction(j2, 2))


def test_casimir_eigenvalue_pinned():
    # independently computed by hand: c1 j(j+1) + (c3/2) j^2 (j+1)^2
    # at c1 = c3 = 1, j = 3/2 gives 15/4 + (1/2)(225/16)
    assert casimir_eigenvalue(AlgebraParams.of(1, 1), Fraction(3, 2)) == Fraction(345, 32)


@pytest.mark.parametrize("j2", range(0, 9))
def test_casimir_eigenvalue_classical_limits(j2):
    j = Fraction(j2, 2)
    assert casimir_eigenvalue(SU2_PARAMS, j) == 2 * j * (j + 1)
    assert casimir_eigenvalue(SU11_PARAMS, j) == -2 * j * (j + 1)


_wide = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))


@given(c1=_wide, c3=_wide, j2=st.integers(0, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_casimir_eigenvalue_is_its_definition(c1, c3, j2):
    """The eigenvalue equals c1 j(j+1) + (c3/2) j^2 (j+1)^2 exactly, for
    signed couplings with numerators and denominators up to 10^30 and 2j
    up to 10^6."""
    params, j = AlgebraParams(c1, c3), Fraction(j2, 2)
    assert casimir_eigenvalue(params, j) == casimir_eigenvalue_by_definition(params, j)


@given(c1=rationals, c3=rationals, j=spins, n=st.integers(0, 12))
@settings(max_examples=120, deadline=None)
def test_raising_mirrors_lowering(c1, c3, j, n):
    params = AlgebraParams(c1, c3)
    assert plus_square(params, j, n + 1) == minus_square(params, j, n)


@given(c1=rationals, c3=rationals, j=spins, n=st.integers(0, 12))
@settings(max_examples=120, deadline=None)
def test_squared_elements_close_the_commutator(c1, c3, j, n):
    # the diagonal of [J+, J-] must reproduce c1 m + c3 m^3 at m = j - n
    params = AlgebraParams(c1, c3)
    m = j - n
    lhs = minus_square(params, j, n) - plus_square(params, j, n)
    assert lhs == c1 * m + c3 * m ** 3


@given(c1=rationals, c3=rationals.filter(lambda x: x != 0), j=spins, n=st.integers(0, 12))
@settings(max_examples=120, deadline=None)
def test_monic_factorization(c1, c3, j, n):
    params = AlgebraParams(c1, c3)
    assert c3 * monic_bond_quadratic(params, j, n) == bond_quadratic(params, j, n)


def test_root_boundaries_pinned():
    # at (c1, c3) = (-2, 1), j = 1 the discriminant is 9 and the roots
    # sit at -1 and 2
    params = AlgebraParams.of(-2, 1)
    assert discriminant(params, 1) == 9
    zm, zp = z_boundaries(params, 1)
    assert zm == -1.0 and zp == 2.0


def test_root_boundaries_complex_case():
    assert z_boundaries(AlgebraParams.of(2, 1), 1) is None


def test_root_boundaries_need_cubic_term():
    with pytest.raises(ValueError):
        discriminant(SU2_PARAMS, 2)
    with pytest.raises(ValueError):
        z_boundaries(SU2_PARAMS, 2)


def test_root_side_skips_roots_and_top():
    params = AlgebraParams.of(3, -1)
    # at j = 2 the monic quadratic is (n-1)(n-2): integer roots
    assert root_side_admissible(params, 2, 1) is None
    assert root_side_admissible(params, 2, 2) is None
    assert root_side_admissible(params, 2, 4) is None
    assert root_side_admissible(params, 2, 0) is False
    assert root_side_admissible(params, 2, 3) is False


def test_root_side_matches_scan_sampled():
    rnd = random.Random(404)
    checked = 0
    while checked < 50:
        c1 = Fraction(rnd.randint(-8, 8), rnd.randint(1, 4))
        c3 = Fraction(rnd.randint(-8, 8), rnd.randint(1, 4))
        if c3 == 0:
            continue
        j2 = rnd.randint(1, 10)
        params = AlgebraParams(c1, c3)
        j = Fraction(j2, 2)
        members = set(admissible_states(params, j))
        for n in range(j2 + 1):
            predicted = root_side_admissible(params, j, n)
            if predicted is None:
                continue
            assert predicted == (n in members), (c1, c3, j, n)
        checked += 1


CHAIN_CASES = [
    # couplings, doubled spin, main chain, detached segments
    ((-2, 1), 2, (0,), ((2,),)),
    ((-2, 1), 3, (0, 1), ((2, 3),)),
    ((3, -1), 4, (0,), ((1, 2), (4,))),
    ((2, 0), 6, (0, 1, 2, 3, 4, 5, 6), ()),
]


@pytest.mark.parametrize("coup,j2,main,segments", CHAIN_CASES)
def test_chain_decomposition(coup, j2, main, segments):
    ch = admissible_chain(AlgebraParams.of(*coup), Fraction(j2, 2))
    assert ch.main == main
    assert ch.segments == segments


def test_chain_becomes_full_at_larger_spin():
    # the detached segment of (-2, 1) reattaches from j = 2 on
    for j2 in (4, 5, 6):
        ch = admissible_chain(AlgebraParams.of(-2, 1), Fraction(j2, 2))
        assert ch.main == tuple(range(j2 + 1))
        assert ch.segments == ()


def test_chain_rejects_bad_spin():
    with pytest.raises(ValueError):
        admissible_chain(SU2_PARAMS, Fraction(1, 3))


def _su2_raising(j: Fraction, n: int) -> float:
    # textbook ladder element from state m = j - n up to m + 1
    m = j - n
    return math.sqrt(float(j * (j + 1) - m * (m + 1)))


@pytest.mark.parametrize("j2", [1, 2, 3, 6])
def test_table_reproduces_su2_ladder(j2):
    j = Fraction(j2, 2)
    table = representation_table(SU2_PARAMS, j)
    for row in table.rows:
        assert row.admissible
        assert abs(row.plus - _su2_raising(j, row.n)) < 1e-12
    # lowering from n equals raising from n + 1
    for a, b in zip(table.rows, table.rows[1:]):
        assert abs(a.minus - b.plus) < 1e-15


def test_table_csv_golden():
    got = representation_table(AlgebraParams.of(3, -1), 2).to_csv()
    want = (
        "# c1 = 3\n"
        "# c3 = -1\n"
        "# j = 2\n"
        "n,j3,plus,minus,admissible\n"
        "0,2,0.0,,0\n"
        "1,1,,0.0,1\n"
        "2,0,0.0,0.0,1\n"
        "3,-1,0.0,,0\n"
        "4,-2,,0.0,1\n"
    )
    assert got == want


def test_table_is_deterministic():
    params = AlgebraParams.of(2, 1)
    assert representation_table(params, 3).to_csv() == representation_table(params, 3).to_csv()


@given(c1=rationals, c3=rationals, j=spins)
@settings(max_examples=80, deadline=None)
def test_top_state_is_always_admissible(c1, c3, j):
    params = AlgebraParams(c1, c3)
    assert bond_product(params, j, int(2 * j)) == 0
    assert int(2 * j) in admissible_states(params, j)


def _root(square: Fraction) -> float | None:
    return None if square < 0 else math.sqrt(square)


@given(c1=rationals, c3=rationals, j2=st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_table_and_scan_are_the_closed_forms(c1, c3, j2):
    """The table, the admissible states and the chain decomposition, which
    the package reads from the prefix sum H(n), are what the closed forms
    of the squared elements give: plus and minus bit for bit, the flags
    and chains exactly."""
    params, j = AlgebraParams(c1, c3), Fraction(j2, 2)
    minus = [minus_square(params, j, n) for n in range(j2 + 1)]
    rows = representation_table(params, j).rows
    assert [tuple(r) for r in rows] == [
        (n, j - n, _root(plus_square(params, j, n)), _root(minus[n]), minus[n] >= 0)
        for n in range(j2 + 1)]
    assert admissible_states(params, j) == [n for n in range(j2 + 1) if minus[n] >= 0]
    end = 0
    while end < j2 and bond_product(params, j, end) > 0:
        end += 1
    runs: list[list[int]] = []
    for n in range(end + 1, j2 + 1):
        if minus[n] >= 0:
            if runs and runs[-1][-1] == n - 1:
                runs[-1].append(n)
            else:
                runs.append([n])
    chain = admissible_chain(params, j)
    assert chain.main == tuple(range(end + 1))
    assert chain.segments == tuple(map(tuple, runs))
