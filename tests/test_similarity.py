"""Diagonal maps between one-sided and square-root realizations."""

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
    bond_product,
    closed_form_k2,
    FockSpace,
    SU2_PARAMS,
    build_realization,
    conjugate,
    default_grid,
    s1_closed_form,
    s1_recurrence,
    s2_matching,
    unitarization_residual,
)


def test_s1_su2_squares_are_falling_factorials():
    # independent closed form at (2, 0): the squares telescope to
    # (2j)! / (2j - n)!
    j2 = 6
    t = s1_recurrence(FockSpace(10), SU2_PARAMS, Fraction(j2, 2))
    for n in range(j2 + 1):
        want = math.factorial(j2) / math.factorial(j2 - n)
        assert abs(t.entries[n] ** 2 - want) < 1e-9 * max(1.0, want)
    assert t.mask == (True,) * (j2 + 1) + (False,) * 3


def test_s1_chain_stops_at_first_nonpositive_weight():
    # (-2, 1), j = 3/2: the weight turns negative at n = 1
    t = s1_recurrence(FockSpace(6), AlgebraParams.of(-2, 1), Fraction(3, 2))
    assert t.mask == (True, True, False, False, False, False)
    assert t.entries[2] == 0.0


def test_s1_scales_linearly_in_seed():
    sp = FockSpace(8)
    base = s1_recurrence(sp, SU2_PARAMS, 3, q0=1.0)
    scaled = s1_recurrence(sp, SU2_PARAMS, 3, q0=2.5)
    assert scaled.mask == base.mask
    for a, b in zip(scaled.entries, base.entries):
        assert abs(a - 2.5 * b) < 1e-12


@pytest.mark.parametrize("coup,j2", [((3, -1), 2), ((3, -1), 3), ((-2, 1), 2)])
def test_s1_closed_form_matches_recurrence(coup, j2):
    sp = FockSpace(8)
    params = AlgebraParams.of(*coup)
    j = Fraction(j2, 2)
    rec = s1_recurrence(sp, params, j)
    clo = s1_closed_form(sp, params, j)
    assert clo.mask == rec.mask
    for a, b in zip(clo.entries, rec.entries):
        assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def test_s1_closed_form_needs_real_roots():
    with pytest.raises(ValueError):
        s1_closed_form(FockSpace(8), AlgebraParams.of(2, 1), 2)
    with pytest.raises(ValueError):
        s1_closed_form(FockSpace(8), SU2_PARAMS, 2)


@pytest.mark.parametrize(
    "coup,j2",
    [((2, 0), 6), ((1, 1), 5), ((2, 1), 4), ((0, 2), 4)],
)
def test_conjugation_carries_one_sided_to_square_root(coup, j2):
    sp = FockSpace(12)
    params = AlgebraParams.of(*coup)
    j = Fraction(j2, 2)
    t = s1_recurrence(sp, params, j)
    assert sum(t.mask) >= 3
    carried = conjugate(build_realization(sp, params, j, "dyson", 1, field="complex"), t)
    target = build_realization(sp, params, j, "hp", 1)
    for n in range(sp.dim - 1):
        if t.mask[n] and t.mask[n + 1] and target.admissible_mask[n]:
            assert abs(carried.jm.entries[n + 1, n] - target.jm.entries[n + 1, n]) < 1e-10
            assert abs(carried.jp.entries[n, n + 1] - target.jp.entries[n, n + 1]) < 1e-10


def test_conjugation_narrows_mask():
    sp = FockSpace(8)
    params = AlgebraParams.of(-2, 1)
    j = Fraction(3, 2)
    t = s1_recurrence(sp, params, j)
    carried = conjugate(build_realization(sp, params, j, "dyson", 1, field="complex"), t)
    # the one-sided mask is all-true, but the map only exists on the
    # two-state chain
    assert carried.admissible_mask[0] is True
    assert not any(carried.admissible_mask[1:])


def test_conjugation_dimension_guard():
    t = s1_recurrence(FockSpace(8), SU2_PARAMS, 2)
    with pytest.raises(ValueError):
        conjugate(build_realization(FockSpace(10), SU2_PARAMS, 2, "dyson", 1), t)


def _conjugate_entrywise(op, transform) -> np.ndarray:
    """Reference for ``conjugate``: s(i) A[i, l] / s(l) one entry at a
    time, keeping only nonzero entries whose two ends are in the domain."""
    src = op._promote().entries
    n = src.shape[0]
    s, keep = transform.entries, transform.mask
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for l in range(n):
            if src[i, l] != 0 and keep[i] and keep[l]:
                out[i, l] = s[i] * src[i, l] / s[l]
    return out


@pytest.mark.parametrize("q0", [1.0, -2.5])
@pytest.mark.parametrize("dim", [8, 24])
def test_conjugate_matches_entrywise_reference(dim, q0):
    # every chain of the default grid ends inside the truncation at dim 24,
    # so dropped entries are covered, and q0 < 0 flips the signs of s
    sp = FockSpace(dim)
    for params, j2 in default_grid():
        j = Fraction(j2, 2)
        t = s1_recurrence(sp, params, j, q0)
        for field in ("rational", "complex"):
            r = build_realization(sp, params, j, "dyson", 1, field=field)
            carried = conjugate(r, t)
            for name in ("jp", "jm", "j3"):
                want = _conjugate_entrywise(getattr(r, name), t)
                assert getattr(carried, name).entries.tobytes() == want.tobytes()


@pytest.mark.parametrize("coup,j2", [((2, 0), 6), ((1, 1), 5), ((0, 2), 4)])
def test_unitarization_metric(coup, j2):
    sp = FockSpace(12)
    params = AlgebraParams.of(*coup)
    j = Fraction(j2, 2)
    r = build_realization(sp, params, j, "dyson", 1, field="complex")
    t = s1_recurrence(sp, params, j)
    residual, measured = unitarization_residual(r, t)
    assert measured >= 3
    assert residual < 1e-10


def test_s2_parity_chains():
    sp = FockSpace(10)
    t = s2_matching(sp, SU2_PARAMS, 3)
    # even chain: squares multiply the step-2 weights 3, 2/3, 1/5
    assert abs(t.entries[2] ** 2 - 3.0) < 1e-12
    assert abs(t.entries[4] ** 2 - 2.0) < 1e-12
    assert abs(t.entries[6] ** 2 - 0.4) < 1e-12
    # both chains stop once the weight hits zero: the odd chain at the
    # 5 -> 7 bond, the even chain at 6 -> 8
    assert t.mask == (True,) * 7 + (False,) * 3


def test_s2_carries_one_sided_step2_to_square_root():
    for coup, j2 in [((2, 0), 6), ((1, 1), 6)]:
        sp = FockSpace(12)
        params = AlgebraParams.of(*coup)
        j = Fraction(j2, 2)
        t = s2_matching(sp, params, j)
        carried = conjugate(build_realization(sp, params, j, "dyson", 2, field="complex"), t)
        target = build_realization(sp, params, j, "hp", 2)
        compared = 0
        for n in range(sp.dim - 2):
            if t.mask[n] and t.mask[n + 2] and target.admissible_mask[n]:
                assert abs(carried.jm.entries[n + 2, n] - target.jm.entries[n + 2, n]) < 1e-10
                assert abs(carried.jp.entries[n, n + 2] - target.jp.entries[n, n + 2]) < 1e-10
                compared += 1
        assert compared >= 3


def test_transform_json_round_trip():
    from higgsalg import DiagonalTransform

    t = s2_matching(FockSpace(6), SU2_PARAMS, 2, q0_even=1.0, q0_odd=0.5)
    back = DiagonalTransform.from_json_dict(t.to_json_dict())
    assert back == t


def _strict_json(t) -> dict:
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(json.dumps(t.to_json_dict(), allow_nan=False), parse_constant=reject)


@given(
    c1=st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
    c3=st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3)),
    j2=st.integers(min_value=150, max_value=500),
    q0=st.floats(min_value=-1e3, max_value=1e3),
)
@example(c1=Fraction(1), c3=Fraction(1), j2=400, q0=1.0)
@settings(max_examples=25, deadline=None)
def test_masked_in_transform_entries_are_finite_at_large_spin(c1, c3, j2, q0):
    sp = FockSpace(j2 + 2)
    j = Fraction(j2, 2)
    params = AlgebraParams.of(c1, c3)
    # a second coupling pair with real roots of the bond quadratic, which
    # the closed form needs: 8 c1 / c3 <= -(2j + 1)^2
    rooted = AlgebraParams.of(-c3 * (Fraction((j2 + 1) ** 2, 8) + abs(c1)), c3)
    for t in (
        s1_recurrence(sp, params, j, q0),
        s1_closed_form(sp, rooted, j, q0),
        s2_matching(sp, params, j, q0, -q0),
    ):
        assert all(math.isfinite(x) for x, m in zip(t.entries, t.mask) if m)
        assert all(x == 0.0 for x, m in zip(t.entries, t.mask) if not m)
        assert _strict_json(t)["mask"] == [int(m) for m in t.mask]


# -- the chain routine against the loops it replaced ---------------------------

def _s1_loop(space, params, j, q0):
    """The step-1 chain loop as written before the shared chain routine."""
    jf = Fraction(j)
    entries = [0.0] * space.dim
    mask = [False] * space.dim
    entries[0] = q0
    mask[0] = True
    sq = q0 * q0
    for n in range(1, space.dim):
        if not mask[n - 1]:
            break
        factor = bond_product(params, jf, n - 1)
        if factor <= 0:
            break
        sq *= float(factor)
        if not math.isfinite(sq):
            break
        entries[n] = math.sqrt(sq) if q0 >= 0 else -math.sqrt(sq)
        mask[n] = True
    return entries, mask


def _s2_loop(space, params, j, q0_even, q0_odd):
    """The step-2 chain loop as written before the shared chain routine."""
    jf = Fraction(j)
    entries = [0.0] * space.dim
    mask = [False] * space.dim
    squares = [0.0] * space.dim
    for start, seed in {0: q0_even, 1: q0_odd}.items():
        entries[start] = seed
        squares[start] = seed * seed
        mask[start] = True
    for n in range(2, space.dim):
        if not mask[n - 2]:
            continue
        factor = closed_form_k2(params, jf, n - 2)
        if factor <= 0:
            continue
        squares[n] = float(factor) * squares[n - 2]
        if not math.isfinite(squares[n]):
            continue
        entries[n] = math.sqrt(squares[n]) if entries[n - 2] >= 0 else -math.sqrt(squares[n])
        mask[n] = True
    return entries, mask


def _bits(xs) -> bytes:
    return np.array(xs, dtype=float).tobytes()


_SEEDS = [1.0, -2.5, 0.0, 1e-200, -1e-200, 3e150]


@pytest.mark.parametrize("q0", _SEEDS)
@pytest.mark.parametrize("dim", [8, 24])
def test_square_chains_match_the_loops_they_replaced(dim, q0):
    sp = FockSpace(dim)
    for params, j2 in default_grid():
        j = Fraction(j2, 2)
        t = s1_recurrence(sp, params, j, q0)
        entries, mask = _s1_loop(sp, params, j, q0)
        assert _bits(t.entries) == _bits(entries) and list(t.mask) == mask
        t = s2_matching(sp, params, j, q0, -q0)
        entries, mask = _s2_loop(sp, params, j, q0, -q0)
        assert list(t.entries) == entries and list(t.mask) == mask
        if q0 * q0 != 0 or q0 == 0:
            # a seed whose square underflows is the one place the step-2
            # loop differed: after one -0.0 it wrote 0.0, see below
            assert _bits(t.entries) == _bits(entries)


@pytest.mark.parametrize("build", [
    lambda sp, j, q0: s1_recurrence(sp, SU2_PARAMS, j, q0),
    lambda sp, j, q0: s2_matching(sp, SU2_PARAMS, j, q0, q0),
], ids=["s1", "s2"])
def test_chain_entries_keep_the_sign_of_their_seed(build):
    # the squares of a -1e-200 seed underflow to zero, so every later
    # entry is a zero that keeps the seed's sign
    t = build(FockSpace(10), 3, -1e-200)
    assert sum(t.mask) >= 6
    assert all(math.copysign(1.0, x) == -1.0 for x, m in zip(t.entries, t.mask) if m)
