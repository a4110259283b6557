"""Reference forms the tests hold the package against.

The package does not call these.  Each is the slow, obvious construction
of something the package makes another way: the position quadrature and
exp(i theta H) formed densely, the momentum-window columns, the file
dicts that ``json.dumps(..., indent=2)`` turns into the bytes the direct
writers must match, products of banded operators, and the step-kind
report formed from them.  It also holds the algebra constants and forms
that only the tests read.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from higgsalg import (
    COMPLEX,
    RATIONAL,
    AlgebraParams,
    FockSpace,
    Operator,
    annihilation,
    casimir_eigenvalue,
    interior_check_states,
)
from higgsalg.algebra import RationalLike, _frac
from higgsalg.fock import (
    BandedOperator,
    DenseOperator,
    _band_start,
    _quadrature_basis,
    _quarter_turns,
    _to_float,
)
from higgsalg import realizations
from higgsalg.realizations import _in_window, g_constant
from higgsalg.verify import CheckResult, VerificationReport, _finite

# The two classical degenerations.
SU2_PARAMS = AlgebraParams(Fraction(2), Fraction(0))
SU11_PARAMS = AlgebraParams(Fraction(-2), Fraction(0))


# -- the closed forms of the weights -------------------------------------------
#
# The package reads every weight from the integer prefix sum
# ``algebra._prefix_sums``; these closed forms are the independent spelling
# the tests hold it to.


def bond_quadratic(params: AlgebraParams, j: RationalLike, n: int) -> Fraction:
    """The quadratic factor 2 c1 + c3 (2 j^2 - n (2j - n - 1)) appearing in
    every squared ladder element.  Its sign decides whether the bond from
    state n to state n+1 survives."""
    jf = _frac(j)
    return 2 * params.c1 + params.c3 * (2 * jf * jf - n * (2 * jf - n - 1))


def bond_product(params: AlgebraParams, j: RationalLike, n: int) -> Fraction:
    """(1/4) (2j - n) * bond_quadratic(n).

    Equal to the product of the two single-step factor functions, and to
    minus_square(n) / (n + 1).  Strictly positive bond_product(n) keeps
    the n <-> n+1 bond; zero terminates a chain cleanly; negative breaks
    Hermiticity of the pair (J+, J-) across that bond.
    """
    jf = _frac(j)
    return Fraction(1, 4) * (2 * jf - n) * bond_quadratic(params, jf, n)


def minus_square(params: AlgebraParams, j: RationalLike, n: int) -> Fraction:
    """Squared matrix element of J- taking state n to state n+1."""
    return (n + 1) * bond_product(params, j, n)


def plus_square(params: AlgebraParams, j: RationalLike, n: int) -> Fraction:
    """Squared matrix element of J+ taking state n to state n-1.
    Mirrors minus_square one step down; zero at n = 0."""
    if n == 0:
        return Fraction(0)
    return n * bond_product(params, j, n - 1)


def closed_form_k1(params: AlgebraParams, j: RationalLike, n: int) -> Fraction:
    """Step-1 weight in closed form; equals the bond product."""
    return bond_product(params, j, n)


def closed_form_k2(params: AlgebraParams, j: RationalLike, n: int) -> Fraction:
    """Step-2 weight in closed form, with the alternating transient that
    the order-2 difference equation admits."""
    jf = _frac(j)
    c1, c3 = params.c1, params.c3
    sign = -1 if n % 2 else 1
    term1 = 2 * c1 * (sign * (2 * jf + 1) - (n + 1) + (2 * jf - n) * (2 * n + 3))
    term3 = c3 * (
        1
        + 6 * jf * jf * (2 * jf - 1)
        + sign * (2 * jf + 1) * (2 * jf * jf + 2 * jf - 1)
        + 2 * n * (2 * jf - n - 2) * (2 * jf * jf - (2 * jf - n) * (n + 2))
    )
    return (term1 + term3) / (16 * (n + 1) * (n + 2))


def monic_bond_quadratic(params: AlgebraParams, j: RationalLike, n: RationalLike) -> Fraction:
    """q(n) = n^2 - (2j - 1) n + 2 j^2 + 2 c1 / c3, so that
    bond_quadratic = c3 * q.  Requires c3 != 0."""
    if params.c3 == 0:
        raise ValueError("monic form requires c3 != 0")
    jf = _frac(j)
    nf = _frac(n)
    return nf * nf - (2 * jf - 1) * nf + 2 * jf * jf + 2 * params.c1 / params.c3


def casimir_eigenvalue_by_definition(params: AlgebraParams, j: RationalLike) -> Fraction:
    """c1 j(j+1) + (c3/2) j^2 (j+1)^2, in Fractions as the definition
    spells it."""
    jf = _frac(j)
    return params.c1 * jf * (jf + 1) + params.c3 / 2 * jf ** 2 * (jf + 1) ** 2


# Hermiticity slack for float constructions, relative to the largest entry
# magnitude.
_HERMITIAN_RTOL = 1e-10


def is_hermitian(op: Operator) -> bool:
    x = op.entries
    d = np.abs(x - x.conj().T).max()
    return float(d) <= _HERMITIAN_RTOL * max(1.0, float(op.max_norm()))


def rational_operator(space: FockSpace, entries: np.ndarray) -> BandedOperator:
    """The rational operator of a dense array of rational entries, built by
    ``BandedOperator._exact`` from the diagonals that hold a nonzero entry.
    Every entry must be an int or a Fraction, zeros included, as
    ``_exact`` takes them; any other type raises TypeError."""
    for kind in {type(x) for x in entries.flat}:
        if kind is not Fraction and (kind is bool or not issubclass(kind, int)):
            raise TypeError(f"exact field requires rational scalars, got {kind.__name__}")
    n = len(entries)
    offsets = [d for d in range(1 - n, n) if any(entries.diagonal(d))]
    return BandedOperator._exact(space, {d: list(entries.diagonal(d)) for d in offsets})


# -- products of banded operators ------------------------------------------------
#
# The package forms no operator product; the tests define expected values by
# them.  ``mul``, ``add``, ``sub`` and ``scale`` work on the bands of banded
# operators of one field and one space, taken as numpy arrays (``_arrays``):
# int numerators over the operator's denominator (object dtype) in the
# rational field and complex128 in the other.  numpy applies + - *
# elementwise to either dtype, so one set of band routines serves both.  A
# product's denominator is the product of its factors', and a sum first
# brings both terms to the lcm of theirs.  An entry that one pair of bands
# reaches is that single product, so a step-kind product holds the bits the
# verifier's loops must reproduce.

_Bands = dict[int, np.ndarray]


def _zeros(n: int, field: str) -> np.ndarray:
    return np.zeros(n, dtype=object if field == RATIONAL else complex)


def _arrays(op: BandedOperator) -> _Bands:
    """The bands of a banded operator as numpy arrays of its field, each
    read through ``diagonal`` at its N - |d| entries: in the rational field
    as int numerators over the operator's denominator."""
    if op.field == RATIONAL:
        return {d: np.array([int(x * op._den) for x in op.diagonal(d)], dtype=object)
                for d in op._bands}
    return {d: np.array(op.diagonal(d), dtype=complex) for d in op._bands}


def _from_arrays(space: FockSpace, field: str, bands: _Bands, den: int = 1) -> BandedOperator:
    """The banded operator whose bands are these arrays, as Python numbers:
    a complex band with no nonzero imaginary part as floats, as the package
    holds a real band, so a zero imaginary part has no sign to keep."""
    def numbers(band: np.ndarray) -> list:
        return band.real.tolist() if field == COMPLEX and not band.imag.any() else band.tolist()

    return BandedOperator(space, field, {d: numbers(band) for d, band in bands.items()}, den)


def _band_matmul(n: int, x: _Bands, y: _Bands, field: str) -> _Bands:
    """Product of two banded N x N matrices: offset dx times offset dy lands
    on offset dx + dy, so the work is O(N * bands^2), not O(N^3).  An entry
    that only one pair of bands reaches is that single product, as in a
    dense product."""
    out: _Bands = {}
    for dx, bx in x.items():
        for dy, by in y.items():
            dz = dx + dy
            # rows r with (r, r + dx) and (r + dx, r + dz) both inside the matrix
            lo = max(0, -dx, -dz)
            hi = min(n, n - dx, n - dz)
            if lo >= hi:
                continue
            cnt = hi - lo
            ix = lo - _band_start(dx)[0]
            iy = lo + dx - _band_start(dy)[0]
            iz = lo - _band_start(dz)[0]
            prods = bx[ix:ix + cnt] * by[iy:iy + cnt]
            acc = out.get(dz)
            if acc is not None:
                acc[iz:iz + cnt] += prods
            elif cnt == n - abs(dz):
                out[dz] = prods
            else:
                acc = out[dz] = _zeros(n - abs(dz), field)
                acc[iz:iz + cnt] = prods
    return out


def _band_add(n: int, x: _Bands, y: _Bands, field: str, subtract: bool) -> _Bands:
    """x + y, or x - y when ``subtract``, band by band; a band missing on
    one side counts as zeros there."""
    op = np.subtract if subtract else np.add

    def side(bands: _Bands, d: int) -> np.ndarray:
        return bands[d] if d in bands else _zeros(n - abs(d), field)

    return {d: op(side(x, d), side(y, d)) for d in {**x, **y}}


def _banded_pair(a: Operator, b: Operator) -> None:
    if (a.space != b.space or a.field != b.field or not isinstance(a, BandedOperator)
            or not isinstance(b, BandedOperator)):
        raise ValueError("the reference products take banded operators of one field and space")


def _times(a: Operator, b: Operator) -> Operator:
    _banded_pair(a, b)
    bands = _band_matmul(a.space.dim, _arrays(a), _arrays(b), a.field)
    return _from_arrays(a.space, a.field, bands, a._den * b._den)


def mul(*factors: Operator) -> Operator:
    """The product of the factors, multiplied from the left."""
    return functools.reduce(_times, factors)


def _over(op: Operator, den: int) -> _Bands:
    """The bands as numerators over ``den``, a multiple of ``_den``."""
    factor = den // op._den
    return {d: factor * band for d, band in _arrays(op).items()}


def add(a: Operator, b: Operator, subtract: bool = False) -> Operator:
    _banded_pair(a, b)
    den = math.lcm(a._den, b._den)
    return _from_arrays(a.space, a.field, _band_add(a.space.dim, _over(a, den), _over(b, den),
                                                    a.field, subtract), den)


def sub(a: Operator, b: Operator) -> Operator:
    return add(a, b, subtract=True)


def scale(c, op: Operator) -> Operator:
    """c op: exact for a rational c in the rational field; in the complex
    field c is taken as a complex float."""
    if op.field == RATIONAL:
        c = Fraction(c)
        return _from_arrays(op.space, RATIONAL,
                            {d: c.numerator * band for d, band in _arrays(op).items()},
                            op._den * c.denominator)
    c = complex(c) if isinstance(c, complex) else complex(_to_float(c, "a scale factor"))
    return _from_arrays(op.space, COMPLEX, {d: c * band for d, band in _arrays(op).items()})


def commutator(a: Operator, b: Operator) -> Operator:
    return sub(mul(a, b), mul(b, a))


def casimir_operator(jp: Operator, jm: Operator, j3: Operator, params: AlgebraParams,
                     symmetric: bool = True) -> Operator:
    """The Casimir form ``algebra._casimir`` names, from banded products:
    symmetric J+ J- + J- J+ + (c1 + c3/2) J3^2 + (c3/2) J3^4, or
    normal-ordered 2 J- J+ + c1 J3 + (c1 + c3/2) J3^2 + c3 J3^3 + (c3/2) J3^4,
    summed left to right."""
    c1, c3 = params.c1, params.c3
    square = mul(j3, j3)
    quartic = scale(Fraction(c3, 2), mul(square, square))
    middle = scale(c1 + Fraction(c3, 2), square)
    mp = mul(jm, jp)
    if symmetric:
        return add(add(add(mul(jp, jm), mp), middle), quartic)
    return add(add(add(add(scale(2, mp), scale(c1, j3)), middle), scale(c3, mul(square, j3))),
               quartic)


def identity_op(space: FockSpace, field: str = COMPLEX) -> Operator:
    return _from_arrays(space, field, {0: _zeros(space.dim, field) + 1})


def creation(space: FockSpace, field: str = COMPLEX) -> Operator:
    """Raising matrix a+; adjoint of ``annihilation`` in the complex field,
    the unit-entry shift in the exact monomial basis."""
    if field == RATIONAL:
        return BandedOperator(space, RATIONAL, {-1: [1] * (space.dim - 1)})
    return annihilation(space, COMPLEX).adjoint()


def diagonal_operator(space: FockSpace, values: Sequence, field: str = COMPLEX) -> Operator:
    """diag(v_0, ..., v_{N-1}) from a sequence of the N values."""
    vals = list(values)
    if len(vals) != space.dim:
        raise ValueError(f"need {space.dim} diagonal values, got {len(vals)}")
    if field == RATIONAL:
        return BandedOperator._exact(space, {0: vals})
    return BandedOperator(space, COMPLEX, {0: [complex(v) for v in vals]})


def position(space: FockSpace) -> DenseOperator:
    """X = (a + a+)/sqrt(2); Hermitian, complex field only, stored dense."""
    a = annihilation(space).entries
    return DenseOperator(space, complex(1.0 / np.sqrt(2.0)) * (a + a.conj().T))


_VILLAIN_RADICAND = realizations._villain_radicand


def detune(monkeypatch, g: float) -> None:
    """Make ``villain_boson`` build with the coupling scale g in place of
    ``g_constant(form=1)``: the package's radicand plus g^2 - g_constant(form=1)^2,
    whichever scale an earlier call set."""

    def detuned(params, jf, p):
        return _VILLAIN_RADICAND(params, jf, p) + (g ** 2 - g_constant(params, jf, 1) ** 2)

    monkeypatch.setattr(realizations, "_villain_radicand", detuned)


def window_columns(space: FockSpace, lo: float, hi: float) -> np.ndarray:
    """The N x r columns V_w: orthonormal momentum eigenvectors R u whose
    eigenvalue lies in [lo, hi], from the shared quadrature basis."""
    lam, u = _quadrature_basis(space.dim)
    return _quarter_turns(space.dim)[:, None] * u[:, _in_window(lam, lo, hi)]


def unitary_exp(h: Operator, theta: float) -> DenseOperator:
    """exp(i * theta * H) for Hermitian H, via eigendecomposition.

    A truncated power series would lose unitarity at the truncation edge;
    the spectral form is exactly unitary up to roundoff.
    """
    if isinstance(theta, complex):
        raise ValueError("theta must be real")
    op = h._promote() if isinstance(h, BandedOperator) else h
    if not is_hermitian(op):
        raise ValueError("unitary_exp requires a Hermitian operator")
    w, v = np.linalg.eigh(op.entries)
    u = (v * np.exp(1j * float(theta) * w)) @ v.conj().T
    return DenseOperator(op.space, u)


def operator_json_dict(op: Operator) -> dict:
    """The object an operator file holds: dim, field and the N*N entries in
    row-major order, each a ``p/q`` string or an [re, im] pair."""
    if op.field == RATIONAL:
        entries = [str(x) for row in op.entries for x in row]
    else:
        # adding 0.0 turns -0.0 into 0.0: a zero has one spelling
        entries = [[float(x.real) + 0.0, float(x.imag) + 0.0]
                   for row in op.entries for x in row]
    return {"dim": op.space.dim, "field": op.field, "entries": entries}


def realization_json_dict(r) -> dict:
    """The object a realization file holds, keys in file order."""
    out = {
        "kind": r.kind,
        "k": r.step_k,
        "j2": r.j2,
        "c1": str(r.params.c1),
        "c3": str(r.params.c3),
        "dim": r.space.dim,
        "jp": operator_json_dict(r.jp),
        "jm": operator_json_dict(r.jm),
        "j3": operator_json_dict(r.j3),
        "mask": [1 if b else 0 for b in r.admissible_mask],
    }
    if r.window is not None:
        out["window"] = [str(r.window[0]), str(r.window[1])]
    return out


def transform_json_dict(t) -> dict:
    """The object an ``export transform`` file holds, keys in file order."""
    out = {
        "q0": t.q0,
        "entries": [float(x) for x in t.entries],
        "mask": [1 if b else 0 for b in t.mask],
    }
    if t.q0_odd is not None:
        out["q0_odd"] = t.q0_odd
    return out


# -- the step-kind report from operator products --------------------------------

def block_max(op: Operator, inside: np.ndarray):
    """Entrywise max magnitude over the principal submatrix on the states
    where ``inside`` is true, read band by band; 0 when there are none.  A
    Fraction in the rational field, a float otherwise (NaN when an entry
    is NaN)."""
    worst = []
    for d, band in _arrays(op).items():
        r, c = _band_start(d)
        picked = band[inside[r:r + len(band)] & inside[c:c + len(band)]]
        if picked.size:
            worst.append(np.abs(picked).max())
    if op.field == RATIONAL:
        return Fraction(max(worst, default=0), op._den)
    return float(np.maximum.reduce(worst, initial=0.0))


def verify_by_products(r, tolerance_coefficient: float = 1e-12) -> VerificationReport:
    """The report of a step realization with every row formed from
    operator products: J+J-, J-J+ and the powers of J3 through ``mul``, the
    Casimir forms by ``casimir_operator``, commutators, and each block row
    measured by ``block_max`` on the interior block.  Its rows, judges and
    errors are the package's, so on a realization whose generators hold
    nothing off their bands both reports are the same bytes."""
    exact = r.field == RATIONAL
    k, dim = r.step_k, r.space.dim
    jp, jm, j3 = r.jp, r.jm, r.j3
    states = interior_check_states(r)
    inside = np.zeros(dim, dtype=bool)
    inside[states] = True
    block = len(states)
    checks = []

    def judge(name, block, substantive, residual, scale):
        value = tol = None
        if block > 0 and exact:
            value, tol = residual(), Fraction(0)
        elif block > 0:
            value, size = _finite(name, residual(), scale())
            (tol,) = _finite(name, tolerance_coefficient * dim * max(1.0, size),
                             what="the float tolerance", why="coefficient x dim x scale is")
        checks.append(CheckResult(name, value, tol, block, tol is None or value <= tol,
                                  block == 0, substantive, exact, False))

    def measure(op):
        return block_max(op, inside)

    def eigenvalue(name):
        lam = casimir_eigenvalue(r.params, r.j)
        return lam if exact else _to_float(lam, f"{name}: the Casimir eigenvalue")

    def deviation(name):
        return measure(sub(c_sym, scale(eigenvalue(name), identity_op(r.space, r.field))))

    def grading(op, sign):
        return sub(commutator(j3, op), scale(sign * k, op))

    def pairing():
        dagger = jp.adjoint()
        if dagger is jm and math.isfinite(jp.max_norm()):
            return 0.0
        return sub(jm, dagger).max_norm()

    with np.errstate(over="ignore", invalid="ignore"):
        if block:
            c_sym = casimir_operator(jp, jm, j3, r.params, symmetric=True)
            c_prod = casimir_operator(jp, jm, j3, r.params, symmetric=False)
            terms = (mul(jp, jm), mul(jm, jp),
                     add(scale(r.params.c1, j3), scale(r.params.c3, mul(j3, j3, j3))))
            closure = sub(sub(terms[0], terms[1]), terms[2])
            c_size = None if exact else float(measure(c_sym))
        judge("ladder-closure", block, True, lambda: measure(closure),
              lambda: max(float(measure(t)) for t in terms))
        for label, op, sign in ((f"grading-raise-k{k}", jp, 1), (f"grading-lower-k{k}", jm, -1)):
            judge(label, dim, False, lambda op=op, sign=sign: grading(op, sign).max_norm(),
                  lambda op=op: float(j3.max_norm()) * float(op.max_norm()))
        if r.kind == "hp":
            judge("adjoint-pairing", dim, False, pairing, lambda: float(jp.max_norm()))
        judge("casimir-two-forms", block, False, lambda: measure(sub(c_sym, c_prod)),
              lambda: c_size + float(measure(c_prod)))
        if k == 1:
            judge("casimir-commutes", block, True,
                  lambda: max(measure(commutator(c_sym, op)) for op in (jp, jm, j3)),
                  lambda: c_size * max(1.0, max(float(op.max_norm()) for op in (jp, jm, j3))))
            judge("casimir-scalar", block, True, lambda: deviation("casimir-scalar"),
                  lambda: max(c_size, abs(eigenvalue("casimir-scalar"))))
    return VerificationReport(kind=r.kind, step_k=k, j2=r.j2, c1=str(r.params.c1),
                              c3=str(r.params.c3), dim=dim, field_name=r.field,
                              checks=tuple(checks))
