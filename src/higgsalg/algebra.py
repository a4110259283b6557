"""Structure constants, Casimir data, and admissibility analysis.

The algebra under study closes as

    [J3, J+-] = +-J+-        [J+, J-] = c1 J3 + c3 J3^3

with rational structure constants c1, c3.  On the spin-j multiplet the
states are indexed by a displacement n = j - m, n = 0 .. 2j, and every
squared ladder element is a rational function of (c1, c3, j, n), read
from one integer prefix sum H(n) (``_prefix_sums``), which every
realization's weights read too.  Quantities here are exact; floats appear
only in the float view of the root boundaries, the table's ladder
elements (square roots) and the Casimir coefficients the float verifier
scales by.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .fock import _to_float

RationalLike = int | str | Fraction


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class AlgebraParams(namedtuple("AlgebraParams", "c1 c3")):
    """The pair (c1, c3) of structure constants, held exactly.  Equal
    pairs are equal values with one hash, as the ``_casimir_coefficients``
    cache needs."""

    __slots__ = ()

    @staticmethod
    def of(c1: RationalLike, c3: RationalLike) -> "AlgebraParams":
        return AlgebraParams(_frac(c1), _frac(c3))

    def __str__(self) -> str:
        return f"(c1={self.c1}, c3={self.c3})"


def casimir_eigenvalue(params: AlgebraParams, j: RationalLike) -> Fraction:
    """Invariant eigenvalue on the spin-j multiplet:
    c1 j(j+1) + (c3/2) j^2 (j+1)^2.

    Summed as int numerators over one denominator, and one Fraction made:
    with c1 = p1/q1, c3 = p3/q3, j = a/b and s = a(a + b), so that
    j(j+1) = s/b^2, it is s (2 p1 q3 b^2 + p3 q1 s) / (2 q1 q3 b^4)."""
    jf = _frac(j)
    a, b = jf.numerator, jf.denominator
    c1, c3 = params.c1, params.c3
    q1, q3 = c1.denominator, c3.denominator
    s, b2 = a * (a + b), b * b
    return Fraction(s * (2 * c1.numerator * q3 * b2 + c3.numerator * q1 * s), 2 * q1 * q3 * b2 * b2)


def _prefix_sums(params: AlgebraParams, j: RationalLike, k: int,
                 nmax: int) -> tuple[list[int], int]:
    """H(0) .. H(nmax) of the step-k weights as int numerators over one
    denominator q: H(n) = rhs(n) + H(n - k) with rhs(n) = c1 (j - n) +
    c3 (j - n)^3, summed over q = q1 q3 b^3 for c1 = p1/q1, c3 = p3/q3 and
    j = a/b, so that F_k(n) = H(n) / (q den(n)) (see
    ``realizations.product_recurrence``).  At k = 1, H(n) / q is the
    squared J- element from state n to n + 1."""
    if k < 1:
        raise ValueError("step k must be >= 1")
    jf = _frac(j)
    c1, c3 = params.c1, params.c3
    a, b = jf.numerator, jf.denominator
    # rhs(n) = (lin t + cub t^3) / q with t = a - n b
    q = c1.denominator * c3.denominator * b ** 3
    lin = c1.numerator * c3.denominator * b * b
    cub = c3.numerator * c1.denominator
    h: list = []
    for n in range(nmax + 1):
        t = a - n * b
        h.append(lin * t + cub * (t * t * t) + (h[n - k] if n >= k else 0))
    return h, q


def _den(n: int, k: int) -> int:
    """den(n) = (n + 1) ... (n + k)."""
    return math.prod(range(n + 1, n + k + 1))


# -- root boundaries of the bond quadratic ------------------------------------

def discriminant(params: AlgebraParams, j: RationalLike) -> Fraction:
    """Discriminant D of the monic quadratic q(n) with c3 q(n) =
    2 c1 + c3 (2 j^2 - n (2j - n - 1)), the bond quadratic: the step-1
    weight is F_1(n) = (2j - n) c3 q(n) / 4.  Real roots exist iff
    D >= 0.  Requires c3 != 0."""
    if params.c3 == 0:
        raise ValueError("root boundaries are defined only for c3 != 0")
    jf = _frac(j)
    return 2 - (2 * jf + 1) ** 2 - 8 * params.c1 / params.c3


def z_boundaries(params: AlgebraParams, j: RationalLike) -> tuple[float, float] | None:
    """Roots (z_minus, z_plus) = j - 1/2 -+ sqrt(D)/2 of the monic bond
    quadratic, as floats.  None when the roots are complex.  Exact sign
    questions should go through root_side_admissible instead."""
    d = discriminant(params, j)
    if d < 0:
        return None
    root = math.sqrt(_to_float(d, "the discriminant of the bond quadratic"))
    center = _to_float(_frac(j), "j") - 0.5
    return (center - root / 2.0, center + root / 2.0)


def root_side_admissible(params: AlgebraParams, j: RationalLike, n: int) -> bool | None:
    """Predict the sign of the step-1 weight F_1(n), that is of H(n)
    (``_prefix_sums`` at k = 1), from the position of n relative to the
    roots of the bond quadratic, exactly in rational arithmetic.

    Returns True/False for a definite prediction, None where the root
    picture does not decide: n sitting exactly on a root, or n = 2j where
    the linear prefactor vanishes.  c3 > 0 keeps states outside the open
    root interval; c3 < 0 keeps the states between the roots.  Complex
    roots mean the quadratic never changes sign.
    """
    jf = _frac(j)
    if Fraction(n) == 2 * jf:
        return None
    d = discriminant(params, jf)
    if d < 0:
        # no real roots: the quadratic keeps the sign of its leading term
        return params.c3 > 0
    # displacement of n from the root midpoint, doubled to stay rational
    t = Fraction(2 * n) - (2 * jf - 1)
    if t * t == d:
        return None
    outside = t * t > d
    return outside if params.c3 > 0 else not outside


# -- per-state scan and chain decomposition -----------------------------------

def _doubled_spin(j: RationalLike) -> tuple[Fraction, int]:
    jf = _frac(j)
    top, rest = divmod(2 * jf.numerator, jf.denominator)
    if rest:
        raise ValueError(f"2j must be an integer, got j = {jf}")
    return jf, top


def _lowering_sums(params: AlgebraParams, j: RationalLike) -> tuple[Fraction, list[int], int]:
    """j, and H(0) .. H(2j) over q at k = 1 (``_prefix_sums``): the squared
    J- element from state n to n + 1 is H(n) / q, and the squared J+
    element from n to n - 1 is H(n - 1) / q."""
    jf, top = _doubled_spin(j)
    h, q = _prefix_sums(params, jf, 1, top)
    return jf, h, q


def admissible_states(params: AlgebraParams, j: RationalLike) -> list[int]:
    """All n in [0, 2j] whose lowering radicand H(n) is nonnegative,
    by direct sign scan."""
    h = _lowering_sums(params, j)[1]
    return [n for n, x in enumerate(h) if x >= 0]


class ChainStructure(namedtuple("ChainStructure", "main segments")):
    """Decomposition of [0, 2j] under the bond signs.

    ``main`` is the chain grown from the displaced vacuum n = 0 through
    strictly positive bonds; a zero or negative bond ends it.  ``segments``
    are the remaining maximal runs of states with nonnegative lowering
    radicand.  A segment supports a well-defined Hermitian restriction
    but is not reachable from n = 0.
    """

    __slots__ = ()


def admissible_chain(params: AlgebraParams, j: RationalLike) -> ChainStructure:
    h = _lowering_sums(params, j)[1]
    main = [0]
    while main[-1] < len(h) - 1 and h[main[-1]] > 0:
        main.append(main[-1] + 1)
    states = [n for n, x in enumerate(h) if x >= 0 and n > main[-1]]
    segments: list[tuple[int, ...]] = []
    run: list[int] = []
    for n in states:
        if run and n == run[-1] + 1:
            run.append(n)
        else:
            if run:
                segments.append(tuple(run))
            run = [n]
    if run:
        segments.append(tuple(run))
    return ChainStructure(tuple(main), tuple(segments))


# -- the representation table -------------------------------------------------

# One state n of the table: its J3 eigenvalue, the elements of J+ and J-
# (None where the radicand is negative) and its admissible flag.
TableRow = namedtuple("TableRow", "n j3 plus minus admissible")


class RepresentationTable(namedtuple("RepresentationTable", "params j rows")):
    __slots__ = ()

    def to_csv(self) -> str:
        lines = [
            f"# c1 = {self.params.c1}",
            f"# c3 = {self.params.c3}",
            f"# j = {self.j}",
            "n,j3,plus,minus,admissible",
        ]
        for r in self.rows:
            plus = "" if r.plus is None else repr(r.plus)
            minus = "" if r.minus is None else repr(r.minus)
            lines.append(f"{r.n},{r.j3},{plus},{minus},{1 if r.admissible else 0}")
        return "\n".join(lines) + "\n"


def _sqrt_or_none(h: int, q: int) -> float | None:
    """sqrt(h / q) for q > 0, None where h < 0."""
    if h < 0:
        return None
    return math.sqrt(_to_float(Fraction(h, q), "a squared ladder element"))


def representation_table(params: AlgebraParams, j: RationalLike) -> RepresentationTable:
    """Matrix elements of J+- over the full index range n = 0 .. 2j.

    plus(n) moves n to n-1, minus(n) moves n to n+1; an element whose
    radicand is negative is reported as missing.  The radicands are
    H(n) / q for minus and H(n - 1) / q for plus, 0 at n = 0
    (``_lowering_sums``).  The admissible flag is the per-state sign scan
    (nonnegative lowering radicand).
    """
    jf, h, q = _lowering_sums(params, j)
    rows = []
    for n, x in enumerate(h):
        rows.append(
            TableRow(
                n=n,
                j3=jf - n,
                plus=_sqrt_or_none(h[n - 1] if n else 0, q),
                minus=_sqrt_or_none(x, q),
                admissible=x >= 0,
            )
        )
    return RepresentationTable(params, jf, tuple(rows))


# -- the Casimir forms --------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _casimir_coefficients(params: AlgebraParams) -> tuple:
    """(2, c1, c1 + c3/2, c3, c3/2), each converted to a float once."""
    c1, c3 = params.c1, params.c3
    return tuple(_to_float(x, "a scale factor")
                 for x in (2, c1, c1 + Fraction(c3, 2), c3, Fraction(c3, 2)))


def _casimir(pm, mp, powers, coefficients: tuple, symmetric: bool):
    """A Casimir form from its named products: ``pm`` = J+ J-, ``mp`` =
    J- J+ and ``powers`` = (J3, J3^2, J3^3, J3^4), with the coefficients
    of ``_casimir_coefficients``.

    symmetric=True gives the ordering-balanced form
        J+ J- + J- J+ + (c1 + c3/2) J3^2 + (c3/2) J3^4,
    symmetric=False the normal-ordered form
        2 J- J+ + c1 J3 + (c1 + c3/2) J3^2 + c3 J3^3 + (c3/2) J3^4.
    The two agree exactly wherever the defining commutator holds.  The
    verifier evaluates them per state of the step kinds' interior block
    and on the momentum-window blocks."""
    two, a1, a2, a3, a4 = coefficients
    j3, j3_2, j3_3, j3_4 = powers
    if symmetric:
        return pm + mp + a2 * j3_2 + a4 * j3_4
    return two * mp + a1 * j3 + a2 * j3_2 + a3 * j3_3 + a4 * j3_4
