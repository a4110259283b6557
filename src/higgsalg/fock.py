"""Truncated Fock-space matrices and the immutable operator value type.

Everything acts on a finite dimension-N slice spanned by the occupation
states |0> .. |N-1>.  Two scalar fields are supported:

* ``"complex"``: complex floats in the conventional normalized basis,
  where the annihilation matrix carries sqrt(n) entries.
* ``"rational"``: exact rational entries in the monomial basis (the
  creation matrix has unit entries, annihilation has integer entries n).
  The commutator [a, a+] = 1 and every closure identity built from it are
  invariant under the diagonal change of basis between the two
  conventions, so exact checks done in this field transfer to the
  normalized basis unchanged.  The bands hold Python int numerators over
  one positive int denominator per operator; ``fractions.Fraction``
  values are built only where entries leave the operator (``entries``,
  ``diagonal``, the norms and the file formats).

Operators are immutable values with no arithmetic: the verifier reads
their bands or dense blocks directly.  The kind picks the type.  A
step-kind (hp, dyson) operator is a ``BandedOperator``, its nonzero
diagonals in either field as tuples of Python numbers, built or read from
a file, so the step kinds run without numpy; a spectral (villain) operator
and the momentum quadrature are ``DenseOperator``s, complex numpy arrays.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import weakref
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from numbers import Rational

Scalar = int | float | complex | Fraction

COMPLEX = "complex"
RATIONAL = "rational"

class FieldError(TypeError):
    """Raised when an operation is asked of the wrong scalar field."""


# -- value classes -------------------------------------------------------------
#
# Each value class of the package is a ``collections.namedtuple``, or a
# subclass of one with ``__slots__ = ()`` where it has methods: immutable,
# built by position or keyword, equal and hashed by its fields, printed as
# ``Name(field=value, ...)``, and copied or pickled through its ``__new__``.
# A class that checks its arguments or derives fields from them does so in
# ``__new__``; ``_make`` and ``_replace`` would bypass that, and nothing
# calls them.


class FockSpace(namedtuple("FockSpace", "dim")):
    """A truncation keeping the first ``dim`` occupation states.  Equal
    dims make equal spaces."""

    __slots__ = ()

    def __new__(cls, dim: int):
        if not isinstance(dim, int) or dim < 2:
            raise ValueError(f"truncation dimension must be an integer >= 2,"
                             f" got {json.dumps(dim, default=repr)}")
        return tuple.__new__(cls, (dim,))


def _freeze(entries):
    entries.setflags(write=False)
    return entries


def _to_float(x: Scalar, what: str) -> float:
    """float(x); a value beyond the float range raises ValueError naming
    ``what``, not OverflowError."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise FieldError(f"exact field requires rational scalars, got {type(x).__name__}")


# -- banded storage ------------------------------------------------------------
#
# A banded operator is a dict {offset: tuple}.  Offset d holds the entries
# (i, i + d) in order of increasing row, starting at (row, column) =
# _band_start(d) and ending at its last nonzero entry, so it has at most
# N - |d| entries; the entries past its end are zeros.  A diagonal of zeros
# has no band.  The constructor keeps this rule, so an hp generator, which
# is zero past its multiplet, is stored as the multiplet's bonds, and a
# built operator and the one its file loads hold the same bands.
# ``diagonal`` pads a band to its N - |d| entries; the writer and the
# dense view index each band by its own length.  A band holds Python
# numbers of one type: the int numerators of the entries over the
# operator's one positive int denominator ``_den`` in the rational field;
# floats for a built generator and complex numbers for a loaded one in the
# other.

_ZERO = Fraction(0)

_Bands = dict[int, tuple]


def _band_start(d: int) -> tuple[int, int]:
    """(row, column) of the first entry on diagonal offset d."""
    return (-d, 0) if d < 0 else (0, d)


def _padded(band: tuple, size: int, field: str) -> tuple:
    """A stored band followed by zeros of the storage (int 0, or 0.0) up to
    ``size`` entries; the band itself when it is that long or longer."""
    return band + (0 if field == RATIONAL else 0.0,) * (size - len(band))


def _trimmed(band) -> tuple:
    """The band up to its last nonzero entry, by one backward scan from its
    end: a band that ends on a nonzero entry, as a producer that passes a
    short band gives it, costs one test.  NaN is nonzero."""
    band = tuple(band)
    end = len(band)
    while end and not band[end - 1]:
        end -= 1
    return band if end == len(band) else band[:end]


def _peak(values: Sequence) -> float:
    """max |v| over a sequence of Python floats or complex numbers, 0.0
    when empty; NaN when any |v| is NaN, as numpy's max gives it.  Python's
    max keeps or drops a NaN by where it stands, so the sum finds it."""
    try:
        mags = list(map(abs, values))
    except OverflowError:  # a finite complex whose modulus is past the float range
        mags = [math.hypot(x.real, x.imag) for x in values]
    total = sum(mags)
    return total if total != total else max(mags, default=0.0)


def _over_lcm(bands: dict) -> tuple[_Bands, int]:
    """Bands of rational values as int numerators over the lcm of their
    denominators, and that lcm; an int is its own numerator over 1."""
    bands = {d: [x if type(x) is int else _as_fraction(x) for x in band]
             for d, band in bands.items()}
    den = math.lcm(*{x.denominator for band in bands.values() for x in band})
    return {d: tuple([x.numerator * (den // x.denominator) for x in band])
            for d, band in bands.items()}, den


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_rational(x) -> Fraction:
    """A file's ``p/q`` string or integer as a Fraction.  Any other value
    raises ValueError: a float, a bool, null, a list, or a string that is
    not a rational or has a zero denominator."""
    if isinstance(x, str) or _is_int(x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a finite rational entry: {json.dumps(x)}")


class Operator:
    """A matrix on a FockSpace, tagged with its scalar field; the base of
    ``BandedOperator`` and ``DenseOperator``.

    Operators are immutable, so ``max_norm`` is computed once, and
    ``adjoint`` remembers its result, which remembers its source in turn,
    for as long as both live: the adjoint of an adjoint is the operator
    itself, not an equal copy.  ``entries`` is a read-only dense numpy
    array in either type.  JSON spells every zero part of a complex entry
    ``0.0``, so an operator file depends only on the matrix, not its type.
    """

    __slots__ = ("space", "field", "_norm", "_adjoint", "__weakref__")

    def adjoint(self) -> "Operator":
        """Conjugate transpose.  The result is remembered, and remembers
        this operator as its own adjoint, through weak references: neither
        keeps the other alive."""
        out = None if self._adjoint is None else self._adjoint()
        if out is None:
            out = self._transpose()
            self._adjoint, out._adjoint = weakref.ref(out), weakref.ref(self)
        return out

    def max_norm(self):
        """Entrywise max-magnitude norm.  Exact (a Fraction) for the
        rational field, a float otherwise (NaN when an entry is NaN);
        computed on the first call."""
        if self._norm is None:
            self._norm = self._max_abs()
        return self._norm


class BandedOperator(Operator):
    """An operator kept as its nonzero diagonals, in either field (the
    banded storage above): ``annihilation`` and the step-kind generators,
    each a single band, a shift times a diagonal.  A rational one holds int
    numerators over one positive int denominator ``den``, the lcm of its
    entries' denominators.  ``entries`` is built on first use as zeros plus
    the bands, complex128 or object dtype of Fractions; ``diagonal`` of a
    rational operator holds Fractions too."""

    __slots__ = ("_bands", "_den", "_dense")

    def __init__(self, space: FockSpace, field: str, bands: dict, den: int = 1):
        self.space, self.field, self._den = space, field, den
        self._bands = {d: kept for d, band in bands.items() if (kept := _trimmed(band))}
        self._dense = self._norm = self._adjoint = None

    @staticmethod
    def _exact(space: FockSpace, bands: dict) -> "BandedOperator":
        """Rational operator from bands of rational values."""
        return BandedOperator(space, RATIONAL, *_over_lcm(bands))

    def _values(self, band: tuple) -> tuple:
        """A band's entries as values of the field: Fractions in the
        rational field, where the band holds numerators."""
        if self.field == COMPLEX:
            return band
        return tuple([Fraction(x, self._den) for x in band])

    @property
    def entries(self):
        if self._dense is None:
            import numpy as np
            n = self.space.dim
            base = (np.full((n, n), _ZERO, dtype=object) if self.field == RATIONAL
                    else np.zeros((n, n), dtype=complex))
            for d, band in self._bands.items():
                r, c = _band_start(d)
                idx = np.arange(len(band))
                base[idx + r, idx + c] = self._values(band)
            self._dense = _freeze(base)
        return self._dense

    def _promote(self) -> "BandedOperator":
        """Return the complex-field version of an exact operator.  Each
        entry is the int quotient numerator / denominator, correctly
        rounded, as ``complex(Fraction)`` is; a numerator past 2**53 is
        never rounded to a float on its own."""
        if self.field == COMPLEX:
            return self
        return BandedOperator(self.space, COMPLEX,
                              {d: [x / self._den for x in band] for d, band in self._bands.items()})

    def _transpose(self) -> "BandedOperator":
        # offset d becomes -d; a band of floats or ints is its own conjugate
        return BandedOperator(self.space, self.field, {
            -d: [x.conjugate() for x in band] if type(band[0]) is complex else band
            for d, band in self._bands.items()}, self._den)

    def _max_abs(self):
        if self.field == RATIONAL:
            return Fraction(max((max(map(abs, band)) for band in self._bands.values()),
                                default=0), self._den)
        return _peak(tuple(itertools.chain.from_iterable(self._bands.values())))

    def diagonal(self, d: int = 0) -> Sequence:
        """The N - |d| entries (i, i + d) of diagonal offset d, in order of
        increasing row, its stored band padded with zeros; d = 0 is the
        main diagonal."""
        return self._values(_padded(self._bands.get(d, ()), self.space.dim - abs(d), self.field))

    def _gap(self, other: "BandedOperator"):
        """max |self - other| entrywise over two operators on one space,
        band by band, so no N x N array is formed: a Fraction when both
        are rational, a float otherwise (NaN when an entry is NaN)."""
        gaps = [x - y for d in {**self._bands, **other._bands}
                for x, y in zip(self.diagonal(d), other.diagonal(d))]
        if self.field == other.field == RATIONAL:
            return max(map(abs, gaps), default=_ZERO)
        return _peak(gaps)

    @staticmethod
    def from_json_dict(data: dict) -> "BandedOperator":
        """An operator read back from the object ``_operator_text`` writes,
        as its nonzero diagonals in either field, each up to its last
        nonzero entry, in one pure-Python pass.
        Raises ValueError on a malformed payload: one that is not an
        object, a bad dim, entry count or field, or an entry that is not a
        finite number of the field, spelled as the field's JSON type
        (``p/q`` strings or integers; ``[re, im]`` pairs of numbers)."""
        space, field, values = _payload(data)
        dim = space.dim
        if field == RATIONAL:
            # a file spells almost every entry "0": each distinct spelling is
            # parsed once, in order of first appearance, and judged zero or
            # not once
            parsed = {x: _parse_rational(x) for x in dict.fromkeys(values)}
            live = {x for x, value in parsed.items() if value}
            width, make = 1, parsed.__getitem__
            nonzero = itertools.compress(itertools.count(), map(live.__contains__, values))
        else:
            # the values are the parts; one that is not finite, or an int past
            # the float range, is nonzero
            width, make = 2, complex
            nonzero = (i >> 1 for i in itertools.compress(itertools.count(), values))
        # the row of the last nonzero entry on each diagonal that holds one:
        # the indices ascend, so the last row set for an offset is its last
        last = {c - r: r for r, c in map(divmod, nonzero, itertools.repeat(dim))}
        # each band up to that entry, from part j of every step-th value
        bands, step = {}, width * (dim + 1)
        try:
            for d in sorted(last):
                r, c = _band_start(d)
                start = width * (r * dim + c)
                stop = start + (last[d] - r + 1) * step
                bands[d] = list(map(make, *(values[start + j:stop:step] for j in range(width))))
        except OverflowError:  # complex() of an int part past the float range
            raise ValueError("operator entries must be finite") from None
        if field == RATIONAL:
            return BandedOperator._exact(space, bands)
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(bands.values()))):
            raise ValueError("operator entries must be finite")
        return BandedOperator(space, COMPLEX, bands)

    def _nonzero_entries(self):
        """(flat row-major index, Python number) of each nonzero entry,
        band by band."""
        n = self.space.dim
        for d, band in self._bands.items():
            r, c = _band_start(d)
            yield from ((r * n + c + i * (n + 1), x) for i, x in enumerate(band) if x)


class DenseOperator(Operator):
    """An operator kept as a dense complex numpy array, read-only: the
    spectral (villain) generators and ``momentum``, built or loaded.  Its
    field is always complex."""

    __slots__ = ("_dense",)

    def __init__(self, space: FockSpace, entries):
        if entries.shape != (space.dim, space.dim):
            raise ValueError(f"entries shape {entries.shape} does not match dim {space.dim}")
        self.space, self.field = space, COMPLEX
        self._norm = self._adjoint = None
        self._dense = _freeze(entries)

    @property
    def entries(self):
        return self._dense

    def _transpose(self) -> "DenseOperator":
        return DenseOperator(self.space, self._dense.conj().T)

    def _max_abs(self) -> float:
        return float(abs(self._dense).max())

    def _gap(self, other: "DenseOperator") -> float:
        return float(abs(self._dense - other._dense).max())

    @staticmethod
    def from_json_dict(data) -> "DenseOperator":
        """An operator of a spectral (villain) file, by one numpy parse of
        its parts: 22 ms for a dim-256 villain J+, against 100 ms for the
        pure-Python pass of ``BandedOperator.from_json_dict`` (2-vCPU
        machine, Python 3.11.7, numpy 2.4.6).  Both make the same checks
        and refusals (``_payload``); this one also refuses a rational
        operator, since a dense one is complex."""
        space, field, values = _payload(data)
        if field != COMPLEX:
            raise ValueError(f"a dense (spectral) operator is complex, not {json.dumps(field)}")
        import numpy as np
        try:
            values = np.array(values, dtype=float)
        except OverflowError:
            raise ValueError("operator entries must be finite") from None
        if not np.isfinite(values).all():
            raise ValueError("operator entries must be finite")
        return DenseOperator(space, values.view(complex).reshape(space.dim, space.dim))

    def _nonzero_entries(self):
        """(flat row-major index, Python number) of each nonzero entry, in
        row-major order."""
        return ((i, x) for i, x in enumerate(self._dense.ravel().tolist()) if x)


def _payload(data) -> tuple[FockSpace, str, list]:
    """An operator object's space, field and values, checked as
    ``BandedOperator.from_json_dict`` states: the N^2 entries of a rational
    operator, the 2 N^2 parts (re, im) of a complex one.  The JSON types
    are checked over the set of types present; bool is a type of its own."""
    if type(data) is not dict:
        raise ValueError(f"operator must be an object, got {json.dumps(data)}")
    dim = data["dim"]
    field = data["field"]
    space = FockSpace(dim)
    flat = data["entries"]
    if type(flat) is not list:
        raise ValueError("entries must be a list")
    if len(flat) != dim * dim:
        raise ValueError("entry count does not match dim*dim")
    if field == RATIONAL:
        if not set(map(type, flat)) <= {str, int}:
            raise ValueError("rational entries must be p/q strings or integers")
        return space, field, flat
    if field == COMPLEX:
        pairs = set(map(type, flat)) <= {list} and set(map(len, flat)) <= {2}
        parts = list(itertools.chain.from_iterable(flat)) if pairs else []
        if not pairs or not set(map(type, parts)) <= {float, int}:
            raise ValueError("complex entries must be [re, im] number pairs")
        return space, field, parts
    raise ValueError(f"unknown field {json.dumps(field)}")


# -- the file writer ----------------------------------------------------------
#
# json.dumps(..., indent=2) runs CPython's pure-Python encoder, since the C
# encoder serves only indent=None.  ``_operator_text`` spells out the same
# layout directly, for the object {"dim", "field", "entries"} with the N*N
# entries in row-major order.  An entry item is the text json.dumps gives
# it: repr of each float part plus 0.0, so that a zero has the one spelling
# 0.0 and never -0.0, or the quoted ``p/q``.
# Every zero entry is the same text, so the list of N*N items starts as
# that text and only the nonzero entries are formatted.


def _entry_items(op: Operator, pad: str) -> list[str]:
    """The N*N items of the ``entries`` list, each indented by ``pad``.
    A non-finite complex entry raises ValueError; nothing writes NaN."""
    n2 = op.space.dim ** 2
    if op.field == RATIONAL:
        items = [f'{pad}"0"'] * n2
        for i, x in op._nonzero_entries():
            items[i] = f'{pad}"{Fraction(x, op._den)}"'
        return items
    inner = pad + "  "
    items = [f"{pad}[\n{inner}0.0,\n{inner}0.0\n{pad}]"] * n2
    for i, x in op._nonzero_entries():
        if not cmath.isfinite(x):
            raise ValueError("an operator entry is not finite")
        items[i] = f"{pad}[\n{inner}{x.real + 0.0!r},\n{inner}{x.imag + 0.0!r}\n{pad}]"
    return items


def _operator_text(op: Operator, level: int = 0) -> str:
    """The operator file, byte for byte as ``json.dumps(..., indent=2)``
    spells it, as the value of a key at nesting ``level`` (0 for a file of
    its own)."""
    pad = "  " * level
    key = pad + "  "
    items = ",\n".join(_entry_items(op, key + "  "))
    return (f'{{\n{key}"dim": {op.space.dim},\n{key}"field": {json.dumps(op.field)},\n'
            f'{key}"entries": [\n{items}\n{key}]\n{pad}}}')


# -- ladder operators ---------------------------------------------------------

def annihilation(space: FockSpace, field: str = COMPLEX) -> BandedOperator:
    """Lowering matrix a.

    Normalized basis (complex field): entry (n-1, n) = sqrt(n).
    Monomial basis (rational field): entry (n-1, n) = n, exactly.
    """
    n = space.dim
    band = range(1, n) if field == RATIONAL else [math.sqrt(m) for m in range(1, n)]
    return BandedOperator(space, field, {1: band})


def pochhammer(q: float, n: int) -> float:
    """Rising factorial (q)_n = q (q+1) ... (q+n-1), with (q)_0 = 1, in
    floats."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    out = 1.0
    for i in range(n):
        out *= q + i
    return out


# -- quadratures and spectral constructions -----------------------------------

_SQRT2 = math.sqrt(2.0)


def momentum(space: FockSpace) -> DenseOperator:
    """P = -i (a - a+)/sqrt(2); Hermitian, complex field only, stored dense."""
    return DenseOperator(space, _momentum_entries(space.dim))


@functools.lru_cache(maxsize=8)
def _momentum_entries(dim: int):
    """The dense matrix of ``momentum`` on ``dim`` states, read-only and
    formed once per dim."""
    a = annihilation(FockSpace(dim)).entries
    return _freeze(complex(-1j / _SQRT2) * (a - a.conj().T))


@functools.lru_cache(maxsize=8)
def _quadrature_basis(dim: int):
    """Eigenvalues ``lam`` (ascending) and real orthonormal eigenvectors
    ``u`` of the position quadrature X on ``dim`` states, read-only.

    X is the real symmetric tridiagonal Jacobi matrix of the Hermite
    polynomials, so one real eigendecomposition serves both quadratures:
    with R = diag(i^n) (``_quarter_turns``), P = R X R-dagger holds
    exactly, and the momentum eigenvectors are R u with the same ``lam``.
    """
    import numpy as np
    off = (1.0 / _SQRT2) * np.sqrt(np.arange(1, dim))
    lam, u = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return _freeze(lam), _freeze(u)


@functools.lru_cache(maxsize=8)
def _phase_kernel(dim: int):
    """[Re K; Im K], the 2N x N real stack of K = e^{iX} R u on ``dim``
    states, read-only.

    K maps the momentum eigenbasis through the phase e^{iX} = u e^{i lam} u^T,
    so J+ = e^{iX} w(P) = K diag(s) u^T R-dagger for the spectral weights s.
    It is formed as u (e^{i lam} (u^T R u)) with real products on the
    interleaved re/im view of each complex factor.
    """
    import numpy as np
    lam, u = _quadrature_basis(dim)
    ru = _quarter_turns(dim)[:, None] * u
    inner = np.exp(1j * lam)[:, None] * (u.T @ ru.view(float)).view(complex)
    k = (u @ inner.view(float)).view(complex)
    return _freeze(np.concatenate((k.real, k.imag)))


def _quarter_turns(dim: int):
    """diag(R) = (i^n) for n = 0 .. dim-1, spelled as the exact phases
    1, i, -1, -i; a computed power i**n drifts off them."""
    import numpy as np
    return np.array([1, 1j, -1, -1j])[np.arange(dim) % 4]
