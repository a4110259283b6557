"""Truncated Fock-space matrices and the immutable operator value type.

Everything acts on a finite dimension-N slice spanned by the occupation
states |0> .. |N-1>.  Two scalar fields are supported:

* ``"complex"``: complex floats in the conventional normalized basis,
  where the annihilation matrix carries sqrt(n) entries.
* ``"rational"``: exact ``fractions.Fraction`` entries in the monomial
  basis (the creation matrix has unit entries, annihilation has integer
  entries n).  The commutator [a, a+] = 1 and every closure identity
  built from it are invariant under the diagonal change of basis between
  the two conventions, so exact checks done in this field transfer to
  the normalized basis unchanged.

Operators are immutable; mixed-field arithmetic promotes rational to
complex.  The ladder and diagonal constructors keep only an operator's
diagonals, in either field; a complex operator built from a dense array
stays dense (see ``Operator``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence, Union

import numpy as np

Scalar = Union[int, float, complex, Fraction]

COMPLEX = "complex"
RATIONAL = "rational"

# Hermiticity / unitarity slack for float constructions, relative to the
# largest entry magnitude.
_HERMITIAN_RTOL = 1e-10


class FieldError(TypeError):
    """Raised when an operation is asked of the wrong scalar field."""


@dataclass(frozen=True)
class FockSpace:
    """A truncation keeping the first ``dim`` occupation states."""

    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError(f"truncation dimension must be an integer >= 2, got {self.dim!r}")

    def occupations(self) -> range:
        return range(self.dim)


def _freeze(entries: np.ndarray) -> np.ndarray:
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
# A banded operator is a dict {offset: 1-D numpy array}.  Offset d holds the
# entries (i, i + d) in order of increasing row, so it has N - |d| entries and
# starts at (row, column) = _band_start(d).  Only diagonals with a nonzero
# entry are kept.  The arrays hold Fractions (object dtype) in the rational
# field and complex128 in the complex field; numpy applies + - * elementwise
# to either dtype, so the band routines below serve both fields.

_ZERO = Fraction(0)

_Bands = dict[int, np.ndarray]


def _band_start(d: int) -> tuple[int, int]:
    """(row, column) of the first entry on diagonal offset d."""
    return (-d, 0) if d < 0 else (0, d)


def _band(values, field: str) -> np.ndarray:
    return np.array(values, dtype=object if field == RATIONAL else complex)


def _zero_array(shape, field: str) -> np.ndarray:
    """Zeros of the field, as a band (an int shape) or a dense matrix."""
    if field == RATIONAL:
        return np.full(shape, _ZERO, dtype=object)
    return np.zeros(shape, dtype=complex)


def _nonzero(bands: _Bands) -> _Bands:
    """The bands with a nonzero entry, made read-only."""
    return {d: _freeze(band) for d, band in bands.items() if any(band)}


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
                acc = out[dz] = _zero_array(n - abs(dz), field)
                acc[iz:iz + cnt] = prods
    return out


def _band_add(n: int, x: _Bands, y: _Bands, field: str, subtract: bool) -> _Bands:
    """x + y, or x - y when ``subtract``, band by band; a band missing on
    one side counts as zeros there."""
    op = np.subtract if subtract else np.add

    def side(bands: _Bands, d: int) -> np.ndarray:
        return bands[d] if d in bands else _zero_array(n - abs(d), field)

    return {d: op(side(x, d), side(y, d)) for d in {**x, **y}}


def _parse_rational(x) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"not a finite rational entry: {x!r}") from None


class Operator:
    """A matrix on a FockSpace, tagged with its scalar field.

    Storage is banded or dense.  The band constructors (``annihilation``,
    ``creation``, ``diagonal_operator``, ``identity_op``, ``number_op``)
    and all arithmetic on their results keep only the diagonals: every
    generator of the step kinds is a single band (a shift times a
    diagonal) and every product the checks form stays within a few
    offsets, so a product costs O(N * bands^2) scalar operations instead
    of the O(N^3) of a dense one.  Rational operators are always banded;
    built from a dense array they keep its nonzero diagonals.  A complex
    operator built from a dense array stays a dense complex128 array, as
    do ``position``, ``momentum`` and everything the spectral kinds build
    from them; an operation that mixes the two storages densifies the
    banded operand first.

    ``entries`` is a read-only dense numpy array in either storage:
    complex128, or object dtype of Fractions, built on first use as zeros
    plus the bands.  JSON spells every zero part of a complex entry
    ``0.0``, so an operator file depends only on the matrix, not on its
    storage or on the arithmetic that produced it.
    """

    __slots__ = ("space", "field", "_bands", "_dense")

    def __init__(self, space: FockSpace, entries: np.ndarray, field: str):
        if field not in (COMPLEX, RATIONAL):
            raise ValueError(f"unknown field {field!r}")
        if entries.shape != (space.dim, space.dim):
            raise ValueError(f"entries shape {entries.shape} does not match dim {space.dim}")
        self.space = space
        self.field = field
        if field == RATIONAL:
            n = space.dim
            bands = {d: _band([_as_fraction(x) for x in entries.diagonal(d)], RATIONAL)
                     for d in range(1 - n, n)}
            self._bands = _nonzero(bands)
            self._dense = None
        else:
            self._bands = None
            self._dense = _freeze(entries)

    @staticmethod
    def _banded(space: FockSpace, field: str, bands: _Bands) -> "Operator":
        """Operator straight from its bands; all-zero bands are dropped."""
        op = object.__new__(Operator)
        op.space = space
        op.field = field
        op._bands = _nonzero(bands)
        op._dense = None
        return op

    def _with(self, bands: _Bands) -> "Operator":
        return Operator._banded(self.space, self.field, bands)

    @property
    def entries(self) -> np.ndarray:
        if self._dense is None:
            base = _zero_array((self.space.dim, self.space.dim), self.field)
            for d, band in self._bands.items():
                r, c = _band_start(d)
                idx = np.arange(len(band))
                base[idx + r, idx + c] = band
            self._dense = _freeze(base)
        return self._dense

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(space: FockSpace, field: str = COMPLEX) -> "Operator":
        return Operator._banded(space, field, {})

    def _promote(self) -> "Operator":
        """Return the complex-field version of an exact operator."""
        if self.field == COMPLEX:
            return self
        return Operator._banded(
            self.space, COMPLEX, {d: band.astype(complex) for d, band in self._bands.items()}
        )

    @staticmethod
    def _align(a: "Operator", b: "Operator") -> tuple["Operator", "Operator"]:
        """Both operands in one field and one storage."""
        if a.space != b.space:
            raise ValueError("operators live on different truncations")
        if a.field != b.field:
            a, b = a._promote(), b._promote()
        if (a._bands is None) != (b._bands is None):
            a, b = (op if op._bands is None else Operator(op.space, op.entries, COMPLEX)
                    for op in (a, b))
        return a, b

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "Operator") -> "Operator":
        a, b = Operator._align(self, other)
        if a._bands is None:
            return Operator(a.space, a._dense @ b._dense, COMPLEX)
        return a._with(_band_matmul(a.space.dim, a._bands, b._bands, a.field))

    def __add__(self, other: "Operator") -> "Operator":
        a, b = Operator._align(self, other)
        if a._bands is None:
            return Operator(a.space, a._dense + b._dense, COMPLEX)
        return a._with(_band_add(a.space.dim, a._bands, b._bands, a.field, subtract=False))

    def __sub__(self, other: "Operator") -> "Operator":
        a, b = Operator._align(self, other)
        if a._bands is None:
            return Operator(a.space, a._dense - b._dense, COMPLEX)
        return a._with(_band_add(a.space.dim, a._bands, b._bands, a.field, subtract=True))

    def __neg__(self) -> "Operator":
        if self._bands is None:
            return Operator(self.space, -self._dense, COMPLEX)
        return self._with({d: -band for d, band in self._bands.items()})

    def scale(self, c: Scalar) -> "Operator":
        if self.field == RATIONAL:
            if not isinstance(c, Rational):
                return self._promote().scale(c)
            c = _as_fraction(c)
        else:
            c = complex(c) if isinstance(c, complex) else complex(_to_float(c, "a scale factor"))
        if self._bands is None:
            return Operator(self.space, c * self._dense, COMPLEX)
        return self._with({d: c * band for d, band in self._bands.items()})

    def __rmul__(self, c: Scalar) -> "Operator":
        return self.scale(c)

    def adjoint(self) -> "Operator":
        """Conjugate transpose: offset d becomes -d.  In the exact field
        entries are real rationals, so this is the plain transpose."""
        if self._bands is None:
            return Operator(self.space, self._dense.conj().T.copy(), COMPLEX)
        return self._with({-d: band.conj() for d, band in self._bands.items()})

    def power(self, k: int) -> "Operator":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        out = identity_op(self.space, self.field)
        for _ in range(k):
            out = out @ self
        return out

    # -- inspection -----------------------------------------------------------

    def _largest(self, worst: list):
        """Largest of the magnitudes ``worst``, or zero: a Fraction for the
        rational field, a float otherwise (NaN when one is NaN)."""
        if self.field == RATIONAL:
            return max(worst, default=_ZERO)
        return float(np.max(worst, initial=0.0))

    def max_norm(self):
        """Entrywise max-magnitude norm.  Exact (a Fraction) for the
        rational field, a float otherwise."""
        if self._bands is None:
            return float(np.abs(self._dense).max())
        return self._largest([np.abs(band).max() for band in self._bands.values()])

    def diagonal(self) -> Sequence:
        """The main-diagonal entries (n, n) for n = 0 .. N-1."""
        if self._bands is None:
            return self._dense.diagonal()
        band = self._bands.get(0)
        return _zero_array(self.space.dim, self.field) if band is None else band

    def block_max(self, states: Sequence[int]):
        """Entrywise max magnitude over the principal submatrix on
        ``states``; 0 when ``states`` is empty.  Exact (a Fraction) for the
        rational field, a float otherwise."""
        idx = np.asarray(states, dtype=int)
        if self._bands is None:
            return float(np.abs(self._dense[np.ix_(idx, idx)]).max(initial=0.0))
        inside = np.zeros(self.space.dim, dtype=bool)
        inside[idx] = True
        worst = []
        for d, band in self._bands.items():
            r, c = _band_start(d)
            picked = band[inside[r:r + len(band)] & inside[c:c + len(band)]]
            if picked.size:
                worst.append(np.abs(picked).max())
        return self._largest(worst)

    def interior(self, size: int) -> np.ndarray:
        """Leading principal block, where truncation artifacts cannot reach."""
        if not 0 <= size <= self.space.dim:
            raise ValueError(f"interior size {size} outside [0, {self.space.dim}]")
        return self.entries[:size, :size]

    def is_hermitian(self, rtol: float = _HERMITIAN_RTOL) -> bool:
        d = (self - self.adjoint()).max_norm()
        scale = self.max_norm()
        return float(d) <= rtol * max(1.0, float(scale))

    def __repr__(self) -> str:
        return f"Operator(dim={self.space.dim}, field={self.field})"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.field == RATIONAL:
            entries = [str(x) for row in self.entries for x in row]
        else:
            # adding 0.0 turns -0.0 into 0.0: a zero has one spelling
            entries = [[float(x.real) + 0.0, float(x.imag) + 0.0]
                       for row in self.entries for x in row]
        return {"dim": self.space.dim, "field": self.field, "entries": entries}

    @staticmethod
    def from_json_dict(data: dict) -> "Operator":
        """Inverse of ``to_json_dict``.  Raises ValueError on a malformed
        payload: a bad dim, entry count or field, or an entry that is not
        a finite number of the field."""
        dim = data["dim"]
        field = data["field"]
        space = FockSpace(dim)
        flat = data["entries"]
        if len(flat) != dim * dim:
            raise ValueError("entry count does not match dim*dim")
        if field == RATIONAL:
            ent = _band([_parse_rational(x) for x in flat], RATIONAL)
            return Operator(space, ent.reshape(dim, dim), RATIONAL)
        if field == COMPLEX:
            try:
                pairs = np.array(flat, dtype=float)
            except (TypeError, ValueError):
                raise ValueError("complex entries must be [re, im] number pairs") from None
            if pairs.shape != (dim * dim, 2):
                raise ValueError("complex entries must be [re, im] number pairs")
            if not np.isfinite(pairs).all():
                raise ValueError("operator entries must be finite")
            ent = np.empty(dim * dim, dtype=complex)
            ent.real = pairs[:, 0]
            ent.imag = pairs[:, 1]
            return Operator(space, ent.reshape(dim, dim), COMPLEX)
        raise ValueError(f"unknown field {field!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json(text: str) -> "Operator":
        return Operator.from_json_dict(json.loads(text))


# -- ladder operators ---------------------------------------------------------

def annihilation(space: FockSpace, field: str = COMPLEX) -> Operator:
    """Lowering matrix a.

    Normalized basis (complex field): entry (n-1, n) = sqrt(n).
    Monomial basis (rational field): entry (n-1, n) = n, exactly.
    """
    n = space.dim
    if field == RATIONAL:
        band = _band([Fraction(m) for m in range(1, n)], RATIONAL)
    else:
        band = np.sqrt(np.arange(1, n)).astype(complex)
    return Operator._banded(space, field, {1: band})


def creation(space: FockSpace, field: str = COMPLEX) -> Operator:
    """Raising matrix a+; adjoint of ``annihilation`` in the complex field,
    the unit-entry shift in the exact monomial basis."""
    if field == RATIONAL:
        ones = _band([Fraction(1)] * (space.dim - 1), RATIONAL)
        return Operator._banded(space, RATIONAL, {-1: ones})
    return annihilation(space, COMPLEX).adjoint()


def number_op(space: FockSpace, field: str = COMPLEX) -> Operator:
    """diag(0, 1, ..., N-1); identical in both bases."""
    return diagonal_operator(space, space.occupations(), field)


def identity_op(space: FockSpace, field: str = COMPLEX) -> Operator:
    return diagonal_operator(space, [1] * space.dim, field)


def diagonal_operator(
    space: FockSpace,
    values: Union[Sequence[Scalar], Callable[[int], Scalar]],
    field: str = COMPLEX,
) -> Operator:
    """diag(f(0), ..., f(N-1)) from a sequence or a callable of n.

    A value of None marks an entry with no defined matrix element; it is
    stored as 0.  Callers tracking admissibility keep the mask themselves.
    Exact values pass to the complex field as ``complex(value)``; one
    beyond the float range raises ValueError.
    """
    if callable(values):
        vals = [values(m) for m in space.occupations()]
    else:
        vals = list(values)
        if len(vals) != space.dim:
            raise ValueError(f"need {space.dim} diagonal values, got {len(vals)}")
    if field == RATIONAL:
        band = [_ZERO if v is None else _as_fraction(v) for v in vals]
    else:
        field = COMPLEX
        try:
            band = [0j if v is None else complex(v) for v in vals]
        except OverflowError:
            raise ValueError("a diagonal value is beyond the float range") from None
    return Operator._banded(space, field, {0: _band(band, field)})


def pochhammer(q: Scalar, n: int):
    """Rising factorial (q)_n = q (q+1) ... (q+n-1), with (q)_0 = 1.
    Exact when q is rational."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    if isinstance(q, (int, Fraction)) or isinstance(q, Rational):
        out = Fraction(1)
        qf = _as_fraction(q)
        for i in range(n):
            out *= qf + i
        return out
    out = 1.0 + 0j if isinstance(q, complex) else 1.0
    for i in range(n):
        out *= q + i
    return out


def pochhammer_operator(space: FockSpace, q: Scalar, field: str = RATIONAL) -> Operator:
    """diag((q)_0, (q)_1, ..., (q)_{N-1})."""
    vals = [pochhammer(q, m) for m in space.occupations()]
    return diagonal_operator(space, vals, field)


# -- quadratures and spectral constructions -----------------------------------

_SQRT2 = np.sqrt(2.0)


def position(space: FockSpace) -> Operator:
    """X = (a + a+)/sqrt(2); Hermitian, complex field only, stored dense."""
    a = annihilation(space).entries
    return Operator(space, complex(1.0 / _SQRT2) * (a + a.conj().T), COMPLEX)


def momentum(space: FockSpace) -> Operator:
    """P = -i (a - a+)/sqrt(2); Hermitian, complex field only, stored dense."""
    a = annihilation(space).entries
    return Operator(space, complex(-1j / _SQRT2) * (a - a.conj().T), COMPLEX)


def unitary_exp(h: Operator, theta: float) -> Operator:
    """exp(i * theta * H) for Hermitian H, via eigendecomposition.

    A truncated power series would lose unitarity at the truncation edge;
    the spectral form is exactly unitary up to roundoff.
    """
    if isinstance(theta, complex):
        raise ValueError("theta must be real")
    op = h._promote()
    if not op.is_hermitian():
        raise ValueError("unitary_exp requires a Hermitian operator")
    w, v = np.linalg.eigh(op.entries)
    u = (v * np.exp(1j * float(theta) * w)) @ v.conj().T
    return Operator(op.space, u, COMPLEX)


def hermitian_eig(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator."""
    op = h._promote()
    if not op.is_hermitian():
        raise ValueError("hermitian_eig requires a Hermitian operator")
    return np.linalg.eigh(op.entries)


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a
