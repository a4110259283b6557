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
complex.  The field also selects the storage: complex operators are dense
arrays, rational operators keep only their nonzero diagonals (see
``Operator``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import add, mul, neg, sub
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


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise FieldError(f"exact field requires rational scalars, got {type(x).__name__}")


# -- banded storage of the exact field ----------------------------------------
#
# A rational operator is a dict {offset: tuple of Fraction}.  Offset d holds
# the entries (i, i + d) in order of increasing row, so it has N - |d|
# entries and starts at (row, column) = _band_start(d).  Only diagonals with
# a nonzero entry are kept.

_ZERO = Fraction(0)

_Bands = dict[int, tuple[Fraction, ...]]


def _band_start(d: int) -> tuple[int, int]:
    """(row, column) of the first entry on diagonal offset d."""
    return (-d, 0) if d < 0 else (0, d)


def _nonzero_bands(bands: _Bands) -> _Bands:
    return {d: band for d, band in bands.items() if any(band)}


def _band_matmul(n: int, x: _Bands, y: _Bands) -> _Bands:
    """Product of two banded N x N matrices: offset dx times offset dy lands
    on offset dx + dy, so the work is O(N * bands^2), not O(N^3)."""
    out: dict[int, list] = {}
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
            prods = map(mul, bx[ix:ix + cnt], by[iy:iy + cnt])
            acc = out.get(dz)
            if acc is None:
                acc = out[dz] = [_ZERO] * (n - abs(dz))
                acc[iz:iz + cnt] = prods
            else:
                acc[iz:iz + cnt] = map(add, acc[iz:iz + cnt], prods)
    return {d: tuple(band) for d, band in out.items()}


def _band_add(x: _Bands, y: _Bands, subtract: bool) -> _Bands:
    """x + y, or x - y when ``subtract``, band by band."""
    op = sub if subtract else add
    out = dict(x)
    for d, yb in y.items():
        xb = x.get(d)
        if xb is None:
            out[d] = tuple(map(neg, yb)) if subtract else yb
        else:
            out[d] = tuple(map(op, xb, yb))
    return out


def _parse_rational(x) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"not a finite rational entry: {x!r}") from None


class Operator:
    """A matrix on a FockSpace, tagged with its scalar field.

    The field selects the storage.  Complex operators hold a dense
    complex128 array.  Rational operators hold only their nonzero
    diagonals as exact Fractions: every generator of the step kinds is a
    single band (a shift times a diagonal) and every product the checks
    form stays within a few offsets, so products cost O(N * bands^2)
    Fraction operations instead of the O(N^3) of a dense product.

    ``entries`` is a read-only dense numpy array in either field:
    complex128, or object-dtype of Fractions built from the bands on
    first use.  The constructor takes a dense array in either field.
    """

    __slots__ = ("space", "field", "_bands", "_dense", "_diag")

    def __init__(self, space: FockSpace, entries: np.ndarray, field: str):
        if field not in (COMPLEX, RATIONAL):
            raise ValueError(f"unknown field {field!r}")
        if entries.shape != (space.dim, space.dim):
            raise ValueError(f"entries shape {entries.shape} does not match dim {space.dim}")
        self.space = space
        self.field = field
        if field == RATIONAL:
            n = space.dim
            self._bands = _nonzero_bands(
                {d: tuple(map(_as_fraction, entries.diagonal(d))) for d in range(1 - n, n)}
            )
            self._dense = None
        else:
            self._bands = None
            self._dense = _freeze(entries)
            nz = entries != 0
            self._diag = not bool((nz & ~np.eye(space.dim, dtype=bool)).any())

    @staticmethod
    def _banded(space: FockSpace, bands: _Bands) -> "Operator":
        """Rational operator straight from its bands; all-zero bands are dropped."""
        op = object.__new__(Operator)
        op.space = space
        op.field = RATIONAL
        op._bands = _nonzero_bands(bands)
        op._dense = None
        return op

    @property
    def entries(self) -> np.ndarray:
        if self._dense is None:
            n = self.space.dim
            self._dense = _freeze(self._scatter(np.full((n, n), _ZERO, dtype=object)))
        return self._dense

    def _scatter(self, ent: np.ndarray) -> np.ndarray:
        """Write the bands into the zeroed N x N array ``ent``, converted
        to its dtype."""
        for d, band in self._bands.items():
            r, c = _band_start(d)
            idx = np.arange(len(band))
            ent[idx + r, idx + c] = band
        return ent

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(space: FockSpace, field: str = COMPLEX) -> "Operator":
        if field == RATIONAL:
            return Operator._banded(space, {})
        return Operator(space, np.zeros((space.dim, space.dim), dtype=complex), field)

    def _promote(self) -> "Operator":
        """Return the complex-field version of an exact operator."""
        if self.field == COMPLEX:
            return self
        n = self.space.dim
        return Operator(self.space, self._scatter(np.zeros((n, n), dtype=complex)), COMPLEX)

    @staticmethod
    def _align(a: "Operator", b: "Operator") -> tuple["Operator", "Operator", str]:
        if a.space != b.space:
            raise ValueError("operators live on different truncations")
        if a.field == b.field:
            return a, b, a.field
        return a._promote(), b._promote(), COMPLEX

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "Operator") -> "Operator":
        a, b, field = Operator._align(self, other)
        if field == RATIONAL:
            return Operator._banded(a.space, _band_matmul(a.space.dim, a._bands, b._bands))
        # a diagonal factor turns the cubic product into a row or column
        # scaling
        if a._diag:
            ent = a._dense.diagonal()[:, None] * b._dense
        elif b._diag:
            ent = a._dense * b._dense.diagonal()[None, :]
        else:
            ent = a._dense @ b._dense
        return Operator(a.space, ent, field)

    def __add__(self, other: "Operator") -> "Operator":
        a, b, field = Operator._align(self, other)
        if field == RATIONAL:
            return Operator._banded(a.space, _band_add(a._bands, b._bands, subtract=False))
        return Operator(a.space, a._dense + b._dense, field)

    def __sub__(self, other: "Operator") -> "Operator":
        a, b, field = Operator._align(self, other)
        if field == RATIONAL:
            return Operator._banded(a.space, _band_add(a._bands, b._bands, subtract=True))
        return Operator(a.space, a._dense - b._dense, field)

    def __neg__(self) -> "Operator":
        if self.field == RATIONAL:
            return Operator._banded(
                self.space, {d: tuple(map(neg, band)) for d, band in self._bands.items()}
            )
        return Operator(self.space, -self._dense, COMPLEX)

    def scale(self, c: Scalar) -> "Operator":
        if self.field == RATIONAL:
            if isinstance(c, Rational):
                f = _as_fraction(c)
                return Operator._banded(
                    self.space,
                    {d: tuple(f * x for x in band) for d, band in self._bands.items()},
                )
            return self._promote().scale(c)
        return Operator(self.space, complex(c) * self._dense, COMPLEX)

    def __rmul__(self, c: Scalar) -> "Operator":
        return self.scale(c)

    def adjoint(self) -> "Operator":
        """Conjugate transpose.  In the exact field entries are real
        rationals, so this is the plain transpose: offset d becomes -d."""
        if self.field == RATIONAL:
            return Operator._banded(self.space, {-d: band for d, band in self._bands.items()})
        return Operator(self.space, self._dense.conj().T.copy(), COMPLEX)

    def power(self, k: int) -> "Operator":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        out = identity_op(self.space, self.field)
        for _ in range(k):
            out = out @ self
        return out

    # -- inspection -----------------------------------------------------------

    def max_norm(self):
        """Entrywise max-magnitude norm.  Exact (a Fraction) for the
        rational field, a float otherwise."""
        if self.field == RATIONAL:
            return max((abs(x) for band in self._bands.values() for x in band), default=_ZERO)
        if self._dense.size == 0:
            return 0.0
        return float(np.abs(self._dense).max())

    def diagonal(self) -> Sequence:
        """The main-diagonal entries (n, n) for n = 0 .. N-1."""
        if self.field == RATIONAL:
            return self._bands.get(0, (_ZERO,) * self.space.dim)
        return self._dense.diagonal()

    def block_max(self, states: Sequence[int]):
        """Entrywise max magnitude over the principal submatrix on
        ``states``; 0 when ``states`` is empty.  Exact (a Fraction) for the
        rational field, a float otherwise."""
        if self.field == RATIONAL:
            inside = [False] * self.space.dim
            for s in states:
                inside[s] = True
            worst = _ZERO
            for d, band in self._bands.items():
                r, c = _band_start(d)
                for t, x in enumerate(band):
                    if inside[r + t] and inside[c + t] and abs(x) > worst:
                        worst = abs(x)
            return worst
        idx = np.asarray(states, dtype=int)
        return float(np.abs(self._dense[np.ix_(idx, idx)]).max(initial=0.0))

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
            entries = [[float(x.real), float(x.imag)] for row in self._dense for x in row]
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
            bands = {}
            for d in range(1 - dim, dim):
                r, c = _band_start(d)
                bands[d] = tuple(
                    _parse_rational(flat[(r + t) * dim + c + t]) for t in range(dim - abs(d))
                )
            return Operator._banded(space, bands)
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
        return Operator._banded(space, {1: tuple(Fraction(m) for m in range(1, n))})
    ent = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
    return Operator(space, ent, COMPLEX)


def creation(space: FockSpace, field: str = COMPLEX) -> Operator:
    """Raising matrix a+; adjoint of ``annihilation`` in the complex field,
    the unit-entry shift in the exact monomial basis."""
    if field == RATIONAL:
        return Operator._banded(space, {-1: (Fraction(1),) * (space.dim - 1)})
    return annihilation(space, COMPLEX).adjoint()


def number_op(space: FockSpace, field: str = COMPLEX) -> Operator:
    """diag(0, 1, ..., N-1); identical in both bases."""
    if field == RATIONAL:
        return diagonal_operator(space, [Fraction(m) for m in space.occupations()], RATIONAL)
    return diagonal_operator(space, [float(m) for m in space.occupations()], COMPLEX)


def identity_op(space: FockSpace, field: str = COMPLEX) -> Operator:
    if field == RATIONAL:
        return diagonal_operator(space, [Fraction(1)] * space.dim, RATIONAL)
    return diagonal_operator(space, [1.0] * space.dim, COMPLEX)


def diagonal_operator(
    space: FockSpace,
    values: Union[Sequence[Scalar], Callable[[int], Scalar]],
    field: str = COMPLEX,
) -> Operator:
    """diag(f(0), ..., f(N-1)) from a sequence or a callable of n.

    A value of None marks an entry with no defined matrix element; it is
    stored as 0.  Callers tracking admissibility keep the mask themselves
    (see ``masked_diagonal``).
    """
    if callable(values):
        vals = [values(m) for m in space.occupations()]
    else:
        vals = list(values)
        if len(vals) != space.dim:
            raise ValueError(f"need {space.dim} diagonal values, got {len(vals)}")
    if field == RATIONAL:
        return Operator._banded(
            space, {0: tuple(_ZERO if v is None else _as_fraction(v) for v in vals)}
        )
    ent = np.zeros((space.dim, space.dim), dtype=complex)
    for m, v in enumerate(vals):
        ent[m, m] = 0j if v is None else complex(v)
    return Operator(space, ent, COMPLEX)


def masked_diagonal(
    space: FockSpace,
    values: Union[Sequence[Scalar], Callable[[int], Scalar]],
    field: str = COMPLEX,
) -> tuple[Operator, list[bool]]:
    """Like ``diagonal_operator`` but also returns the admissibility mask:
    mask[n] is False exactly where the value was None."""
    if callable(values):
        vals = [values(m) for m in space.occupations()]
    else:
        vals = list(values)
    mask = [v is not None for v in vals]
    return diagonal_operator(space, vals, field), mask


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
    """X = (a + a+)/sqrt(2); Hermitian, complex field only."""
    a = annihilation(space)
    return (1.0 / _SQRT2) * (a + a.adjoint())


def momentum(space: FockSpace) -> Operator:
    """P = -i (a - a+)/sqrt(2); Hermitian, complex field only."""
    a = annihilation(space)
    return (-1j / _SQRT2) * (a - a.adjoint())


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
