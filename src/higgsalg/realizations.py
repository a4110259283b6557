"""Single-boson matrix realizations of the cubic algebra.

``build_realization`` is the entry point: it builds any of the three
families below, all on a truncated Fock space:

* ``hp`` (step k): J- = (a+)^k sqrt(F_k(nhat)), J+ its adjoint, with
  J3 = j - nhat.  Hermitian pairing holds only where the weight F_k is
  nonnegative and the displaced index stays inside [0, 2j]; the per-bond
  admissibility mask records exactly where.
* ``dyson`` (step k): J- = (a+)^k F_k(nhat), J+ = a^k.  Non-unitary, but
  the defining commutator closes identically at every occupation number,
  so these are built over the exact rational field by default.
* ``villain`` (form 1 or 2, stored as kind ``villain1`` / ``villain2``):
  phase-operator form J+ = e^{iX} w(P) with J3 = P, built spectrally.
  Identities hold only asymptotically, on the spectral window |p| <= j,
  with truncation error decaying as the dimension grows.

The step-k weight sequence F_k comes from a three-term recurrence in n;
for k = 1 and k = 2 closed forms are available and are checked against
the recurrence in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import AlgebraParams, RationalLike, bond_product, _frac
from .fock import (
    COMPLEX,
    RATIONAL,
    FockSpace,
    Operator,
    _to_float,
    annihilation,
    creation,
    diagonal_operator,
    hermitian_eig,
    identity_op,
    momentum,
    number_op,
    position,
    unitary_exp,
)

KIND_HP = "hp"
KIND_DYSON = "dyson"
KIND_VILLAIN1 = "villain1"
KIND_VILLAIN2 = "villain2"

STEP_KINDS = (KIND_HP, KIND_DYSON)
VILLAIN_KINDS = (KIND_VILLAIN1, KIND_VILLAIN2)

# slack when binning float momentum eigenvalues into the window [-j, j]
_WINDOW_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Realization:
    """A concrete matrix triple (J+, J-, J3) with its provenance.

    ``admissible_mask[n]`` gates the bond taking state n to state n + k:
    True means the matrix element is present and the pairing is Hermitian
    there.  Dyson realizations have an all-true mask.  For the spectral
    (villain) kinds the Fock mask is uninformative and ``window`` carries
    the momentum interval on which identities are checked.
    """

    kind: str
    step_k: int
    j2: int
    params: AlgebraParams
    jp: Operator
    jm: Operator
    j3: Operator
    admissible_mask: tuple[bool, ...]
    window: Optional[tuple[Fraction, Fraction]] = None

    @property
    def space(self) -> FockSpace:
        return self.jp.space

    @property
    def field(self) -> str:
        return self.jp.field

    @property
    def j(self) -> Fraction:
        return Fraction(self.j2, 2)

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "k": self.step_k,
            "j2": self.j2,
            "c1": str(self.params.c1),
            "c3": str(self.params.c3),
            "dim": self.space.dim,
            "jp": self.jp.to_json_dict(),
            "jm": self.jm.to_json_dict(),
            "j3": self.j3.to_json_dict(),
            "mask": [1 if b else 0 for b in self.admissible_mask],
        }
        if self.window is not None:
            out["window"] = [str(self.window[0]), str(self.window[1])]
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "Realization":
        """Inverse of ``to_json_dict``.  Raises ValueError on a malformed
        file: an unknown kind, a step k that is not an integer >= 1 (or not
        1 on a spectral kind), a j2 that is not an integer >= 0, operators
        of different dims or fields, a mask entry other than 0 or 1, a mask
        whose length is not dim, a window missing on a spectral kind or
        present on any other, or an operator entry that is not finite."""
        kind, k, j2 = data["kind"], data["k"], data["j2"]
        if kind not in STEP_KINDS + VILLAIN_KINDS:
            raise ValueError(f"unknown realization kind {kind!r}")
        if not _is_int(k) or k < 1 or (kind in VILLAIN_KINDS and k != 1):
            raise ValueError(f"kind {kind!r} needs a step k >= 1 (1 if spectral), got {k!r}")
        if not _is_int(j2) or j2 < 0:
            raise ValueError(f"j2 must be an integer >= 0, got {j2!r}")
        ops = {name: Operator.from_json_dict(data[name]) for name in ("jp", "jm", "j3")}
        op_dims = [op.space.dim for op in ops.values()]
        if any(d != data["dim"] for d in op_dims):
            raise ValueError(f"operator dims {op_dims} do not all equal dim {data['dim']!r}")
        op_fields = [op.field for op in ops.values()]
        if len(set(op_fields)) != 1:
            raise ValueError(f"operator fields {op_fields} differ")
        if any(b not in (0, 1) for b in data["mask"]):
            raise ValueError("mask entries must be 0 or 1")
        mask = tuple(bool(b) for b in data["mask"])
        if len(mask) != data["dim"]:
            raise ValueError(f"mask has {len(mask)} entries, dim is {data['dim']}")
        if (kind in VILLAIN_KINDS) != ("window" in data):
            need = "needs" if kind in VILLAIN_KINDS else "must not have"
            raise ValueError(f"realization kind {kind!r} {need} a momentum window")
        window = None
        if "window" in data:
            window = (Fraction(data["window"][0]), Fraction(data["window"][1]))
        return Realization(
            kind=kind,
            step_k=k,
            j2=j2,
            params=AlgebraParams.of(data["c1"], data["c3"]),
            admissible_mask=mask,
            window=window,
            **ops,
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_j2(j: RationalLike) -> tuple[Fraction, int]:
    jf = _frac(j)
    j2 = int(2 * jf)
    if 2 * jf != j2 or j2 < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {jf}")
    return jf, j2


# -- weight sequences ---------------------------------------------------------

@dataclass(frozen=True)
class ProductSequence:
    """Values F_k(0) .. F_k(nmax) of the step-k weight sequence."""

    k: int
    params: AlgebraParams
    j: Fraction
    coefficients: str
    values: tuple[Fraction, ...]

    def value(self, n: int) -> Fraction:
        return self.values[n]


def _recurrence_denominator(k: int, n: int, coefficients: str) -> Fraction:
    if coefficients == "derived":
        den = Fraction(1)
        for i in range(1, k + 1):
            den *= n + i
        return den
    if coefficients == "printed":
        den = Fraction(n + 1)
        for i in range(2, k + 1):
            den *= n + 2 ** (i - 2) + 1
        return den
    raise ValueError(f"coefficients must be 'printed' or 'derived', got {coefficients!r}")


def product_recurrence(
    params: AlgebraParams,
    j: RationalLike,
    k: int,
    nmax: int,
    coefficients: str = "printed",
) -> ProductSequence:
    """Solve the order-k difference equation for the weight sequence.

    The homogeneous term enters through a falling factorial that vanishes
    for n < k, so the first k values are fixed by the inhomogeneity alone;
    no seed values are taken from outside.  The two coefficient variants
    agree for k <= 3 and part ways at k = 4, where only 'derived' keeps
    the commutator closure exact.
    """
    if k < 1:
        raise ValueError("step k must be >= 1")
    jf = _frac(j)
    c1, c3 = params.c1, params.c3
    vals: list[Fraction] = []
    for n in range(nmax + 1):
        rhs = c1 * (jf - n) + c3 * (jf - n) ** 3
        fall = Fraction(1)
        for i in range(1, k + 1):
            fall *= n - i + 1
        if n >= k and fall != 0:
            rhs += fall * vals[n - k]
        vals.append(rhs / _recurrence_denominator(k, n, coefficients))
    return ProductSequence(k, params, jf, coefficients, tuple(vals))


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


def _weight_values(
    params: AlgebraParams, j: Fraction, k: int, nmax: int, coefficients: str
) -> list[Fraction]:
    if k == 1:
        return [closed_form_k1(params, j, n) for n in range(nmax + 1)]
    if k == 2:
        return [closed_form_k2(params, j, n) for n in range(nmax + 1)]
    return list(product_recurrence(params, j, k, nmax, coefficients).values)


# -- step-k constructors ------------------------------------------------------

def _unitary_step(
    space: FockSpace,
    params: AlgebraParams,
    j: RationalLike,
    k: int,
    coefficients: str = "derived",
) -> Realization:
    jf, j2 = _require_j2(j)
    # a bond n -> n + k exists only up to n = 2j - k, so later weights
    # would all be masked out; they are not computed
    top = min(space.dim - 1, j2 - k)
    weights = _weight_values(params, jf, k, top, coefficients)
    mask = tuple(n <= top and weights[n] >= 0 for n in range(space.dim))
    root = [math.sqrt(_to_float(weights[n], "an hp weight")) if mask[n] else 0.0
            for n in range(space.dim)]
    ap = creation(space, COMPLEX)
    jm = ap.power(k) @ diagonal_operator(space, root, COMPLEX)
    return Realization(
        kind=KIND_HP,
        step_k=k,
        j2=j2,
        params=params,
        jp=jm.adjoint(),
        jm=jm,
        j3=jf * identity_op(space, COMPLEX) - number_op(space, COMPLEX),
        admissible_mask=mask,
    )


def _dyson_step(
    space: FockSpace,
    params: AlgebraParams,
    j: RationalLike,
    k: int,
    field: str = RATIONAL,
    coefficients: str = "derived",
) -> Realization:
    jf, j2 = _require_j2(j)
    weights = _weight_values(params, jf, k, space.dim - 1, coefficients)
    a = annihilation(space, field)
    ap = creation(space, field)
    diag = diagonal_operator(space, weights, field)
    # the weight multiplies after the k-fold lowering, so the raising
    # generator carries the full polynomial and J- is the bare creator
    return Realization(
        kind=KIND_DYSON,
        step_k=k,
        j2=j2,
        params=params,
        jp=diag @ a.power(k),
        jm=ap.power(k),
        j3=jf * identity_op(space, field) - number_op(space, field),
        admissible_mask=tuple([True] * space.dim),
    )


# -- spectral (phase-operator) constructors -----------------------------------

def g_constant(params: AlgebraParams, j: RationalLike, form: int = 1) -> float:
    """Coupling scale that makes the spectral weight vanish at the window
    edges p = j and p = -j - 1.

    form 1: sqrt(c1 (j + 1/2)^2 / 2 + c3 j^2 (j + 1)^2 / 4)
    form 2: |c1 + c3 j (j + 1)|
    """
    jf = _frac(j)
    if form == 1:
        rad = Fraction(params.c1, 2) * (jf + Fraction(1, 2)) ** 2 + Fraction(
            params.c3, 4
        ) * (jf * (jf + 1)) ** 2
        if rad < 0:
            raise ValueError(f"no real coupling constant at {params}, j = {jf}")
        return math.sqrt(float(rad))
    if form == 2:
        return float(abs(params.c1 + params.c3 * jf * (jf + 1)))
    raise ValueError(f"form must be 1 or 2, got {form}")


def _villain_radicand(
    params: AlgebraParams, form: int, g: float, p: np.ndarray
) -> np.ndarray:
    c1 = float(params.c1)
    c3 = float(params.c3)
    if form == 1:
        return g * g - 0.25 * c3 * (p * (p + 1.0)) ** 2 - 0.5 * c1 * (p + 0.5) ** 2
    poly = c3 * p * p + c3 * p + c1
    return (g * g - poly * poly) / (4.0 * c3)


def villain_boson(
    space: FockSpace,
    params: AlgebraParams,
    j: RationalLike,
    form: int = 1,
    g_override: Optional[float] = None,
) -> Realization:
    """Phase-operator realization J+ = e^{iX} w(P), J3 = P.

    Built spectrally: w(P) takes the square root of the weight on each
    momentum eigenvector, clamping negative weights to zero.  J- is the
    exact adjoint of J+ by construction.  Defining identities are only
    expected on the spectral window |p| <= j, and only up to truncation
    error; the verifier measures residuals there.
    """
    if form not in (1, 2):
        raise ValueError(f"form must be 1 or 2, got {form}")
    jf, j2 = _require_j2(j)
    if form == 2 and params.c3 <= 0:
        raise ValueError("the second radicand form needs c3 > 0")
    g = g_constant(params, jf, form) if g_override is None else float(g_override)
    x = position(space)
    p = momentum(space)
    evals, evecs = hermitian_eig(p)
    rad = _villain_radicand(params, form, g, evals)
    in_window = (evals >= -float(jf) - _WINDOW_EPS) & (evals <= float(jf) + _WINDOW_EPS)
    if not bool(in_window.any()):
        raise ValueError("no momentum eigenvalue falls in the window [-j, j]")
    s_ent = (evecs * np.sqrt(np.maximum(rad, 0.0))) @ evecs.conj().T
    s_ent = 0.5 * (s_ent + s_ent.conj().T)
    weight = Operator(space, s_ent, COMPLEX)
    jp = unitary_exp(x, 1.0) @ weight
    kind = KIND_VILLAIN1 if form == 1 else KIND_VILLAIN2
    return Realization(
        kind=kind,
        step_k=1,
        j2=j2,
        params=params,
        jp=jp,
        jm=jp.adjoint(),
        j3=p,
        admissible_mask=tuple([True] * space.dim),
        window=(-jf, jf),
    )


def momentum_window_projector(space: FockSpace, lo: float, hi: float) -> np.ndarray:
    """Orthogonal projector onto momentum eigenvectors with eigenvalue in
    [lo, hi] (with a small slack for float eigenvalues)."""
    evals, evecs = hermitian_eig(momentum(space))
    keep = (evals >= lo - _WINDOW_EPS) & (evals <= hi + _WINDOW_EPS)
    cols = evecs[:, keep]
    return cols @ cols.conj().T


# -- dispatch -----------------------------------------------------------------

def build_realization(
    space: FockSpace,
    params: AlgebraParams,
    j: RationalLike,
    kind: str,
    k: int = 1,
    field: str = RATIONAL,
    coefficients: str = "derived",
) -> Realization:
    """The one constructor for every family.

    kind 'hp' (square-root split, complex field) or 'dyson' (whole weight
    on the raising side, in ``field``) with step k >= 1; kind 'villain'
    where k names the radicand form (1 or 2).
    """
    if kind == KIND_HP:
        return _unitary_step(space, params, j, k, coefficients)
    if kind == KIND_DYSON:
        return _dyson_step(space, params, j, k, field, coefficients)
    if kind == "villain":
        return villain_boson(space, params, j, form=k)
    raise ValueError(f"unknown realization kind {kind!r}")
