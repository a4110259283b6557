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

The step-k weight sequence F_k comes from a three-term recurrence in n,
for every k, summed as the integer prefix sum ``algebra._prefix_sums``;
the closed forms for k = 1 and k = 2 live in ``tests/reference.py``, as
the oracle the test suite holds the recurrence to.
The step generators are single bands of Python numbers, built with
``math``; only the spectral kinds import numpy.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .algebra import AlgebraParams, RationalLike, _den, _doubled_spin, _frac, _prefix_sums
from .fock import (
    COMPLEX,
    RATIONAL,
    BandedOperator,
    DenseOperator,
    FockSpace,
    Operator,
    _is_int,
    _operator_text,
    _parse_rational,
    _phase_kernel,
    _quadrature_basis,
    _quarter_turns,
    _to_float,
    momentum,
)

KIND_HP = "hp"
KIND_DYSON = "dyson"

STEP_KINDS = (KIND_HP, KIND_DYSON)
VILLAIN_KINDS = ("villain1", "villain2")

# slack when binning float momentum eigenvalues into the window [-j, j]
_WINDOW_EPS = 1e-9
# a villain file's J+ may differ from the one built at its point by this
# times max(1, max |built J+|), so a file written under another BLAS loads
_VILLAIN_JP_RTOL = 1e-12


class Realization(namedtuple("Realization",
                             "kind step_k j2 params jp jm j3 admissible_mask")):
    """A concrete matrix triple (J+, J-, J3) with its provenance.

    ``admissible_mask[n]`` gates the bond taking state n to state n + k:
    True means the matrix element is present and the pairing is Hermitian
    there.  Dyson realizations have an all-true mask.  For the spectral
    (villain) kinds the Fock mask is uninformative and ``window`` is the
    momentum interval on which identities are checked.  A step-kind
    realization holds ``BandedOperator`` generators; any other raises ValueError.
    Operators compare by identity, so two realizations are equal when they
    hold the same three operators and equal provenance and mask.  Step
    builds at one (dim, 2j, field) share J3 (``_j3``), not J+ or J-, so differ.
    """

    __slots__ = ()

    def __new__(cls, kind: str, step_k: int, j2: int, params: AlgebraParams, jp: Operator,
                jm: Operator, j3: Operator, admissible_mask: tuple[bool, ...]):
        if kind in STEP_KINDS and not (isinstance(jp, BandedOperator) and isinstance(
                jm, BandedOperator) and isinstance(j3, BandedOperator)):
            raise ValueError(f"a step-kind ({kind}) realization holds bands, not dense"
                             " operators")
        return tuple.__new__(cls, (kind, step_k, j2, params, jp, jm, j3, admissible_mask))

    @property
    def space(self) -> FockSpace:
        return self.jp.space

    @property
    def field(self) -> str:
        return self.jp.field

    @property
    def j(self) -> Fraction:
        return Fraction(self.j2, 2)

    @property
    def window(self) -> tuple[Fraction, Fraction] | None:
        """[-j, j] for the spectral kinds, None for the step kinds."""
        return (-self.j, self.j) if self.kind in VILLAIN_KINDS else None

    @staticmethod
    def from_json_dict(data: dict) -> "Realization":
        """A realization read back from the file ``_realization_text``
        writes.  Raises ValueError on a malformed file: a file or operator
        that is not an object, an unknown kind, a step k that is not an
        integer >= 1 (or not 1 on a spectral kind), a j2 that is not an
        integer >= 0, a c1 or c3 that is not a p/q string or an integer,
        operators of different dims or fields, a mask that is not a list, a
        mask entry other than the integers 0 or 1, a mask whose length is
        not dim, a window missing on a spectral kind or present on any
        other, a window that is not a list of two p/q strings or integers, a
        window other than [-j, j], a spectral point that does not build, a
        spectral J+ that is not the one built at the file's point (up to
        ``_VILLAIN_JP_RTOL``), a mask other than the one a build derives at
        the file's point (``_admissible_mask``), an operator entry that is
        not a finite number of its field, or a rational spectral operator.
        The kind picks the type: spectral operators load dense, step ones as bands."""
        if type(data) is not dict:
            raise ValueError(f"realization file must be an object, got {json.dumps(data)}")
        # a missing j2 is reported before the kind and step are judged
        kind, k, _ = data["kind"], data["k"], data["j2"]
        if kind not in STEP_KINDS + VILLAIN_KINDS:
            raise ValueError(f"unknown realization kind {json.dumps(kind)}")
        if not _is_int(k) or k < 1 or (kind in VILLAIN_KINDS and k != 1):
            raise ValueError(f"kind {json.dumps(kind)} needs a step k >= 1 (1 if spectral),"
                             f" got {json.dumps(k)}")
        params, j2 = _point(data)
        load = (DenseOperator if kind in VILLAIN_KINDS else BandedOperator).from_json_dict
        ops = {name: load(data[name]) for name in ("jp", "jm", "j3")}
        op_dims = [op.space.dim for op in ops.values()]
        if any(d != data["dim"] for d in op_dims):
            raise ValueError(f"operator dims {op_dims} do not all equal"
                             f" dim {json.dumps(data['dim'])}")
        op_fields = [op.field for op in ops.values()]
        if len(set(op_fields)) != 1:
            raise ValueError(f"operator fields {op_fields} differ")
        if type(data["mask"]) is not list:
            raise ValueError(f"mask must be a list, got {json.dumps(data['mask'])}")
        if not set(map(type, data["mask"])) <= {int} or not set(data["mask"]) <= {0, 1}:
            raise ValueError("mask entries must be the integers 0 or 1")
        mask = tuple(bool(b) for b in data["mask"])
        if len(mask) != data["dim"]:
            raise ValueError(f"mask has {len(mask)} entries, dim is {data['dim']}")
        # the mask is a function of the point, derived as a build derives it
        derived = _admissible_mask(kind, k, params, Fraction(j2, 2), len(mask))
        if mask != derived:
            n = next(n for n, (got, want) in enumerate(zip(mask, derived)) if got != want)
            raise ValueError(f"realization kind {json.dumps(kind)} needs the admissibility mask of"
                             f" its point; mask[{n}] is {int(mask[n])}, not {int(derived[n])}")
        if (kind in VILLAIN_KINDS) != ("window" in data):
            need = "needs" if kind in VILLAIN_KINDS else "must not have"
            raise ValueError(f"realization kind {json.dumps(kind)} {need} a momentum window")
        r = Realization(kind=kind, step_k=k, j2=j2, params=params, admissible_mask=mask, **ops)
        if "window" in data:
            ends = data["window"]
            try:
                window = tuple(map(_parse_rational, ends)) if type(ends) is list else ()
            except ValueError:
                window = ()
            if len(window) != 2:
                raise ValueError("window must be a list of two p/q strings or integers,"
                                 f" got {json.dumps(ends)}")
            if window != r.window:
                raise ValueError(f"realization kind {json.dumps(kind)} needs the momentum window"
                                 f" [{r.window[0]}, {r.window[1]}], got [{window[0]}, {window[1]}]")
            # a window past the float range is refused as the verifier words it
            _to_float(r.j, "the momentum window")
            built = build_realization(r.space, params, r.j, "villain", VILLAIN_KINDS.index(kind) + 1)
            gap = r.jp._gap(built.jp)
            if not gap <= _VILLAIN_JP_RTOL * max(1.0, built.jp.max_norm()):
                raise ValueError(f"realization kind {json.dumps(kind)} needs the J+ it builds at"
                                 f" its point; the file's J+ differs from it by {gap!r}")
        return r


def _realization_text(r: Realization) -> str:
    """A realization file: the indent-2 layout of ``json.dumps``, byte for
    byte, with the operators spelled by ``_operator_text``.  The scalar
    keys open it, then the three operators, the mask and, for the spectral
    kinds, the window."""
    head = {"kind": r.kind, "k": r.step_k, "j2": r.j2, "c1": str(r.params.c1),
            "c3": str(r.params.c3), "dim": r.space.dim}
    parts = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in head.items()]
    parts += [f'  "{name}": {_operator_text(op, 1)}'
              for name, op in (("jp", r.jp), ("jm", r.jm), ("j3", r.j3))]
    parts.append('  "mask": [\n' + ",\n".join("    1" if b else "    0" for b in r.admissible_mask)
                 + "\n  ]")
    if r.window is not None:
        ends = ",\n".join(f"    {json.dumps(str(x))}" for x in r.window)
        parts.append(f'  "window": [\n{ends}\n  ]')
    return "{\n" + ",\n".join(parts) + "\n}"


def _point(data: dict, prefix: str = "") -> tuple[AlgebraParams, int]:
    """The couplings and 2j of a realization file or a grid row: ``c1`` and
    ``c3`` each a ``p/q`` string or an integer, ``j2`` an integer >= 0.
    Any other value raises ValueError naming the key after ``prefix`` and
    spelling the value as JSON."""
    j2 = data["j2"]
    if not _is_int(j2) or j2 < 0:
        raise ValueError(f"{prefix}j2 must be an integer >= 0, got {json.dumps(j2)}")
    couplings = []
    for key, value in {key: data[key] for key in ("c1", "c3")}.items():
        try:
            couplings.append(_parse_rational(value))
        except ValueError:
            raise ValueError(f"{prefix}{key} must be a p/q string or an integer,"
                             f" got {json.dumps(value)}") from None
    return AlgebraParams(*couplings), j2


def _require_j2(j: RationalLike) -> tuple[Fraction, int]:
    jf, j2 = _doubled_spin(j)
    if j2 < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {jf}")
    return jf, j2


# -- weight sequences ---------------------------------------------------------

def product_recurrence(
    params: AlgebraParams,
    j: RationalLike,
    k: int,
    nmax: int,
) -> tuple[Fraction, ...]:
    """Solve the order-k difference equation for the weight sequence; the
    values F_k(0) .. F_k(nmax), indexed by n.

    The equation is den(n) F(n) = rhs(n) + fall(n) F(n - k), with
    rhs(n) = c1 (j - n) + c3 (j - n)^3, the falling factorial
    fall(n) = n (n - 1) ... (n - k + 1) and den(n) = (n + 1) ... (n + k).
    fall vanishes for n < k, so the first k values are fixed by the
    inhomogeneity alone; no seed values are taken from outside.  Since
    fall(n) = den(n - k), H(n) = den(n) F(n) telescopes:

        H(n) = rhs(n) + H(n - k),

    a prefix sum of rhs over each residue class of n mod k.  It is summed
    in integers (``algebra._prefix_sums``), and one Fraction is made per
    value.
    """
    h, q = _prefix_sums(params, j, k, nmax)
    return tuple(Fraction(x, q * _den(n, k)) for n, x in enumerate(h))


def _weight_float(h: list[int], q: int, n: int, k: int, what: str) -> float:
    """F_k(n) = H(n) / (q den(n)) as a float: the int quotient, correctly
    rounded, so bit-equal to ``float`` of the Fraction ``product_recurrence``
    gives.  A value beyond the float range raises ValueError naming
    ``what``."""
    try:
        return h[n] / (q * _den(n, k))
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None


# -- step-k constructors ------------------------------------------------------
#
# Every step-k generator is one band: a shift by k times a function of n.
# In the normalized basis a^k holds sqrt(n + 1) ... sqrt(n + k) at (n, n + k)
# and (a+)^k the same at (n + k, n); in the monomial basis a^k holds den(n)
# there and (a+)^k holds 1, so the exact dyson J+ = F_k(nhat) a^k is H(n) / q.
# A complex band holds floats: a product of real complex128 numbers has the
# bits of the float product, so each entry is the one the ladder matrices give.

def _step_operator(space: FockSpace, field: str, d: int, values, den: int = 1) -> BandedOperator:
    """The operator whose one band, at offset d, holds ``values`` (rational
    ones as int numerators over ``den``); no band when |d| >= dim."""
    return BandedOperator(space, field, {d: values} if abs(d) < space.dim else {}, den)


@functools.lru_cache(maxsize=64)
def _ladder(dim: int, k: int, raising: bool) -> tuple[float, ...]:
    """The dim - k entries sqrt(n + 1) ... sqrt(n + k) of a^k, or of (a+)^k
    when ``raising``, multiplied in the order of a k-fold product of the
    ladder matrices, ascending for a^k and descending for (a+)^k, so each
    entry has the bits that product gives; formed once per argument."""
    roots, size = list(map(math.sqrt, range(1, dim))), max(dim - k, 0)
    order = range(k, 0, -1) if raising else range(1, k + 1)
    product = functools.partial(map, operator.mul)
    return tuple(functools.reduce(product, [roots[m - 1:m - 1 + size] for m in order]))


def _hp_bonds(params: AlgebraParams, jf: Fraction, j2: int, k: int,
              dim: int) -> tuple[list[int], int, tuple[bool, ...]]:
    """H(0 .. top) over q (``_prefix_sums``) and the hp admissibility
    mask: bond n -> n + k exists only up to n = top = 2j - k and needs
    F_k(n) >= 0, that is H(n) >= 0.  Later weights would all be masked
    out, so they are not computed."""
    top = min(dim - 1, j2 - k)
    h, q = _prefix_sums(params, jf, k, top)
    return h, q, tuple([x >= 0 for x in h]) + (False,) * (dim - len(h))


def _admissible_mask(kind: str, k: int, params: AlgebraParams, j: RationalLike,
                     dim: int) -> tuple[bool, ...]:
    """The admissibility mask a realization of ``kind`` has at its point:
    the hp rule of ``_hp_bonds``, and every bond for ``dyson``, which
    closes at every state, and for the spectral kinds, whose Fock mask is
    uninformative."""
    if kind != KIND_HP:
        return (True,) * dim
    jf, j2 = _require_j2(j)
    return _hp_bonds(params, jf, j2, k, dim)[2]


def _step_realization(space: FockSpace, params: AlgebraParams, j: RationalLike, kind: str,
                      k: int, field: str) -> Realization:
    """hp:k, always complex: J- = (a+)^k sqrt(F_k(nhat)) on the mask, J+
    its adjoint; or dyson:k in ``field``: J+ = F_k(nhat) a^k, carrying the
    whole polynomial, and J- = (a+)^k.  Both have J3 = j - nhat, one shared
    operator per (dim, 2j, field) (``_j3``), built after J+ and J-."""
    jf, j2 = _require_j2(j)
    dim, size = space.dim, max(space.dim - k, 0)
    if kind == KIND_HP:
        field = COMPLEX
        h, q, mask = _hp_bonds(params, jf, j2, k, dim)
        # every bond past H's last state is masked out, so J- ends there
        root = [math.sqrt(_weight_float(h, q, n, k, "an hp weight")) if mask[n] else 0.0
                for n in range(len(h))]
        jm = _step_operator(space, COMPLEX, -k,
                            map(operator.mul, _ladder(dim, k, raising=True), root))
        jp = jm.adjoint()
    else:
        h, q = _prefix_sums(params, jf, k, dim - 1)
        mask = _admissible_mask(KIND_DYSON, k, params, jf, dim)
        if field == RATIONAL:
            jp = _step_operator(space, RATIONAL, k, h[:size], q)
            jm = _step_operator(space, RATIONAL, -k, [1] * size)
        else:
            weights = [_weight_float(h, q, n, k, "a diagonal value") for n in range(dim)]
            jp = _step_operator(space, COMPLEX, k,
                                map(operator.mul, weights[:size], _ladder(dim, k, raising=False)))
            jm = _step_operator(space, COMPLEX, -k, _ladder(dim, k, raising=True))
    return Realization(kind, k, j2, params, jp, jm, _j3(dim, j2, field), mask)


@functools.lru_cache(maxsize=64)
def _j3(dim: int, j2: int, field: str) -> BandedOperator:
    """J3 = j - nhat on ``dim`` states in ``field``, with its cached
    ``max_norm``, keyed by the int 2j, since a Fraction's hash computes a
    modular inverse.  A complex J3 refuses a j beyond the float range,
    after J+ and J-, so a point where both leave it names the weight.
    A dense ``entries`` view read from it lives as long as its cache entry."""
    space, jf = FockSpace(dim), Fraction(j2, 2)
    if field == RATIONAL:
        a, b = jf.numerator, jf.denominator
        return _step_operator(space, RATIONAL, 0, [a - n * b for n in range(dim)], b)
    top = _to_float(jf, "a scale factor")
    return _step_operator(space, COMPLEX, 0, [top - n for n in range(dim)])


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
        return math.sqrt(_to_float(rad, "the squared coupling constant"))
    if form == 2:
        return _to_float(abs(params.c1 + params.c3 * jf * (jf + 1)), "the coupling constant")
    raise ValueError(f"form must be 1 or 2, got {form}")


def _villain_radicand(params: AlgebraParams, jf: Fraction, p):
    """Both forms' w(p)^2, (j - p)(j + 1 + p)(c3/4 (J + Q) + c1/2) with J = j(j + 1),
    Q = p(p + 1): factored, it is exactly 0.0 at the edges p = j and p = -j - 1."""
    half_c1 = _to_float(Fraction(params.c1, 2), "c1 / 2")
    quarter_c3 = _to_float(Fraction(params.c3, 4), "c3 / 4")
    big_j = _to_float(jf * (jf + 1), "j(j + 1)")
    top = _to_float(jf, "j")
    return (top - p) * (top + 1.0 + p) * (quarter_c3 * (big_j + p * (p + 1.0)) + half_c1)


def villain_boson(
    space: FockSpace,
    params: AlgebraParams,
    j: RationalLike,
    form: int = 1,
) -> Realization:
    """Phase-operator realization J+ = e^{iX} w(P), J3 = P.

    Built spectrally on the real eigenbasis u of X (momentum eigenvectors
    R u, R = diag(i^n)): w(P) is R u diag(s) u^T R-dagger with s the square
    root of the radicand, so J+ = K diag(s) u^T R-dagger with the per-dim
    phase kernel K = e^{iX} R u (``fock._phase_kernel``).  s vanishes
    wherever the radicand is nonpositive, so only the support S of the
    positive radicand enters: J+ is one real (2N x |S|)(|S| x N) product,
    N^2 |S| work.  A NaN radicand counts as support and yields a
    non-finite J+, which ``build_realization`` refuses.  The form picks the
    kind label and the refusal (form 1: no real g_constant; form 2: c3 <= 0).
    J- is exactly J+-dagger.  Identities hold only on the window |p| <= j, up to
    truncation error; the verifier measures residuals there.
    """
    import numpy as np
    if form not in (1, 2):
        raise ValueError(f"form must be 1 or 2, got {form}")
    jf, j2 = _require_j2(j)
    if form == 2 and params.c3 <= 0:
        raise ValueError("the second radicand form needs c3 > 0")
    if form == 1:
        g_constant(params, jf, 1)  # refuses a point with no real g
    dim = space.dim
    lam, u = _quadrature_basis(dim)
    rad = _villain_radicand(params, jf, lam)
    if not _in_window(lam, -float(jf), float(jf)).any():
        raise ValueError("no momentum eigenvalue falls in the window [-j, j]")
    live = ~(rad <= 0)  # not rad > 0, which would drop a NaN radicand
    stack = (_phase_kernel(dim)[:, live] * np.sqrt(rad[live])) @ u[:, live].T
    entries = np.empty((dim, dim), dtype=complex)
    entries.real, entries.imag = stack[:dim], stack[dim:]
    entries *= _quarter_turns(dim).conj()
    jp = DenseOperator(space, entries)
    return Realization(
        kind=VILLAIN_KINDS[form - 1],
        step_k=1,
        j2=j2,
        params=params,
        jp=jp,
        jm=jp.adjoint(),
        j3=momentum(space),
        admissible_mask=_admissible_mask(VILLAIN_KINDS[form - 1], 1, params, jf, dim),
    )


def _in_window(lam, lo: float, hi: float):
    """Which eigenvalues lie in [lo, hi], with a small slack for floats."""
    return (lam >= lo - _WINDOW_EPS) & (lam <= hi + _WINDOW_EPS)


# -- dispatch -----------------------------------------------------------------

def build_realization(
    space: FockSpace,
    params: AlgebraParams,
    j: RationalLike,
    kind: str,
    k: int = 1,
    field: str = RATIONAL,
) -> Realization:
    """The one constructor for every family.

    kind 'hp' (square-root split, complex field) or 'dyson' (whole weight
    on the raising side, in ``field``) with step k >= 1; kind 'villain'
    where k names the radicand form (1 or 2).
    """
    if kind in STEP_KINDS:
        r = _step_realization(space, params, j, kind, k, field)
    elif kind == "villain":
        import numpy as np
        # a generator entry past the float range is caught below, so numpy
        # need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            r = villain_boson(space, params, j, form=k)
    else:
        raise ValueError(f"unknown realization kind {kind!r}")
    # only J+ can leave the float range: J- is its adjoint or (a+)^k, J3 is
    # P or j - nhat, whose scale already refuses a j beyond the float range
    if r.field == COMPLEX and not math.isfinite(r.jp.max_norm()):
        raise ValueError("a generator entry is beyond the float range")
    return r
