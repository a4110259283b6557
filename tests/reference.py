"""Reference forms the tests hold the package against.

The package does not call these.  Each is the slow, obvious construction
of something the package makes another way: the position quadrature and
exp(i theta H) formed densely, the momentum-window columns, the file
dicts that ``json.dumps(..., indent=2)`` turns into the bytes the direct
writers must match, and the step-kind report formed from operator
products.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from higgsalg import (
    COMPLEX,
    RATIONAL,
    FockSpace,
    Operator,
    annihilation,
    casimir_eigenvalue,
    casimir_operator,
    commutator,
    identity_op,
    interior_check_states,
)
from higgsalg.fock import _band_start, _quadrature_basis, _quarter_turns, _to_float
from higgsalg.realizations import _in_window
from higgsalg.verify import CheckResult, VerificationReport, _finite

# Hermiticity slack for float constructions, relative to the largest entry
# magnitude.
_HERMITIAN_RTOL = 1e-10


def is_hermitian(op: Operator) -> bool:
    d = (op - op.adjoint()).max_norm()
    scale = op.max_norm()
    return float(d) <= _HERMITIAN_RTOL * max(1.0, float(scale))


def position(space: FockSpace) -> Operator:
    """X = (a + a+)/sqrt(2); Hermitian, complex field only, stored dense."""
    a = annihilation(space).entries
    return Operator(space, complex(1.0 / np.sqrt(2.0)) * (a + a.conj().T), COMPLEX)


def window_columns(space: FockSpace, lo: float, hi: float) -> np.ndarray:
    """The N x r columns V_w: orthonormal momentum eigenvectors R u whose
    eigenvalue lies in [lo, hi], from the shared quadrature basis."""
    lam, u = _quadrature_basis(space.dim)
    return _quarter_turns(space.dim)[:, None] * u[:, _in_window(lam, lo, hi)]


def unitary_exp(h: Operator, theta: float) -> Operator:
    """exp(i * theta * H) for Hermitian H, via eigendecomposition.

    A truncated power series would lose unitarity at the truncation edge;
    the spectral form is exactly unitary up to roundoff.
    """
    if isinstance(theta, complex):
        raise ValueError("theta must be real")
    op = h._promote()
    if not is_hermitian(op):
        raise ValueError("unitary_exp requires a Hermitian operator")
    w, v = np.linalg.eigh(op.entries)
    u = (v * np.exp(1j * float(theta) * w)) @ v.conj().T
    return Operator(op.space, u, COMPLEX)


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
    if op._bands is None:
        return float(np.abs(op._dense[np.ix_(inside, inside)]).max(initial=0.0))
    worst = []
    for d, band in op._bands.items():
        r, c = _band_start(d)
        picked = band[inside[r:r + len(band)] & inside[c:c + len(band)]]
        if picked.size:
            worst.append(np.abs(picked).max())
    if op.field == RATIONAL:
        return Fraction(max(worst, default=0), op._den)
    return float(np.maximum.reduce(worst, initial=0.0))


def verify_by_products(r, tolerance_coefficient: float = 1e-12) -> VerificationReport:
    """The report of a step realization with every row formed from
    operator products: J+J-, J-J+ and the powers of J3 through ``@``, the
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
        return measure(c_sym - eigenvalue(name) * identity_op(r.space, r.field))

    def grading(op, sign):
        return commutator(j3, op) - (sign * k) * op

    def pairing():
        dagger = jp.adjoint()
        if dagger is jm and math.isfinite(jp.max_norm()):
            return 0.0
        return (jm - dagger).max_norm()

    with np.errstate(over="ignore", invalid="ignore"):
        if block:
            c_sym = casimir_operator(jp, jm, j3, r.params, symmetric=True)
            c_prod = casimir_operator(jp, jm, j3, r.params, symmetric=False)
            terms = (jp @ jm, jm @ jp, r.params.c1 * j3 + r.params.c3 * (j3 @ j3 @ j3))
            closure = (terms[0] - terms[1]) - terms[2]
            c_size = None if exact else float(measure(c_sym))
        judge("ladder-closure", block, True, lambda: measure(closure),
              lambda: max(float(measure(t)) for t in terms))
        for label, op, sign in ((f"grading-raise-k{k}", jp, 1), (f"grading-lower-k{k}", jm, -1)):
            judge(label, dim, False, lambda op=op, sign=sign: grading(op, sign).max_norm(),
                  lambda op=op: float(j3.max_norm()) * float(op.max_norm()))
        if r.kind == "hp":
            judge("adjoint-pairing", dim, False, pairing, lambda: float(jp.max_norm()))
        judge("casimir-two-forms", block, False, lambda: measure(c_sym - c_prod),
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
