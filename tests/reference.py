"""Reference forms the tests hold the package against.

The package does not call these.  Each is the slow, obvious construction
of something the package makes another way: the position quadrature and
exp(i theta H) formed densely, the momentum-window columns, and the file
dicts that ``json.dumps(..., indent=2)`` turns into the bytes the direct
writers must match.
"""

from __future__ import annotations

import numpy as np

from higgsalg import COMPLEX, RATIONAL, FockSpace, Operator, annihilation
from higgsalg.fock import _quadrature_basis, _quarter_turns
from higgsalg.realizations import _in_window

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
