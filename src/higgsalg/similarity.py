"""Diagonal similarity maps between one-sided and square-root realizations.

A step-k one-sided (dyson) realization and its square-root (hp) partner
differ by conjugation with a diagonal matrix diag(s(n)) whose squares
obey s(n+k)^2 = F_k(n) s(n)^2.  The map exists exactly on chains where
every weight along the way is strictly positive; the mask records how
far each chain extends.  The same squares give the metric operator
U = diag(s^2) that intertwines the one-sided pair with its adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .algebra import AlgebraParams, RationalLike, bond_product, _frac, z_boundaries
from .fock import COMPLEX, FockSpace, Operator, pochhammer
from .realizations import Realization, closed_form_k2


@dataclass(frozen=True)
class DiagonalTransform:
    """Diagonal scaling s(0) .. s(N-1); mask[n] marks entries reachable
    through strictly positive weights from the seed."""

    q0: float
    entries: tuple[float, ...]
    mask: tuple[bool, ...]
    q0_odd: Optional[float] = None

    @property
    def dim(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        out = {
            "q0": self.q0,
            "entries": [float(x) for x in self.entries],
            "mask": [1 if b else 0 for b in self.mask],
        }
        if self.q0_odd is not None:
            out["q0_odd"] = self.q0_odd
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "DiagonalTransform":
        return DiagonalTransform(
            q0=float(data["q0"]),
            entries=tuple(float(x) for x in data["entries"]),
            mask=tuple(bool(b) for b in data["mask"]),
            q0_odd=float(data["q0_odd"]) if "q0_odd" in data else None,
        )


def _square_chains(
    space: FockSpace, weight: Callable[[int], Fraction], seeds: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[bool, ...]]:
    """Entries and mask of the k = len(seeds) chains s(n+k)^2 = F_k(n) s(n)^2,
    chain c seeded with s(c) = seeds[c], where ``weight(n)`` is F_k(n).  A
    chain stops (mask False, entry 0.0) at its first nonpositive weight or
    its first square that is not a finite float; its entries carry the sign
    of its seed."""
    k = len(seeds)
    entries = [0.0] * space.dim
    mask = [False] * space.dim
    squares = [0.0] * space.dim
    for n, seed in enumerate(seeds):
        entries[n], squares[n], mask[n] = seed, seed * seed, True
    for n in range(k, space.dim):
        if not mask[n - k]:
            continue
        factor = weight(n - k)
        if factor <= 0:
            continue
        squares[n] = squares[n - k] * float(factor)
        if not math.isfinite(squares[n]):
            continue
        root = math.sqrt(squares[n])
        entries[n] = root if seeds[n % k] >= 0 else -root
        mask[n] = True
    return tuple(entries), tuple(mask)


def s1_recurrence(
    space: FockSpace, params: AlgebraParams, j: RationalLike, q0: float = 1.0
) -> DiagonalTransform:
    """Step-1 scaling from the first-order square recurrence
    s(n)^2 = F_1(n-1) s(n-1)^2, seeded with s(0) = q0.

    The chain stops at the first nonpositive weight; the top weight
    F_1(2j) always vanishes, so no chain passes n = 2j.  It also stops
    (mask False, entry 0.0) at the first entry that is not a finite
    float, where the squares overflow at large j, so every masked-in
    entry is finite.
    """
    jf = _frac(j)
    entries, mask = _square_chains(space, lambda n: bond_product(params, jf, n), (q0,))
    return DiagonalTransform(q0=q0, entries=entries, mask=mask)


def s1_closed_form(
    space: FockSpace, params: AlgebraParams, j: RationalLike, q0: float = 1.0
) -> DiagonalTransform:
    """Step-1 scaling in product form,

        s(n) = q0 sqrt( (-c3/4)^n (-2j)_n (-z+)_n (-z-)_n ),

    with (x)_n the rising factorial and z-+ the roots of the bond
    quadratic.  Needs c3 != 0 and real roots.  The domain mask is the
    recurrence version's, taken from the exact weight signs, except that
    the chain also stops (mask False, entry 0.0) at the first entry that
    is not a finite float, where the float Pochhammers overflow.
    """
    jf = _frac(j)
    roots = z_boundaries(params, jf)
    if roots is None:
        raise ValueError("closed-form scaling needs real roots of the bond quadratic")
    zm, zp = roots
    base = -float(params.c3) / 4.0
    mask = list(s1_recurrence(space, params, jf, q0).mask)
    entries = [0.0] * space.dim
    for n in range(space.dim):
        if not mask[n]:
            break
        try:
            val = (base ** n) * float(pochhammer(-2.0 * float(jf), n))
        except OverflowError:  # float ** raises where * gives inf
            val = math.inf
        val *= float(pochhammer(-zp, n)) * float(pochhammer(-zm, n))
        # the masked region keeps the radicand positive; roundoff may dip
        # a true zero slightly negative at the chain edge
        entry = q0 * math.sqrt(max(val, 0.0))
        if not math.isfinite(entry):
            mask[n:] = [False] * (space.dim - n)
            break
        entries[n] = entry
    return DiagonalTransform(q0=q0, entries=tuple(entries), mask=tuple(mask))


def s2_matching(
    space: FockSpace,
    params: AlgebraParams,
    j: RationalLike,
    q0_even: float = 1.0,
    q0_odd: float = 1.0,
) -> DiagonalTransform:
    """Step-2 scaling: two independent parity chains seeded at n = 0 and
    n = 1, each obeying s(n+2)^2 = F_2(n) s(n)^2 and carrying the sign of
    its seed.  A chain stops at its first nonpositive weight or at its
    first square that is not a finite float."""
    jf = _frac(j)
    entries, mask = _square_chains(
        space, lambda n: closed_form_k2(params, jf, n), (q0_even, q0_odd)
    )
    return DiagonalTransform(q0=q0_even, entries=entries, mask=mask, q0_odd=q0_odd)


def conjugate(realization: Realization, transform: DiagonalTransform) -> Realization:
    """Similarity transform A -> diag(s) A diag(s)^-1, applied entrywise
    as s(row) A[row, col] / s(col) where both ends are in the transform's
    domain; entries touching an undefined scale are dropped and the bond
    mask is narrowed to match.

    With the step-1 scaling this carries a one-sided realization onto its
    square-root partner wherever the chain extends.
    """
    if transform.dim != realization.space.dim:
        raise ValueError("transform length does not match the truncation")
    k = realization.step_k
    n = realization.space.dim
    tmask = transform.mask
    keep = np.array(tmask, dtype=bool)
    # 1.0 off the domain keeps the division finite on entries dropped anyway
    s = np.where(keep, np.array(transform.entries, dtype=float), 1.0)

    def carry(op: Operator) -> Operator:
        src = op._promote().entries
        live = (src != 0) & keep[:, None] & keep[None, :]
        out = np.where(live, s[:, None] * src / s[None, :], 0)
        return Operator(realization.space, out, COMPLEX)

    new_mask = []
    for b in range(n):
        ok = realization.admissible_mask[b] and tmask[b]
        if b + k < n:
            ok = ok and tmask[b + k]
        new_mask.append(ok)
    return Realization(
        kind=realization.kind,
        step_k=k,
        j2=realization.j2,
        params=realization.params,
        jp=carry(realization.jp),
        jm=carry(realization.jm),
        j3=carry(realization.j3),
        admissible_mask=tuple(new_mask),
        window=realization.window,
    )


def unitarization_residual(
    realization: Realization, transform: DiagonalTransform
) -> tuple[float, int]:
    """How far U = diag(s^2) is from intertwining the pair (J-, J+):
    measures U^-1 adj(J-) U - J+ entrywise over bonds whose two ends lie
    in the transform's domain.  Returns (residual, bonds_measured).
    """
    k = realization.step_k
    n = realization.space.dim
    u = [e * e for e in transform.entries]
    jm = realization.jm._promote().entries
    jp = realization.jp._promote().entries
    worst = 0.0
    measured = 0
    for b in range(n - k):
        if not (transform.mask[b] and transform.mask[b + k]):
            continue
        lhs = (u[b + k] / u[b]) * np.conj(jm[b + k, b])
        worst = max(worst, abs(lhs - jp[b, b + k]))
        measured += 1
    return worst, measured
