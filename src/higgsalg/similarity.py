"""Diagonal similarity maps between one-sided and square-root realizations.

A step-k one-sided (dyson) realization and its square-root (hp) partner
differ by conjugation with a diagonal matrix diag(s(n)) whose squares
obey s(n+k)^2 = F_k(n) s(n)^2.  The map exists exactly on chains where
every weight along the way is strictly positive; the mask records how
far each chain extends.  The same squares give the metric operator
U = diag(s^2) that intertwines the one-sided pair with its adjoint.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .algebra import AlgebraParams, RationalLike, _frac, z_boundaries
from .fock import (
    COMPLEX,
    BandedOperator,
    FockSpace,
    _band_start,
    _to_float,
    pochhammer,
)
from .realizations import STEP_KINDS, Realization, product_recurrence


class DiagonalTransform(namedtuple("DiagonalTransform", "q0 entries mask q0_odd",
                                   defaults=(None,))):
    """Diagonal scaling s(0) .. s(N-1); mask[n] marks entries reachable
    through strictly positive weights from the seed.  Equal fields make
    equal transforms, so a map read back from its file equals the map."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_json_dict(data: dict) -> "DiagonalTransform":
        return DiagonalTransform(
            q0=float(data["q0"]),
            entries=tuple(float(x) for x in data["entries"]),
            mask=tuple(bool(b) for b in data["mask"]),
            q0_odd=float(data["q0_odd"]) if "q0_odd" in data else None,
        )


def _transform_text(t: DiagonalTransform) -> str:
    """The map file ``{"q0", "entries", "mask"}``, with ``q0_odd`` last
    for the two-chain map, byte for byte as ``json.dumps(..., indent=2)``
    spells it, written directly as ``fock._operator_text`` writes an
    operator: an entry is the repr of its float, a mask bit 1 or 0, and
    the seeds are spelled by ``json.dumps``.  A value that is not finite
    raises ValueError; nothing writes NaN."""
    if not all(map(math.isfinite, t.entries)):
        raise ValueError("a transform entry is not finite")
    entries = ",\n".join([f"    {float(x)!r}" for x in t.entries])
    mask = ",\n".join(["    1" if b else "    0" for b in t.mask])
    parts = [f'  "q0": {json.dumps(t.q0, allow_nan=False)}', f'  "entries": [\n{entries}\n  ]',
             f'  "mask": [\n{mask}\n  ]']
    if t.q0_odd is not None:
        parts.append(f'  "q0_odd": {json.dumps(t.q0_odd, allow_nan=False)}')
    return "{\n" + ",\n".join(parts) + "\n}"


def _square_chains(
    space: FockSpace, params: AlgebraParams, j: RationalLike, seeds: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[bool, ...]]:
    """Entries and mask of the k = len(seeds) chains s(n+k)^2 = F_k(n) s(n)^2,
    chain c seeded with s(c) = seeds[c], with F_k the weights of
    ``product_recurrence``, as every step-k realization takes them.  A
    chain stops (mask False, entry 0.0) at its first nonpositive weight or
    its first square that is not a finite float; its entries carry the sign
    of its seed.  A seed that is zero or not finite raises ValueError: it
    would make every entry of its chain zero, or none finite."""
    for seed in seeds:
        if not math.isfinite(seed):
            raise ValueError(f"not a finite number: {seed!r}")
        if seed == 0:
            raise ValueError(f"seed must be nonzero, got {seed!r}")
    k = len(seeds)
    weight = product_recurrence(params, j, k, space.dim - 1 - k)
    entries = [0.0] * space.dim
    mask = [False] * space.dim
    squares = [0.0] * space.dim
    for n, seed in enumerate(seeds):
        entries[n], squares[n], mask[n] = seed, seed * seed, True
    for n in range(k, space.dim):
        if not mask[n - k]:
            continue
        factor = weight[n - k]
        if factor <= 0:
            continue
        squares[n] = squares[n - k] * _to_float(factor, "a weight of the chain")
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
    entries, mask = _square_chains(space, params, j, (q0,))
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
    base = -_to_float(params.c3, "c3") / 4.0
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
    entries, mask = _square_chains(space, params, j, (q0_even, q0_odd))
    return DiagonalTransform(q0=q0_even, entries=entries, mask=mask, q0_odd=q0_odd)


def conjugate(realization: Realization, transform: DiagonalTransform) -> Realization:
    """Similarity transform A -> diag(s) A diag(s)^-1, applied entrywise
    as s(row) A[row, col] / s(col) where both ends are in the transform's
    domain; entries touching an undefined scale are dropped and the bond
    mask is narrowed to match.

    Offset d is scaled by s(i) / s(i + d), band by band, by numpy's
    elementwise s(i) * A / s(j): the bits of the dense formula, with no
    N x N array formed.

    With the step-1 scaling this carries a one-sided realization onto its
    square-root partner wherever the chain extends.  A spectral
    realization, which has no bands, raises ValueError.
    """
    if realization.kind not in STEP_KINDS:
        raise ValueError(f"conjugate carries a step-kind realization, not {realization.kind!r}")
    import numpy as np
    if transform.dim != realization.space.dim:
        raise ValueError("transform length does not match the truncation")
    k = realization.step_k
    n = realization.space.dim
    keep = np.array(transform.mask, dtype=bool)
    # 1.0 off the domain keeps the division finite on entries dropped anyway
    s = np.where(keep, np.array(transform.entries, dtype=float), 1.0)

    def carry(op: BandedOperator) -> BandedOperator:
        out = {}
        for d, band in op._promote()._bands.items():
            r, c = _band_start(d)
            rows, cols = slice(r, r + len(band)), slice(c, c + len(band))
            src = np.array(band, dtype=complex)
            live = (src != 0) & keep[rows] & keep[cols]
            out[d] = np.where(live, s[rows] * src / s[cols], 0).tolist()
        return BandedOperator(realization.space, COMPLEX, out)

    # bond b keeps both ends in the domain; a bond past the edge has one end
    far_end = np.concatenate((keep[k:], np.ones(min(k, n), dtype=bool)))
    new_mask = np.array(realization.admissible_mask, dtype=bool) & keep & far_end
    return Realization(realization.kind, k, realization.j2, realization.params,
                       carry(realization.jp), carry(realization.jm), carry(realization.j3),
                       tuple(new_mask.tolist()))


def unitarization_residual(
    realization: Realization, transform: DiagonalTransform
) -> tuple[float, int]:
    """How far U = diag(s^2) is from intertwining the pair (J-, J+):
    measures U^-1 adj(J-) U - J+ entrywise over bonds whose two ends lie
    in the transform's domain.  Returns (residual, bonds_measured).  A
    spectral realization, which has no bands, raises ValueError.
    """
    if realization.kind not in STEP_KINDS:
        raise ValueError(f"the metric is of a step-kind realization, not {realization.kind!r}")
    import numpy as np
    k = realization.step_k
    u = np.square(transform.entries)
    live = np.logical_and(transform.mask[:-k], transform.mask[k:])
    # bond b joins (b + k, b) on offset -k of J- and (b, b + k) on offset k of J+
    lower = np.array(realization.jm._promote().diagonal(-k), dtype=complex)[live]
    upper = np.array(realization.jp._promote().diagonal(k), dtype=complex)[live]
    near = u[:-k][live]
    if not near.all():
        raise ZeroDivisionError("U = diag(s^2) is singular on a measured bond")
    gap = np.abs((u[k:][live] / near) * np.conj(lower) - upper)
    return float(gap.max(initial=0.0)), int(live.sum())
