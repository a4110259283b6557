"""Residual measurement and reporting for realized algebras.

Every identity a realization asserts is turned into a named check with a
measured residual, a tolerance, and the number of states it was measured
on.  Every kind goes through one pipeline and one judge.  A check
measured on an empty block (an empty admissible set, or an empty momentum
window for the spectral kinds) is reported as vacuous, never as silently
passing: a sweep whose only outcome is vacuous checks gets its own exit
status.

Exact-field realizations are held to residual zero.  Float realizations
get tolerance coefficient * dimension * scale, where scale is the size
of the terms being cancelled.  Spectral (villain) realizations are
different: their identities hold only in the infinite-dimensional limit,
so their windowed residuals are reported as asymptotic measurements and
judged by convergence across dimensions, not by a fixed tolerance.  They
are measured on r x r compressions onto the momentum window (``_Window``).

A step (hp, dyson) realization is measured from three vectors, J+'s band
at +k, J-'s band at -k and J3's diagonal (``_Steps``), with no operator
product formed: every row is a loop over the states of the interior block
or the entries of a band, on the tuple bands, in Python ints over one
denominator in the exact field and in Python floats (complex numbers for
a loaded file) in the other, with no numpy.  A generator read from a file
may hold an entry off its band: a row that reads it takes the larger of
its band residual and the largest such entry in its region, and
``adjoint-pairing`` compares J- with J+-dagger entry by entry.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string_json

from .algebra import AlgebraParams, _casimir, _casimir_coefficients, casimir_eigenvalue
from .fock import (
    RATIONAL,
    BandedOperator,
    FockSpace,
    _ZERO,
    _band_start,
    _momentum_entries,
    _padded,
    _peak,
    _quadrature_basis,
    _quarter_turns,
    _to_float,
)
from .realizations import (
    Realization,
    STEP_KINDS,
    VILLAIN_KINDS,
    _in_window,
    _point,
    build_realization,
)

Residual = float | Fraction | None

_TOLERANCE_COEFFICIENT = 1e-12


def _residual_text(x: Residual) -> str:
    """A residual or tolerance in the text report: "-" when there is none."""
    return "-" if x is None else str(x) if isinstance(x, Fraction) else repr(float(x))


# -- the report writer --------------------------------------------------------
#
# json.dumps(..., indent=2) runs CPython's pure-Python encoder, since the C
# encoder serves only indent=None.  Each report class spells its fixed
# schema in that layout directly, in ``_json(pad)`` beside ``to_text``, as
# ``fock._operator_text`` does for operator files: a string is spelled by
# ``encode_basestring_ascii``, the function json.dumps applies to a str,
# an int is its repr, a bool true or false, and a residual as
# ``_residual_json`` spells it.  ``pad`` is the indent of the line that
# closes the object; the object opens where it is placed.

_BOOL = ("false", "true")


def _residual_json(x: Residual) -> str:
    """A residual or tolerance as JSON text: null when there is none, a
    Fraction its quoted p/q, a float its repr.  A non-finite float raises
    ValueError: no report carries NaN or Infinity."""
    if x is None:
        return "null"
    if x is _ZERO:  # the residual of a passing exact row, and every exact tolerance
        return '"0"'
    # a float is tested first: Fraction's isinstance check is the slow ABC one
    if not isinstance(x, float) and isinstance(x, Fraction):
        return f'"{x}"'
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("a report value is not finite")
    return repr(x)


def _list_json(items, pad: str) -> str:
    """A JSON list of report objects, closed at indent ``pad``; ``[]`` when
    empty."""
    if not items:
        return "[]"
    item = pad + "  "
    return "[\n" + ",\n".join([item + x._json(item) for x in items]) + f"\n{pad}]"


class CheckResult(namedtuple("CheckResult", "name residual tolerance block_size passed vacuous"
                             " substantive exact asymptotic", defaults=(False,))):
    """One named check: its residual and tolerance (None where there is
    none), the number of states it was measured on, and its verdict."""

    __slots__ = ()

    @property
    def _status(self) -> str:
        """The status column of the text report."""
        return ("vacuous" if self.vacuous else "measured" if self.asymptotic
                else "ok" if self.passed else "FAIL")

    def _json(self, pad: str) -> str:
        k = pad + "  "
        return (f'{{\n{k}"name": {_string_json(self.name)},\n'
                f'{k}"residual": {_residual_json(self.residual)},\n'
                f'{k}"tolerance": {_residual_json(self.tolerance)},\n'
                f'{k}"block": {self.block_size:d},\n'
                f'{k}"passed": {_BOOL[self.passed]},\n'
                f'{k}"vacuous": {_BOOL[self.vacuous]},\n'
                f'{k}"substantive": {_BOOL[self.substantive]},\n'
                f'{k}"exact": {_BOOL[self.exact]},\n'
                f'{k}"asymptotic": {_BOOL[self.asymptotic]}\n{pad}}}')


class VerificationReport(namedtuple("VerificationReport", "kind step_k j2 c1 c3 dim field_name"
                                    " checks passed outcome vacuous_only")):
    """The checks of one realization, with the point they were measured
    at and the verdict they reach."""

    __slots__ = ()

    def __new__(cls, kind: str, step_k: int, j2: int, c1: str, c3: str, dim: int,
                field_name: str, checks: tuple[CheckResult, ...]):
        """The verdict is reached once: ``outcome`` is "FAIL" when a check
        fails, else "vacuous" when every substantive check (and there is
        one) is vacuous, else "pass"."""
        passed = all(c.passed for c in checks)
        substantive = [c.vacuous for c in checks if c.substantive]
        outcome = ("FAIL" if not passed
                   else "vacuous" if substantive and all(substantive) else "pass")
        return tuple.__new__(cls, (kind, step_k, j2, c1, c3, dim, field_name, checks,
                                   passed, outcome, outcome == "vacuous"))

    def __getnewargs__(self):
        # copy and pickle rebuild the report through __new__ from its checks
        return self[:8]

    def _json(self, pad: str) -> str:
        k = pad + "  "
        return (f'{{\n{k}"kind": {_string_json(self.kind)},\n'
                f'{k}"k": {self.step_k:d},\n'
                f'{k}"j2": {self.j2:d},\n'
                f'{k}"c1": {_string_json(self.c1)},\n'
                f'{k}"c3": {_string_json(self.c3)},\n'
                f'{k}"dim": {self.dim:d},\n'
                f'{k}"field": {_string_json(self.field_name)},\n'
                f'{k}"checks": {_list_json(self.checks, k)},\n'
                f'{k}"passed": {_BOOL[self.passed]},\n'
                f'{k}"vacuous_only": {_BOOL[self.vacuous_only]}\n{pad}}}')

    def to_text(self) -> str:
        head = (
            f"kind={self.kind} k={self.step_k} c1={self.c1} c3={self.c3} "
            f"j2={self.j2} dim={self.dim} field={self.field_name}"
        )
        lines = [head, f"{'check':<30} {'residual':<24} {'tolerance':<24} {'block':<6} status"]
        for c in self.checks:
            res, tol = _residual_text(c.residual), _residual_text(c.tolerance)
            lines.append(f"{c.name:<30} {res:<24} {tol:<24} {c.block_size:<6} {c._status}")
        lines.append(f"overall: {self.outcome}")
        return "\n".join(lines) + "\n"


_EXIT_CODES = {"pass": 0, "FAIL": 1, "vacuous": 2}


def exit_code(report: VerificationReport | SweepReport) -> int:
    return _EXIT_CODES[report.outcome]


# -- the admissible interior --------------------------------------------------

def interior_check_states(realization: Realization) -> list[int]:
    """States on which the defining commutator is required to close: deep
    enough inside the truncation that no edge artifact reaches them, with
    every incident bond admissible."""
    k, mask = realization.step_k, realization.admissible_mask
    return [s for s in itertools.compress(range(realization.space.dim - 2 * k), mask)
            if s < k or mask[s - k]]


def _finite(name: str, *values, what: str = "the float residual or its scale",
            why: str = "the entries are") -> list[float]:
    """The values as floats.  One that is not finite raises ValueError
    saying ``what`` is not finite because ``why`` beyond the float range:
    no verdict can be reached, and no report may carry inf."""
    out = [float(v) for v in values]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name}: {what} is not finite; {why} beyond the float range")
    return out


# -- the momentum window ------------------------------------------------------

class _Window:
    """The blocks V-dagger M V on the momentum window of a spectral
    realization that the checks read.

    V = R u_w are the momentum eigenvectors in the window: the columns u_w
    of the real quadrature basis whose eigenvalues Lambda lie in it,
    turned by R = diag(i^n) (``fock._quadrature_basis``).  J3 is P, which
    ``_checks`` enforces, so J3 next to V is a diagonal scaling: ``powers``
    are the blocks diag(Lambda^m) of J3^m, m = 1 .. 4, and ``left`` and
    ``right`` multiply a block by J3 as row and column scalings by Lambda.
    The other blocks come from the two thin N x N by N x r products
    A = V-dagger J+ and B = J+ V: ``plus`` = V-dagger J+ V = A V, ``minus``
    its adjoint, ``pm`` = V-dagger J+J- V = A A-dagger and ``mp`` =
    V-dagger J-J+ V = B-dagger B.  The J- blocks may come from J+ because
    J- = J+-dagger is judged in its own row, ``adjoint-pairing``; the
    windowed rows measure J+, J+-dagger and P.  No N x N residual is ever
    formed.
    """

    def __init__(self, r: Realization, lo: float, hi: float):
        import numpy as np
        dim = r.space.dim
        lam, u = _quadrature_basis(dim)
        inside = _in_window(lam, lo, hi)
        self._lam, self._u = lam[inside], u[:, inside]
        self.rank = len(self._lam)
        cols = _quarter_turns(dim)[:, None] * self._u
        jp = r.jp.entries
        a, b = cols.conj().T @ jp, jp @ cols
        self.plus = a @ cols
        self.minus = self.plus.conj().T
        self.pm, self.mp = a @ a.conj().T, b.conj().T @ b
        self.powers = tuple(np.diag(self._lam ** m) for m in range(1, 5))

    def left(self, block):
        """The block of J3 M from the block of M."""
        return self._lam[:, None] * block

    def right(self, block):
        """The block of M J3 from the block of M."""
        return block * self._lam

    def max_entry(self, block) -> float:
        """max |V B V-dagger|: the largest entry of a compressed residual B
        back on the whole space, equal to max |q M q| with q = V V-dagger.

        R is a diagonal of exact unit phases, so this is max |u_w B u_w^T|
        entry by entry: the stacked real and imaginary parts of u_w B are
        expanded by one real product and squared in place.  B is first
        scaled by a power of two near its largest entry, which is exact
        and keeps the squares inside the float range; a non-finite B
        gives its own non-finite largest entry."""
        import numpy as np
        top = float(np.abs(block).max())
        if not math.isfinite(top):
            return top
        shift = math.frexp(top)[1]
        block = block * math.ldexp(1.0, -shift)
        u = self._u
        n = len(u)
        parts = np.concatenate((u @ block.real, u @ block.imag)) @ u.T
        np.square(parts, out=parts)
        squares = np.add(parts[:n], parts[n:], out=parts[:n])
        return math.ldexp(math.sqrt(float(squares.max())), shift)


# -- the step rows ------------------------------------------------------------

def _num(c) -> float:
    """A scale factor of a complex-field formula, as a float."""
    return _to_float(c, "a scale factor")


def _top(values, den: int) -> Fraction:
    """max |v| / den over int numerators: the one Fraction an exact row
    makes, or the shared zero when that is 0 or there are no values."""
    top = max(map(abs, values), default=0)
    return Fraction(top, den) if top else _ZERO


def _split(op: BandedOperator, d: int, size: int) -> tuple:
    """A step generator's band at offset d, padded with zeros to ``size``
    entries where it ends sooner, and the rest of it: its other bands.  A
    built generator is its one band, so only a loaded file can leave a
    rest, and the bands are copied only then."""
    bands = op._bands
    band = bands.get(d, ())
    rest = {} if bands.keys() <= {d} else {e: x for e, x in bands.items() if e != d}
    return _padded(band, size, op.field), rest


class _Steps:
    """The three vectors the rows of a step realization read: J+'s band P
    at +k, J-'s band M at -k and J3's diagonal T (``_split``).  P and M
    are read up to the block's last state, or to their stored end where
    that lies further, and T on all N states, since the grading rows read
    it at both ends of every bond of a band.

    On them J+J- and J-J+ are the diagonals P(n) M(n) and M(n - k) P(n - k),
    the powers of J3 are diagonals, so both Casimir forms are a diagonal C,
    and the commutator of C with J+ or J- is (C(n) - C(n + k)) times the
    band on the bonds n -> n + k.  So every row is a loop over the states
    or the bonds of the interior block, or over a band, and no operator
    product is formed.  ``_form`` makes the block's vectors, only when the
    block holds a state.  In the complex field it also sets ``c_size``,
    ``prod_size`` and ``closure_size``, the measured parts of the float
    scales: max |C| of the symmetric form, max |C| of the normal-ordered
    one and the largest of the three terms the closure cancels, all on
    the block.
    """

    def __init__(self, r: Realization, states: list[int]):
        self.r, self.k, self.states = r, r.step_k, states
        size = states[-1] + 1 if states else 0
        (self.p, rp), (self.m, rm), (self.t, rt) = (
            _split(r.jp, self.k, size), _split(r.jm, -self.k, size), _split(r.j3, 0, r.space.dim))
        # the generators that hold an entry off their band, each with the rest
        self._rest = {name: (op, rest) for name, op, rest in
                      (("jp", r.jp, rp), ("jm", r.jm, rm), ("j3", r.j3, rt)) if rest}
        # the bands' denominators, 1 in the complex field
        self.dp, self.dm, self.dt = r.jp._den, r.jm._den, r.j3._den
        if states:
            self._form()

    def _bonds(self) -> list[tuple[int, int, int]]:
        """(i, j, n) for each bond n -> n + k inside the block, n and n + k
        being states i and j of it."""
        where = {n: i for i, n in enumerate(self.states)}
        return [(i, where[n + self.k], n) for i, n in enumerate(self.states)
                if n + self.k in where]

    def reading(self, residual, names: Sequence[str] = ("jp", "jm", "j3"), whole: bool = False):
        """The residual of a row that reads the generators ``names``: the
        larger of ``residual()`` and their largest entry off the band in
        the row's region, the whole space or the block.  An entry off the
        band is measured, never dropped.  Where none of them holds one, as
        in every built realization, this is ``residual`` itself."""
        rests = [self._rest[name] for name in names if name in self._rest]
        if not rests:
            return residual

        def measured():
            value, inside = residual(), set(self.states)
            for op, rest in rests:
                for d, band in rest.items():
                    if not whole:
                        r, c = _band_start(d)
                        band = [x for e, x in enumerate(band)
                                if r + e in inside and c + e in inside]
                    if band:
                        value = max(value, Fraction(max(map(abs, band)), op._den)
                                    if op.field == RATIONAL else _peak(band))
            return value
        return measured


class _ExactSteps(_Steps):
    """The step rows in the rational field.  The vectors hold int
    numerators, each band over its operator's denominator; a row's values
    are ints over one denominator, and the row makes one Fraction."""

    def _form(self) -> None:
        """The closure over u q dt^3 and both Casimir forms over
        E = u q dt^4 on the block, with u = dp dm and q = 2 q1 q3, which
        makes c1 q, c3 q and the Casimir coefficients (c1 + c3/2) q and
        (c3/2) q ints."""
        k, p, m, t, dt = self.k, self.p, self.m, self.t, self.dt
        c1, c3 = self.r.params.c1, self.r.params.c3
        q = 2 * c1.denominator * c3.denominator
        i1, i3 = c1.numerator * (q // c1.denominator), c3.numerator * (q // c3.denominator)
        i4 = i3 // 2
        i2 = i1 + i4
        u, d2 = self.dp * self.dm, dt * dt
        f3, f4 = q * d2 * dt, q * d2 * d2
        a1, a3 = u * i1 * d2, u * i3
        b1, b2, b3, b4 = a1 * dt, u * i2 * d2, a3 * dt, u * i4
        self.closure_den, self.e = u * f3, u * f4
        self.closure_num, self.sym, self.prod = closure, sym, prod = [], [], []
        for n in self.states:
            pm, mp, x = p[n] * m[n], m[n - k] * p[n - k] if n >= k else 0, t[n]
            x2 = x * x
            x3 = x2 * x
            quartic = b2 * x2 + b4 * x2 * x2
            closure.append((pm - mp) * f3 - a1 * x - a3 * x3)
            sym.append((pm + mp) * f4 + quartic)
            prod.append(2 * mp * f4 + b1 * x + b3 * x3 + quartic)

    def closure(self) -> Fraction:
        return _top(self.closure_num, self.closure_den)

    def grading(self, sign: int) -> Fraction:
        """[J3, J+] - k J+, or [J3, J-] + k J-: the band times
        T(n) - T(n + k) - k, up to sign, on every bond."""
        band, den = (self.p, self.dp) if sign > 0 else (self.m, self.dm)
        t, kt = self.t, self.k * self.dt
        return _top([(a - b - kt) * x for a, b, x in zip(t, t[self.k:], band)], self.dt * den)

    def two_forms(self) -> Fraction:
        return _top([a - b for a, b in zip(self.sym, self.prod)], self.e)

    def commutes(self) -> Fraction:
        """[C, J+] and [C, J-] on the bonds inside the block; [C, J3] is
        zero, both being diagonal."""
        c, p, m = self.sym, self.p, self.m
        jumps = [(c[i] - c[j], n) for i, j, n in self._bonds()]
        return max(_top([x * p[n] for x, n in jumps], self.e * self.dp),
                   _top([x * m[n] for x, n in jumps], self.e * self.dm))

    def deviation(self, lam: Fraction) -> Fraction:
        """C - lam 1 on the block."""
        den, shift = lam.denominator, lam.numerator * self.e
        return _top([c * den - shift for c in self.sym], self.e * den)


class _FloatSteps(_Steps):
    """The step rows in the complex field, by loops over Python floats (or
    complex numbers, for a loaded file).  Each entry is formed from the
    same operands, in the same order, as a product of complex128 bands
    forms it, so every float keeps its bits: sums run left to right,
    J3^3 = J3^2 J3, and P(n) M(n) is kept apart from M(n) P(n)."""

    def _form(self) -> None:
        """J+J-, J-J+, the powers of J3, both Casimir forms and the closure
        per state of the block, and the sizes the float scales read."""
        k, p, m, t = self.k, self.p, self.m, self.t
        coefficients = _casimir_coefficients(self.r.params)
        rows = []
        for n in self.states:
            pm, mp, x = p[n] * m[n], m[n - k] * p[n - k] if n >= k else 0.0, t[n]
            square = x * x
            powers = (x, square, square * x, square * square)
            # (J+J- - J-J+) - (c1 J3 + c3 J3^3), and the three terms it cancels
            line = coefficients[1] * x + coefficients[3] * powers[2]
            rows.append((x, _casimir(pm, mp, powers, coefficients, symmetric=True),
                         _casimir(pm, mp, powers, coefficients, symmetric=False),
                         (pm - mp) - line, pm, mp, line))
        self.x, self.sym, self.prod, self.closure_vec, *terms = map(list, zip(*rows))
        self.c_size, self.prod_size = _peak(self.sym), _peak(self.prod)
        self.closure_size = max(_peak(v) for v in terms)

    def closure(self) -> float:
        return _peak(self.closure_vec)

    def grading(self, sign: int) -> float:
        """[J3, J+] - k J+, or [J3, J-] + k J-, on the nonzero entries of
        the band: where J3 is finite a zero entry gives a zero term.  Where
        it is not, inf * 0 is NaN, so the band is read padded to its
        N - k bonds."""
        t, kf, band = self.t, _num(sign * self.k), self.p if sign > 0 else self.m
        if math.isfinite(self.r.j3.max_norm()):
            terms = itertools.compress(zip(t, t[self.k:], band), band)
        else:
            terms = zip(t, t[self.k:], _padded(band, len(t) - self.k, self.r.field))
        if sign > 0:
            return _peak([((a * x) - (x * b)) - kf * x for a, b, x in terms])
        return _peak([((b * x) - (x * a)) - kf * x for a, b, x in terms])

    def two_forms(self) -> float:
        return _peak([a - b for a, b in zip(self.sym, self.prod)])

    def commutes(self) -> float:
        """[C, J+], [C, J-] on the bonds inside the block, and [C, J3],
        which is zero unless a product leaves the float range."""
        c, x, p, m = self.sym, self.x, self.p, self.m
        bonds = self._bonds()
        return _peak([(c[i] * p[n]) - (p[n] * c[j]) for i, j, n in bonds]
                     + [(c[j] * m[n]) - (m[n] * c[i]) for i, j, n in bonds]
                     + [(y * z) - (z * y) for y, z in zip(c, x)])

    def deviation(self, lam: float) -> float:
        """C - lam 1 on the block."""
        return _peak([c - lam for c in self.sym])


# -- the checks ---------------------------------------------------------------

def _checks(r: Realization, tolerance_coefficient: float) -> list[CheckResult]:
    exact = r.field == RATIONAL
    k = r.step_k
    dim = r.space.dim
    c1, c3 = r.params.c1, r.params.c3
    jp, jm, j3 = r.jp, r.jm, r.j3
    checks: list[CheckResult] = []

    def judge(name, block, substantive, residual, scale) -> None:
        """Record one check.  ``residual`` and ``scale`` are callables, so
        nothing is measured on an empty block.  In order: an empty block is
        vacuous, with no residual; a check with no scale is a spectral
        asymptotic measurement, with no tolerance; an exact residual is
        held to zero; a float residual is held to the tolerance at
        ``scale()``.  A check passes unless its residual exceeds its
        tolerance."""
        value = tol = None
        passed = True
        asymptotic = block > 0 and scale is None
        if asymptotic:
            (value,) = _finite(name, residual())
        elif block > 0 and exact:
            # a residual is a largest magnitude: held to zero, it passes only at zero
            value, tol = residual(), _ZERO
            passed = not value
        elif block > 0:
            value, size = residual(), scale()
            if not (math.isfinite(value) and math.isfinite(size)):
                _finite(name, value, size)
            tol = tolerance_coefficient * dim * max(1.0, size)
            if not math.isfinite(tol):
                _finite(name, tol, what="the float tolerance", why="coefficient x dim x scale is")
            passed = value <= tol
        checks.append(CheckResult(name, value, tol, block, passed, block == 0, substantive,
                                  exact and not asymptotic, asymptotic))

    def eigenvalue(lam: Fraction, name: str):
        """The Casimir eigenvalue ``lam``, as a float outside the exact
        field; converted in the row that reads it, so its refusal names
        that row."""
        return lam if exact else _to_float(lam, f"{name}: the Casimir eigenvalue")

    def pairing() -> None:
        def residual():
            """max |J- - J+-dagger|.  A built J- is J+'s remembered adjoint,
            so where J+ is finite the difference is exactly 0.0 and is not
            formed; a loaded J- is compared entry by entry, on its band and
            off it (``_gap``)."""
            dagger = jp.adjoint()
            if dagger is jm and math.isfinite(jp.max_norm()):
                return 0.0
            return jm._gap(dagger)

        judge("adjoint-pairing", dim, False, residual, lambda: float(jp.max_norm()))

    if r.kind in VILLAIN_KINDS:
        import numpy as np
        # judge catches overflow past the float range; numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            # Every formula reads the r x r blocks of the named products J+J-,
            # J-J+ and the powers of J3 on the momentum window, and J+ or J-
            # times J3 on either side; a row is measured with ``max_entry``.
            # A built J3 is the cached array itself; a loaded one round-trips
            # exactly.
            p = _momentum_entries(dim)
            if j3.entries is not p and not np.array_equal(j3.entries, p):
                raise ValueError(f"a {r.kind} realization needs J3 = P, the momentum quadrature;"
                                 " this J3 differs")
            lo, hi = (_to_float(x, "the momentum window") for x in r.window)
            w = _Window(r, lo, hi)
            block, measure = w.rank, w.max_entry
            if block:
                # on an empty window every row is vacuous, and none of these is formed
                coefficients = _casimir_coefficients(r.params)
                lam = casimir_eigenvalue(r.params, r.j)
                c_sym = _casimir(w.pm, w.mp, w.powers, coefficients, symmetric=True)
                c_prod = _casimir(w.pm, w.mp, w.powers, coefficients, symmetric=False)
                closure = (w.pm - w.mp) - (_num(c1) * w.powers[0] + _num(c3) * w.powers[2])

            def grading(op, sign: int):
                """[J3, op] - sign op, zero when op shifts J3 by sign."""
                return (w.left(op) - w.right(op)) - _num(sign) * op

            judge("ladder-closure-window", block, True, lambda: measure(closure), None)
            judge("grading-raise-window", block, True,
                  lambda: measure(grading(w.plus, 1)), None)
            judge("grading-lower-window", block, True,
                  lambda: measure(grading(w.minus, -1)), None)
            judge("casimir-deviation-window", block, True, lambda: measure(
                c_sym - eigenvalue(lam, "casimir-deviation-window") * np.eye(block)), None)
            judge("casimir-two-forms-window", block, True, lambda: measure(c_sym - c_prod), None)
            pairing()
            return checks

    # The step rows read the three vectors of ``_Steps``: the block rows on
    # the interior block, the grading rows on the bands.
    states = interior_check_states(r)
    block = len(states)
    rows = (_ExactSteps if exact else _FloatSteps)(r, states)
    read = rows.reading

    judge("ladder-closure", block, True, read(rows.closure), lambda: rows.closure_size)
    for label, name, op, sign in ((f"grading-raise-k{k}", "jp", jp, 1),
                                  (f"grading-lower-k{k}", "jm", jm, -1)):
        judge(label, dim, False, read(lambda sign=sign: rows.grading(sign), (name, "j3"), True),
              lambda op=op: float(j3.max_norm()) * float(op.max_norm()))
    if r.kind == "hp":
        pairing()
    judge("casimir-two-forms", block, False, read(rows.two_forms),
          lambda: rows.c_size + rows.prod_size)

    # the quartic Casimir is the step-1 invariant; a step-k realization
    # keeps C_k = 2 J-J+ + P_k(J3) with another polynomial P_k, not formed
    # here, so only step-1 realizations carry these two checks
    if k == 1:
        # the eigenvalue's Fraction is made once, and only on a non-empty block
        lam = casimir_eigenvalue(r.params, r.j) if block else None
        judge("casimir-commutes", block, True, read(rows.commutes),
              lambda: rows.c_size * max(1.0, max(float(op.max_norm()) for op in (jp, jm, j3))))
        judge("casimir-scalar", block, True,
              read(lambda: rows.deviation(eigenvalue(lam, "casimir-scalar"))),
              lambda: max(rows.c_size, abs(eigenvalue(lam, "casimir-scalar"))))
    return checks


def verify_realization(r: Realization,
                        tolerance_coefficient: float = _TOLERANCE_COEFFICIENT) -> VerificationReport:
    """Measure every identity ``r`` asserts.  A float check passes when its
    residual does not exceed tolerance_coefficient * dim * scale."""
    if r.kind not in STEP_KINDS + VILLAIN_KINDS:
        raise ValueError(f"unknown realization kind {r.kind!r}")
    checks = _checks(r, tolerance_coefficient)
    return VerificationReport(
        kind=r.kind,
        step_k=r.step_k,
        j2=r.j2,
        c1=str(r.params.c1),
        c3=str(r.params.c3),
        dim=r.space.dim,
        field_name=r.field,
        checks=tuple(checks),
    )


# -- grid sweeps --------------------------------------------------------------

GRID_COUPLINGS: tuple[tuple[int, int], ...] = (
    (2, 0),
    (-2, 0),
    (1, 1),
    (2, 1),
    (-2, 1),
    (3, -1),
    (0, 2),
)


def default_grid() -> list[tuple[AlgebraParams, int]]:
    """The standard sampling: seven coupling pairs crossed with
    2j = 1 .. 6."""
    return [(AlgebraParams.of(c1, c3), j2) for c1, c3 in GRID_COUPLINGS for j2 in range(1, 7)]


def grid_from_json(data) -> list[tuple[AlgebraParams, int]]:
    """Grid points as [{"c1": "p/q", "c3": "p/q", "j2": int}, ...].  Raises
    ValueError on a grid that is not a list or a row that is not an
    object, a j2 that is not an integer >= 0 (a float, a bool or a string
    included), or a c1 or c3 that is not a p/q string or an integer; the
    refused value is spelled as JSON."""
    if type(data) is not list:
        raise ValueError(f"grid must be a list of objects, got {json.dumps(data)}")
    points = []
    for row in data:
        if type(row) is not dict:
            raise ValueError(f"grid row must be an object, got {json.dumps(row)}")
        points.append(_point(row, "grid "))
    return points


class SweepEntry(namedtuple("SweepEntry", "c1 c3 j2 token report error", defaults=(None,))):
    """One realization of a sweep at one grid point: its report, or the
    error that building or verifying it raised."""

    __slots__ = ()

    @property
    def outcome(self) -> str:
        """The report's outcome; "FAIL" when building or verifying raised."""
        return "FAIL" if self.error is not None else self.report.outcome

    def _text(self) -> str:
        """The entry's line in the text report."""
        tag = f"c1={self.c1} c3={self.c3} j2={self.j2} {self.token}"
        return f"{tag:<40} {self.outcome if self.error is None else 'error: ' + self.error}"

    def _json(self, pad: str) -> str:
        k = pad + "  "
        last = (f'"error": {_string_json(self.error)}' if self.error is not None
                else f'"report": {self.report._json(k)}')
        return (f'{{\n{k}"c1": {_string_json(self.c1)},\n'
                f'{k}"c3": {_string_json(self.c3)},\n'
                f'{k}"j2": {self.j2:d},\n'
                f'{k}"realization": {_string_json(self.token)},\n'
                f'{k}{last}\n{pad}}}')


class SweepReport(namedtuple("SweepReport", "entries n_failed n_vacuous outcome")):
    """The entries of a sweep, counted and judged."""

    __slots__ = ()

    def __new__(cls, entries: tuple[SweepEntry, ...]):
        """The verdict is reached once: ``outcome`` is "FAIL" when an
        entry fails, else "vacuous" when every entry (and there is one) is
        vacuous, else "pass"."""
        outcomes = [e.outcome for e in entries]
        failed, vacuous = outcomes.count("FAIL"), outcomes.count("vacuous")
        outcome = ("FAIL" if failed
                   else "vacuous" if outcomes and vacuous == len(outcomes) else "pass")
        return tuple.__new__(cls, (entries, failed, vacuous, outcome))

    def __getnewargs__(self):
        # copy and pickle rebuild the report through __new__ from its entries
        return self[:1]

    def _json(self, pad: str) -> str:
        k = pad + "  "
        return (f'{{\n{k}"entries": {_list_json(self.entries, k)},\n'
                f'{k}"total": {len(self.entries):d},\n'
                f'{k}"failed": {self.n_failed:d},\n'
                f'{k}"vacuous": {self.n_vacuous:d}\n{pad}}}')

    def to_text(self) -> str:
        lines = [e._text() for e in self.entries]
        lines.append(f"total={len(self.entries)} failed={self.n_failed} vacuous={self.n_vacuous}")
        return "\n".join(lines) + "\n"


def parse_kind_token(token: str) -> tuple[str, int]:
    """'hp:2' -> ('hp', 2); bare kinds default to step (or form) 1."""
    if ":" in token:
        kind, _, num = token.partition(":")
        try:
            val = int(num)
        except ValueError:
            raise ValueError(f"bad realization token {token!r}") from None
    else:
        kind, val = token, 1
    kind = kind.strip()
    if kind not in ("hp", "dyson", "villain"):
        raise ValueError(f"unknown realization kind {kind!r} in token {token!r}")
    if val < 1:
        raise ValueError(f"step must be >= 1 in token {token!r}")
    if kind == "villain" and val not in (1, 2):
        raise ValueError(f"villain form must be 1 or 2 in token {token!r}")
    return kind, val


def sweep(
    tokens: Sequence[str],
    grid: Sequence[tuple[AlgebraParams, int]],
    dim: int = 32,
    tolerance_coefficient: float = _TOLERANCE_COEFFICIENT,
) -> SweepReport:
    """Verify every requested realization at every grid point, in order:
    the report is the cross product grid x tokens.

    Entries run one after another in this thread; the work is pure Python
    and holds the interpreter lock, so worker threads measured no gain.
    A truncation dimension below 2 raises ValueError once, before any
    entry is built; a ValueError from building or verifying one entry is
    that entry's error.
    """
    space = FockSpace(dim)
    entries = []
    for params, j2 in grid:
        for token in tokens:
            kind, num = parse_kind_token(token)
            report = error = None
            try:
                r = build_realization(space, params, Fraction(j2, 2), kind, num)
                report = verify_realization(r, tolerance_coefficient)
            except ValueError as err:
                error = str(err)
            entries.append(SweepEntry(str(params.c1), str(params.c3), j2, token, report, error))
    return SweepReport(tuple(entries))


def report_to_json(report: VerificationReport | SweepReport) -> str:
    """The report as a JSON document: the bytes of
    ``json.dumps(..., indent=2)`` plus a newline, written directly by the
    report classes.  A non-finite residual or tolerance raises ValueError
    and is never written."""
    return report._json("") + "\n"
