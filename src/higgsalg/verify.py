"""Residual measurement and reporting for realized algebras.

Every identity a realization asserts is turned into a named check with a
measured residual, a tolerance, and the number of states it was measured
on.  Each source of rows (``_Window`` for the spectral kinds, ``_ExactSteps``
or ``_FloatSteps`` for the step kinds) lists its rows once, in report
order, as (name, substantive, on the block, measure): a row on the block is
measured on the source's ``block`` states, any other on the whole space,
and ``measure(source)`` returns the residual and its float scale.  One judge,
``_judge``, reads every row.  A check measured on an empty block (an empty
admissible set, or an empty momentum window) is reported as vacuous, never
as silently passing: a sweep whose only outcome is vacuous checks gets its
own exit status.

Exact-field residuals are held to zero, and have no scale.  Float
realizations get tolerance coefficient * dimension * scale, where scale is
the size of the terms being cancelled.  Spectral (villain) identities hold
only in the infinite-dimensional limit, so their windowed rows have no
scale either: they are asymptotic measurements on r x r compressions onto
the momentum window, judged by convergence across dimensions.

A step (hp, dyson) realization is measured from three vectors, J+'s band
at +k, J-'s band at -k and J3's diagonal, with no operator product formed:
every row is a loop over the states of the interior block or the entries
of a band, in Python ints over one denominator in the exact field and in
Python floats (complex numbers for a loaded file) in the other, with no
numpy.  A generator read from a file may hold an entry off its band: a row
that reads it takes the larger of its band residual and the largest such
entry in its region, and ``adjoint-pairing`` compares J- with J+-dagger
entry by entry.
"""

from __future__ import annotations

import functools
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
# closes the object; the object opens where it is placed.  A report fills
# one %-template per (pad, number of checks), ``_template``, made once.

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


@functools.lru_cache(maxsize=32)
def _template(pad: str, count: int) -> str:
    """The JSON of a VerificationReport of ``count`` checks, as a %-template."""
    k, c, i = pad + "  ", pad + "    ", pad + "      "
    check = (f'{c}{{\n{i}"name": %s,\n{i}"residual": %s,\n{i}"tolerance": %s,\n{i}"block": %d,\n'
             f'{i}"passed": %s,\n{i}"vacuous": %s,\n{i}"substantive": %s,\n{i}"exact": %s,\n'
             f'{i}"asymptotic": %s\n{c}}}')
    checks = "[\n" + ",\n".join([check] * count) + f"\n{k}]" if count else "[]"
    return (f'{{\n{k}"kind": %s,\n{k}"k": %d,\n{k}"j2": %d,\n{k}"c1": %s,\n{k}"c3": %s,\n'
            f'{k}"dim": %d,\n{k}"field": %s,\n{k}"checks": {checks},\n{k}"passed": %s,\n'
            f'{k}"vacuous_only": %s\n{pad}}}')


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
        values = [_string_json(self.kind), self.step_k, self.j2, _string_json(self.c1),
                  _string_json(self.c3), self.dim, _string_json(self.field_name)]
        for c in self.checks:
            values += (_string_json(c.name), _residual_json(c.residual),
                       _residual_json(c.tolerance), c.block_size, _BOOL[c.passed],
                       _BOOL[c.vacuous], _BOOL[c.substantive], _BOOL[c.exact], _BOOL[c.asymptotic])
        values += (_BOOL[self.passed], _BOOL[self.vacuous_only])
        return _template(pad, len(self.checks)) % tuple(values)

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


# -- the rows -----------------------------------------------------------------

def _pairing(source) -> tuple[float, float]:
    """max |J- - J+-dagger|, scaled by max |J+|.  A built J- is J+'s
    remembered adjoint, so where J+ is finite the difference is exactly 0.0
    and is not formed; a loaded J- is compared entry by entry, on its band
    and off it (``_gap``)."""
    jp, jm = source.r.jp, source.r.jm
    dagger, scale = jp.adjoint(), float(jp.max_norm())
    return (0.0 if dagger is jm and math.isfinite(scale) else jm._gap(dagger)), scale


# the one row both sources list: hp and villain claim J- = J+-dagger
_PAIRING = ("adjoint-pairing", False, False, _pairing)


def _eigenvalue(r: Realization) -> float:
    """The Casimir eigenvalue of r's point as a float, converted in the row
    that reads it, so that ``_judge`` names that row in its refusal."""
    return _to_float(casimir_eigenvalue(r.params, r.j), "the Casimir eigenvalue")


def _judge(row: tuple, source, exact: bool, dim: int, coefficient: float) -> CheckResult:
    """One row's check, on the source's block or, off it, on all dim states.
    In order: an empty block is vacuous, and nothing is measured; an exact
    residual is held to zero; a float residual with no scale is a spectral
    asymptotic measurement, with no tolerance; any other is held to
    coefficient * dim * max(1, scale).  A ValueError the measure raises is
    refused naming the row."""
    name, substantive, on_block, measure = row
    block = source.block if on_block else dim
    if not block:
        return CheckResult(name, None, None, 0, True, True, substantive, exact)
    try:
        value, scale = measure(source)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None
    if exact:
        # a residual is a largest magnitude: held to zero, it passes only at zero
        return CheckResult(name, value, _ZERO, block, not value, False, substantive, True)
    if scale is None:
        (value,) = _finite(name, value)
        return CheckResult(name, value, None, block, True, False, substantive, False, True)
    if not (math.isfinite(value) and math.isfinite(scale)):
        _finite(name, value, scale)
    tol = coefficient * dim * max(1.0, scale)
    if not math.isfinite(tol):
        _finite(name, tol, what="the float tolerance", why="coefficient x dim x scale is")
    return CheckResult(name, value, tol, block, value <= tol, False, substantive, False)


# -- the momentum window ------------------------------------------------------

class _Window:
    """The rows of a spectral realization, on the blocks V-dagger M V of
    the momentum window.  J3 must be P, the momentum quadrature.

    V = R u_w are the momentum eigenvectors in the window: the columns u_w
    of the real quadrature basis whose eigenvalues Lambda lie in it, turned
    by R = diag(i^n) (``fock._quadrature_basis``).  So the block of J3^m is
    diag(Lambda^m), and J3 M and M J3 scale M's block by Lambda.  The other
    blocks come from the thin products A = V-dagger J+ and B = J+ V:
    ``plus`` = A V, ``minus`` its adjoint, ``pm`` (J+J-) = A A-dagger and
    ``mp`` (J-J+) = B-dagger B.  The J- blocks may come from J+ because
    J- = J+-dagger is judged in its own row, ``adjoint-pairing``.  No N x N
    residual is formed, and on an empty window no residual block is.
    """

    def __init__(self, r: Realization):
        import numpy as np
        dim = r.space.dim
        # a built J3 is the cached array itself; a loaded one round-trips exactly
        p = _momentum_entries(dim)
        if r.j3.entries is not p and not np.array_equal(r.j3.entries, p):
            raise ValueError(f"a {r.kind} realization needs J3 = P, the momentum quadrature;"
                             " this J3 differs")
        lo, hi = (_to_float(x, "the momentum window") for x in r.window)
        self.r = r
        # _judge catches overflow past the float range; numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            lam, u = _quadrature_basis(dim)
            inside = _in_window(lam, lo, hi)
            self._lam, self._u = lam, u = lam[inside], u[:, inside]
            self.block = len(lam)
            cols = _quarter_turns(dim)[:, None] * u
            jp = r.jp.entries
            a, b = cols.conj().T @ jp, jp @ cols
            self.plus = plus = a @ cols
            self.minus = minus = plus.conj().T
            self.pm, self.mp = pm, mp = a @ a.conj().T, b.conj().T @ b
            if not self.block:
                return
            powers = tuple(np.diag(lam ** m) for m in range(1, 5))
            coefficients = _casimir_coefficients(r.params)
            self.c_sym = _casimir(pm, mp, powers, coefficients, symmetric=True)
            c_prod = _casimir(pm, mp, powers, coefficients, symmetric=False)
            self._closure = (pm - mp) - (coefficients[1] * powers[0] + coefficients[3] * powers[2])
            # [J3, op] - sign op, zero when op shifts J3 by sign
            self._raise = (lam[:, None] * plus - plus * lam) - 1.0 * plus
            self._lower = (lam[:, None] * minus - minus * lam) - -1.0 * minus
            self._two_forms = self.c_sym - c_prod

    def closure(self):
        return self.max_entry(self._closure), None

    def raising(self):
        return self.max_entry(self._raise), None

    def lowering(self):
        return self.max_entry(self._lower), None

    def deviation(self):
        import numpy as np
        lam = _eigenvalue(self.r)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.max_entry(self.c_sym - lam * np.eye(self.block)), None

    def two_forms(self):
        return self.max_entry(self._two_forms), None

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
        with np.errstate(over="ignore", invalid="ignore"):
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

    rows = (("ladder-closure-window", True, True, closure),
            ("grading-raise-window", True, True, raising),
            ("grading-lower-window", True, True, lowering),
            ("casimir-deviation-window", True, True, deviation),
            ("casimir-two-forms-window", True, True, two_forms),
            _PAIRING)


# -- the step rows ------------------------------------------------------------

def _top(values, den: int, off=0) -> Fraction:
    """max |v| / den over int numerators, the shared zero when that is 0 or
    there are no values, or ``off``, the row's largest entry off the bands,
    where that is larger; ``off`` is nonzero only in a file's realization."""
    top = max(map(abs, values), default=0)
    value = Fraction(top, den) if top else _ZERO
    return max(value, off) if off else value


def _split(op: BandedOperator, d: int, size: int) -> tuple:
    """A step generator's band at offset d, padded with zeros to ``size``
    entries where it ends sooner, and the rest of it: its other bands.  A
    built generator is its one band, so only a loaded file can leave a
    rest, and the bands are copied only then."""
    bands = op._bands
    band = bands.get(d, ())
    rest = {} if bands.keys() <= {d} else {e: x for e, x in bands.items() if e != d}
    return _padded(band, size, op.field), rest


def _off_band(op: BandedOperator, rest: dict, inside: set | None = None):
    """The largest entry of ``rest``, ``op``'s bands off its own, on the whole
    space or where both ends of the entry lie ``inside``; 0 if there is none."""
    top = 0
    for d, band in rest.items():
        if inside is not None:
            r, c = _band_start(d)
            band = [x for e, x in enumerate(band) if r + e in inside and c + e in inside]
        if band:
            top = max(top, Fraction(max(map(abs, band)), op._den)
                      if op.field == RATIONAL else _peak(band))
    return top


@functools.lru_cache(maxsize=64)
def _step_rows(cls: type, hp: bool, k: int) -> tuple:
    """The rows of a step source of class ``cls``; each measure is the
    class's function, as a bound method would hold its source in a cycle."""
    # the quartic Casimir is the step-1 invariant; a step-k realization keeps
    # C_k = 2 J-J+ + P_k(J3), not formed here, so only step 1 has the last two
    return (("ladder-closure", True, True, cls.closure),
            (f"grading-raise-k{k}", False, False, cls.raising),
            (f"grading-lower-k{k}", False, False, cls.lowering),
            *((_PAIRING,) if hp else ()),
            ("casimir-two-forms", False, True, cls.two_forms),
            *((("casimir-commutes", True, True, cls.commutes),
               ("casimir-scalar", True, True, cls.scalar)) if k == 1 else ()))


class _Steps:
    """The rows of a step realization, read from three vectors: J+'s band P
    at +k, J-'s band M at -k and J3's diagonal T (``_split``).  P and M
    are read up to the interior block's last state, or to their stored end
    where that lies further, and T on all N states, since the grading rows
    read it at both ends of every bond of a band.

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

    Entries off the bands, which only a loaded file holds, are measured
    once: ``off_block`` on the block, which the block rows read, and
    ``off_raise`` and ``off_lower`` on the whole space, in J3 and the band's
    generator, which a grading row reads; each is 0 where there are none.
    """

    def __init__(self, r: Realization):
        k = r.step_k
        self.r, self.k = r, k
        self.states = states = interior_check_states(r)
        self.block = len(states)
        size = states[-1] + 1 if states else 0
        (self.p, rp), (self.m, rm), (self.t, rt) = (
            _split(r.jp, k, size), _split(r.jm, -k, size), _split(r.j3, 0, r.space.dim))
        # the bands' denominators, 1 in the complex field
        self.dp, self.dm, self.dt = r.jp._den, r.jm._den, r.j3._den
        self.off_block = self.off_raise = self.off_lower = 0
        if rp or rm or rt:
            rests = ((r.jp, rp), (r.jm, rm), (r.j3, rt))
            jp, jm, j3 = (_off_band(op, rest) for op, rest in rests)
            self.off_raise, self.off_lower = max(jp, j3), max(jm, j3)
            inside = set(states)
            self.off_block = max(_off_band(op, rest, inside) for op, rest in rests)
        self.rows = _step_rows(type(self), r.kind == "hp", k)
        if states:
            self._form()

    def _bonds(self) -> list[tuple[int, int, int]]:
        """(i, j, n) for each bond n -> n + k inside the block, n and n + k
        being states i and j of it."""
        where = {n: i for i, n in enumerate(self.states)}
        return [(i, where[n + self.k], n) for i, n in enumerate(self.states)
                if n + self.k in where]


class _ExactSteps(_Steps):
    """The step rows in the rational field.  The vectors hold int
    numerators, each band over its operator's denominator; a row's values
    are ints over one denominator, and the row makes one Fraction.  No row
    has a scale."""

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

    def closure(self) -> tuple:
        return _top(self.closure_num, self.closure_den, self.off_block), None

    def _grading(self, band: tuple, den: int, off) -> Fraction:
        """The band times T(n) - T(n + k) - k on every bond: [J3, J+] - k J+
        on P, and [J3, J-] + k J- on M up to sign."""
        t, kt = self.t, self.k * self.dt
        return _top([(a - b - kt) * x for a, b, x in zip(t, t[self.k:], band)], self.dt * den, off)

    def raising(self) -> tuple:
        return self._grading(self.p, self.dp, self.off_raise), None

    def lowering(self) -> tuple:
        return self._grading(self.m, self.dm, self.off_lower), None

    def two_forms(self) -> tuple:
        return _top([a - b for a, b in zip(self.sym, self.prod)], self.e, self.off_block), None

    def commutes(self) -> tuple:
        """[C, J+] and [C, J-] on the bonds inside the block; [C, J3] is
        zero, both being diagonal."""
        c, p, m = self.sym, self.p, self.m
        jumps = [(c[i] - c[j], n) for i, j, n in self._bonds()]
        lower = _top([x * m[n] for x, n in jumps], self.e * self.dm, self.off_block)
        return _top([x * p[n] for x, n in jumps], self.e * self.dp, lower), None

    def scalar(self) -> tuple:
        """C - lam 1 on the block."""
        lam = casimir_eigenvalue(self.r.params, self.r.j)
        den, shift = lam.denominator, lam.numerator * self.e
        return _top([c * den - shift for c in self.sym], self.e * den, self.off_block), None


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

    def closure(self) -> tuple:
        return max(_peak(self.closure_vec), self.off_block), self.closure_size

    def _terms(self, band: tuple):
        """(T(n), T(n + k), band(n)) on the band's nonzero entries, T's tail
        read in place.  Where J3 is not finite, a skipped zero entry leaves
        the grading row's scale max |J3| max |op| not finite all the same."""
        t = self.t
        return itertools.compress(zip(t, itertools.islice(t, self.k, None), band), band)

    def raising(self) -> tuple:
        """[J3, J+] - k J+, scaled by max |J3| max |J+|."""
        kf, r = float(self.k), self.r
        value = _peak([((a * x) - (x * b)) - kf * x for a, b, x in self._terms(self.p)])
        return max(value, self.off_raise), float(r.j3.max_norm()) * float(r.jp.max_norm())

    def lowering(self) -> tuple:
        """[J3, J-] + k J-, scaled by max |J3| max |J-|."""
        kf, r = float(-self.k), self.r
        value = _peak([((b * x) - (x * a)) - kf * x for a, b, x in self._terms(self.m)])
        return max(value, self.off_lower), float(r.j3.max_norm()) * float(r.jm.max_norm())

    def two_forms(self) -> tuple:
        value = _peak([a - b for a, b in zip(self.sym, self.prod)])
        return max(value, self.off_block), self.c_size + self.prod_size

    def commutes(self) -> tuple:
        """[C, J+], [C, J-] on the bonds inside the block, and [C, J3],
        which is zero unless a product leaves the float range."""
        c, x, p, m, r = self.sym, self.x, self.p, self.m, self.r
        bonds = self._bonds()
        value = _peak([(c[i] * p[n]) - (p[n] * c[j]) for i, j, n in bonds]
                      + [(c[j] * m[n]) - (m[n] * c[i]) for i, j, n in bonds]
                      + [(y * z) - (z * y) for y, z in zip(c, x)])
        norms = float(r.jp.max_norm()), float(r.jm.max_norm()), float(r.j3.max_norm())
        return max(value, self.off_block), self.c_size * max(1.0, max(norms))

    def scalar(self) -> tuple:
        """C - lam 1 on the block, scaled by max(max |C|, |lam|)."""
        lam = _eigenvalue(self.r)
        value = _peak([c - lam for c in self.sym])
        return max(value, self.off_block), max(self.c_size, abs(lam))


# -- the checks ---------------------------------------------------------------

def _checks(r: Realization, tolerance_coefficient: float) -> list[CheckResult]:
    """Every row of the realization's one source, judged in report order."""
    exact, dim = r.field == RATIONAL, r.space.dim
    source = (_Window if r.kind in VILLAIN_KINDS else _ExactSteps if exact else _FloatSteps)(r)
    return [_judge(row, source, exact, dim, tolerance_coefficient) for row in source.rows]


def verify_realization(r: Realization,
                        tolerance_coefficient: float = _TOLERANCE_COEFFICIENT) -> VerificationReport:
    """Measure every identity ``r`` asserts.  A float check passes when its
    residual does not exceed tolerance_coefficient * dim * scale."""
    if r.kind not in STEP_KINDS + VILLAIN_KINDS:
        raise ValueError(f"unknown realization kind {r.kind!r}")
    return VerificationReport(r.kind, r.step_k, r.j2, str(r.params.c1), str(r.params.c3),
                              r.space.dim, r.field, tuple(_checks(r, tolerance_coefficient)))


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
        k, item = pad + "  ", pad + "    "
        entries = ",\n".join([item + e._json(item) for e in self.entries])
        entries = f"[\n{entries}\n{k}]" if entries else "[]"
        return (f'{{\n{k}"entries": {entries},\n'
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
    entry is built, and so does a bad token, parsed once if the grid holds
    a point.  A ValueError from building or verifying one entry is that
    entry's error.  A point's j, c1 and c3 are spelled once for its entries.
    """
    space = FockSpace(dim)
    kinds = [(token, *parse_kind_token(token)) for token in tokens] if grid else []
    entries = []
    for params, j2 in grid:
        j, c1, c3 = Fraction(j2, 2), str(params.c1), str(params.c3)
        for token, kind, num in kinds:
            report = error = None
            try:
                report = verify_realization(build_realization(space, params, j, kind, num),
                                            tolerance_coefficient)
            except ValueError as err:
                error = str(err)
            entries.append(SweepEntry(c1, c3, j2, token, report, error))
    return SweepReport(tuple(entries))


def report_to_json(report: VerificationReport | SweepReport) -> str:
    """The report as a JSON document: the bytes of
    ``json.dumps(..., indent=2)`` plus a newline, written directly by the
    report classes.  A non-finite residual or tolerance raises ValueError
    and is never written."""
    return report._json("") + "\n"
