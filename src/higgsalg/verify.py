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
are measured on r x r compressions onto the momentum window (``_Window``),
from the same formulas the step kinds evaluate on banded operators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string_json
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import AlgebraParams, _casimir, _powers, casimir_eigenvalue
from .fock import (
    RATIONAL,
    FockSpace,
    _momentum_entries,
    _quadrature_basis,
    _quarter_turns,
    _to_float,
    commutator,
    identity_op,
)
from .realizations import (
    Realization,
    STEP_KINDS,
    VILLAIN_KINDS,
    _in_window,
    _point,
    build_realization,
)

Residual = Union[float, Fraction, None]


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: Residual
    tolerance: Residual
    block_size: int
    passed: bool
    vacuous: bool
    substantive: bool
    exact: bool
    asymptotic: bool = False

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


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    step_k: int
    j2: int
    c1: str
    c3: str
    dim: int
    field_name: str
    checks: tuple[CheckResult, ...]
    passed: bool = field(init=False)
    outcome: str = field(init=False)
    vacuous_only: bool = field(init=False)

    def __post_init__(self) -> None:
        """The verdict, reached once: ``outcome`` is "FAIL" when a check
        fails, else "vacuous" when every substantive check (and there is
        one) is vacuous, else "pass"."""
        passed = all(c.passed for c in self.checks)
        substantive = [c.vacuous for c in self.checks if c.substantive]
        outcome = ("FAIL" if not passed
                   else "vacuous" if substantive and all(substantive) else "pass")
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "vacuous_only", outcome == "vacuous")

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


def exit_code(report: Union[VerificationReport, SweepReport]) -> int:
    return _EXIT_CODES[report.outcome]


# -- the admissible interior --------------------------------------------------

def interior_check_states(realization: Realization) -> list[int]:
    """States on which the defining commutator is required to close: deep
    enough inside the truncation that no edge artifact reaches them, with
    every incident bond admissible."""
    k = realization.step_k
    n = realization.space.dim
    mask = realization.admissible_mask
    out = []
    for s in range(max(0, n - 2 * k)):
        if mask[s] and (s < k or mask[s - k]):
            out.append(s)
    return out


def _finite(name: str, *values, what: str = "the float residual or its scale",
            why: str = "the entries are") -> list[float]:
    """The values as floats.  One that is not finite raises ValueError
    saying ``what`` is not finite because ``why`` beyond the float range:
    no verdict can be reached, and no report may carry inf."""
    out = [float(v) for v in values]
    if not all(math.isfinite(v) for v in out):
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

    def left(self, block: np.ndarray) -> np.ndarray:
        """The block of J3 M from the block of M."""
        return self._lam[:, None] * block

    def right(self, block: np.ndarray) -> np.ndarray:
        """The block of M J3 from the block of M."""
        return block * self._lam

    def max_entry(self, block: np.ndarray) -> float:
        """max |V B V-dagger|: the largest entry of a compressed residual B
        back on the whole space, equal to max |q M q| with q = V V-dagger.

        R is a diagonal of exact unit phases, so this is max |u_w B u_w^T|
        entry by entry: the stacked real and imaginary parts of u_w B are
        expanded by one real product and squared in place.  B is first
        scaled by a power of two near its largest entry, which is exact
        and keeps the squares inside the float range; a non-finite B
        gives its own non-finite largest entry."""
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


# -- the checks ---------------------------------------------------------------

def _checks(r: Realization, tolerance_coefficient: float) -> list[CheckResult]:
    exact = r.field == RATIONAL
    k = r.step_k
    dim = r.space.dim
    c1, c3 = r.params.c1, r.params.c3
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
        asymptotic = block > 0 and scale is None
        if asymptotic:
            (value,) = _finite(name, residual())
        elif block > 0 and exact:
            value, tol = residual(), Fraction(0)
        elif block > 0:
            value, size = _finite(name, residual(), scale())
            (tol,) = _finite(name, tolerance_coefficient * dim * max(1.0, size),
                             what="the float tolerance",
                             why="coefficient x dim x scale is")
        checks.append(CheckResult(name, value, tol, block, tol is None or value <= tol,
                                  block == 0, substantive, exact and not asymptotic, asymptotic))

    # Every formula below reads the named products J+J-, J-J+ and the
    # powers of J3, and J+ or J- times J3 on either side.  The step kinds
    # form them from the banded operators and measure a row on the block
    # with ``block_max`` on the interior states; the spectral kinds read
    # the r x r blocks on the momentum window, with float scale factors,
    # and measure a row with ``max_entry``.
    jp, jm, j3 = r.jp, r.jm, r.j3
    window = None
    if r.kind in VILLAIN_KINDS:
        # a built J3 is the cached array itself; a loaded one round-trips exactly
        p = _momentum_entries(dim)
        if j3.entries is not p and not np.array_equal(j3.entries, p):
            raise ValueError(f"a {r.kind} realization needs J3 = P, the momentum quadrature;"
                             " this J3 differs")
        lo, hi = (_to_float(x, "the momentum window") for x in r.window)
        window = _Window(r, lo, hi)
        block, num, measure = window.rank, lambda c: _to_float(c, "a scale factor"), window.max_entry
        plus, minus, left, right = window.plus, window.minus, window.left, window.right
    else:
        states = interior_check_states(r)
        inside = np.zeros(dim, dtype=bool)
        inside[states] = True
        block, num, measure = len(states), lambda c: c, lambda op: op.block_max(inside)
        plus, minus, left, right = jp, jm, lambda op: j3 @ op, lambda op: op @ j3

    if block:
        # only rows measured on ``block`` read the Casimirs and the closure:
        # on an empty block they are all vacuous, and none of these is formed
        pm, mp, powers = ((window.pm, window.mp, window.powers) if window is not None
                          else (jp @ jm, jm @ jp, _powers(j3)))
        c_sym = _casimir(pm, mp, powers, r.params, num, symmetric=True)
        c_prod = _casimir(pm, mp, powers, r.params, num, symmetric=False)
        # (J+J- - J-J+) - (c1 J3 + c3 J3^3), and the three terms it cancels
        terms = (pm, mp, num(c1) * powers[0] + num(c3) * powers[2])
        closure = (terms[0] - terms[1]) - terms[2]
        # max |C| of the symmetric form, read by the float scales of three step rows
        c_size = None if exact or window is not None else float(measure(c_sym))

    def grading(op, sign: int):
        """[J3, op] - sign k op, zero when op shifts J3 by sign k."""
        return (left(op) - right(op)) - num(sign * k) * op

    def eigenvalue(name: str):
        """The Casimir eigenvalue, as a float outside the exact field."""
        lam = casimir_eigenvalue(r.params, r.j)
        return lam if exact else _to_float(lam, f"{name}: the Casimir eigenvalue")

    def deviation(name: str):
        """C - lambda 1 on the block, zero where the Casimir is the scalar
        lambda of the multiplet."""
        one = np.eye(block) if window is not None else identity_op(r.space, r.field)
        return measure(c_sym - eigenvalue(name) * one)

    def pairing() -> None:
        def residual():
            """max |J- - J+-dagger|.  A built J- is J+'s remembered adjoint,
            so where J+ is finite the difference is exactly 0.0 and is not
            formed; a loaded J- is compared entry by entry."""
            dagger = jp.adjoint()
            if dagger is jm and math.isfinite(jp.max_norm()):
                return 0.0
            return (jm - dagger).max_norm()

        judge("adjoint-pairing", dim, False, residual, lambda: float(jp.max_norm()))

    if window is not None:
        judge("ladder-closure-window", block, True, lambda: measure(closure), None)
        judge("grading-raise-window", block, True, lambda: measure(grading(plus, 1)), None)
        judge("grading-lower-window", block, True, lambda: measure(grading(minus, -1)), None)
        judge("casimir-deviation-window", block, True,
              lambda: deviation("casimir-deviation-window"), None)
        judge("casimir-two-forms-window", block, True, lambda: measure(c_sym - c_prod), None)
        pairing()
        return checks

    judge("ladder-closure", block, True, lambda: measure(closure),
          lambda: max(float(measure(t)) for t in terms))
    for label, op, sign in ((f"grading-raise-k{k}", jp, 1), (f"grading-lower-k{k}", jm, -1)):
        judge(label, dim, False, lambda op=op, sign=sign: grading(op, sign).max_norm(),
              lambda op=op: float(j3.max_norm()) * float(op.max_norm()))
    if r.kind == "hp":
        pairing()
    judge("casimir-two-forms", block, False, lambda: measure(c_sym - c_prod),
          lambda: c_size + float(measure(c_prod)))

    # the quartic Casimir is the step-1 invariant; a step-k realization
    # keeps C_k = 2 J-J+ + P_k(J3) with another polynomial P_k, not formed
    # here, so only step-1 realizations carry these two checks
    if k == 1:
        judge("casimir-commutes", block, True,
              lambda: max(measure(commutator(c_sym, op)) for op in (jp, jm, j3)),
              lambda: c_size * max(1.0, max(float(op.max_norm()) for op in (jp, jm, j3))))
        judge("casimir-scalar", block, True, lambda: deviation("casimir-scalar"),
              lambda: max(c_size, abs(eigenvalue("casimir-scalar"))))
    return checks


def verify_realization(r: Realization, tolerance_coefficient: float = 1e-12) -> VerificationReport:
    """Measure every identity ``r`` asserts.  A float check passes when its
    residual does not exceed tolerance_coefficient * dim * scale."""
    if r.kind not in STEP_KINDS + VILLAIN_KINDS:
        raise ValueError(f"unknown realization kind {r.kind!r}")
    # overflow past the float range is caught by judge, so numpy need not
    # warn of it
    with np.errstate(over="ignore", invalid="ignore"):
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
    out = []
    for c1, c3 in GRID_COUPLINGS:
        for j2 in range(1, 7):
            out.append((AlgebraParams.of(c1, c3), j2))
    return out


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


@dataclass(frozen=True)
class SweepEntry:
    c1: str
    c3: str
    j2: int
    token: str
    report: Optional[VerificationReport]
    error: Optional[str] = None

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


@dataclass(frozen=True)
class SweepReport:
    entries: tuple[SweepEntry, ...]
    n_failed: int = field(init=False)
    n_vacuous: int = field(init=False)
    outcome: str = field(init=False)

    def __post_init__(self) -> None:
        """The verdict, reached once: ``outcome`` is "FAIL" when an entry
        fails, else "vacuous" when every entry (and there is one) is
        vacuous, else "pass"."""
        outcomes = [e.outcome for e in self.entries]
        failed, vacuous = outcomes.count("FAIL"), outcomes.count("vacuous")
        outcome = ("FAIL" if failed
                   else "vacuous" if outcomes and vacuous == len(outcomes) else "pass")
        object.__setattr__(self, "n_failed", failed)
        object.__setattr__(self, "n_vacuous", vacuous)
        object.__setattr__(self, "outcome", outcome)

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
    tolerance_coefficient: float = 1e-12,
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


def report_to_json(report: Union[VerificationReport, SweepReport]) -> str:
    """The report as a JSON document: the bytes of
    ``json.dumps(..., indent=2)`` plus a newline, written directly by the
    report classes.  A non-finite residual or tolerance raises ValueError
    and is never written."""
    return report._json("") + "\n"
