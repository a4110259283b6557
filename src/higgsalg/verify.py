"""Residual measurement and reporting for realized algebras.

Every identity a realization asserts is turned into a named check with a
measured residual, a tolerance, and the number of states it was measured
on.  A check measured on an empty admissible set is reported as vacuous,
never as silently passing: a sweep whose only outcome is vacuous checks
gets its own exit status.

Exact-field realizations are held to residual zero.  Float realizations
get tolerance coefficient * dimension * scale, where scale is the size
of the terms being cancelled.  Spectral (villain) realizations are
different: their identities hold only in the infinite-dimensional limit,
so their windowed residuals are reported as asymptotic measurements and
judged by convergence across dimensions, not by a fixed tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .algebra import AlgebraParams, casimir_eigenvalue, casimir_operator
from .fock import RATIONAL, FockSpace, Operator, commutator, identity_op
from .realizations import (
    Realization,
    STEP_KINDS,
    VILLAIN_KINDS,
    _is_int,
    build_realization,
    momentum_window_projector,
)

Residual = Union[float, Fraction, None]


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerance policy: float checks pass when the residual does not
    exceed tolerance_coefficient * dim * scale."""

    tolerance_coefficient: float = 1e-12


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

    def to_json_dict(self) -> dict:
        def enc(x: Residual):
            if x is None:
                return None
            if isinstance(x, Fraction):
                return str(x)
            return float(x)

        return {
            "name": self.name,
            "residual": enc(self.residual),
            "tolerance": enc(self.tolerance),
            "block": self.block_size,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "substantive": self.substantive,
            "exact": self.exact,
            "asymptotic": self.asymptotic,
        }


def _passed_check(
    name: str,
    residual: Residual,
    tolerance: Residual,
    block: int,
    substantive: bool,
    exact: bool,
) -> CheckResult:
    ok = (residual == 0) if exact else (float(residual) <= float(tolerance))
    return CheckResult(name, residual, tolerance, block, ok, False, substantive, exact)


def _vacuous_check(name: str, substantive: bool, exact: bool) -> CheckResult:
    return CheckResult(name, None, None, 0, True, True, substantive, exact)


def _asymptotic_check(name: str, residual: float, block: int) -> CheckResult:
    return CheckResult(
        name, residual, None, block, True, False, True, False, asymptotic=True
    )


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def vacuous_only(self) -> bool:
        substantive = [c for c in self.checks if c.substantive]
        if not self.passed or not substantive:
            return False
        return all(c.vacuous for c in substantive)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.step_k,
            "j2": self.j2,
            "c1": self.c1,
            "c3": self.c3,
            "dim": self.dim,
            "field": self.field_name,
            "checks": [c.to_json_dict() for c in self.checks],
            "passed": self.passed,
            "vacuous_only": self.vacuous_only,
        }

    def to_text(self) -> str:
        head = (
            f"kind={self.kind} k={self.step_k} c1={self.c1} c3={self.c3} "
            f"j2={self.j2} dim={self.dim} field={self.field_name}"
        )
        lines = [head, f"{'check':<30} {'residual':<24} {'tolerance':<24} {'block':<6} status"]
        for c in self.checks:
            if c.vacuous:
                res, tol, status = "-", "-", "vacuous"
            elif c.asymptotic:
                res = str(c.residual) if isinstance(c.residual, Fraction) else repr(float(c.residual))
                tol, status = "-", "measured"
            else:
                res = str(c.residual) if isinstance(c.residual, Fraction) else repr(float(c.residual))
                tol = str(c.tolerance) if isinstance(c.tolerance, Fraction) else repr(float(c.tolerance))
                status = "ok" if c.passed else "FAIL"
            lines.append(f"{c.name:<30} {res:<24} {tol:<24} {c.block_size:<6} {status}")
        if not self.passed:
            tail = "overall: FAIL"
        elif self.vacuous_only:
            tail = "overall: vacuous"
        else:
            tail = "overall: pass"
        lines.append(tail)
        return "\n".join(lines) + "\n"


def exit_code(report: VerificationReport) -> int:
    if not report.passed:
        return 1
    if report.vacuous_only:
        return 2
    return 0


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


def _tol(cfg: VerifyConfig, dim: int, scale: float) -> float:
    return cfg.tolerance_coefficient * dim * max(1.0, scale)


# -- step-kind checks ---------------------------------------------------------

def _step_checks(r: Realization, cfg: VerifyConfig) -> list[CheckResult]:
    exact = r.field == RATIONAL
    k = r.step_k
    dim = r.space.dim
    c1, c3 = r.params.c1, r.params.c3
    states = interior_check_states(r)
    checks: list[CheckResult] = []

    def judge(name, residual, block, substantive, scale) -> None:
        """Exact residuals must be zero; float ones are held to the
        tolerance at ``scale()``, which only the float field evaluates."""
        if exact:
            checks.append(_passed_check(name, residual, Fraction(0), block, substantive, True))
        else:
            tol = _tol(cfg, dim, scale())
            checks.append(_passed_check(name, float(residual), tol, block, substantive, False))

    jp, jm, j3 = r.jp, r.jm, r.j3
    j3cube = j3 @ j3 @ j3
    rhs = c1 * j3 + c3 * j3cube
    up_down = jp @ jm
    down_up = jm @ jp
    closure = (up_down - down_up) - rhs

    if not states:
        checks.append(_vacuous_check("ladder-closure", substantive=True, exact=exact))
    else:
        closure_diag = closure.diagonal()

        def closure_scale() -> float:
            diags = (up_down.diagonal(), down_up.diagonal(), rhs.diagonal())
            return max(float(max(abs(d[n]) for d in diags)) for n in states)

        residual = max(abs(closure_diag[n]) for n in states)
        judge("ladder-closure", residual, len(states), True, closure_scale)

    for label, op, sign in ((f"grading-raise-k{k}", jp, 1), (f"grading-lower-k{k}", jm, -1)):
        defect = commutator(j3, op) - (sign * k) * op
        judge(label, defect.max_norm(), dim, False,
              lambda op=op: float(j3.max_norm()) * float(op.max_norm()))

    if r.kind == "hp":
        judge("adjoint-pairing", (jm - jp.adjoint()).max_norm(), dim, False,
              lambda: float(jp.max_norm()))

    c_sym = casimir_operator(jp, jm, j3, r.params, symmetric=True)
    c_prod = casimir_operator(jp, jm, j3, r.params, symmetric=False)

    if not states:
        checks.append(_vacuous_check("casimir-two-forms", substantive=False, exact=exact))
    else:
        judge("casimir-two-forms", (c_sym - c_prod).block_max(states), len(states), False,
              lambda: float(c_sym.block_max(states)) + float(c_prod.block_max(states)))

    # invariance of the quartic Casimir is a single-step statement; the
    # step-2 form built from these generators is provably not scalar, so
    # only step-1 realizations carry these two checks
    if k == 1:
        lam = casimir_eigenvalue(r.params, r.j)
        if not states:
            checks.append(_vacuous_check("casimir-commutes", substantive=True, exact=exact))
            checks.append(_vacuous_check("casimir-scalar", substantive=True, exact=exact))
        else:
            def cscale() -> float:
                return float(c_sym.block_max(states))

            worst = max(commutator(c_sym, op).block_max(states) for op in (jp, jm, j3))
            judge("casimir-commutes", worst, len(states), True,
                  lambda: cscale() * max(1.0, max(float(op.max_norm()) for op in (jp, jm, j3))))
            c_diag = c_sym.diagonal()
            dev = max(abs(c_diag[n] - lam) for n in states)
            judge("casimir-scalar", dev, len(states), True,
                  lambda: max(cscale(), abs(float(lam))))

    return checks


# -- spectral-kind checks -----------------------------------------------------

def _villain_checks(r: Realization, cfg: VerifyConfig) -> list[CheckResult]:
    dim = r.space.dim
    c1, c3 = r.params.c1, r.params.c3
    lo, hi = r.window
    q = momentum_window_projector(r.space, float(lo), float(hi))
    rank = int(round(float(np.trace(q).real)))

    def windowed(op: Operator) -> float:
        m = q @ op._promote().entries @ q
        return float(np.abs(m).max()) if m.size else 0.0

    jp, jm, j3 = r.jp, r.jm, r.j3
    j3cube = j3 @ j3 @ j3
    closure = commutator(jp, jm) - (c1 * j3 + c3 * j3cube)
    c_sym = casimir_operator(jp, jm, j3, r.params, symmetric=True)
    c_prod = casimir_operator(jp, jm, j3, r.params, symmetric=False)
    lam = float(casimir_eigenvalue(r.params, r.j))
    lam_dev = c_sym - lam * identity_op(c_sym.space, c_sym.field)

    checks = [
        _asymptotic_check("ladder-closure-window", windowed(closure), rank),
        _asymptotic_check(
            "grading-raise-window", windowed(commutator(j3, jp) - 1 * jp), rank
        ),
        _asymptotic_check(
            "grading-lower-window", windowed(commutator(j3, jm) - (-1) * jm), rank
        ),
        _asymptotic_check("casimir-deviation-window", windowed(lam_dev), rank),
        _asymptotic_check("casimir-two-forms-window", windowed(c_sym - c_prod), rank),
    ]
    pair = float((jm - jp.adjoint()).max_norm())
    checks.append(
        _passed_check(
            "adjoint-pairing",
            pair,
            _tol(cfg, dim, float(jp.max_norm())),
            dim,
            substantive=False,
            exact=False,
        )
    )
    return checks


def verify_realization(r: Realization, cfg: Optional[VerifyConfig] = None) -> VerificationReport:
    cfg = cfg or VerifyConfig()
    if r.kind in VILLAIN_KINDS:
        checks = _villain_checks(r, cfg)
    elif r.kind in STEP_KINDS:
        checks = _step_checks(r, cfg)
    else:
        raise ValueError(f"unknown realization kind {r.kind!r}")
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
    ValueError on a j2 that is not an integer >= 0 (a float, a bool or a
    string included)."""
    out = []
    for row in data:
        j2 = row["j2"]
        if not _is_int(j2) or j2 < 0:
            raise ValueError(f"grid j2 must be an integer >= 0, got {j2!r}")
        out.append((AlgebraParams.of(row["c1"], row["c3"]), j2))
    return out


@dataclass(frozen=True)
class SweepEntry:
    c1: str
    c3: str
    j2: int
    token: str
    report: Optional[VerificationReport]
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {"c1": self.c1, "c3": self.c3, "j2": self.j2, "realization": self.token}
        if self.error is not None:
            out["error"] = self.error
        else:
            out["report"] = self.report.to_json_dict()
        return out


@dataclass(frozen=True)
class SweepReport:
    entries: tuple[SweepEntry, ...]

    @property
    def n_failed(self) -> int:
        return sum(
            1
            for e in self.entries
            if e.error is not None or (e.report is not None and not e.report.passed)
        )

    @property
    def n_vacuous(self) -> int:
        return sum(1 for e in self.entries if e.report is not None and e.report.vacuous_only)

    @property
    def all_vacuous(self) -> bool:
        return self.n_failed == 0 and self.n_vacuous == len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "entries": [e.to_json_dict() for e in self.entries],
            "total": len(self.entries),
            "failed": self.n_failed,
            "vacuous": self.n_vacuous,
        }

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            tag = f"c1={e.c1} c3={e.c3} j2={e.j2} {e.token}"
            if e.error is not None:
                lines.append(f"{tag:<40} error: {e.error}")
            elif not e.report.passed:
                lines.append(f"{tag:<40} FAIL")
            elif e.report.vacuous_only:
                lines.append(f"{tag:<40} vacuous")
            else:
                lines.append(f"{tag:<40} pass")
        lines.append(
            f"total={len(self.entries)} failed={self.n_failed} vacuous={self.n_vacuous}"
        )
        return "\n".join(lines) + "\n"


def sweep_exit_code(report: SweepReport) -> int:
    if report.n_failed:
        return 1
    if report.all_vacuous and report.entries:
        return 2
    return 0


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


def _sweep_one(
    params: AlgebraParams, j2: int, token: str, space: FockSpace, cfg: VerifyConfig
) -> SweepEntry:
    kind, num = parse_kind_token(token)
    try:
        r = build_realization(space, params, Fraction(j2, 2), kind, num)
        report = verify_realization(r, cfg)
        return SweepEntry(str(params.c1), str(params.c3), j2, token, report)
    except ValueError as err:
        return SweepEntry(str(params.c1), str(params.c3), j2, token, None, error=str(err))


def sweep(
    tokens: Sequence[str],
    grid: Sequence[tuple[AlgebraParams, int]],
    dim: int = 32,
    cfg: Optional[VerifyConfig] = None,
) -> SweepReport:
    """Verify every requested realization at every grid point, in order:
    the report is the cross product grid x tokens.

    Entries run one after another in this thread; the work is pure Python
    and holds the interpreter lock, so worker threads measured no gain.
    A truncation dimension below 2 raises ValueError once, before any
    entry is built.
    """
    cfg = cfg or VerifyConfig()
    space = FockSpace(dim)
    entries = [
        _sweep_one(params, j2, token, space, cfg)
        for params, j2 in grid
        for token in tokens
    ]
    return SweepReport(tuple(entries))


def report_to_json(report: Union[VerificationReport, SweepReport]) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=False) + "\n"
