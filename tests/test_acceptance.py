"""Acceptance gate.

Every numbered criterion runs at its stated tolerance and announces one
pass/fail line on the real stdout, so the verdicts survive pytest's
capture.  Tolerances here are contractual; do not loosen them to make a
red criterion green.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from higgsalg import (
    AlgebraParams,
    FockSpace,
    admissible_states,
    annihilation,
    build_realization,
    conjugate,
    default_grid,
    discriminant,
    g_constant,
    product_recurrence,
    root_side_admissible,
    s1_closed_form,
    s1_recurrence,
    sweep,
    unitarization_residual,
    verify_realization,
    villain_boson,
)
from higgsalg.fock import RATIONAL
from reference import (
    SU2_PARAMS,
    closed_form_k1,
    closed_form_k2,
    creation,
    detune,
    diagonal_operator,
    mul,
)


def _verdict(capsys, num: int, desc: str, ok: bool) -> None:
    line = f"criterion {num}: {desc}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"missing check {name}")


def test_criterion_1_square_root_sweep_closes(capsys):
    report = sweep(["hp:1", "hp:2"], default_grid(), dim=32)
    ok = report.n_failed == 0
    vacuous = set()
    for e in report.entries:
        r = e.report
        if r is None:
            ok = False
            continue
        if r.vacuous_only:
            vacuous.add((e.c1, e.c3, e.j2, e.token))
            continue
        k = e.token.split(":")[1]
        for name in ("ladder-closure", f"grading-raise-k{k}", f"grading-lower-k{k}"):
            c = _check(r, name)
            if not c.vacuous and not c.residual <= 1e-10:
                ok = False
    # the empty chains are known in advance and must be flagged, not
    # silently counted as passes
    expected_hp1 = {("-2", "0", j2, "hp:1") for j2 in range(1, 7)}
    expected_hp1 |= {("-2", "1", 1, "hp:1"), ("-2", "1", 2, "hp:1")}
    expected_hp1 |= {("3", "-1", 5, "hp:1"), ("3", "-1", 6, "hp:1")}
    ok = ok and {v for v in vacuous if v[3] == "hp:1"} == expected_hp1
    ok = ok and all((c1, c3, 1, "hp:2") in vacuous for c1, c3, j2 in
                    ((e.c1, e.c3, e.j2) for e in report.entries if e.j2 == 1))
    _verdict(capsys, 1, "square-root sweep closes on every admissible chain", ok)


def test_criterion_2_one_sided_sweep_exact(capsys):
    report = sweep(["dyson:1", "dyson:2"], default_grid(), dim=24)
    ok = report.n_failed == 0 and len(report.entries) == 84
    for e in report.entries:
        if e.report is None:
            ok = False
            continue
        for c in e.report.checks:
            if not c.exact:
                ok = False
            elif not c.vacuous and c.residual != 0:
                ok = False
    _verdict(capsys, 2, "one-sided sweep closes exactly over the rationals", ok)


def test_criterion_3_recurrence_matches_closed_forms(capsys):
    ok = True
    for params, j2 in default_grid():
        j = Fraction(j2, 2)
        seq1 = product_recurrence(params, j, 1, 40)
        seq2 = product_recurrence(params, j, 2, 40)
        for n in range(41):
            if seq1[n] != closed_form_k1(params, j, n):
                ok = False
            if seq2[n] != closed_form_k2(params, j, n):
                ok = False
    _verdict(capsys, 3, "weight recurrence reproduces the closed forms", ok)


def test_criterion_4_step1_invariant_scalar(capsys):
    ok = True
    for params, j2 in default_grid():
        j = Fraction(j2, 2)
        rep = verify_realization(build_realization(FockSpace(32), params, j, "hp", 1))
        for name in ("casimir-commutes", "casimir-scalar"):
            c = _check(rep, name)
            if not c.vacuous and not c.residual <= 1e-10:
                ok = False
        rep = verify_realization(build_realization(FockSpace(16), params, j, "dyson", 1))
        for name in ("casimir-commutes", "casimir-scalar"):
            c = _check(rep, name)
            if not c.exact or (not c.vacuous and c.residual != 0):
                ok = False
    _verdict(capsys, 4, "step-1 invariant commutes and is scalar on the chain", ok)


def test_criterion_5_linear_point_regression(capsys):
    ok = True
    for j2 in range(1, 7):
        j = Fraction(j2, 2)
        r = build_realization(FockSpace(16), SU2_PARAMS, j, "hp", 1)
        for n in range(j2):
            m = j - n - 1
            want = math.sqrt(float(j * (j + 1) - m * (m + 1)))
            if abs(r.jm.entries[n + 1, n] - want) > 1e-12:
                ok = False
        if np.abs(r.jm.entries[j2 + 1:, :]).max() != 0.0:
            ok = False

        sp = FockSpace(12)
        d = build_realization(sp, SU2_PARAMS, j, "dyson", 1)
        weight = diagonal_operator(sp, [Fraction(j2 - n) for n in range(12)], RATIONAL)
        if not np.array_equal(mul(weight, annihilation(sp, RATIONAL)).entries, d.jp.entries):
            ok = False
        if not np.array_equal(creation(sp, RATIONAL).entries, d.jm.entries):
            ok = False

        if abs(g_constant(SU2_PARAMS, j, form=1) - (float(j) + 0.5)) > 1e-12:
            ok = False
    _verdict(capsys, 5, "linear-coupling point reproduces angular momentum matrices", ok)


def test_criterion_6_diagonal_map_transport(capsys):
    ok = True
    compared_points = 0
    for params, j2 in default_grid():
        sp = FockSpace(12)
        j = Fraction(j2, 2)
        t = s1_recurrence(sp, params, j)
        if sum(t.mask) >= 3:
            compared_points += 1
            carried = conjugate(build_realization(sp, params, j, "dyson", 1, field="complex"), t)
            target = build_realization(sp, params, j, "hp", 1)
            for n in range(sp.dim - 1):
                if t.mask[n] and t.mask[n + 1] and target.admissible_mask[n]:
                    lo = abs(carried.jm.entries[n + 1, n] - target.jm.entries[n + 1, n])
                    hi = abs(carried.jp.entries[n, n + 1] - target.jp.entries[n, n + 1])
                    if lo > 1e-10 or hi > 1e-10:
                        ok = False
            residual, measured = unitarization_residual(
                build_realization(sp, params, j, "dyson", 1, field="complex"), t
            )
            if measured < 2 or residual > 1e-10:
                ok = False
        # the closed form is defined wherever the weight polynomial has
        # real roots
        if params.c3 != 0 and discriminant(params, j) >= 0:
            rec = s1_recurrence(FockSpace(8), params, j)
            clo = s1_closed_form(FockSpace(8), params, j)
            if clo.mask != rec.mask:
                ok = False
            for a, b in zip(clo.entries, rec.entries):
                if abs(a - b) > 1e-10 * max(1.0, abs(b)):
                    ok = False
    ok = ok and compared_points >= 10
    _verdict(capsys, 6, "diagonal map carries one-sided onto square-root", ok)


VILLAIN_POINTS = (((2, 0), 4), ((1, 1), 4), ((0, 2), 3))


def test_criterion_7_spectral_window_convergence(capsys, monkeypatch):
    ok = True
    for coup, j2 in VILLAIN_POINTS:
        params = AlgebraParams.of(*coup)
        j = Fraction(j2, 2)
        res = {}
        for dim in (32, 128):
            r = villain_boson(FockSpace(dim), params, j, form=1)
            if not np.array_equal(r.jm.entries, r.jp.adjoint().entries):
                ok = False
            rep = verify_realization(r)
            res[dim] = {
                name: _check(rep, name).residual
                for name in ("casimir-deviation-window", "grading-raise-window")
            }
        for name in ("casimir-deviation-window", "grading-raise-window"):
            if not res[128][name] <= 0.5 * res[32][name]:
                ok = False
        # control: a detuned scale constant must stall the invariant
        wrong = {}
        with monkeypatch.context() as patch:
            detune(patch, g_constant(params, j, form=1) * 1.05)
            for dim in (32, 128):
                r = villain_boson(FockSpace(dim), params, j, form=1)
                rep = verify_realization(r)
                wrong[dim] = _check(rep, "casimir-deviation-window").residual
        if not wrong[128] >= 0.8 * wrong[32]:
            ok = False
    _verdict(capsys, 7, "spectral realization converges on the momentum window", ok)


def test_criterion_8_root_rule_predicts_scan(capsys):
    rnd = random.Random(20260822)
    ok = True
    checked = 0
    while checked < 200:
        c1 = Fraction(rnd.randint(-8, 8), rnd.randint(1, 4))
        c3 = Fraction(rnd.randint(-8, 8), rnd.randint(1, 4))
        if c3 == 0:
            continue
        j2 = rnd.randint(1, 10)
        params = AlgebraParams(c1, c3)
        j = Fraction(j2, 2)
        if discriminant(params, j) < 0:
            continue
        members = set(admissible_states(params, j))
        for n in range(j2 + 1):
            predicted = root_side_admissible(params, j, n)
            if predicted is not None and predicted != (n in members):
                ok = False
        checked += 1
    _verdict(capsys, 8, "root-side rule predicts the admissibility scan", ok)


def test_criterion_9_step3_constructor(capsys):
    ok = True
    nonvacuous = 0
    for coup in ((2, 0), (1, 1), (2, 1), (0, 2)):
        params = AlgebraParams.of(*coup)
        r = build_realization(FockSpace(48), params, 3, "hp", 3)
        rep = verify_realization(r)
        closure = _check(rep, "ladder-closure")
        if closure.vacuous:
            continue
        nonvacuous += 1
        if not rep.passed:
            ok = False
        for name in ("ladder-closure", "grading-raise-k3", "grading-lower-k3"):
            if not _check(rep, name).residual <= 1e-9:
                ok = False
        d = build_realization(FockSpace(48), params, 3, "dyson", 3)
        drep = verify_realization(d)
        dclosure = _check(drep, "ladder-closure")
        if dclosure.vacuous or dclosure.residual != 0 or not drep.passed:
            ok = False
    ok = ok and nonvacuous >= 3
    _verdict(capsys, 9, "step-3 constructor closes where its weights admit a chain", ok)
