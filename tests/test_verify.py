"""Machine checks: residual bookkeeping, exit codes, grid sweeps."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from higgsalg import (
    AlgebraParams,
    FockSpace,
    Operator,
    Realization,
    SU2_PARAMS,
    SU11_PARAMS,
    VerifyConfig,
    build_realization,
    default_grid,
    dyson_quadratic,
    dyson_simple,
    exit_code,
    grid_from_json,
    hp_simple,
    interior_check_states,
    report_to_json,
    sweep,
    sweep_exit_code,
    verify_realization,
)


def test_exact_one_sided_realization_verifies_to_zero():
    r = dyson_simple(FockSpace(12), AlgebraParams.of(-2, 1), Fraction(5, 2))
    report = verify_realization(r)
    assert report.passed and not report.vacuous_only
    for c in report.checks:
        assert c.exact
        if not c.vacuous:
            assert c.residual == Fraction(0)


def test_float_square_root_realization_check_roster():
    report = verify_realization(hp_simple(FockSpace(10), SU2_PARAMS, 3))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "ladder-closure",
        "grading-raise-k1",
        "grading-lower-k1",
        "adjoint-pairing",
        "casimir-two-forms",
        "casimir-commutes",
        "casimir-scalar",
    ]
    closure = report.checks[0]
    assert not closure.vacuous and closure.residual < closure.tolerance


def test_one_sided_roster_has_no_adjoint_check():
    report = verify_realization(dyson_simple(FockSpace(8), SU2_PARAMS, 2))
    assert "adjoint-pairing" not in [c.name for c in report.checks]


def test_unbounded_chain_reports_vacuous():
    # (-2, 0) admits no finite square-root chain at all
    report = verify_realization(hp_simple(FockSpace(10), SU11_PARAMS, 2))
    assert report.passed
    assert report.vacuous_only
    assert exit_code(report) == 2


def test_tampered_matrix_element_fails():
    base = hp_simple(FockSpace(8), SU2_PARAMS, 2)
    entries = base.jm.entries.copy()
    entries[1, 0] += 0.5
    broken = Realization(
        kind=base.kind,
        step_k=base.step_k,
        j2=base.j2,
        params=base.params,
        jp=base.jp,
        jm=Operator(base.space, entries, field=base.field),
        j3=base.j3,
        admissible_mask=base.admissible_mask,
    )
    report = verify_realization(broken)
    assert not report.passed
    assert exit_code(report) == 1
    failed = [c.name for c in report.checks if not c.passed]
    assert "ladder-closure" in failed


def test_interior_states_respect_mask_and_edge():
    # (3, -1), 2j = 4: the chain is 1, 2 but state 1 sits on a broken bond
    r = hp_simple(FockSpace(10), AlgebraParams.of(3, -1), 2)
    assert interior_check_states(r) == [2]
    # full su2 chain: everything below the truncation buffer qualifies
    full = hp_simple(FockSpace(10), SU2_PARAMS, 3)
    assert interior_check_states(full) == [0, 1, 2, 3, 4, 5]


def test_spectral_checks_are_asymptotic():
    r = build_realization(FockSpace(32), AlgebraParams.of(1, 1), 2, "villain", 1)
    report = verify_realization(r)
    assert report.passed and not report.vacuous_only
    by_name = {c.name: c for c in report.checks}
    for name in (
        "ladder-closure-window",
        "grading-raise-window",
        "grading-lower-window",
        "casimir-deviation-window",
        "casimir-two-forms-window",
    ):
        c = by_name[name]
        assert c.asymptotic and c.tolerance is None and c.passed
    pair = by_name["adjoint-pairing"]
    assert not pair.asymptotic and pair.residual == 0.0


def test_report_json_shape():
    report = verify_realization(hp_simple(FockSpace(8), SU2_PARAMS, 2))
    doc = json.loads(report_to_json(report))
    assert set(doc) == {
        "kind", "k", "j2", "c1", "c3", "dim", "field",
        "checks", "passed", "vacuous_only",
    }
    assert doc["kind"] == "hp" and doc["k"] == 1 and doc["j2"] == 4
    for c in doc["checks"]:
        assert set(c) == {
            "name", "residual", "tolerance", "block",
            "passed", "vacuous", "substantive", "exact", "asymptotic",
        }


def test_report_text_has_verdict_line():
    good = verify_realization(dyson_simple(FockSpace(8), SU2_PARAMS, 2))
    assert good.to_text().strip().endswith("overall: pass")
    empty = verify_realization(hp_simple(FockSpace(10), SU11_PARAMS, 2))
    assert empty.to_text().strip().endswith("overall: vacuous")


def test_default_grid_size_and_membership():
    grid = default_grid()
    assert len(grid) == 42
    assert (AlgebraParams.of(2, 0), 1) in grid
    assert (AlgebraParams.of(0, 2), 6) in grid


def test_grid_from_json():
    rows = [
        {"c1": "1/2", "c3": "-1", "j2": 3},
        {"c1": "2", "c3": "0", "j2": 1},
    ]
    grid = grid_from_json(rows)
    assert grid == [
        (AlgebraParams.of(Fraction(1, 2), -1), 3),
        (AlgebraParams.of(2, 0), 1),
    ]


def test_sweep_counts_over_default_grid():
    report = sweep(["hp:1", "dyson:1"], default_grid(), dim=16)
    assert len(report.entries) == 84
    assert report.n_failed == 0
    assert report.n_vacuous == 10
    vacuous = {
        (e.c1, e.c3, e.j2, e.token)
        for e in report.entries
        if e.report is not None and e.report.vacuous_only
    }
    expected = {("-2", "0", j2, "hp:1") for j2 in range(1, 7)}
    expected |= {("-2", "1", 1, "hp:1"), ("-2", "1", 2, "hp:1")}
    expected |= {("3", "-1", 5, "hp:1"), ("3", "-1", 6, "hp:1")}
    assert vacuous == expected
    assert sweep_exit_code(report) == 0


def test_sweep_rejects_small_dim_once():
    with pytest.raises(ValueError, match="truncation dimension"):
        sweep(["hp:1", "dyson:1"], default_grid(), dim=1)


def test_sweep_records_build_failures_as_errors():
    grid = [(AlgebraParams.of(3, -1), 2)]
    report = sweep(["villain:2"], grid, dim=16)
    assert report.entries[0].error is not None
    assert report.n_failed == 1
    assert sweep_exit_code(report) == 1


def test_all_vacuous_sweep_exit():
    grid = [(SU11_PARAMS, j2) for j2 in (1, 2, 3)]
    report = sweep(["hp:1"], grid, dim=12)
    assert report.all_vacuous
    assert sweep_exit_code(report) == 2


def test_sweep_is_deterministic_across_thread_counts(monkeypatch):
    grid = [
        (AlgebraParams.of(2, 0), j2) for j2 in range(1, 5)
    ] + [
        (AlgebraParams.of(-2, 1), j2) for j2 in range(1, 5)
    ]
    monkeypatch.delenv("HIGGSALG_THREADS", raising=False)
    serial = report_to_json(sweep(["hp:1", "dyson:1"], grid, dim=12))
    monkeypatch.setenv("HIGGSALG_THREADS", "4")
    threaded = report_to_json(sweep(["hp:1", "dyson:1"], grid, dim=12))
    assert serial == threaded


@pytest.mark.parametrize("build", [dyson_simple, dyson_quadratic])
def test_exact_verify_never_builds_the_dense_view(monkeypatch, build):
    r = build(FockSpace(12), AlgebraParams.of(1, 1), Fraction(5, 2))

    def dense_view(self):
        raise AssertionError("the exact checks built a dense view")

    monkeypatch.setattr(Operator, "entries", property(dense_view))
    report = verify_realization(r)
    assert report.passed and report.field_name == "rational"


def test_tolerance_scales_with_coefficient():
    cfg = VerifyConfig(tolerance_coefficient=1e-6)
    report = verify_realization(hp_simple(FockSpace(8), SU2_PARAMS, 2), cfg)
    closure = report.checks[0]
    assert closure.tolerance >= 1e-6 * 8
