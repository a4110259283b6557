"""Machine checks: residual bookkeeping, exit codes, grid sweeps."""

from __future__ import annotations

import ast
import gc
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from higgsalg import (
    AlgebraParams,
    CheckResult,
    FockSpace,
    Realization,
    VerificationReport,
    build_realization,
    default_grid,
    exit_code,
    grid_from_json,
    interior_check_states,
    parse_kind_token,
    report_to_json,
    sweep,
    verify_realization,
)
from higgsalg import verify as verify_module
from higgsalg.cli import main
from higgsalg.fock import BandedOperator, DenseOperator
from higgsalg.realizations import _j3, _realization_text
from reference import SU2_PARAMS, SU11_PARAMS, verify_by_products


def test_exact_one_sided_realization_verifies_to_zero():
    r = build_realization(FockSpace(12), AlgebraParams.of(-2, 1), Fraction(5, 2), "dyson", 1)
    report = verify_realization(r)
    assert report.passed and not report.vacuous_only
    for c in report.checks:
        assert c.exact
        if not c.vacuous:
            assert c.residual == Fraction(0)


def test_float_square_root_realization_check_roster():
    report = verify_realization(build_realization(FockSpace(10), SU2_PARAMS, 3, "hp", 1))
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
    report = verify_realization(build_realization(FockSpace(8), SU2_PARAMS, 2, "dyson", 1))
    assert "adjoint-pairing" not in [c.name for c in report.checks]


def test_unbounded_chain_reports_vacuous():
    # (-2, 0) admits no finite square-root chain at all
    report = verify_realization(build_realization(FockSpace(10), SU11_PARAMS, 2, "hp", 1))
    assert report.passed
    assert report.vacuous_only
    assert exit_code(report) == 2


def test_tampered_matrix_element_fails():
    base = build_realization(FockSpace(8), SU2_PARAMS, 2, "hp", 1)
    # entry (1, 0) is the first of J-'s band at offset -1
    band = list(base.jm.diagonal(-1))
    band[0] += 0.5
    broken = Realization(
        kind=base.kind,
        step_k=base.step_k,
        j2=base.j2,
        params=base.params,
        jp=base.jp,
        jm=BandedOperator(base.space, base.field, {-1: band}),
        j3=base.j3,
        admissible_mask=base.admissible_mask,
    )
    report = verify_realization(broken)
    assert not report.passed
    assert exit_code(report) == 1
    failed = [c.name for c in report.checks if not c.passed]
    assert "ladder-closure" in failed


@pytest.mark.parametrize("kind", ["hp", "dyson"])
def test_a_step_realization_refuses_a_dense_operator(kind):
    base = build_realization(FockSpace(8), SU2_PARAMS, 2, kind, 1, field="complex")
    dense = DenseOperator(base.space, base.jm.entries.copy())
    with pytest.raises(ValueError, match="bands, not dense"):
        Realization(base.kind, base.step_k, base.j2, base.params, base.jp, dense, base.j3,
                    base.admissible_mask)


def test_interior_states_respect_mask_and_edge():
    # (3, -1), 2j = 4: the chain is 1, 2 but state 1 sits on a broken bond
    r = build_realization(FockSpace(10), AlgebraParams.of(3, -1), 2, "hp", 1)
    assert interior_check_states(r) == [2]
    # full su2 chain: everything below the truncation buffer qualifies
    full = build_realization(FockSpace(10), SU2_PARAMS, 3, "hp", 1)
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
    report = verify_realization(build_realization(FockSpace(8), SU2_PARAMS, 2, "hp", 1))
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


def _assert_indent_2_layout(report) -> None:
    """The written report is byte for byte what json.dumps(..., indent=2)
    gives its parsed value, and holds no NaN or Infinity."""
    text = report_to_json(report)

    def refuse(constant):
        raise AssertionError(f"a report holds {constant}")

    assert json.dumps(json.loads(text, parse_constant=refuse), indent=2) + "\n" == text


@pytest.mark.parametrize("field", ["rational", "complex"])
@pytest.mark.parametrize("token", ["hp:1", "hp:2", "hp:3", "dyson:1", "dyson:2", "dyson:3",
                                   "villain:1", "villain:2"])
def test_verify_report_json_is_the_indent_2_layout(token, field):
    """Every kind in both fields: exact Fraction residuals, float ones,
    and the asymptotic rows' null tolerances."""
    kind, num = parse_kind_token(token)
    dim, j = (24, Fraction(3, 2)) if kind == "villain" else (12, Fraction(5, 2))
    report = verify_realization(build_realization(FockSpace(dim), AlgebraParams.of(1, 1), j,
                                                  kind, num, field))
    checks = report.checks
    assert any(isinstance(c.residual, Fraction) for c in checks) == (report.field_name == "rational")
    assert any(c.asymptotic and c.tolerance is None for c in checks) == (kind == "villain")
    _assert_indent_2_layout(report)


def test_sweep_report_json_is_the_indent_2_layout():
    """Error entries, an all-vacuous report, and an empty grid."""
    errors = sweep(["villain:1", "hp:1"], default_grid(), dim=8)
    assert sum(e.error is not None for e in errors.entries) == 11
    vacuous = sweep(["hp:1"], [(SU11_PARAMS, j2) for j2 in (1, 2, 3)], dim=12)
    assert vacuous.outcome == "vacuous"
    empty = sweep(["hp:1"], grid_from_json([]))
    for report in (errors, vacuous, vacuous.entries[0].report, empty):
        _assert_indent_2_layout(report)


def test_sweep_entries_of_every_row_count_fill_one_template_each():
    """A sweep whose entries hold 7, 5 and 6 checks, with an error entry
    where villain:1 has no real coupling, is written in the indent-2
    layout, and the report templates it made are one per (pad, count)."""
    grid = grid_from_json([{"c1": "1", "c3": "1", "j2": 3}, {"c1": "-2", "c3": "0", "j2": 2}])
    report = sweep(["hp:1", "hp:2", "dyson:1", "villain:1"], grid, dim=24)
    assert [len(e.report.checks) if e.error is None else None for e in report.entries] == [
        7, 5, 6, 6, 7, 5, 6, None]
    verify_module._template.cache_clear()
    _assert_indent_2_layout(report)
    info = verify_module._template.cache_info()
    assert (info.currsize, info.misses) == (3, 3)
    for count in (5, 6, 7):  # an entry's report closes at indent 6
        assert verify_module._template(" " * 6, count).count("%") == 9 + 9 * count
    assert verify_module._template.cache_info().misses == 3


def test_report_json_refuses_a_non_finite_value():
    report = verify_realization(build_realization(FockSpace(8), SU2_PARAMS, 2, "hp", 1))
    c = report.checks[0]
    bad = CheckResult(c.name, float("inf"), c.tolerance, c.block_size, c.passed, c.vacuous,
                      c.substantive, c.exact, c.asymptotic)
    with pytest.raises(ValueError, match="not finite"):
        report_to_json(VerificationReport(report.kind, report.step_k, report.j2, report.c1,
                                          report.c3, report.dim, report.field_name, (bad,)))


def test_report_text_has_verdict_line():
    good = verify_realization(build_realization(FockSpace(8), SU2_PARAMS, 2, "dyson", 1))
    assert good.to_text().strip().endswith("overall: pass")
    empty = verify_realization(build_realization(FockSpace(10), SU11_PARAMS, 2, "hp", 1))
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
    assert exit_code(report) == 0


def test_sweep_rejects_small_dim_once():
    with pytest.raises(ValueError, match="truncation dimension"):
        sweep(["hp:1", "dyson:1"], default_grid(), dim=1)


def test_sweep_records_build_failures_as_errors():
    grid = [(AlgebraParams.of(3, -1), 2)]
    report = sweep(["villain:2"], grid, dim=16)
    assert report.entries[0].error is not None
    assert report.n_failed == 1
    assert exit_code(report) == 1


def test_all_vacuous_sweep_exit():
    grid = [(SU11_PARAMS, j2) for j2 in (1, 2, 3)]
    report = sweep(["hp:1"], grid, dim=12)
    assert report.outcome == "vacuous"
    assert exit_code(report) == 2


def test_sweep_is_deterministic_across_thread_counts(monkeypatch):
    """``HIGGSALG_THREADS`` is ignored: a sweep reports the same JSON with
    it unset and set."""
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


@pytest.mark.parametrize("kind,field,source", [
    ("villain", "complex", "_Window"), ("hp", "complex", "_FloatSteps"),
    ("dyson", "rational", "_ExactSteps"),
], ids=["villain", "hp", "dyson-rational"])
def test_a_source_of_rows_is_freed_when_its_verify_returns(kind, field, source):
    """No row holds its source in a reference cycle, so a source and the
    blocks it formed (N x r arrays for the momentum window) are freed as
    soon as the last reference goes, not at the cycle collector's next
    pass."""
    r = build_realization(FockSpace(32), AlgebraParams.of(1, 1), 2, kind, 1, field)
    made = getattr(verify_module, source)(r)
    assert made.block and len(made.rows) > 5
    gone = weakref.ref(made)
    gc.disable()
    try:
        del made
        assert gone() is None
    finally:
        gc.enable()


def test_every_row_is_judged_at_one_call_site():
    """``_checks`` is one loop over its source's rows: ``_judge`` has one
    call site in the module, and ``_checks`` defines no function or
    lambda of its own, so nothing is rebuilt per verify."""
    tree = ast.parse(Path(verify_module.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_judge"]
    assert len(calls) == 1
    (checks,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_checks"]
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    assert not [node for node in ast.walk(checks)
                if node is not checks and isinstance(node, nested)]


@pytest.mark.parametrize("kind,k,field", [
    ("dyson", 1, "rational"), ("dyson", 2, "rational"),
    ("hp", 1, "complex"), ("hp", 2, "complex"), ("hp", 3, "complex"),
    ("dyson", 1, "complex"), ("dyson", 2, "complex"), ("dyson", 3, "complex"),
], ids=["dyson-1", "dyson-2", "hp-1", "hp-2", "hp-3",
        "dyson-complex-1", "dyson-complex-2", "dyson-complex-3"])
def test_exact_verify_never_builds_the_dense_view(monkeypatch, kind, k, field):
    """The step-kind checks run on the bands alone, in both fields."""
    r = build_realization(FockSpace(12), AlgebraParams.of(1, 1), Fraction(5, 2), kind, k, field)

    def dense_view(self):
        raise AssertionError("the step-kind checks built a dense view")

    monkeypatch.setattr(BandedOperator, "entries", property(dense_view))
    report = verify_realization(r)
    assert report.passed and report.field_name == field


def _count_calls(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to record each call in the returned list."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv,code,formed", [
    (["--c1=-2", "--c3", "0", "--j2", "4", "--dim", "32", "--kind", "hp:1"], 2, 0),
    (["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "32", "--kind", "hp:1"], 0, 1),
    # no row reads c1, so a c1 past the float range is never converted
    (["--c1=-1e400", "--c3", "0", "--j2", "4", "--dim", "12", "--kind", "hp:1"], 2, 0),
    (["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "3", "--kind", "dyson:3"], 2, 0),
    (["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12", "--kind", "dyson:1"], 0, 1),
], ids=["vacuous", "measured", "vacuous-past-the-float-range", "exact-vacuous", "exact-measured"])
def test_an_empty_block_forms_no_casimir(monkeypatch, capsys, argv, code, formed):
    """Nothing is measured on an empty block: the block's vectors, the
    Casimirs and the closure among them, are formed only when a row reads
    them, in either field."""
    calls = [_count_calls(monkeypatch, rows, "_form")
             for rows in (verify_module._FloatSteps, verify_module._ExactSteps)]
    assert main(["verify", *argv]) == code
    assert sum(map(len, calls)) == formed


_STEP_POINTS = [(kind, k, field) for kind in ("hp", "dyson") for k in (1, 2, 3)
                for field in ("rational", "complex") if kind == "dyson" or field == "complex"]


@pytest.mark.parametrize("kind,k,field", _STEP_POINTS,
                         ids=[f"{kind}-{k}-{field}" for kind, k, field in _STEP_POINTS])
def test_a_step_verify_forms_no_operator_product(monkeypatch, kind, k, field):
    """A built step realization is verified from its three band vectors: no
    dense N x N array is formed and no diagonal is read, which would make
    one Fraction per state in the exact field."""
    r = build_realization(FockSpace(12), AlgebraParams.of(1, 1), Fraction(5, 2), kind, k, field)

    def refused(*args, **kwargs):
        raise AssertionError("a step verify formed a dense matrix or read a diagonal")

    monkeypatch.setattr(BandedOperator, "entries", property(refused))
    monkeypatch.setattr(BandedOperator, "diagonal", refused)
    report = verify_realization(r)
    assert report.passed and not report.checks[0].vacuous


def _outcome(verify, r) -> str:
    """The report's JSON, or the one line of the ValueError it raised."""
    try:
        return report_to_json(verify(r))
    except ValueError as err:
        return f"error: {err}"


_COUPLINGS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(kind=st.sampled_from(["hp", "dyson"]), k=st.integers(1, 3),
       field=st.sampled_from(["rational", "complex"]), dim=st.integers(2, 40),
       c1=_COUPLINGS, c3=_COUPLINGS,
       j2=st.one_of(st.integers(0, 12), st.sampled_from([10 ** 40, 10 ** 77, 10 ** 160])),
       loaded=st.booleans())
# a step k >= dim: J+ and J- have no band at all
@example(kind="dyson", k=3, field="rational", dim=3, c1=Fraction(1), c3=Fraction(1), j2=5,
         loaded=False)
@example(kind="dyson", k=3, field="complex", dim=2, c1=Fraction(1), c3=Fraction(1), j2=5,
         loaded=True)
# no admissible interior state: every block row is vacuous
@example(kind="hp", k=1, field="complex", dim=32, c1=Fraction(-2), c3=Fraction(0), j2=4,
         loaded=True)
@settings(max_examples=150, deadline=None)
def test_step_rows_match_the_product_reference(kind, k, field, dim, c1, c3, j2, loaded):
    """The report of every step realization, built or read back from its
    file, is the same bytes as the one formed from operator products, or
    the same error."""
    try:
        r = build_realization(FockSpace(dim), AlgebraParams(c1, c3), Fraction(j2, 2), kind, k,
                              field)
    except ValueError:
        return
    if loaded:
        r = Realization.from_json_dict(json.loads(_realization_text(r)))
    assert _outcome(verify_realization, r) == _outcome(verify_by_products, r)


def test_tolerance_scales_with_coefficient():
    report = verify_realization(build_realization(FockSpace(8), SU2_PARAMS, 2, "hp", 1), 1e-6)
    closure = report.checks[0]
    assert closure.tolerance >= 1e-6 * 8


def _sweep_alone(tokens, grid, dim) -> list[str]:
    """Each entry of ``sweep(tokens, grid, dim)`` built and verified on
    its own, grid point by grid point and token by token, with no J3 left
    from an earlier build: its report's JSON or its error.  A bad token
    raises ValueError as ``parse_kind_token`` words it, at the first point."""
    out = []
    for params, j2 in grid:
        for token in tokens:
            kind, num = parse_kind_token(token)
            _j3.cache_clear()
            try:
                r = build_realization(FockSpace(dim), params, Fraction(j2, 2), kind, num)
            except ValueError as err:
                out.append(f"error: {err}")
                continue
            out.append(_outcome(verify_realization, r))
    return out


_STEP_TOKENS = [f"{kind}:{k}" for kind in ("hp", "dyson") for k in (1, 2, 3)]


@given(tokens=st.lists(st.sampled_from(_STEP_TOKENS + ["hp:0", "borel:1"]), min_size=1,
                       max_size=4),
       points=st.lists(st.tuples(_COUPLINGS, _COUPLINGS,
                                 st.one_of(st.integers(0, 14), st.just(10 ** 160))),
                       max_size=3),
       dim=st.integers(2, 128))
# a bad token with an empty grid builds nothing and raises nothing
@example(tokens=["hp:1", "borel:1"], points=[], dim=8)
# with a point, it is refused
@example(tokens=["hp:1", "hp:0"], points=[(Fraction(1), Fraction(1), 4)], dim=8)
# both the hp weight and J3 leave the float range: the weight is named
@example(tokens=["hp:1", "dyson:1", "hp:2"], points=[(Fraction(1), Fraction(1), 10 ** 320)],
         dim=16)
@settings(max_examples=60, deadline=None)
def test_a_sweep_entry_is_its_point_verified_alone(tokens, points, dim):
    """Each sweep entry has the report bytes, or the error, of its point
    built and verified alone with an empty J3 cache; so sharing one J3
    per (dim, 2j, field) and parsing each token once change no entry, and
    a bad token is refused, or not, as it was."""
    grid = [(AlgebraParams(c1, c3), j2) for c1, c3, j2 in points]
    try:
        want = _sweep_alone(tokens, grid, dim)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            sweep(tokens, grid, dim)
        assert str(got.value) == str(err)
        return
    entries = sweep(tokens, grid, dim).entries
    assert [f"error: {e.error}" if e.error is not None else report_to_json(e.report)
            for e in entries] == want


def test_a_step_build_names_its_weight_before_j3():
    """At a j beyond the float range both a float weight and J3 = j - nhat
    leave it; J3 is built after J+ and J-, so the weight is named."""
    point = (AlgebraParams.of(1, 1), 10 ** 320)
    (entry,) = sweep(["hp:1"], [point], 16).entries
    assert entry.error == "an hp weight is beyond the float range"
    with pytest.raises(ValueError, match="^a diagonal value is beyond the float range$"):
        build_realization(FockSpace(16), point[0], Fraction(10 ** 320, 2), "dyson", 1, "complex")
