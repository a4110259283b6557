"""The value classes: immutable, built by position or keyword, with the
equality, hashing, text and derived verdicts the rest of the package
reads."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from higgsalg import (
    AlgebraParams,
    CheckResult,
    FockSpace,
    Realization,
    SweepEntry,
    SweepReport,
    VerificationReport,
    admissible_chain,
    build_realization,
    representation_table,
    s1_recurrence,
    sweep,
    verify_realization,
)
from higgsalg.similarity import DiagonalTransform


def _instances() -> dict:
    """One instance of each value class, with its field names."""
    params = AlgebraParams.of(1, 2)
    space = FockSpace(8)
    r = build_realization(space, params, Fraction(5, 2), "dyson", 1)
    report = verify_realization(r)
    table = representation_table(params, 2)
    swept = sweep(["hp:1"], [(params, 2)], dim=8)
    return {
        "FockSpace": (space, ("dim",)),
        "AlgebraParams": (params, ("c1", "c3")),
        "ChainStructure": (admissible_chain(params, 2), ("main", "segments")),
        "TableRow": (table.rows[0], ("n", "j3", "plus", "minus", "admissible")),
        "RepresentationTable": (table, ("params", "j", "rows")),
        "Realization": (r, ("kind", "step_k", "j2", "params", "jp", "jm", "j3",
                            "admissible_mask")),
        "DiagonalTransform": (s1_recurrence(space, params, 2), ("q0", "entries", "mask", "q0_odd")),
        "CheckResult": (report.checks[0], ("name", "residual", "tolerance", "block_size", "passed",
                                           "vacuous", "substantive", "exact", "asymptotic")),
        "VerificationReport": (report, ("kind", "step_k", "j2", "c1", "c3", "dim", "field_name",
                                        "checks", "passed", "outcome", "vacuous_only")),
        "SweepEntry": (swept.entries[0], ("c1", "c3", "j2", "token", "report", "error")),
        "SweepReport": (swept, ("entries", "n_failed", "n_vacuous", "outcome")),
    }


INSTANCES = _instances()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_no_attribute_can_be_written(name):
    value, fields = INSTANCES[name]
    assert type(value).__name__ == name
    for attr in (*fields, "extra"):
        before = getattr(value, attr, None)
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert getattr(value, attr, None) is before


def _twins(value) -> tuple:
    """A copy, a deep copy and a pickled copy of ``value``."""
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_copy_is_a_sealed_value(name):
    value, fields = INSTANCES[name]
    for i, twin in enumerate(_twins(value)):
        assert type(twin) is type(value)
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], 0)
        if name == "Realization" and i:
            # a deep or pickled twin holds new operators, which compare by identity
            assert twin != value and twin == Realization(*twin)
        else:
            assert twin == value and hash(twin) == hash(value)
    twin = copy.copy(value)
    assert all(getattr(twin, attr) is getattr(value, attr) for attr in fields)


def test_algebra_params_are_values():
    a, b = AlgebraParams.of(1, 2), AlgebraParams(Fraction(1), Fraction(2))
    assert a == b and hash(a) == hash(b)
    assert a != AlgebraParams.of(1, 3)
    assert str(AlgebraParams.of(1, 2)) == "(c1=1, c3=2)"
    assert str(AlgebraParams.of("-2/3", 0)) == "(c1=-2/3, c3=0)"
    assert AlgebraParams(c1=Fraction(1), c3=Fraction(2)) == a


def test_fock_spaces_are_values():
    assert FockSpace(3) == FockSpace(dim=3) and hash(FockSpace(3)) == hash(FockSpace(3))
    assert FockSpace(3) != FockSpace(4)
    for dim, got in ((1, "1"), (True, "true"), ("3", '"3"'), (2.5, "2.5")):
        with pytest.raises(ValueError) as err:
            FockSpace(dim)
        assert str(err.value) == f"truncation dimension must be an integer >= 2, got {got}"


def test_a_realization_equals_only_itself():
    r = INSTANCES["Realization"][0]
    again = build_realization(r.space, r.params, r.j, r.kind, r.step_k)
    assert r == r and r != again


def test_a_realization_rebuilt_from_its_fields_equals_it():
    r, fields = INSTANCES["Realization"]
    again = Realization(**{name: getattr(r, name) for name in fields})
    assert again == r and hash(again) == hash(r) and again == Realization(*r)


def _check(passed: bool, vacuous: bool, substantive: bool) -> CheckResult:
    return CheckResult("row", None, None, 0 if vacuous else 1, passed, vacuous, substantive, True)


def _report(*checks: CheckResult) -> VerificationReport:
    return VerificationReport(kind="dyson", step_k=1, j2=5, c1="1", c3="1", dim=8,
                              field_name="rational", checks=checks)


def test_a_verdict_survives_every_copy():
    checks = (_check(True, True, True), _check(False, False, True))
    for report in (_report(*checks), _report(checks[0])):
        for twin in _twins(report):
            assert (twin.passed, twin.outcome, twin.vacuous_only) == (
                report.passed, report.outcome, report.vacuous_only)
        entries = (SweepEntry("1", "1", 2, "hp:1", report), SweepEntry("1", "1", 2, "hp:1", None,
                                                                        "refused"))
        for swept in (SweepReport(entries), SweepReport(entries[:1])):
            for twin in _twins(swept):
                assert twin == swept and (twin.n_failed, twin.n_vacuous, twin.outcome) == (
                    swept.n_failed, swept.n_vacuous, swept.outcome)


@pytest.mark.parametrize("checks,outcome", [
    ((), "pass"),
    ((_check(True, False, True),), "pass"),
    ((_check(True, False, True), _check(False, False, False)), "FAIL"),
    ((_check(False, True, True),), "FAIL"),
    ((_check(True, True, True), _check(True, True, True)), "vacuous"),
    ((_check(True, True, True), _check(True, False, False)), "vacuous"),
    ((_check(True, True, True), _check(True, False, True)), "pass"),
    ((_check(True, True, False),), "pass"),
])
def test_a_report_reaches_its_verdict_once(checks, outcome):
    report = _report(*checks)
    assert report.checks == checks
    assert report.outcome == outcome
    assert report.passed == (outcome != "FAIL")
    assert report.vacuous_only == (outcome == "vacuous")


def test_a_sweep_counts_its_entries():
    ok, vacuous = _report(_check(True, False, True)), _report(_check(True, True, True))
    failed = _report(_check(False, False, True))

    def entry(report, error=None):
        return SweepEntry("1", "1", 2, "hp:1", report, error)

    assert SweepEntry(c1="1", c3="1", j2=2, token="hp:1", report=ok).error is None
    assert entry(None, "no such point").outcome == "FAIL"
    for entries, counts in (((), (0, 0, "pass")),
                            ((entry(ok), entry(vacuous)), (0, 1, "pass")),
                            ((entry(vacuous), entry(vacuous)), (0, 2, "vacuous")),
                            ((entry(vacuous), entry(failed)), (1, 1, "FAIL")),
                            ((entry(ok), entry(None, "refused")), (1, 0, "FAIL"))):
        swept = SweepReport(entries)
        assert swept.entries == entries
        assert (swept.n_failed, swept.n_vacuous, swept.outcome) == counts


def test_keyword_construction():
    t = DiagonalTransform(q0=1.0, entries=(1.0, 2.0), mask=(True, True))
    assert (t.q0, t.entries, t.mask, t.q0_odd, t.dim) == (1.0, (1.0, 2.0), (True, True), None, 2)
    assert DiagonalTransform(1.0, (1.0,), (True,), 3.0).q0_odd == 3.0
    same = DiagonalTransform(1.0, (1.0, 2.0), (True, True))
    assert t == same and hash(t) == hash(same) and t != DiagonalTransform(2.0, t.entries, t.mask)
    c = CheckResult(name="row", residual=Fraction(0), tolerance=Fraction(0), block_size=3,
                    passed=True, vacuous=False, substantive=True, exact=True)
    assert c.asymptotic is False and c.block_size == 3
    report = _report(c)
    assert (report.kind, report.step_k, report.j2, report.c1, report.c3, report.dim,
            report.field_name) == ("dyson", 1, 5, "1", "1", 8, "rational")


def test_repr_spells_every_field():
    params = AlgebraParams.of(1, 2)
    check = CheckResult("row", Fraction(1, 3), 1e-12, 2, True, False, True, False)
    refused = SweepEntry("1", "2", 2, "hp:1", None, "refused")
    table = representation_table(params, 0)
    pins = {
        FockSpace(8): "FockSpace(dim=8)",
        params: "AlgebraParams(c1=Fraction(1, 1), c3=Fraction(2, 1))",
        admissible_chain(params, 1): "ChainStructure(main=(0, 1, 2), segments=())",
        table.rows[0]: "TableRow(n=0, j3=Fraction(0, 1), plus=0.0, minus=0.0, admissible=True)",
        table: "RepresentationTable(params=AlgebraParams(c1=Fraction(1, 1), c3=Fraction(2, 1)),"
               " j=Fraction(0, 1), rows=(TableRow(n=0, j3=Fraction(0, 1), plus=0.0, minus=0.0,"
               " admissible=True),))",
        DiagonalTransform(1.0, (1.0, 2.5), (True, False)):
            "DiagonalTransform(q0=1.0, entries=(1.0, 2.5), mask=(True, False), q0_odd=None)",
        check: "CheckResult(name='row', residual=Fraction(1, 3), tolerance=1e-12, block_size=2,"
               " passed=True, vacuous=False, substantive=True, exact=False, asymptotic=False)",
        VerificationReport("hp", 1, 2, "1", "2", 4, "complex", (check,)):
            "VerificationReport(kind='hp', step_k=1, j2=2, c1='1', c3='2', dim=4,"
            " field_name='complex', checks=(CheckResult(name='row', residual=Fraction(1, 3),"
            " tolerance=1e-12, block_size=2, passed=True, vacuous=False, substantive=True,"
            " exact=False, asymptotic=False),), passed=True, outcome='pass', vacuous_only=False)",
        refused: "SweepEntry(c1='1', c3='2', j2=2, token='hp:1', report=None, error='refused')",
        SweepReport((refused,)):
            "SweepReport(entries=(SweepEntry(c1='1', c3='2', j2=2, token='hp:1', report=None,"
            " error='refused'),), n_failed=1, n_vacuous=0, outcome='FAIL')",
    }
    assert {type(value).__name__ for value in pins} == set(INSTANCES) - {"Realization"}
    for value, text in pins.items():
        assert repr(value) == text
