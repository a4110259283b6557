"""Mutated realization and grid files through ``cli.main``: whatever a
file holds, the exit code is one of the contract's (0 pass, 1 a check
failed, 2 vacuous, 64 usage, 65 domain or malformed input), never 70, and
a refusal is one line on stderr."""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsalg.cli import main

_CONTRACT = {0, 1, 2, 64, 65}

# JSON values a mutation may put anywhere: every JSON type, edge numbers,
# strings a rational parser meets, and containers, each a fresh copy since a
# later mutation may edit it
_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2, 7, 10 ** 400, -(10 ** 30), 0.0, -0.0, 0.5,
                     1.5, 1e308, float("inf"), float("-inf"), float("nan"), "", "0", "1", "-1",
                     "x", "1/0", "3/2", "-5/2", "1e400", " 1/2 ", "nan", "inf", "0.1", [], {},
                     [1], ["1"], [0.0, 0.0], [[0.0, 0.0]], {"a": 1}]),
    st.integers(-5, 5),
    st.fractions(max_denominator=9).map(str),
    st.text(max_size=6),
).map(copy.deepcopy)

_BUILDS = {
    "dyson-rational": ["--kind", "dyson:1"],
    "dyson-complex": ["--kind", "dyson:2", "--field", "complex"],
    "hp": ["--kind", "hp:1"],
    "villain": ["--kind", "villain:1"],
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The built files, one per kind, at a small dim, and the path each mutant is written to."""
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name, kind in _BUILDS.items():
        code, text, _ = _run(["build", "--c1", "1", "--c3", "1", "--j2", "3", "--dim", "5", *kind])
        assert code == 0
        docs[name] = json.loads(text)
    return docs, root / "mutant.json"


def _containers(node, path=()):
    """(key path, node) of every list and dict of a JSON document, the
    root's first."""
    if isinstance(node, (dict, list)):
        yield path, node
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(child, path + (key,))


@st.composite
def _mutants(draw, doc):
    """``doc`` with one to three mutations.  Each draws a depth, then a
    list or dict at that depth, so a realization's two-item ``window`` is
    drawn as often as an operator's entry list, and then replaces, deletes
    or adds one of its items; the whole document is replaced now and then."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        by_depth: dict[int, list] = {}
        for path, node in _containers(doc):
            by_depth.setdefault(len(path), []).append(node)
        if not by_depth or draw(st.integers(0, 19)) == 0:
            doc = draw(_VALUES)
            continue
        node = draw(st.sampled_from(by_depth[draw(st.sampled_from(sorted(by_depth)))]))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"])) if keys else "add"
        if action == "add" and isinstance(node, list):
            node.append(draw(_VALUES))
        elif action == "add":
            node[draw(st.sampled_from(["window", "extra", "k", "mask", "c1"]))] = draw(_VALUES)
        elif action == "replace":
            node[draw(st.sampled_from(keys))] = draw(_VALUES)
        else:
            del node[draw(st.sampled_from(keys))]
    return doc


def _assert_in_contract(code: int, out: str, err: str) -> None:
    assert code in _CONTRACT, err
    if code in (64, 65):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert out and err == ""


@given(st.sampled_from(sorted(_BUILDS)), st.data(), st.integers(0, 19))
@settings(max_examples=250, deadline=None)
def test_mutated_realization_file_stays_in_the_exit_contract(files, name, data, cut):
    docs, path = files
    text = json.dumps(data.draw(_mutants(docs[name])))
    if cut == 0:  # a truncated file is not JSON at all
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    path.write_text(text)
    fmt = data.draw(st.sampled_from(["text", "json"]))
    _assert_in_contract(*_run(["verify", "--input", str(path), "--format", fmt]))


_GRID = [{"c1": "1", "c3": "1", "j2": 3}, {"c1": "-2", "c3": "1/2", "j2": 2}]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_grid_file_stays_in_the_exit_contract(files, data):
    _, path = files
    path.write_text(json.dumps(data.draw(_mutants(_GRID))))
    kinds = data.draw(st.sampled_from(["hp:1,dyson:1", "hp:2", "dyson:2", "villain:1"]))
    _assert_in_contract(*_run(["sweep", "--grid", str(path), "--dim", "6", "--kinds", kinds]))
