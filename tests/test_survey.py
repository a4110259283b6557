"""A survey of the CLI's output: one sha256 per class of invocations.

A class is a subcommand with a realization kind and a field (``-`` where
the subcommand takes none).  Its invocations are drawn once from a seeded
generator, and its digest runs over the exit code, stderr and stdout of
each in order, plus the bytes of every file a ``build -o`` writes.  The
classes cover hp:1-3 and dyson:1-3 in both fields, villain:1-2, and the
refusal points of the README's exit table.

A change that only simplifies code leaves every digest as it is.  An
intended output change moves the digests of its own classes; to re-pin a
class, print ``_digest(name, tmp_path)`` for it and put the new value in
``DIGESTS`` with the change that explains it.

Of argparse's usage errors only the last stderr line is digested: the
usage text above it is argparse's own, and its wording and wrapping
differ across Python versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from higgsalg.cli import main

_SEED = 1956
_STEPS = ("1", "2", "3")
_FIELDS = ("rational", "complex")
_C1 = ("1", "2", "3", "-2", "2/3", "1/2")
_C3 = ("1", "-1", "0", "1/2", "-3/2", "2")
_C3_POSITIVE = ("1", "1/2", "2")


def _point(rng: random.Random, kind: str = "hp") -> list[str]:
    """A drawn point; a villain point has c3 > 0 and j2 >= 1, so that it
    builds in both forms (the refusals are listed on their own)."""
    return _args(_grid_row(rng, kind))


def _grid_row(rng: random.Random, kind: str) -> dict:
    if kind == "villain":
        return {"c1": rng.choice(_C1), "c3": rng.choice(_C3_POSITIVE), "j2": rng.randint(1, 6)}
    return {"c1": rng.choice(_C1), "c3": rng.choice(_C3), "j2": rng.randint(0, 6)}


def _args(row: dict) -> list[str]:
    return [f"--c1={row['c1']}", f"--c3={row['c3']}", "--j2", str(row["j2"])]


def _kind_args(rng: random.Random, kind: str, form: str, field: str) -> list[str]:
    dim = rng.randint(12, 20) if kind == "villain" else rng.randint(3, 12)
    return ["--kind", f"{kind}:{form}", "--dim", str(dim), "--field", field]


def _set(*path):
    """An edit of a realization file: the value at ``path[:-1]`` becomes ``path[-1]``."""
    def edit(doc):
        target = doc
        for key in path[:-2]:
            target = target[key]
        target[path[-2]] = path[-1]
    return edit


def _off_band(doc):
    """One J+ entry off its band, at (1, k + 2) when the dim has room."""
    n, k, dim = 1, doc["k"], doc["dim"]
    if n + k + 1 < dim:
        one = "1" if doc["jp"]["field"] == "rational" else [1.0, 0.0]
        doc["jp"]["entries"][n * dim + n + k + 1] = one


def _survey() -> dict[str, list]:
    """Class name -> its steps: an argv, in which ``FILE`` stands for a
    temporary file, or an edit of that file's JSON document."""
    rng = random.Random(_SEED)
    classes: dict[str, list] = {}
    kinds = [("hp", _STEPS), ("dyson", _STEPS), ("villain", ("1", "2"))]
    for kind, forms in kinds:
        for field in _FIELDS:
            tag = f"{kind}/{field}"
            build, text, js, trip, export = (classes.setdefault(f"{sub}/{tag}", []) for sub in
                                             ("build", "verify-text", "verify-json",
                                              "build-verify-input", "export-operator"))
            for form in forms:
                build.append(["build", *_point(rng, kind), *_kind_args(rng, kind, form, field)])
                text.append(["verify", *_point(rng, kind), *_kind_args(rng, kind, form, field)])
                js.append(["verify", *_point(rng, kind), *_kind_args(rng, kind, form, field),
                           "--format", "json"])
                trip += [["build", *_point(rng, kind), *_kind_args(rng, kind, form, field),
                          "-o", "FILE"],
                         ["verify", "--input", "FILE"],
                         ["verify", "--input", "FILE", "--format", "json"]]
                if kind != "villain":
                    trip += [_off_band, ["verify", "--input", "FILE"]]
                export += [["export", "operator", *_point(rng, kind),
                            *_kind_args(rng, kind, form, field), "--which", which]
                           for which in ("jp", "jm", "j3")]
    for kind, forms in kinds:
        grid = [_grid_row(rng, kind) for _ in range(3)]
        tokens = ",".join(f"{kind}:{form}" for form in forms)
        dim = "12" if kind == "villain" else "8"
        classes[f"sweep/{kind}/-"] = [
            lambda doc, grid=grid: grid,
            ["sweep", "--grid", "FILE", "--kinds", tokens, "--dim", dim],
            ["sweep", "--grid", "FILE", "--kinds", tokens, "--dim", dim, "--format", "json"]]
    classes["table/-/-"] = [["table", *_point(rng)] for _ in range(4)]
    classes["export-transform/-/-"] = [
        ["export", "transform", *_point(rng), "--dim", str(rng.randint(2, 12)), "--map", m,
         "--q0", rng.choice(("1", "0.5", "-2")), "--q0-odd", rng.choice(("1", "3"))]
        for m in ("s1", "s1-closed", "s2") for _ in range(2)]
    _refusals(classes)
    return classes


def _refusals(classes: dict[str, list]) -> None:
    """The exit table's refusal points, each in the class it belongs to."""
    point = ["--c1", "1", "--c3", "1", "--j2", "5"]
    classes["verify-text/-/-"] = [
        ["verify"],
        ["verify", *point, "--tolerance-coefficient", "-1"],
        ["verify", *point, "--tolerance-coefficient", "nan"],
        ["verify", *point, "--dim", "1"],
        ["verify", "--c1", "1", "--c3", "1", "--j2=-1"],
        ["verify", *point, "--kind", "bogus:1"],
        ["verify", *point, "--kind", "villain:3"],
        ["verify", *point, "--kind", "hp:0"]]
    classes["verify-text/hp/rational"] += [
        ["verify", "--c1=-2", "--c3", "0", "--j2", "4", "--dim", "32", "--kind", "hp:1"],
        ["verify", *point, "--dim", "12", "--kind", "hp:1", "--tolerance-coefficient", "0"],
        ["verify", "--c1", "1", "--c3", "1", "--j2", str(10 ** 60), "--kind", "hp:1"]]
    classes["verify-json/hp/complex"] += [
        ["verify", "--c1", "1", "--c3", "1", "--j2", "2", "--dim", "32", "--kind", "hp:1",
         "--tolerance-coefficient", "1e308", "--format", fmt] for fmt in ("text", "json")]
    classes["verify-text/villain/complex"] += [
        ["verify", "--c1", "1", "--c3=-1", "--j2", "4", "--dim", "12", "--kind", "villain:1"],
        ["verify", "--c1", "1", "--c3=-1", "--j2", "4", "--dim", "12", "--kind", "villain:2"],
        ["verify", "--c1", "1", "--c3", "0", "--j2", "4", "--dim", "12", "--kind", "villain:2"]]
    classes["build/dyson/complex"] += [
        ["build", "--c1", "1", "--c3", "1", "--dim", "4", "--kind", "dyson:1", "--field", "complex",
         "--j2", str(10 ** 103)]]
    classes["table/-/-"] += [["table", "--c1=1e400", "--c3=0", "--j2", "4"],
                             ["table", "--c1", "three", "--c3", "0", "--j2", "2"]]
    classes["export-transform/-/-"] += [
        ["export", "transform", *point, "--q0", "inf"],
        ["export", "transform", *point, "--q0-odd", "nan", "--map", "s2"],
        ["export", "transform", "--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12",
         "--map", "s1-closed"]]
    identity = [[1.0 if i == j else 0.0, 0.0] for i in range(12) for j in range(12)]
    villain = ["build", "--c1", "1", "--c3", "1", "--j2", "6", "--dim", "12", "--kind", "villain:1",
               "-o", "FILE"]
    dyson = ["build", *point, "--dim", "12", "--kind", "dyson:1", "-o", "FILE"]
    verify = ["verify", "--input", "FILE"]
    classes["build-verify-input/villain/complex"] += [
        villain, _set("j3", "entries", 0, [1.0, 0.0]), verify,
        villain, _set("jp", "entries", identity), verify,
        villain, _set("window", ["-1/8", "1/8"]), verify,
        villain, _set("window", [True, "1"]), verify]
    classes["build-verify-input/dyson/rational"] += [
        dyson, _set("mask", 5, 0), verify,
        dyson, _set("mask", 0, True), verify,
        dyson, _set("c1", 0.1), verify,
        dyson, _set("k", 0), verify,
        dyson, _set("jp", "entries", 1, 0.1), verify,
        dyson, _set("window", ["-1", "1"]), verify,
        dyson, lambda doc: [1], verify]
    classes["sweep/-/-"] = [
        lambda doc: {"c1": "1"}, ["sweep", "--grid", "FILE", "--dim", "8"],
        lambda doc: [{"c1": "1", "c3": "1", "j2": 2.5}], ["sweep", "--grid", "FILE", "--dim", "8"],
        lambda doc: [{"c1": "1", "c3": "1"}], ["sweep", "--grid", "FILE", "--dim", "8"],
        ["sweep", "--kinds", "hp:9,bogus"],
        ["sweep", "--dim", "1"]]


SURVEY = _survey()


def _run(argv: list[str], path) -> str:
    """One invocation's exit code, stderr and stdout, and the file a
    ``build -o`` writes."""
    if "-o" in argv:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(path) if a == "FILE" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue().replace(str(path), "FILE")
    if err.startswith("usage:"):
        err = err.splitlines()[-1] + "\n"
    written = path.read_text() if "-o" in argv and path.exists() else ""
    return f"{code}\n{err}\0{out.getvalue()}\0{written}\0"


def _digest(name: str, tmp_path) -> str:
    path = tmp_path / "survey.json"
    record = []
    for step in SURVEY[name]:
        if callable(step):
            doc = json.loads(path.read_text()) if path.exists() else None
            new = step(doc)
            path.write_text(json.dumps(doc if new is None else new))
            continue
        record.append(_run(step, path))
    return hashlib.sha256("".join(record).encode("utf-8")).hexdigest()


DIGESTS = {
    "build-verify-input/dyson/complex": "49bf810491e44639b34ce00c54ba403a01a4936d5d662da364bf301a6a12d226",
    "build-verify-input/dyson/rational": "b0cf85ce13d56437bcebb18e40259178c99ee09438c6878543920cb7d68e9ad8",
    "build-verify-input/hp/complex": "c74bb29e550f6260bf2637cbea28a3306c9f7bd97ed09fa0bbef2df0e00db34b",
    "build-verify-input/hp/rational": "e921897a6fd30e4371627731f4c0157bd90868f4742f85ea02e95a9103e6324a",
    "build-verify-input/villain/complex": "7b7774b04fd0cb6bd4caa864890243036633e0c17e27dc26f7f9fe90f89f9b35",
    "build-verify-input/villain/rational": "0a06eef62bf03f8e95b875c6e2b49e18a668970ea07d01dc5ef81ea0801cdeef",
    "build/dyson/complex": "f0e2aa8482b2ac9c1d7cfbc3c2a89edde3c94a0ebd2a41a3d738f8b3e5bc8bae",
    "build/dyson/rational": "13177e3b2cc4aa8b0fe3d58890bb45879d6642b89249c0c276fab734588ad671",
    "build/hp/complex": "0dbc7b3e9e3bd427b06d11c5f1b1addc71ae828dd2848bc9d16d758881dca1f1",
    "build/hp/rational": "af2e25ceb8e8c55d1fa7a46bcc82039c8d9760dac69f5117ccbb66be46091c5c",
    "build/villain/complex": "855f8f696c8350ada8f79928c18c9bd9ab43c307db7cd2133a1018cbb02afcf3",
    "build/villain/rational": "79abde6971813433f47f8d396106042f4880eb033d0dbd195b958b7e8c1ef040",
    "export-operator/dyson/complex": "32e49f65b864d0575da2169a9d3d227f94cc36ec6f1590151f16fbc7f3c75a65",
    "export-operator/dyson/rational": "87abf29a2acbf6b530761b68c95d47d8307f5476c6963ef16cb1fcd6a320bf9c",
    "export-operator/hp/complex": "a9050a23a913aba9191247ffee45a7ac84f71a64b9ed782f10658ae3babf415f",
    "export-operator/hp/rational": "cb4a4390c06d8e160e20561b645a82ceecd6405d7672ad5efb2969896888f1b0",
    "export-operator/villain/complex": "b004f842857c9a8c6e55c62a65898e5f40ff57a6c39415e96827b16c63ee2f5b",
    "export-operator/villain/rational": "933c9c6a29982049ea0e3a5ff9f0301a259e03e3d0d71e72af4277f8510f88b4",
    "export-transform/-/-": "9e621e914168fbc60d047986ece9a6fbce36425d27503e78a6e7fb97617a8ceb",
    "sweep/-/-": "6492ba1a8c37d9367cf9ae3a2895f7fc89bffdff49682ac3f2ebea9bd23210c2",
    "sweep/dyson/-": "b74b6e2f42145c24d0b61e60af9d60a57a332362e903e0df07b3fee92c9f7a9e",
    "sweep/hp/-": "8bb59e37ff3c8e67812f6ce27f7e75e75066c25cb4b0b86d7fd5023cf317d6c7",
    "sweep/villain/-": "247dd0fb9d1a3d89629fea61e1cd34936f88788712c53a699875ff16adbb08e1",
    "table/-/-": "7cccb5ea41990fdbe8cd9a85fef0e3abc5d55ab31ceccc8c710740511fb37499",
    "verify-json/dyson/complex": "8e62337ae2c55ab70a4c86383ba228c194c957d9d64a9370322129fa4813e8d5",
    "verify-json/dyson/rational": "d9598a2bf0122bfa24c20d0f22ffbe8afb0f3f4c74700c96dcb8eb409c6be763",
    "verify-json/hp/complex": "3907dae3f36b30e01d2aaaa02ed77161f2b4353c3a1879f6fee881775abda662",
    "verify-json/hp/rational": "28fa831ea265b93daa9c9d875e4e109dc2d752a00a80ecba163b0f43e4ba35c7",
    "verify-json/villain/complex": "031b4092a9ad758e36550276f8756619df83c80b404c777e19563138f47e2400",
    "verify-json/villain/rational": "8a75f935ba7083c85cff0b453e2969a984da180522b9e1c1d7c20c2f5dcbe7be",
    "verify-text/-/-": "9211eacf840cdad268354bcf25b02d396c0cbab99236e2c8102fb5a90c4f768d",
    "verify-text/dyson/complex": "1bec406f144ecfad19f4359d27656e678622e39fd885723aca732e687907970e",
    "verify-text/dyson/rational": "34a67ede69e9b7cbedb3490acb43cb580e378ec8a68683c85f761054e5978a8d",
    "verify-text/hp/complex": "564f68aaca52a0ff7ca6daa8702d91c7715ac0244e45563237bd94a552836f74",
    "verify-text/hp/rational": "c50ba1a0737f7b6439a325d3e4501fa7e37d72719a2bb6970eeb9976c90c1ecc",
    "verify-text/villain/complex": "cf05274bc8dce46b5b45fae1605cd2ffe2a13ee69c151db4aaa89a211c0d2589",
    "verify-text/villain/rational": "985d3f1fbd255821f0f2ca17c94d84ee5836438069b29755e9295a55d0ae64f3",
}


@pytest.mark.parametrize("name", sorted(SURVEY))
def test_survey_digest(tmp_path, name):
    assert _digest(name, tmp_path) == DIGESTS[name]
