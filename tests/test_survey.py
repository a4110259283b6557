"""A survey of the CLI's output: one sha256 per class of invocations.

A class is a subcommand with a realization kind and a field (``-`` where
the subcommand takes none).  Its invocations are drawn once from a seeded
generator, and its digest runs over the exit code, stderr and stdout of
each in order, plus the bytes of every file a ``build -o`` writes.  The
classes cover hp:1-4 and dyson:1-4 in both fields, villain:1-2, the
refusal points of the README's exit table, per subcommand the
spellings at the edges of argparse's grammar (``parse-edge/...``), and
step files holding one J- or J3 entry off its band (``off-band/...``).

A change that only simplifies code leaves every digest as it is.  An
intended output change moves the digests of its own classes; to re-pin a
class, print ``_digest(name, tmp_path)`` for it and put the new value in
``DIGESTS`` with the change that explains it.

Of argparse's usage errors only the last stderr line is digested: the
usage text above it is argparse's own, and its wording and wrapping
differ across Python versions.  For the same reason ``-h`` is checked
against the parser's own ``format_help()``, not digested.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

import pytest

from higgsalg import Realization, interior_check_states, verify
from higgsalg.cli import build_parser, main

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
    _step_four(rng, classes)
    _parse_edges(classes)
    _off_band_rule(classes)
    return classes


def _step_four(rng: random.Random, classes: dict[str, list]) -> None:
    """hp:4 and dyson:4 in both fields, one class per subcommand, drawn
    after every other class so that the earlier draws stay as they were.
    The dims start at 10, where a step-4 point has interior states."""
    for kind in ("hp", "dyson"):
        for field in _FIELDS:
            tag = f"{kind}-4/{field}"

            def argv(*words):
                return [*words, *_point(rng), "--kind", f"{kind}:4",
                        "--dim", str(rng.randint(10, 16)), "--field", field]

            classes[f"build/{tag}"] = [argv("build") for _ in range(2)]
            classes[f"verify-text/{tag}"] = [argv("verify") for _ in range(2)]
            classes[f"verify-json/{tag}"] = [[*argv("verify"), "--format", "json"] for _ in range(2)]
            classes[f"build-verify-input/{tag}"] = [
                [*argv("build"), "-o", "FILE"],
                ["verify", "--input", "FILE"],
                ["verify", "--input", "FILE", "--format", "json"],
                _off_band, ["verify", "--input", "FILE"]]
            classes[f"export-operator/{tag}"] = [
                [*argv("export", "operator"), "--which", which] for which in ("jp", "jm", "j3")]


# Per subcommand: its words, the options after the point (two spellings),
# an abbreviation, a repeated option, an empty value and an argv that
# lacks a required option (or, for verify and sweep, which have none, a
# point or a value).
_EDGE_COMMANDS = {
    "verify": (["verify"], ["--dim", "8", "--kind", "dyson:1"],
               ["--dim=8", "--kind=dyson:1", "--field=complex", "--format=json"],
               ["--di", "12", "--ki", "hp:2", "--form", "json"],
               ["--kind", "hp:1", "--kind", "dyson:2"],
               ["--kind", ""],
               ["verify", "--c1", "1", "--c3", "1", "--dim", "8"]),
    "build": (["build"], ["--dim", "8", "--kind", "dyson:2"],
              ["--dim=8", "--kind=hp:3", "--field=complex"],
              ["--di", "9", "--ki", "dyson:3", "--fi", "complex"],
              ["--dim", "6", "--dim", "9"],
              ["--field", ""],
              ["build", "--c3", "1", "--j2", "5"]),
    "table": (["table"], [], [], ["--out", "-"], ["--c1", "3", "--c1", "2"], ["--c1", ""],
              ["table", "--c1", "1", "--c3", "1"]),
    "export-transform": (["export", "transform"], ["--dim", "8", "--map", "s2"],
                         ["--dim=8", "--map=s2", "--q0=0.5", "--q0-odd=3"],
                         ["--di", "12", "--ma", "s1", "--q0-", "2"],
                         ["--q0", "2", "--q0", "3"],
                         ["--map", ""],
                         ["export", "transform", "--c1", "1", "--j2", "5"]),
    "export-operator": (["export", "operator"], ["--dim", "8", "--kind", "dyson:1", "--which", "jm"],
                        ["--dim=8", "--kind=hp:2", "--which=j3"],
                        ["--di", "9", "--ki", "hp:2", "--wh", "jp"],
                        ["--which", "jp", "--which", "j3"],
                        ["--which", ""],
                        ["export", "operator", "--c1", "1", "--c3", "1", "--j2", "5"]),
}


def _parse_edges(classes: dict[str, list]) -> None:
    """Argument spellings at the edges of argparse's grammar, one class per
    subcommand: ``--opt=value``, an abbreviation, a repeated option (the
    last wins), ``-o -``, negative and decimal values after a space, a
    negative rational after a space (argparse reads it as an option) and
    after ``=``, an empty value, an unknown option and a missing one."""
    point = ["--c1", "1", "--c3", "1", "--j2", "5"]
    for name, (words, rest, spelled, abbreviated, repeated, empty, missing) in _EDGE_COMMANDS.items():
        classes[f"parse-edge/{name}/-"] = [
            [*words, "--c1=1", "--c3=1", "--j2=5", *spelled],
            [*words, *point, *rest, *abbreviated],
            [*words, *point, *rest, *repeated],
            [*words, *point, *rest, "-o", "-"],
            [*words, "--c1", "-2", "--c3", "0.5", "--j2", "4", *rest],
            [*words, "--c1", "1", "--c3", "-1/2", "--j2", "4", *rest],
            [*words, "--c1", "1", "--c3=-1/2", "--j2", "4", *rest],
            [*words, "--c1", "-1e3", "--c3", "-.5", "--j2", "4", *rest],
            [*words, *point, *rest, *empty],
            [*words, *point, *rest, "--bogus", "1"],
            [*words, *point, *rest, "stray"],
            [*words, "--c", "1", "--j2", "5", *rest],
            missing]
    rest = ["--kinds", "hp:1", "--dim", "8"]
    classes["parse-edge/sweep/-"] = [
        ["sweep", "--kinds=hp:2", "--dim=8", "--format=json", "--tolerance-coefficient=0.5"],
        ["sweep", "--kin", "hp:2", "--di", "8", "--form", "json"],
        ["sweep", *rest, "--dim", "6", "--kinds", "hp:3"],
        ["sweep", *rest, "-o", "-"],
        ["sweep", "--kinds", "hp:1", "--dim", "-8"],
        ["sweep", *rest, "--tolerance-coefficient", "-0.5"],
        ["sweep", *rest, "--tolerance-coefficient", "-1/2"],
        ["sweep", *rest, "--tolerance-coefficient=-1/2"],
        ["sweep", *rest, "--grid", ""],
        ["sweep", *rest, "--kinds", ""],
        ["sweep", *rest, "--c1", "1"],
        ["sweep", *rest, "stray"],
        ["sweep", *rest, "--dim"],
        ["sweep", "--kinds", " hp:1 , hp:2", "--dim", "8"]]


def _off_band_cell(doc, name: str, inside: bool) -> tuple[int, int]:
    """(row, column) of an entry off the band of J- (``jm``, at offset
    -(k + 1), just below its band) or of J3 (``j3``, just above its
    diagonal): with both ends in the interior block, at its first state,
    or in the last row or column of the space, outside it."""
    k, dim = doc["k"], doc["dim"]
    n = (interior_check_states(Realization.from_json_dict(doc))[0] if inside
         else dim - k - 2 if name == "jm" else dim - 2)
    return (n + k + 1, n) if name == "jm" else (n, n + 1)


def _off_band_entry(name: str, inside: bool):
    """An edit setting the entry at ``_off_band_cell`` to 1."""
    def edit(doc):
        row, col = _off_band_cell(doc, name, inside)
        one = "1" if doc[name]["field"] == "rational" else [1.0, 0.0]
        doc[name]["entries"][row * doc["dim"] + col] = one
    return edit


def _off_band_rule(classes: dict[str, list]) -> None:
    """Step files with one J- or J3 entry off its band, inside the interior
    block or outside it, one class per generator and field: the block rows
    read the entry only inside the block, the grading rows wherever it
    lies.  Fixed points, drawn from no generator."""
    point = ["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12"]
    for name in ("jm", "j3"):
        for field in _FIELDS:
            steps = classes[f"off-band/{name}/{field}"] = []
            for kind in ("hp:1", "dyson:1", "dyson:2"):
                for inside in (True, False):
                    steps += [["build", *point, "--kind", kind, "--field", field, "-o", "FILE"],
                              _off_band_entry(name, inside),
                              ["verify", "--input", "FILE"],
                              ["verify", "--input", "FILE", "--format", "json"]]


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
    "build-verify-input/dyson-4/complex": "9ded7d79f1c6f2f42788dd53f10bc2f1ea08ca0673782a611f4446843f3b4d6d",
    "build-verify-input/dyson-4/rational": "f3bd8897b1cc901318cf2312f4a8cfe51e14665fe2412bc674264e7a950e2e24",
    "build-verify-input/dyson/complex": "49bf810491e44639b34ce00c54ba403a01a4936d5d662da364bf301a6a12d226",
    "build-verify-input/dyson/rational": "b0cf85ce13d56437bcebb18e40259178c99ee09438c6878543920cb7d68e9ad8",
    "build-verify-input/hp-4/complex": "f716ed9ccd5ca043c515c281c8de00cc60de5002f0d3e5fb9b6d51c2f8055db8",
    "build-verify-input/hp-4/rational": "40238490400870c301ddcb2f48d880773a9841ae6fcdb781c832dc5d171b510b",
    "build-verify-input/hp/complex": "c74bb29e550f6260bf2637cbea28a3306c9f7bd97ed09fa0bbef2df0e00db34b",
    "build-verify-input/hp/rational": "e921897a6fd30e4371627731f4c0157bd90868f4742f85ea02e95a9103e6324a",
    "build-verify-input/villain/complex": "7b7774b04fd0cb6bd4caa864890243036633e0c17e27dc26f7f9fe90f89f9b35",
    "build-verify-input/villain/rational": "0a06eef62bf03f8e95b875c6e2b49e18a668970ea07d01dc5ef81ea0801cdeef",
    "build/dyson-4/complex": "efca7ce32895ce5af53ecf187b3273bade2caea461da6f447d016e5f634b1a15",
    "build/dyson-4/rational": "6d4d26e396f543dd0011e741f559df1bae73efac9adb26b4f85897f699c35a2c",
    "build/dyson/complex": "f0e2aa8482b2ac9c1d7cfbc3c2a89edde3c94a0ebd2a41a3d738f8b3e5bc8bae",
    "build/dyson/rational": "13177e3b2cc4aa8b0fe3d58890bb45879d6642b89249c0c276fab734588ad671",
    "build/hp-4/complex": "a446659328fd9232e23b17056a81c1893a338461faa62d7050c6c910a6ecb04e",
    "build/hp-4/rational": "be0e6bc881487fbf64a98dafe3bd7dcedee3b90e14ba525b5366976c3cdb0cd2",
    "build/hp/complex": "0dbc7b3e9e3bd427b06d11c5f1b1addc71ae828dd2848bc9d16d758881dca1f1",
    "build/hp/rational": "af2e25ceb8e8c55d1fa7a46bcc82039c8d9760dac69f5117ccbb66be46091c5c",
    "build/villain/complex": "855f8f696c8350ada8f79928c18c9bd9ab43c307db7cd2133a1018cbb02afcf3",
    "build/villain/rational": "79abde6971813433f47f8d396106042f4880eb033d0dbd195b958b7e8c1ef040",
    "export-operator/dyson-4/complex": "3cb0d6fc62e45c35b00218dc5596b5813795e8a095aa48dba5c3a521227517e9",
    "export-operator/dyson-4/rational": "0493ee536b4751ad145664085cca302f3154da8bef983ebf56800a5d40f032f5",
    "export-operator/dyson/complex": "32e49f65b864d0575da2169a9d3d227f94cc36ec6f1590151f16fbc7f3c75a65",
    "export-operator/dyson/rational": "87abf29a2acbf6b530761b68c95d47d8307f5476c6963ef16cb1fcd6a320bf9c",
    "export-operator/hp-4/complex": "35495d6c800d50c2d21eed872ab7d3ddaec5853373e53cd81ca7a5a3503eb419",
    "export-operator/hp-4/rational": "a21a9d0a541973ea0a0c711629a5a7c520f9e93d59eedd3cc64ea53dc670956b",
    "export-operator/hp/complex": "a9050a23a913aba9191247ffee45a7ac84f71a64b9ed782f10658ae3babf415f",
    "export-operator/hp/rational": "cb4a4390c06d8e160e20561b645a82ceecd6405d7672ad5efb2969896888f1b0",
    "export-operator/villain/complex": "b004f842857c9a8c6e55c62a65898e5f40ff57a6c39415e96827b16c63ee2f5b",
    "export-operator/villain/rational": "933c9c6a29982049ea0e3a5ff9f0301a259e03e3d0d71e72af4277f8510f88b4",
    "export-transform/-/-": "9e621e914168fbc60d047986ece9a6fbce36425d27503e78a6e7fb97617a8ceb",
    "off-band/j3/complex": "6ae238bb7d84a9e7c0e24c1b6b758da216598666377059b10ab9346b5e629e68",
    "off-band/j3/rational": "5cdd5ac7f0806ea85fb2abc42d0082a3a8a74780aeac62b21ec3edcaddae92cb",
    "off-band/jm/complex": "8201cfcd1df5f13caf3357be4216fc43d3d58a28f285a4f3868088b3d54c4da7",
    "off-band/jm/rational": "65bb05bd42f12f2e139a127bd3ca3cc5f26f9a4e93fd64d41f3dbeb3a68ec08a",
    "parse-edge/build/-": "899f857b947ddd3744317b1a338cdd57f6dbb8176f60fc99db0c6e8ee739fc67",
    "parse-edge/export-operator/-": "b5a5912f64a2443ed64a00ce8576839330fdd982e73ec84db45a00d62d18c35d",
    "parse-edge/export-transform/-": "8dff856f955909f833cdb9d7fd87f5f6977b5d80416eb405d348f02f70c07858",
    "parse-edge/sweep/-": "33712c438e9f045159c72a42adce6071ed229b24851693e50be6fc82ae1e787d",
    "parse-edge/table/-": "c66bb97128e974ced6e0da42d544f5d7d47236181b6e0c892a657f4c5c03b0e0",
    "parse-edge/verify/-": "3f045e1f88c691f0ca29e8cc561082006371516296120e245a384ebd19df1af4",
    "sweep/-/-": "6492ba1a8c37d9367cf9ae3a2895f7fc89bffdff49682ac3f2ebea9bd23210c2",
    "sweep/dyson/-": "b74b6e2f42145c24d0b61e60af9d60a57a332362e903e0df07b3fee92c9f7a9e",
    "sweep/hp/-": "8bb59e37ff3c8e67812f6ce27f7e75e75066c25cb4b0b86d7fd5023cf317d6c7",
    "sweep/villain/-": "247dd0fb9d1a3d89629fea61e1cd34936f88788712c53a699875ff16adbb08e1",
    "table/-/-": "7cccb5ea41990fdbe8cd9a85fef0e3abc5d55ab31ceccc8c710740511fb37499",
    "verify-json/dyson-4/complex": "6df93ad5e7262babc7122ba8997bc5a062348881295207c7dee545266b0d10f4",
    "verify-json/dyson-4/rational": "2d9deeaa511217eff2da759d38dd6f391cfccee84fb051eac485edcf6a74b791",
    "verify-json/dyson/complex": "8e62337ae2c55ab70a4c86383ba228c194c957d9d64a9370322129fa4813e8d5",
    "verify-json/dyson/rational": "d9598a2bf0122bfa24c20d0f22ffbe8afb0f3f4c74700c96dcb8eb409c6be763",
    "verify-json/hp-4/complex": "d972bf0973b953b4aaefe77e0e6637a6cb21947f730c388b842ebcaa88cab707",
    "verify-json/hp-4/rational": "e095c6b3c76e12af07de2d48c7dcbc6808396add88291f62f61a12181f42ec02",
    "verify-json/hp/complex": "3907dae3f36b30e01d2aaaa02ed77161f2b4353c3a1879f6fee881775abda662",
    "verify-json/hp/rational": "28fa831ea265b93daa9c9d875e4e109dc2d752a00a80ecba163b0f43e4ba35c7",
    "verify-json/villain/complex": "031b4092a9ad758e36550276f8756619df83c80b404c777e19563138f47e2400",
    "verify-json/villain/rational": "8a75f935ba7083c85cff0b453e2969a984da180522b9e1c1d7c20c2f5dcbe7be",
    "verify-text/-/-": "9211eacf840cdad268354bcf25b02d396c0cbab99236e2c8102fb5a90c4f768d",
    "verify-text/dyson-4/complex": "db1c317b94462b5153e66b32c70e94bb2f27b6aaf11566782084d00c5943c406",
    "verify-text/dyson-4/rational": "679fef9bfa7bc59cc28d85d04ba698185299de8a4f4b98104d54411b48aee962",
    "verify-text/dyson/complex": "1bec406f144ecfad19f4359d27656e678622e39fd885723aca732e687907970e",
    "verify-text/dyson/rational": "34a67ede69e9b7cbedb3490acb43cb580e378ec8a68683c85f761054e5978a8d",
    "verify-text/hp-4/complex": "e5073924dde42d14010cd10d4ad1e43af60652957ccfddabd935171eedf78306",
    "verify-text/hp-4/rational": "ea1d314cf64e838970a0f53fe091b6bc3f234e4c84fe9db0da16041d25f7fe3c",
    "verify-text/hp/complex": "564f68aaca52a0ff7ca6daa8702d91c7715ac0244e45563237bd94a552836f74",
    "verify-text/hp/rational": "c50ba1a0737f7b6439a325d3e4501fa7e37d72719a2bb6970eeb9976c90c1ecc",
    "verify-text/villain/complex": "cf05274bc8dce46b5b45fae1605cd2ffe2a13ee69c151db4aaa89a211c0d2589",
    "verify-text/villain/rational": "985d3f1fbd255821f0f2ca17c94d84ee5836438069b29755e9295a55d0ae64f3",
}


@pytest.mark.parametrize("name", sorted(SURVEY))
def test_survey_digest(tmp_path, name):
    assert _digest(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("writer", ["_residual_json", "_residual_text"])
def test_a_one_ulp_residual_moves_a_digest(tmp_path, monkeypatch, writer):
    """A residual writer that moves every float it spells by one ulp moves
    the digest of at least one verify class of its format: the survey pins
    each residual to its last bit."""
    write = getattr(verify, writer)

    def moved(x):
        return write(math.nextafter(x, math.inf) if isinstance(x, float) else x)

    monkeypatch.setattr(verify, writer, moved)
    prefix = "verify-json/" if writer == "_residual_json" else "verify-text/"
    assert any(_digest(name, tmp_path) != DIGESTS[name] for name in sorted(SURVEY)
               if name.startswith(prefix))


def _subparser(parser, words):
    for word in words:
        parser = next(a for a in parser._actions if a.choices and word in a.choices).choices[word]
    return parser


@pytest.mark.parametrize("words", [[], ["verify"], ["build"], ["sweep"], ["table"], ["export"],
                                   ["export", "transform"], ["export", "operator"]])
def test_help_is_the_parsers_own(words):
    """``-h`` exits 0 and prints exactly the help of its (sub)parser."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main([*words, "-h"])
    assert exc.value.code == 0
    assert err.getvalue() == ""
    assert out.getvalue() == _subparser(build_parser(), words).format_help()
