"""Byte-for-byte CLI output: sha256 digests of stdout, and the exit code,
for fixed commands.

A change that only simplifies code must leave every digest as it is.  A
digest moves only when the output is meant to change, and then the new
value goes in with the change that explains it.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from higgsalg import Realization, interior_check_states
from higgsalg.cli import main

_POINT = ["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12"]

GOLDEN = [
    pytest.param(
        ["sweep", "--format", "json"],
        "aba4f573f469b77b770cda1eb1908e87517a91bd6129c494e0258bc93f93b1e2",
        0,
        id="sweep-default-json",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:1"],
        "60119ce024f124628e2acdfea40f80a301be2ef41decfb28c75704db1824782f",
        0,
        id="build-dyson-1",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:2"],
        "0ba133d4c3c482f8460627f7ee23bfcbd6b4682e4ed013b5dd0fd10fb5c90e9e",
        0,
        id="build-dyson-2",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:3"],
        "768eac273506bbd7c8a8b330c21c7b0f7f2ebc286729b1ab4a3bab5a8d4f4c91",
        0,
        id="build-dyson-3",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "hp:2"],
        "6c3f830128690c87e57863b9241f4302bfd38212bf159cad6b9faad3c4c105b0",
        0,
        id="build-hp-2",
    ),
    pytest.param(
        ["verify", "--c1", "1", "--c3", "1", "--j2", "3", "--dim", "24",
         "--kind", "villain:1", "--format", "json"],
        "9e04ea4fda47b332db446a0426fc8fc7e1d9c42e379652bde97f44e25766acd2",
        0,
        id="verify-villain-1-json",
    ),
    pytest.param(
        ["sweep", "--kinds", "hp:1,hp:2,hp:3", "--dim", "128", "--format", "json"],
        "b30337683727c08323b0362641048d3f3940b274c612ae9a72210e03e8a667e4",
        0,
        id="sweep-hp-1-3-dim-128-json",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "hp:3"],
        "8eb4d28ce32dd19a45643603257d085600a26d900842acc31227664f71525d59",
        0,
        id="build-hp-3",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:2", "--field", "complex"],
        "4aa872d27d42c93d7d2fda304c5225230a8431ddfdef88ffc578107ba2f9677a",
        0,
        id="build-dyson-complex-2",
    ),
    pytest.param(
        ["verify", "--c1", "1", "--c3", "1", "--j2", "3", "--dim", "24",
         "--kind", "villain:2", "--format", "json"],
        "96b82324dee0388736de4b2a5b3bbefde1bdfbd066e4141a7b80c10080c1c3c6",
        0,
        id="verify-villain-2-json",
    ),
    pytest.param(
        ["verify", "--c1", "3", "--c3", "-1", "--j2", "6", "--dim", "128", "--kind", "hp:1"],
        "afd060d515ff1546ddc1d6e78a5c8cf92251574be095e2f7a5a3323d0f7ad988",
        2,
        id="verify-hp-1-vacuous",
    ),
    pytest.param(
        ["verify", "--c1", "3", "--c3", "-1", "--j2", "6", "--dim", "128",
         "--kind", "dyson:1", "--field", "complex", "--format", "json"],
        "b291d0aa9ebc5f8e6fc53a4a4637b02feb899aefa39d06fd2d53716c95ce1506",
        1,
        id="verify-dyson-complex-1-fails-json",
    ),
    pytest.param(
        ["verify", *_POINT, "--kind", "hp:1", "--tolerance-coefficient", "0"],
        "8fac8f2150d41c1a1f84e26b9f0dfabde2539e9eab19b07a64d46415c1ed34a6",
        1,
        id="verify-hp-1-zero-tolerance",
    ),
    pytest.param(
        ["verify", *_POINT, "--kind", "dyson:2", "--format", "json"],
        "1662c5a3eba6d90c81b2a5cce745cddb3bd88befc4c4953541be0dc7c5572eb0",
        0,
        id="verify-dyson-2-exact-json",
    ),
    pytest.param(
        ["build", "--c1", "1", "--c3", "1", "--j2", "5", "--dim", "40",
         "--kind", "dyson:1", "--field", "complex"],
        "efc689aa62e25e8e2b646766acd1ec47d3e39455ee9ff9f7a0d726eb22261549",
        0,
        id="build-dyson-complex-1-dim-40",
    ),
    pytest.param(
        ["build", "--c1", "1", "--c3", "1", "--j2", "5", "--dim", "24", "--kind", "villain:1"],
        "e55acab5a46e9c7680ef189d609ff2d465020d5ef9ff8b1e4636ebefc551beb2",
        0,
        id="build-villain-1-dense",
    ),
    pytest.param(
        ["export", "operator", *_POINT, "--which", "jp", "--kind", "hp:1"],
        "4179d4e4217eb0a1c5094ba6e7060c76ca2f010e9b1a2c8f1994a2dc05601808",
        0,
        id="export-operator-jp-hp-1",
    ),
    pytest.param(
        ["export", "transform", *_POINT, "--map", "s1"],
        "3926c563c62ce8f8b43a814a641cfb3ad64c47e5fc8d1ce29e9102015a1086ff",
        0,
        id="export-transform-s1",
    ),
    pytest.param(
        ["export", "transform", "--c1", "-6", "--c3", "1", "--j2", "5", "--dim", "12",
         "--map", "s1-closed"],
        "ae3e3ac1bdd79bc5622f713f05f1aa69bc60a035ec56da275b58d2358eb0cf9d",
        0,
        id="export-transform-s1-closed",
    ),
    pytest.param(
        ["export", "transform", *_POINT, "--map", "s2", "--q0-odd", "2"],
        "f15055b774547d70bce40c440b5bf1aa8b0ec60a18629ef0ba34a8dadb8921fe",
        0,
        id="export-transform-s2-two-seeds",
    ),
    pytest.param(
        ["export", "transform", "--c1", "1", "--c3", "1", "--j2", "400", "--dim", "402"],
        "a491089b7f5d3fc4485bd1eed8a5ff1a29f0a46dd688fb7bb5361ab9291880a4",
        0,
        id="export-transform-s1-dim-402",
    ),
]


@pytest.mark.parametrize("argv,digest,code", GOLDEN)
def test_cli_output_digest(capsys, argv, digest, code):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_one_parser_serves_every_call(capsys):
    """``main`` builds its parser once per process.  Each golden command,
    run twice in alternating order with a usage error between runs, still
    prints what a fresh process prints."""
    runs = [p.values for p in GOLDEN]
    for argv, digest, code in runs + runs[::-1]:
        assert main(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kinds", "hp:9,bogus"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""


# Two step files, each with one J+ entry off its band, at (n, n + k + 1) for
# the first interior state n, so that J+ holds two diagonals; the rows that
# read J+ on the interior block measure the entry and FAIL.  The digests were taken when
# such a J+ loaded as a dense matrix, and hold now that it loads as bands.
_TAMPERED_KINDS = {
    "hp-1": ["--kind", "hp:1"],
    "dyson-complex-2": ["--kind", "dyson:2", "--field", "complex"],
}

TAMPERED = [
    pytest.param("hp-1", "text",
                 "a48994294af054ffde5cf9012a42f6daea4309a27d2773f732f4202090ca6bd6",
                 1, id="verify-input-tampered-hp-1"),
    pytest.param("hp-1", "json",
                 "6fcf1647b81f778d205163bd958d587cdbb5ea5482dce3ae45748df271bb0eed",
                 1, id="verify-input-tampered-hp-1-json"),
    pytest.param("dyson-complex-2", "text",
                 "a0d6e6dfb94486fbf3e785bca40e60ff2b75229347620b10bedf2256a84db9e6",
                 1, id="verify-input-tampered-dyson-complex-2"),
    pytest.param("dyson-complex-2", "json",
                 "9bb0eb9cddfac6373ff949bb1419d126487b591a8e6ed2034e1cf242d6070558",
                 1, id="verify-input-tampered-dyson-complex-2-json"),
]


@pytest.mark.parametrize("kind,fmt,digest,code", TAMPERED)
def test_tampered_file_digest(tmp_path, capsys, kind, fmt, digest, code):
    path = tmp_path / "r.json"
    assert main(["build", *_POINT, *_TAMPERED_KINDS[kind], "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    n, k, dim = interior_check_states(Realization.from_json_dict(doc))[0], doc["k"], doc["dim"]
    doc["jp"]["entries"][n * dim + n + k + 1] = [1.0, 0.0]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
