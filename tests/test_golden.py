"""Byte-for-byte CLI output: sha256 digests of stdout for fixed commands.

A change that only simplifies code must leave every digest as it is.  A
digest moves only when the output is meant to change, and then the new
value goes in with the change that explains it.
"""

from __future__ import annotations

import hashlib

import pytest

from higgsalg.cli import main

_POINT = ["--c1", "1", "--c3", "1", "--j2", "5", "--dim", "12"]

GOLDEN = [
    pytest.param(
        ["sweep", "--format", "json"],
        "aba4f573f469b77b770cda1eb1908e87517a91bd6129c494e0258bc93f93b1e2",
        id="sweep-default-json",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:1"],
        "60119ce024f124628e2acdfea40f80a301be2ef41decfb28c75704db1824782f",
        id="build-dyson-1",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:2"],
        "0ba133d4c3c482f8460627f7ee23bfcbd6b4682e4ed013b5dd0fd10fb5c90e9e",
        id="build-dyson-2",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:3"],
        "768eac273506bbd7c8a8b330c21c7b0f7f2ebc286729b1ab4a3bab5a8d4f4c91",
        id="build-dyson-3",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "hp:2"],
        "eb22e25e18deb0aa9b1aa0080e3b7b057bce983f82831e7bdd8fa533b11a1030",
        id="build-hp-2",
    ),
    pytest.param(
        ["verify", "--c1", "1", "--c3", "1", "--j2", "3", "--dim", "24",
         "--kind", "villain:1", "--format", "json"],
        "d466b31106113d8df0b3a074ba4c8fc5568deffa49a1e571114822f26021bbd5",
        id="verify-villain-1-json",
    ),
    pytest.param(
        ["sweep", "--kinds", "hp:1,hp:2,hp:3", "--dim", "128", "--format", "json"],
        "b30337683727c08323b0362641048d3f3940b274c612ae9a72210e03e8a667e4",
        id="sweep-hp-1-3-dim-128-json",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "hp:3"],
        "0333c84d0de89985b75481625a6b904ac6a30f42803a79332c1eb8bd1ab17e8e",
        id="build-hp-3",
    ),
    pytest.param(
        ["build", *_POINT, "--kind", "dyson:2", "--field", "complex"],
        "30815d402b952ca5579a58baf8489d17c872b6d23a59b0ea3c981a12a6bd4304",
        id="build-dyson-complex-2",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN)
def test_cli_output_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_one_parser_serves_every_call(capsys):
    """``main`` builds its parser once per process.  Each golden command,
    run twice in alternating order with a usage error between runs, still
    prints what a fresh process prints."""
    runs = [p.values for p in GOLDEN]
    for argv, digest in runs + runs[::-1]:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kinds", "hp:9,bogus"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""
