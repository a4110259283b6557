"""Seeded inputs, in-process requests and the output gate of the four
benchmark workloads.

Each workload is a closed loop with one client: the next request is
issued only when the previous one has returned.  Requests go through the
program's real entry points in this process: ``higgsalg.cli.main(argv)``
with stdout and stderr captured, plus the public ``higgsalg.similarity``
functions, which have no command-line entry.  The program sees only the
generated argv lists and grid files.

Inputs are built in balanced rounds.  A round holds every request class
of its workload (kind and dimension) once, in a seeded order, and points
are dealt from shuffled decks (``Draw``), so runs under different seeds
carry the same mix of work and their latency percentiles stay
comparable.  A transport round holds every (dimension, point) pair.

Every outcome is compared with the expectation pinned at the seed commit
in ``expected/<workload>.json`` (written by ``pin.py``): exit codes,
check names with their verdicts and, for the exact workload, the sha256
of the JSON stdout.  Float residuals are not pinned.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from higgsalg import cli, realizations, similarity
from higgsalg.algebra import AlgebraParams
from higgsalg.fock import FockSpace

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# The seven coupling pairs of the program's default grid, crossed with
# 2j = 1 .. 6; pin.py checks that this equals default_grid() at the seed
# commit.  Kept here so that a later change to the program's grid cannot
# change the benchmark's inputs.
GRID_COUPLINGS = (("2", "0"), ("-2", "0"), ("1", "1"), ("2", "1"), ("-2", "1"), ("3", "-1"), ("0", "2"))
DEFAULT_POINTS = tuple((c1, c3, j2) for c1, c3 in GRID_COUPLINGS for j2 in range(1, 7))

# Small rationals of both signs for the float sweep: p/q with |p| <= 3
# and q <= 3.  The pool is finite so that every entry can be pinned.
RATIONAL_POOL = tuple(sorted({str(Fraction(p, q)) for p in range(-3, 4) for q in (1, 2, 3)}, key=Fraction))

SWEEP_TOKENS = ("hp:1", "hp:2", "hp:3")
TRANSPORT_TOLERANCE = 1e-10
REALIZATION_FILE = "realization.json"


def call_cli(argv) -> tuple[int, str, str]:
    """Run ``higgsalg.cli.main(argv)`` in process; return (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def verdicts(report: dict) -> str:
    """One letter per check: p passed, v vacuous, m measured (asymptotic), F failed."""
    return "".join(
        "v" if c["vacuous"] else "m" if c["asymptotic"] else "p" if c["passed"] else "F"
        for c in report["checks"]
    )


def report_code(report: dict) -> int:
    """The exit code ``verify`` gives this report: 1 fail, 2 vacuous only, 0 pass."""
    return 1 if not report["passed"] else 2 if report["vacuous_only"] else 0


def form1_radicand(c1: str, c3: str, j2: int) -> Fraction:
    """c1 (j + 1/2)^2 / 2 + c3 j^2 (j + 1)^2 / 4; negative means the first
    spectral form has no real coupling constant (exit 65)."""
    j = Fraction(j2, 2)
    return Fraction(c1) / 2 * (j + Fraction(1, 2)) ** 2 + Fraction(c3) / 4 * (j * (j + 1)) ** 2


def has_real_roots(c1: str, c3: str, j2: int) -> bool:
    """Whether the bond quadratic has real roots, so the closed-form map exists."""
    if Fraction(c3) == 0:
        return False
    return 2 - (j2 + 1) ** 2 - 8 * Fraction(c1) / Fraction(c3) >= 0


@dataclass(frozen=True)
class Request:
    kind: str  # warm-up class: one untimed request per kind during set-up
    argvs: tuple[tuple[str, ...], ...]
    key: str  # pin key
    realizations: int  # realizations the request verifies or carries
    points: tuple[tuple[str, str, int], ...] = ()


@dataclass
class Verdict:
    """Gate result of one request, with the counts the traced run reports."""

    ok: bool
    problem: str = ""
    reports: int = 0
    substantive: int = 0
    checks: int = 0
    out_bytes: int = 0
    chain_states: int = 0


def _point_args(c1: str, c3: str, j2: int, dim: int) -> tuple[str, ...]:
    return ("--c1", c1, "--c3", c3, "--j2", str(j2), "--dim", str(dim))


def _check_report(report: dict, names: list, pinned: str, where: str) -> str:
    """Compare one report with its pinned 'code:verdicts'; return a problem or ''."""
    got = f"{report_code(report)}:{verdicts(report)}"
    if [c["name"] for c in report["checks"]] != names:
        return f"{where}: check names {[c['name'] for c in report['checks']]} != pinned {names}"
    if got != pinned:
        return f"{where}: outcome {got} != pinned {pinned}"
    return ""


class Draw:
    """Seeded choices.  ``pick`` deals from a shuffled deck per item set
    and reshuffles when it runs out, so every item comes up equally often
    over a run and the mix of work barely depends on the seed."""

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self.decks: dict[tuple, list] = {}

    def pick(self, items: tuple):
        deck = self.decks.setdefault(items, [])
        if not deck:
            deck.extend(items)
            self.rng.shuffle(deck)
        return deck.pop()

    def shuffle(self, seq: list) -> None:
        self.rng.shuffle(seq)


class Workload:
    name = ""
    rounds = 0  # rounds generated per run; requests cycle if a run uses more
    reference = ("python",)  # reference kernel parts the *_ref metrics divide by (run.py)

    def round(self, draw: Draw, first: int) -> list[Request]:
        raise NotImplementedError

    @property
    def round_size(self) -> int:
        """Requests per round, the same in every round of a workload."""
        return len(self.round(Draw("round size"), 0))

    def warmups(self, draw: Draw) -> list[Request]:
        raise NotImplementedError

    def execute(self, req: Request):
        rc, out, err = call_cli(req.argvs[0])
        return rc, out, err

    def check(self, req: Request, outcome, pins: dict) -> Verdict:
        raise NotImplementedError

    def generate(self, seed: int) -> tuple[list[Request], list[Request], dict[str, bytes]]:
        """Warm-up requests, measured requests and input files for ``seed``."""
        draw = Draw(f"{self.name}/{seed}")
        warm = self.warmups(draw)
        reqs: list[Request] = []
        for _ in range(self.rounds):
            reqs.extend(self.round(draw, len(reqs)))
        return warm, reqs, self.files(warm + reqs)

    def files(self, reqs: list[Request]) -> dict[str, bytes]:
        return {}

    def load_pins(self) -> dict:
        with open(EXPECTED_DIR / f"{self.name}.json", encoding="utf-8") as fh:
            return json.load(fh)


class ExactSweep(Workload):
    name = "exact-sweep"
    dims = tuple(range(12, 21))
    steps = (1, 2, 3)
    rounds = 10

    def _request(self, k: int, dim: int, point) -> Request:
        c1, c3, j2 = point
        argv = ("verify", "--kind", f"dyson:{k}", *_point_args(c1, c3, j2, dim), "--format", "json")
        return Request(f"dyson:{k}", (argv,), f"dyson:{k} {dim} {c1} {c3} {j2}", 1)

    def round(self, draw, first):
        classes = [(k, d) for k in self.steps for d in self.dims]
        draw.shuffle(classes)
        return [self._request(k, d, draw.pick(DEFAULT_POINTS)) for k, d in classes]

    def warmups(self, draw):
        return [self._request(k, self.dims[0], draw.pick(DEFAULT_POINTS)) for k in self.steps]

    def check(self, req, outcome, pins):
        rc, out, _ = outcome
        pin = pins["requests"][req.key]
        size = len(out.encode())
        if rc != pin["rc"]:
            return Verdict(False, f"{req.key}: exit {rc} != pinned {pin['rc']}", out_bytes=size)
        if hashlib.sha256(out.encode()).hexdigest() != pin["sha256"]:
            return Verdict(False, f"{req.key}: stdout sha256 differs from the pin", out_bytes=size)
        report = json.loads(out)
        problem = _check_report(report, pins["names"][req.kind], pin["outcome"], req.key)
        return Verdict(not problem, problem, 1, int(not report["vacuous_only"]),
                       len(report["checks"]), size)


class FloatSweep(Workload):
    name = "float-sweep"
    reference = ("python", "numpy")
    dims = (32, 64, 128)
    defaults_per_chunk = 2
    random_per_chunk = 2
    spins = tuple(range(1, 13))
    rounds = 160

    def _chunk(self, draw) -> tuple[tuple[str, str, int], ...]:
        pts = [(*draw.pick(GRID_COUPLINGS), draw.pick(self.spins)) for _ in range(self.defaults_per_chunk)]
        pts += [(draw.pick(RATIONAL_POOL), draw.pick(RATIONAL_POOL), draw.pick(self.spins))
                for _ in range(self.random_per_chunk)]
        draw.shuffle(pts)
        return tuple(pts)

    def _request(self, index: int, dim: int, points) -> Request:
        grid = f"grid-{index:04d}.json"
        argv = ("sweep", "--kinds", ",".join(SWEEP_TOKENS), "--grid", grid, "--dim", str(dim),
                "--format", "json")
        return Request("sweep", (argv,), grid, len(points) * len(SWEEP_TOKENS), points)

    def round(self, draw, first):
        dims = list(self.dims)
        draw.shuffle(dims)
        return [self._request(first + i, d, self._chunk(draw)) for i, d in enumerate(dims)]

    def warmups(self, draw):
        return [self._request(9999, self.dims[0], self._chunk(draw))]

    def files(self, reqs):
        out = {}
        for r in reqs:
            rows = [{"c1": c1, "c3": c3, "j2": j2} for c1, c3, j2 in r.points]
            out[r.key] = (json.dumps(rows) + "\n").encode()
        return out

    def check(self, req, outcome, pins):
        rc, out, _ = outcome
        size = len(out.encode())
        entries = json.loads(out)["entries"] if rc in (0, 1, 2) else None
        expected = [(p, t) for p in req.points for t in SWEEP_TOKENS]
        if entries is None or len(entries) != len(expected):
            return Verdict(False, f"{req.key}: exit {rc}, entries do not match the grid", out_bytes=size)
        v = Verdict(True, out_bytes=size)
        codes = []
        for entry, ((c1, c3, j2), token) in zip(entries, expected):
            where = f"{req.key} {token} {c1} {c3} {j2}"
            if (entry["c1"], entry["c3"], entry["j2"], entry["realization"]) != (
                    str(Fraction(c1)), str(Fraction(c3)), j2, token):
                return Verdict(False, f"{where}: entry order differs", out_bytes=size)
            pinned = pins["entries"][token][f"{c1} {c3} {j2}"]
            if "error" in entry:
                got = f"E:{entry['error']}"
                problem = "" if got == pinned else f"{where}: {got} != pinned {pinned}"
                codes.append(1)
            else:
                report = entry["report"]
                problem = _check_report(report, pins["names"][token], pinned, where)
                codes.append(report_code(report))
                v.reports += 1
                v.substantive += int(not report["vacuous_only"])
                v.checks += len(report["checks"])
            if problem:
                return Verdict(False, problem, out_bytes=size)
        want = 1 if 1 in codes else 2 if all(c == 2 for c in codes) else 0
        if rc != want:
            return Verdict(False, f"{req.key}: exit {rc} != {want} from the pinned entries", out_bytes=size)
        return v


class Spectral(Workload):
    name = "spectral"
    reference = ("lapack",)
    dims = (96, 128, 192, 256)
    rounds = 64

    def __init__(self):
        self.real1 = tuple(p for p in DEFAULT_POINTS if form1_radicand(*p) >= 0)
        self.none1 = tuple(p for p in DEFAULT_POINTS if form1_radicand(*p) < 0)
        self.form2 = tuple(p for p in DEFAULT_POINTS if Fraction(p[1]) > 0)

    def _request(self, form: int, dim: int, point) -> Request:
        c1, c3, j2 = point
        argv = ("verify", "--kind", f"villain:{form}", *_point_args(c1, c3, j2, dim), "--format", "json")
        built = form == 2 or form1_radicand(c1, c3, j2) >= 0
        return Request(f"villain:{form}", (argv,), f"villain:{form} {dim} {c1} {c3} {j2}", int(built))

    def round(self, draw, first):
        classes = [(1, d, self.real1) for d in self.dims] + [(2, d, self.form2) for d in self.dims]
        classes.append((1, draw.pick(self.dims), self.none1))
        draw.shuffle(classes)
        return [self._request(f, d, draw.pick(pool)) for f, d, pool in classes]

    def warmups(self, draw):
        return [self._request(1, self.dims[0], draw.pick(self.real1)),
                self._request(2, self.dims[0], draw.pick(self.form2))]

    def check(self, req, outcome, pins):
        rc, out, err = outcome
        pin = pins["requests"][req.key]
        size = len(out.encode())
        if rc != pin["rc"]:
            return Verdict(False, f"{req.key}: exit {rc} != pinned {pin['rc']}", out_bytes=size)
        if rc == 65:
            ok = out == "" and err.startswith("error: ") and err.count("\n") == 1
            return Verdict(ok, "" if ok else f"{req.key}: exit 65 without a one-line error", out_bytes=size)
        report = json.loads(out)
        problem = _check_report(report, pins["names"][req.kind], pin["outcome"], req.key)
        return Verdict(not problem, problem, 1, int(not report["vacuous_only"]),
                       len(report["checks"]), size)


class Transport(Workload):
    name = "transport"
    dims = (24, 32, 40)
    rounds = 8

    def _request(self, dim: int, point) -> Request:
        c1, c3, j2 = point
        args = _point_args(c1, c3, j2, dim)
        build = ("build", "--kind", "dyson:1", "--field", "complex", *args, "-o", REALIZATION_FILE)
        mapping = "s1-closed" if has_real_roots(c1, c3, j2) else "s1"
        export = ("export", "transform", "--map", mapping, *args)
        return Request("transport", (build, export), f"{dim} {c1} {c3} {j2}", 1, (point,))

    def round(self, draw, first):
        pairs = [(d, p) for d in self.dims for p in DEFAULT_POINTS]
        draw.shuffle(pairs)
        return [self._request(d, p) for d, p in pairs]

    def warmups(self, draw):
        return [self._request(self.dims[0], draw.pick(DEFAULT_POINTS))]

    def execute(self, req):
        """Steps 1-5: build and write, read back, export the map, conjugate,
        measure the intertwining.  A step that exits non-zero ends the
        request with (step, exit code, stderr)."""
        rc, _, err = call_cli(req.argvs[0])
        if rc != 0:
            return ("build", rc, err)
        with open(REALIZATION_FILE, encoding="utf-8") as fh:
            r = realizations.Realization.from_json_dict(json.load(fh))
        rc, out, err = call_cli(req.argvs[1])
        if rc != 0:
            return ("export", rc, err)
        t = similarity.DiagonalTransform.from_json_dict(json.loads(out))
        carried = similarity.conjugate(r, t)
        residual, measured = similarity.unitarization_residual(r, t)
        return r, t, carried, residual, measured, len(out.encode())

    def observe(self, req, outcome) -> tuple[dict, float, int]:
        """Counts to compare with the pin, the worst deviation from hp:1 or
        from intertwining, and the bytes written."""
        r, t, carried, residual, measured, map_bytes = outcome
        (c1, c3, j2), = req.points
        dim = r.space.dim
        target = realizations.build_realization(
            FockSpace(dim), AlgebraParams.of(c1, c3), Fraction(j2, 2), "hp", 1)
        compared, worst = 0, residual
        for n in range(dim - 1):
            if t.mask[n] and t.mask[n + 1] and target.admissible_mask[n]:
                compared += 1
                worst = max(worst,
                            abs(carried.jm.entries[n + 1, n] - target.jm.entries[n + 1, n]),
                            abs(carried.jp.entries[n, n + 1] - target.jp.entries[n, n + 1]))
        got = {"map": req.argvs[1][3], "chain_states": sum(t.mask), "compared_bonds": compared,
               "measured_bonds": measured}
        return got, worst, Path(REALIZATION_FILE).stat().st_size + map_bytes

    def check(self, req, outcome, pins):
        if len(outcome) == 3:
            step, rc, err = outcome
            return Verdict(False, f"{req.key}: {step} exited {rc}: {err.strip()}")
        got, worst, size = self.observe(req, outcome)
        pin = pins["requests"][req.key]
        if got != pin:
            return Verdict(False, f"{req.key}: {got} != pinned {pin}", out_bytes=size)
        if not worst <= TRANSPORT_TOLERANCE:
            return Verdict(False, f"{req.key}: carried bonds or intertwining off by {worst}",
                           out_bytes=size)
        return Verdict(True, out_bytes=size, chain_states=got["chain_states"])


WORKLOADS = {w.name: w for w in (ExactSweep(), FloatSweep(), Spectral(), Transport())}
