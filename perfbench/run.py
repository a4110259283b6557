"""higgsalg benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                              [--reference PART[,PART...]]

Run from the root of a checkout.  The program is imported from that
checkout's ``src/``; nothing is installed or built.  Workloads, inputs
and the output gate are in ``workloads.py``; the pinned expectations in
``expected/`` are written by ``pin.py``.

``--trace 0`` (the default) measures the end-to-end metrics with no
tracing installed.  The gated throughput and latencies are in units of
a reference kernel run between requests (``reference_kernel``), because
the speed of the shared machine drifts by tens of percent within
seconds and over minutes; the same figures in plain seconds are printed
beside them.  ``setup_s`` is the set-up time of eleven fresh processes
that each start, import higgsalg, generate the inputs and run one
untimed warm-up request per kind, in units of a reference process
(``probe_setup``), scaled to seconds at the baseline machine's usual
speed.  A run whose figures may not compare with the latest baseline
says why in ``not comparable:`` lines (``comparability``).
``--reference`` swaps the workload's reference kernel for another one,
to compare them.

``--trace 1`` runs every request twice in a row, untraced and traced in
alternating order (see ``spans.py``), and reports the per-layer
metrics; ``trace_overhead`` is the untraced over the traced throughput.

Every run needs at least 100 requests, so the measuring loop runs past
``--seconds`` until it has them, and on to the end of the round of
request classes it is in; a traced run has no minimum.
``--smoke`` runs five requests instead, to check that every metric is
printed.

Seeds: 1 is the default; 2 is held out for confirming claims.  The same
seed gives byte-identical argv lists and grid files.  BLAS is left at
its default thread count.

Output: a ``provenance`` line, one ``metric NAME VALUE UNIT`` line per
metric, ``fail_ratio`` and the latency sample count, then as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The same result, with the first failures, is written to
``perfbench/out/``; traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

from source import BASELINE_DIR, OUT, ROOT, SRC, use_checkout_source
from spans import CATEGORIES, LAYERS, Tracer, install

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_PROBES = 11
REFERENCE_PROBE_RUNS = 40  # python kernel runs in a reference process (probe_setup)
# setup_s is set-up time in units of the reference process times this,
# the reference process's median wall time on the baseline machine
# (2 vCPU Intel Xeon at 2.0 GHz), so that it reads as seconds at that
# machine's usual speed.
REFERENCE_PROCESS_S = 0.4
MIN_REQUESTS = 100
SMOKE_REQUESTS = 5
HARD_LIMIT_S = 120  # a measuring phase never runs longer than this

END_TO_END = (
    ("realizations_per_ref", "1/ref"),
    ("latency_ref.p50", "ref"),
    ("latency_ref.p90", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed beside END_TO_END, from the same requests, in plain wall-clock units.
WALL_CLOCK = (
    ("realizations_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("reference_ms.p50", "ms"),
    ("setup_wall_s", "s"),
)
PER_LAYER = (
    ("request.ms", "ms"),
    ("untraced.ms", "ms"),
    *((f"{layer}.ms", "ms") for layer in LAYERS),
    *((f"{cat}.ms", "ms") for cat in CATEGORIES),
    ("fock.matmul.calls", "count"),
    ("fock.spectral.calls", "count"),
    ("algebra.casimir.calls", "count"),
    ("algebra.casimir.verify_share", "ratio"),
    ("verify.checks", "count"),
    ("verify.substantive_ratio", "ratio"),
    ("similarity.chain_states", "count"),
    ("cli.out_bytes", "B"),
    ("trace_overhead", "ratio"),
)


@dataclass
class Phase:
    """Outcome of one measuring loop."""

    latencies: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # reference time before each request, one after the last
    realizations: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reports: int = 0
    substantive: int = 0
    checks: int = 0
    out_bytes: int = 0
    chain_states: int = 0

    @property
    def throughput(self) -> float:
        return self.realizations / sum(self.latencies)

    def normalized(self) -> list[float]:
        """Each request's time over the mean of the two reference times that bracket it."""
        return [2 * lat / (a + b) for lat, a, b in zip(self.latencies, self.refs, self.refs[1:])]

    def record(self, latency: float, ref: float, realizations: int, verdict) -> None:
        self.latencies.append(latency)
        self.refs.append(ref)
        self.realizations += realizations
        if not verdict.ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(verdict.problem)
        self.reports += verdict.reports
        self.substantive += verdict.substantive
        self.checks += verdict.checks
        self.out_bytes += verdict.out_bytes
        self.chain_states += verdict.chain_states


def run_requests(wl, reqs, pins, reference, seconds, min_requests, max_requests=None,
                 tracer=None) -> list[Phase]:
    """Closed loop: issue the next request only when the previous one has
    returned and been checked.  The loop ends after ``seconds`` and at
    least ``min_requests``, and only after whole rounds, so that every
    run carries the same mix of request classes.  Only the request
    itself is timed; the reference kernel runs between requests, so that
    each request is bracketed by one reference time before it and one
    after.

    Without a tracer this returns one phase.  With one, every request runs
    twice in a row, untraced and traced, the untraced copy first on even
    requests and second on odd ones, so that neither machine drift nor the
    order favours one copy; it returns the (untraced, traced) phases."""
    from workloads import Verdict

    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    whole = wl.round_size
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if max_requests is not None:
            if i >= max_requests:
                break
        elif (elapsed >= seconds and i >= min_requests and i % whole == 0) \
                or elapsed >= HARD_LIMIT_S:
            break
        req = reqs[i % len(reqs)]
        ref = reference_kernel(reference)
        for traced in (0,) if tracer is None else (0, 1) if i % 2 == 0 else (1, 0):
            phase = phases[traced]
            if traced:
                tracer.enable()
                tracer.begin(i)
            t0 = perf_counter()
            try:
                outcome, error = wl.execute(req), None
            except Exception as exc:  # a raising request is a failed request, not a crash
                outcome, error = None, f"{req.key}: {type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            if traced:
                tracer.end()
                tracer.disable()
            verdict = wl.check(req, outcome, pins) if error is None else Verdict(False, error)
            phase.record(latency, ref, req.realizations, verdict)
        i += 1
    ref = reference_kernel(reference)
    for phase in phases:
        phase.refs.append(ref)
    return phases


def prepare(wl, seed: int):
    """Set-up: generate the inputs, write them, load the pins and run one
    untimed warm-up request per kind.  Leaves the process in the work
    directory, where the requests read and write their files."""
    warm, reqs, files = wl.generate(seed)
    work = OUT / "work" / f"{wl.name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (work / name).write_bytes(data)
    os.chdir(work)
    pins = wl.load_pins()
    warm_phase, = run_requests(wl, warm, pins, wl.reference, 0, 0, max_requests=len(warm))
    return reqs, pins, warm_phase, work


def probe_setup(args, count: int) -> tuple[list[float], list[float]]:
    """Set-up time of ``count`` fresh processes that only set up, as
    (wall seconds, reference units).

    A set-up is process start, imports, input generation and warm-up,
    and it does not slow down with the machine the way the in-process
    reference kernel does.  So its reference is a process too: a fresh
    interpreter that starts like the probe, imports what ``run.py``
    imports, runs the python kernel REFERENCE_PROBE_RUNS times and exits.
    One runs before the first probe and one after each, and each probe's
    wall time is divided by the mean of the two that bracket it."""
    probe = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed)]

    def timed(flag: str) -> float:
        t0 = perf_counter()
        proc = subprocess.run(probe + [flag], cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{flag} exited {proc.returncode}: {proc.stderr.strip()}")
        return wall

    refs = [timed("--reference-probe")]
    walls = []
    for _ in range(count):
        walls.append(timed("--setup-probe"))
        refs.append(timed("--reference-probe"))
    return walls, [2 * w / (a + b) for w, a, b in zip(walls, refs, refs[1:])]


def end_to_end(phase: Phase, setup_units: list) -> dict:
    norm = phase.normalized()
    return {
        "realizations_per_ref": phase.realizations / sum(norm),
        "latency_ref.p50": statistics.median(norm),
        "latency_ref.p90": statistics.quantiles(norm, n=10)[8],
        "setup_s": REFERENCE_PROCESS_S * statistics.median(setup_units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall_clock(phase: Phase, setup_walls: list) -> dict:
    return {
        "realizations_per_s": phase.throughput,
        "latency_ms.p50": 1000 * statistics.median(phase.latencies),
        "latency_ms.p90": 1000 * statistics.quantiles(phase.latencies, n=10)[8],
        "reference_ms.p50": 1000 * statistics.median(phase.refs),
        "setup_wall_s": statistics.median(setup_walls),
    }


REFERENCE_PARTS = ("python", "numpy", "lapack")
_FLOAT_128 = np.cos(np.add.outer(np.arange(128.0), np.arange(128.0)))
_HERMITIAN_128 = np.exp(1j * np.add.outer(np.arange(128.0), -np.arange(128.0)) ** 2 / 128)


def reference_kernel(parts: tuple[str, ...]) -> float:
    """Seconds taken by a fixed piece of work that uses none of the
    program.  It measures how fast the shared machine runs this process
    at that moment; the ``*_ref`` metrics divide by it, so drift in
    machine speed cancels while a change to the program does not.

    The work is made of the named parts, chosen per workload to resemble
    its own work, because kinds of work drift differently: ``python``
    (Fraction sums and a JSON round trip, no BLAS), ``numpy`` (float
    128x128 matmuls and elementwise operations) and ``lapack`` (a complex
    128x128 eigh and matmul).  ``baseline/point-1.json`` records how
    much wider float-sweep and spectral spread under ``python`` alone."""
    t0 = perf_counter()
    if "python" in parts:
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        json.loads(json.dumps([[float(i), i / 3] for i in range(600)]))
    if "numpy" in parts:
        a = _FLOAT_128
        for _ in range(4):
            b = (a @ a + a) * 0.5 - a.T
            np.abs(b).max()
            np.diag(b, 1).copy()
    if "lapack" in parts:
        np.linalg.eigh(_HERMITIAN_128)
        _HERMITIAN_128 @ _HERMITIAN_128
    return perf_counter() - t0


def comparability(workload: str, prov: dict, plain: dict) -> list[str]:
    """Why this run's ``*_ref`` figures may not compare with the latest
    baseline: another BLAS thread count, or a reference time outside the
    range the baseline's own runs gave.  The reference kernel runs in
    this process, so a slowdown of the whole process (background threads,
    more garbage collection) slows it too and cancels in ``*_ref``; a
    flagged run should be judged on its wall-clock figures as well."""
    points = sorted(BASELINE_DIR.glob("point-*.json"), key=lambda p: int(p.stem.split("-")[1]))
    if not points:
        return ["no baseline to compare with"]
    with open(points[-1], encoding="utf-8") as fh:
        base = json.load(fh)
    reasons = []
    if prov["blas_threads"] != base["provenance"]["blas_threads"]:
        reasons.append(f"blas_threads {prov['blas_threads']} != {base['provenance']['blas_threads']}"
                       f" in {points[-1].name}")
    ref = base["end_to_end"].get(workload, {}).get("wall_clock", {}).get("reference_ms.p50")
    if ref:
        values = ref["values"] + ref["second_set_values"]
        if not min(values) <= plain["reference_ms.p50"] <= max(values):
            reasons.append(f"reference_ms.p50 {plain['reference_ms.p50']:.4f} outside "
                           f"{min(values):.4f}..{max(values):.4f} in {points[-1].name}")
    return reasons


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    tot = tracer.totals()
    n = traced.realizations

    def ms(seconds: float) -> float:
        return 1000 * seconds / n

    out = {"request.ms": ms(tot["request_s"]), "untraced.ms": ms(tot["layer_s"]["untraced"])}
    out.update({f"{layer}.ms": ms(tot["layer_s"][layer]) for layer in LAYERS})
    out.update({f"{cat}.ms": ms(tot["category_s"][cat]) for cat in CATEGORIES})
    for cat in ("fock.matmul", "fock.spectral", "algebra.casimir"):
        out[f"{cat}.calls"] = tot["category_calls"][cat] / n
    verify_s = tot["inclusive_s"]["verify.verify_realization"]
    out["algebra.casimir.verify_share"] = (
        tot["inclusive_s"]["algebra.casimir_operator"] / verify_s if verify_s else 0.0)
    out["verify.checks"] = traced.checks / n
    out["verify.substantive_ratio"] = traced.substantive / traced.reports if traced.reports else 0.0
    out["similarity.chain_states"] = traced.chain_states / n
    out["cli.out_bytes"] = traced.out_bytes / n
    out["trace_overhead"] = untraced.throughput / traced.throughput
    layered = sum(tot["layer_s"].values())
    if abs(layered - tot["request_s"]) > 1e-9 * max(1.0, tot["request_s"]):
        raise RuntimeError(f"layer self times {layered} do not add up to {tot['request_s']}")
    return out


def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def provenance(args, reference: str) -> dict:
    import numpy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        openblas = None
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "reference": ",".join(reference),
        "git_sha": git_sha, "src_sha256": tree.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__, "openblas": openblas,
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one higgsalg benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    ap.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a handful of requests per phase")
    ap.add_argument("--reference", type=lambda text: tuple(text.split(",")),
                    help="reference kernel of the *_ref metrics, as comma-separated parts of "
                         f"{', '.join(REFERENCE_PARTS)} (default: the workload's own)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.reference and not set(args.reference) <= set(REFERENCE_PARTS):
        ap.error(f"--reference: parts must be among {', '.join(REFERENCE_PARTS)}")
    if args.reference_probe:
        for _ in range(REFERENCE_PROBE_RUNS):
            reference_kernel(("python",))
        return 0

    use_checkout_source()
    os.environ.pop("HIGGSALG_THREADS", None)  # sweep stays single-threaded, as the tracer needs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        prepare(wl, args.seed)
        return 0

    reference = args.reference or wl.reference
    limits = dict(seconds=0, min_requests=0, max_requests=SMOKE_REQUESTS) if args.smoke else \
        dict(seconds=args.seconds, min_requests=MIN_REQUESTS)
    setup_walls, setup_units = ([], []) if args.trace else \
        probe_setup(args, 1 if args.smoke else SETUP_PROBES)
    here = os.getcwd()
    reqs, pins, warm, work = prepare(wl, args.seed)
    try:
        if args.trace:
            tracer = Tracer()
            install(tracer)
            phases = run_requests(wl, reqs, pins, reference, **dict(limits, min_requests=0),
                                  tracer=tracer)
            metrics = per_layer(tracer, *phases)
            tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz")
            units = dict(PER_LAYER)
            plain = {}
        else:
            phases = run_requests(wl, reqs, pins, reference, **limits)
            metrics = end_to_end(phases[0], setup_units)
            units = dict(END_TO_END)
            plain = wall_clock(phases[0], setup_walls)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    # a traced run counts the untraced copy of each request as an attempt too
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0 and warm.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    prov = provenance(args, reference)
    flags = [] if args.trace or args.smoke else comparability(wl.name, prov, plain)
    detail = {"provenance": prov, "result": result, "comparability": flags,
              "setup_samples_s": setup_walls, "setup_samples_ref": setup_units,
              "latency_samples": len(phases[-1].latencies), "realizations": phases[-1].realizations,
              "wall_clock": plain,
              "problems": warm.problems + [p for phase in phases for p in phase.problems]}
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print("provenance " + json.dumps(prov))
    for problem in detail["problems"]:
        print(f"problem {problem}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, unit in WALL_CLOCK if plain else ():
        print(f"metric {name} {plain[name]!r} {unit}")
    for reason in flags:
        print(f"not comparable: {reason}")
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} requests)")
    print(f"latency_ms.samples {len(phases[-1].latencies)} count")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
