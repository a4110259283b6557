"""Run workloads over several seeds and summarize each metric.

    python3 perfbench/collect.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]
                                 [--seconds S] [--reference PART[,PART...]] [-o FILE]

Each run is ``run.py`` in its own process, one after another.  For every
metric the summary gives the values, their median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance
between the quartiles as a share of the median.  The end-to-end metrics
of the result line and the wall-clock figures printed beside them are
summarized alike.  Runs that ``run.py`` marks as not comparable with the
baseline (another BLAS thread count, or a reference time outside the
baseline's range) are listed; judge their ``*_ref`` figures on the
wall-clock ones too.  A claim or a bound is read from these summaries,
never from a single run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from source import ROOT


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int, seconds: float, reference=None) -> dict:
    """One run: its result line, the wall-clock metrics printed beside it,
    and the reasons it is not comparable with the baseline, if any."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = {"value": float(value), "unit": unit}
    wall = {k: v for k, v in printed.items() if k not in result["metrics"]}
    flags = [line.partition(": ")[2] for line in lines if line.startswith("not comparable: ")]
    return {"result": result, "wall_clock": wall, "flags": flags}


def summarize(metrics: list[dict]) -> dict:
    out = {}
    for name in metrics[0]:
        values = [m[name]["value"] for m in metrics]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": metrics[0][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="Summarize workloads over several seeds.")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--reference", help="override each workload's reference kernel, "
                                         "as comma-separated parts (see run.py)")
    ap.add_argument("-o", "--output", default=None, help="write the summary JSON here too")
    args = ap.parse_args()
    summary = {"seeds": args.seeds, "trace": args.trace, "seconds": args.seconds,
               "reference": args.reference, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(workload, s, args.trace, args.seconds, args.reference) for s in args.seeds]
        results = [r["result"] for r in runs]
        summary["workloads"][workload] = entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": summarize([r["metrics"] for r in results]),
            "wall_clock": summarize([r["wall_clock"] for r in runs]) if runs[0]["wall_clock"] else {},
            "not_comparable": {str(seed): r["flags"] for seed, r in zip(args.seeds, runs) if r["flags"]},
        }
        for name, m in {**entry["metrics"], **entry["wall_clock"]}.items():
            print(f"{workload:12} {name:34} median {m['median']:12.6g} {m['unit']:6} "
                  f"spread {m['spread']:.4f}", flush=True)
        for seed, flags in entry["not_comparable"].items():
            print(f"{workload:12} seed {seed} not comparable: {'; '.join(flags)}", flush=True)
    text = json.dumps(summary, indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
