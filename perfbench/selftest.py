"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--no-smoke]

1. Determinism: for every workload and several seeds, generating the
   inputs twice gives byte-identical argv lists and grid files, another
   seed gives other inputs, and every generated request has a pin.
2. Smoke: every workload runs ``run.py --smoke`` with ``--trace 0`` and
   ``--trace 1``; each run must print every metric that BENCHMARK.json
   names, with its unit, and end with a correct result line.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import asdict

from source import ROOT, use_checkout_source

use_checkout_source()

import run  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = range(1, 11)


def _dump(workload, seed: int) -> bytes:
    warm, reqs, files = workload.generate(seed)
    doc = {"requests": [asdict(r) for r in warm + reqs],
           "files": {name: data.decode() for name, data in sorted(files.items())}}
    return json.dumps(doc, sort_keys=True).encode()


def _unpinned(workload, seed: int) -> list[str]:
    pins = workload.load_pins()
    warm, reqs, _ = workload.generate(seed)
    missing = []
    for r in warm + reqs:
        if workload.name == "float-sweep":
            missing += [f"{t} {c1} {c3} {j2}" for c1, c3, j2 in r.points for t in wl.SWEEP_TOKENS
                        if f"{c1} {c3} {j2}" not in pins["entries"][t]]
        elif r.key not in pins["requests"]:
            missing.append(r.key)
    return missing


def check_determinism() -> list[str]:
    errors = []
    for workload in wl.WORKLOADS.values():
        previous = None
        for seed in SEEDS:
            first = _dump(workload, seed)
            if first != _dump(workload, seed):
                errors.append(f"{workload.name} seed {seed}: inputs differ between generations")
            if first == previous:
                errors.append(f"{workload.name} seed {seed}: same inputs as seed {seed - 1}")
            previous = first
            missing = _unpinned(workload, seed)
            if missing:
                errors.append(f"{workload.name} seed {seed}: no pin for {missing[:3]}")
    return errors


def check_metric_lists() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = []
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        theirs = [(m["name"], m["unit"]) for m in bench[key]]
        if theirs != list(ours):
            errors.append(f"BENCHMARK.json {key} differs from run.py: {theirs} vs {list(ours)}")
    if [w["name"] for w in bench["workloads"]] != list(wl.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    return errors


def check_smoke() -> list[str]:
    errors = []
    for name in wl.WORKLOADS:
        for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            printed = {}
            for line in lines:
                parts = line.split()
                if parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            for metric, unit in wanted:
                if printed.get(metric) != unit:
                    errors.append(f"{where}: metric {metric} [{unit}] printed as {printed.get(metric)}")
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            elif not result["correct"] or result["attempted"] < 1:
                errors.append(f"{where}: result {result}")
            elif sorted(result["metrics"]) != sorted(m for m, _ in wanted):
                errors.append(f"{where}: result metrics {sorted(result['metrics'])}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description="Self-test of the benchmark.")
    ap.add_argument("--no-smoke", action="store_true", help="skip the smoke runs")
    args = ap.parse_args()
    errors = check_determinism() + check_metric_lists()
    if not args.no_smoke:
        errors += check_smoke()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
