"""Check the ROADMAP baseline claims at the current commit.

    python3 perfbench/claims.py [-o FILE]

Each figure is one in-process wall-clock run, like the ROADMAP figures
it checks; they are indicative, not gated.

- default sweep share: ``sweep`` with its defaults (hp:1 and dyson:1 at
  dim 32 over the default grid) against ``sweep --kinds hp:1``; the
  exact dyson part is 1 - hp_only / default (ROADMAP: about 99%).
- Casimir share: traced ``verify`` of dyson:1 at (c1, c3) = (1, 1),
  2j = 5, dim 24; inclusive ``casimir_operator`` time over inclusive
  ``verify_realization`` time (ROADMAP: about 55%).
- dyson build plus verify at dim 24 and 48 (ROADMAP: 0.37 s and 3.0 s,
  cubic in dim), hp:1 at dim 32 (1.6 ms), and villain:1 at dim 128 and
  256 (15 + 21 ms and 66 + 108 ms).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from time import perf_counter

from source import OUT, use_checkout_source

use_checkout_source()
os.environ.pop("HIGGSALG_THREADS", None)

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def timed(argv) -> float:
    t0 = perf_counter()
    rc, _, err = wl.call_cli(argv)
    if rc not in (0, 1, 2):
        raise RuntimeError(f"{argv} exited {rc}: {err}")
    return perf_counter() - t0


def verify_argv(kind: str, dim: int, c1="1", c3="1", j2=5) -> list[str]:
    return ["verify", "--kind", kind, "--c1", c1, "--c3", c3, "--j2", str(j2), "--dim", str(dim)]


def measure() -> dict:
    default_s = timed(["sweep"])
    hp_only_s = timed(["sweep", "--kinds", "hp:1"])
    out = {
        "default_sweep_s": default_s,
        "hp_only_sweep_s": hp_only_s,
        "dyson_share_of_default_sweep": 1 - hp_only_s / default_s,
        "dyson1_verify_s": {str(d): timed(verify_argv("dyson:1", d)) for d in (24, 48)},
        "hp1_verify_dim32_s": timed(verify_argv("hp:1", 32)),
        "villain1_verify_s": {str(d): timed(verify_argv("villain:1", d)) for d in (128, 256)},
    }
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.enable()
    tracer.begin(0)
    wl.call_cli(verify_argv("dyson:1", 24))
    tracer.end()
    tracer.disable()
    incl = tracer.totals()["inclusive_s"]
    out["casimir_share_of_dyson_verify"] = (
        incl["algebra.casimir_operator"] / incl["verify.verify_realization"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="Check the ROADMAP baseline claims.")
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="claims-", dir=OUT) as work:
        os.chdir(work)
        try:
            out = measure()
        finally:
            os.chdir(here)
    text = json.dumps(out, indent=1)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
