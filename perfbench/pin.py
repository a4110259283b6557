"""Pin the expected outcome of every request the workloads can generate.

Run once at the commit whose behaviour is the reference:

    python3 perfbench/pin.py [--only WORKLOAD]

It enumerates each workload's finite input space, runs every request
through the same in-process entry points as ``run.py``, and writes
``perfbench/expected/<workload>.json``.  The benchmark then counts any
request whose outcome differs from its pin as failed.  Re-pinning is a
change to the benchmark's gate and must say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

from source import OUT, use_checkout_source

use_checkout_source()

import workloads as wl  # noqa: E402
from higgsalg.verify import default_grid  # noqa: E402


def _names_of(store: dict, kind: str, report: dict) -> None:
    names = [c["name"] for c in report["checks"]]
    if store.setdefault(kind, names) != names:
        raise RuntimeError(f"check names of {kind} vary between requests")


def _outcome(report: dict) -> str:
    return f"{wl.report_code(report)}:{wl.verdicts(report)}"


def pin_single(requests, hashed: bool) -> dict:
    """Workloads whose request is one ``verify`` call; ``hashed`` also pins
    the sha256 of the JSON stdout."""
    names: dict = {}
    pins: dict = {}
    for req in requests:
        rc, out, _ = wl.call_cli(req.argvs[0])
        pin = {"rc": rc}
        if rc in (0, 1, 2):
            report = json.loads(out)
            _names_of(names, req.kind, report)
            pin["outcome"] = _outcome(report)
            if hashed:
                pin["sha256"] = hashlib.sha256(out.encode()).hexdigest()
        pins[req.key] = pin
    return {"names": names, "requests": pins}


def pin_exact() -> dict:
    w = wl.WORKLOADS["exact-sweep"]
    reqs = [w._request(k, d, p) for k in w.steps for d in w.dims for p in wl.DEFAULT_POINTS]
    return pin_single(reqs, hashed=True)


def pin_spectral() -> dict:
    w = wl.WORKLOADS["spectral"]
    reqs = [w._request(1, d, p) for d in w.dims for p in wl.DEFAULT_POINTS]
    reqs += [w._request(2, d, p) for d in w.dims for p in w.form2]
    out = pin_single(reqs, hashed=False)
    for req in reqs:
        built = out["requests"][req.key]["rc"] != 65
        if built != bool(req.realizations):
            raise RuntimeError(f"{req.key}: exit {out['requests'][req.key]['rc']} disagrees "
                               "with the benchmark's coupling test")
    return out


def pin_float() -> dict:
    """One sweep per dimension over the whole pool; entries must agree
    across dimensions, so one pin serves all three."""
    w = wl.WORKLOADS["float-sweep"]
    pool = wl.RATIONAL_POOL
    if not all(c in pool for pair in wl.GRID_COUPLINGS for c in pair):
        raise RuntimeError("default couplings are not in the rational pool")
    points = [(c1, c3, j2) for c1 in pool for c3 in pool for j2 in range(1, 13)]
    names: dict = {}
    entries: dict = {}
    for dim in w.dims:
        req = w._request(0, dim, points)
        for name, data in w.files([req]).items():
            with open(name, "wb") as fh:
                fh.write(data)
        rc, out, err = wl.call_cli(req.argvs[0])
        if rc not in (0, 1, 2):
            raise RuntimeError(f"pinning sweep at dim {dim} exited {rc}: {err}")
        for e in json.loads(out)["entries"]:
            key = f"{e['c1']} {e['c3']} {e['j2']}"
            if "error" in e:
                got = f"E:{e['error']}"
            else:
                _names_of(names, e["realization"], e["report"])
                got = _outcome(e["report"])
            if entries.setdefault(e["realization"], {}).setdefault(key, got) != got:
                raise RuntimeError(f"{e['realization']} {key}: outcome differs between dimensions")
    return {"dims": list(w.dims), "names": names, "entries": entries}


def pin_transport() -> dict:
    w = wl.WORKLOADS["transport"]
    pins = {}
    for d in w.dims:
        for p in wl.DEFAULT_POINTS:
            req = w._request(d, p)
            outcome = w.execute(req)
            if len(outcome) == 3:
                raise RuntimeError(f"{req.key}: {outcome}")
            got, worst, _ = w.observe(req, outcome)
            if not worst <= wl.TRANSPORT_TOLERANCE:
                raise RuntimeError(f"{req.key}: off by {worst} at the reference commit")
            pins[req.key] = got
    return {"tolerance": wl.TRANSPORT_TOLERANCE, "requests": pins}


PINNERS = {"exact-sweep": pin_exact, "float-sweep": pin_float, "spectral": pin_spectral,
           "transport": pin_transport}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=sorted(PINNERS), action="append")
    args = ap.parse_args()
    grid = [(str(p.c1), str(p.c3), j2) for p, j2 in default_grid()]
    if grid != list(wl.DEFAULT_POINTS):
        raise RuntimeError("the benchmark's default points differ from default_grid()")
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=OUT)
    here = os.getcwd()
    os.chdir(work)
    try:
        for name in args.only or sorted(PINNERS):
            doc = {"workload": name, **PINNERS[name]()}
            with open(wl.EXPECTED_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"pinned {name}", file=sys.stderr)
    finally:
        os.chdir(here)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
