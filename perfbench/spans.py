"""Spans around the program's public functions, installed from outside.

``install`` wraps every public function and method of the six layer
modules (``fock``, ``algebra``, ``realizations``, ``similarity``,
``verify``, ``cli``) for every place the package holds the original, so
that names a module imported from another (such as ``casimir_operator``
and ``commutator`` in ``verify``) are traced at their import sites too.
``Tracer.enable`` binds the wrappers and ``disable`` restores the
originals, so untraced requests run the package untouched.  Nothing
under ``src/`` is edited.

A span is (name, start, end, parent, request).  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover; self times summed by layer, plus
the self time of the benchmark's root span per request (``untraced``),
add up exactly to the traced request time.

Report serialization (``report_to_json`` with the report classes'
``to_json_dict``) and ``json.dumps`` at the ``cli`` call sites count as
``cli.emit``; ``build_parser`` and the parser's ``parse_args`` as
``cli.parse``.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import importlib
import inspect
import json
import types
from time import perf_counter

LAYERS = ("fock", "algebra", "realizations", "similarity", "verify", "cli")
ROOT_SPAN = "request"

# Operator methods by category, on any class of the fock module.
FOCK_METHODS = {
    "__matmul__": "fock.matmul",
    "__add__": "fock.elementwise",
    "__sub__": "fock.elementwise",
    "__neg__": "fock.elementwise",
    "__rmul__": "fock.elementwise",
    "scale": "fock.elementwise",
    "max_norm": "fock.max_norm",
    "to_json_dict": "fock.json",
    "from_json_dict": "fock.json",
    "to_json": "fock.json",
    "from_json": "fock.json",
}
FUNCTIONS = {
    "fock.hermitian_eig": "fock.spectral",
    "fock.unitary_exp": "fock.spectral",
    "fock.position": "fock.spectral",
    "fock.momentum": "fock.spectral",
    "algebra.casimir_operator": "algebra.casimir",
    "realizations.closed_form_k1": "realizations.weights",
    "realizations.closed_form_k2": "realizations.weights",
    "realizations.product_recurrence": "realizations.weights",
    "realizations.build_realization": "realizations.build",
    "realizations.hp_simple": "realizations.build",
    "realizations.hp_quadratic": "realizations.build",
    "realizations.dyson_simple": "realizations.build",
    "realizations.dyson_quadratic": "realizations.build",
    "realizations.generic_realization": "realizations.build",
    "realizations.villain_boson": "realizations.build",
    "realizations.momentum_window_projector": "realizations.window",
    "similarity.s1_recurrence": "similarity.map",
    "similarity.s1_closed_form": "similarity.map",
    "similarity.s2_matching": "similarity.map",
    "similarity.conjugate": "similarity.conjugate",
    "similarity.unitarization_residual": "similarity.unitarization",
    "verify.report_to_json": "cli.emit",
    "cli.json.dumps": "cli.emit",
    "cli.build_parser": "cli.parse",
    "cli.parse_args": "cli.parse",
}
CATEGORIES = tuple(sorted(set(FOCK_METHODS.values()) | set(FUNCTIONS.values())))
# Serialized inside report_to_json; left unwrapped so their time is emit time.
EMIT_CLASSES = ("VerificationReport", "CheckResult", "SweepEntry", "SweepReport")
# Inclusive times kept for the share checks of the baseline.
INCLUSIVE = ("algebra.casimir_operator", "verify.verify_realization")


class Tracer:
    """Span store and wrapper factory.  Single-threaded by design: the
    benchmark keeps HIGGSALG_THREADS unset, so ``sweep`` runs inline."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.request = -1
        self.patches: list = []  # (owner, attribute, original, traced twin)
        self._root_id = self._name_id(ROOT_SPAN)
        self._root = -1
        self._start = 0.0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.request)

        return traced

    def enable(self) -> None:
        """Bind the traced twins; every call into the package now records a span."""
        for owner, attr, _, twin in self.patches:
            setattr(owner, attr, twin)

    def disable(self) -> None:
        """Bind the originals back; the package runs exactly as without tracing."""
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def begin(self, request: int) -> None:
        """Open the root span of one request."""
        self.request = request
        self._root = len(self.spans)
        self.spans.append(None)
        self.stack.append(self._root)
        self._start = perf_counter()

    def end(self) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[self._root] = (self._root_id, self._start, end, -1, self.request)

    def layer_of(self, name: str) -> str:
        if name == ROOT_SPAN:
            return "untraced"
        category = self.category_of(name)
        return (category or name).split(".")[0]

    @staticmethod
    def category_of(name: str):
        if name in FUNCTIONS:
            return FUNCTIONS[name]
        parts = name.split(".")
        if parts[0] == "fock" and len(parts) == 3:
            return FOCK_METHODS.get(parts[2])
        return None

    def totals(self) -> dict:
        """Self time by layer and by category, call counts by category,
        inclusive time of the INCLUSIVE names, and the root (request) time."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        layer = [self.layer_of(n) for n in self.names]
        category = [self.category_of(n) for n in self.names]
        out = {"layer_s": dict.fromkeys(LAYERS + ("untraced",), 0.0),
               "category_s": dict.fromkeys(CATEGORIES, 0.0),
               "category_calls": dict.fromkeys(CATEGORIES, 0),
               "inclusive_s": dict.fromkeys(INCLUSIVE, 0.0),
               "request_s": 0.0}
        for i, (nid, start, end, parent, _) in enumerate(spans):
            own = (end - start) - covered[i]
            out["layer_s"][layer[nid]] += own
            if category[nid] is not None:
                out["category_s"][category[nid]] += own
                out["category_calls"][category[nid]] += 1
            if self.names[nid] in out["inclusive_s"]:
                out["inclusive_s"][self.names[nid]] += end - start
            if parent < 0:
                out["request_s"] += end - start
        return out

    def write(self, path) -> None:
        """Spans as gzipped TSV: request, span, parent, name, start and end in µs."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("request\tspan\tparent\tname\tstart_us\tend_us\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (nid, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{req}\t{i}\t{parent}\t{self.names[nid]}\t"
                         f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n")


class _JsonAtCli:
    """The ``json`` module as ``cli`` sees it, with ``dumps`` traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer: Tracer) -> None:
    """Make a traced twin of every public name of the layer modules, for
    every place the package binds it; ``Tracer.enable`` swaps them in."""
    import higgsalg

    modules = {name: importlib.import_module(f"higgsalg.{name}") for name in LAYERS}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(obj, f"{short}.{attr}")
            elif inspect.isclass(obj) and attr not in EMIT_CLASSES:
                _wrap_methods(tracer, obj, f"{short}.{attr}")
    for mod in (higgsalg, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                tracer.patches.append((mod, attr, obj, wrapped[obj]))

    cli = modules["cli"]
    tracer.patches.append((cli, "json", json, _JsonAtCli(tracer.wrap(json.dumps, "cli.json.dumps"))))
    build_parser = wrapped[cli.build_parser]
    parse_args = tracer.wrap(argparse.ArgumentParser.parse_args, "cli.parse_args")

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = types.MethodType(parse_args, parser)
        return parser

    # bound after the plain wrapper of build_parser, so it wins in enable()
    tracer.patches.append((cli, "build_parser", cli.build_parser, traced_build_parser))


def _wrap_methods(tracer: Tracer, cls, prefix: str) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr not in FOCK_METHODS:
            continue
        if isinstance(obj, staticmethod):
            twin = staticmethod(tracer.wrap(obj.__func__, f"{prefix}.{attr}"))
        elif isinstance(obj, classmethod):
            twin = classmethod(tracer.wrap(obj.__func__, f"{prefix}.{attr}"))
        elif inspect.isfunction(obj):
            twin = tracer.wrap(obj, f"{prefix}.{attr}")
        else:
            continue
        tracer.patches.append((cls, attr, obj, twin))
