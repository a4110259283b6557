"""Command-line front end.

Subcommands:

* ``build``    construct a realization and write it as JSON
* ``verify``   construct (or load) a realization and check its identities
* ``sweep``    verify realizations across a grid of couplings and spins
* ``table``    write the matrix-element table for one multiplet as CSV
* ``export``   write a diagonal similarity transform or a single operator

Exit status: 0 success, 1 verification failure, 2 all substantive checks
vacuous, 64 usage error, 65 domain error (a mathematically impossible
request, such as a spectral realization with no real coupling, or a
malformed input file).
Output is byte deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraParams, representation_table
from .fock import FockSpace, RATIONAL
from .realizations import Realization, build_realization
from .similarity import s1_closed_form, s1_recurrence, s2_matching
from .verify import (
    VerifyConfig,
    default_grid,
    exit_code,
    grid_from_json,
    parse_kind_token,
    report_to_json,
    sweep,
    sweep_exit_code,
    verify_realization,
)

USAGE_ERROR = 64
DOMAIN_ERROR = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance coefficient must be >= 0, got {text!r}")
    return value


def _dimension(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"truncation dimension must be >= 2, got {text!r}")
    return value


def _kind_token(text: str) -> str:
    try:
        parse_kind_token(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def _kind_list(text: str) -> list[str]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("empty realization list")
    for t in tokens:
        _kind_token(t)
    return tokens


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str, parse, what: str):
    """Read a JSON file and parse it; a malformed file raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except (TypeError, ZeroDivisionError) as err:
        # a value of the wrong JSON type, or a zero denominator
        raise ValueError(f"malformed {what} file: {err}") from None


def _point_args(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("--c1", type=_rational, required=required, help="linear structure constant, as p/q")
    sub.add_argument("--c3", type=_rational, required=required, help="cubic structure constant, as p/q")
    sub.add_argument("--j2", type=int, required=required, help="doubled spin 2j (a nonnegative integer)")


def _build_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", type=_kind_token, default="hp:1",
                     help="realization token: hp:K, dyson:K, or villain:FORM")
    sub.add_argument("--dim", type=int, default=32, help="truncation dimension")
    sub.add_argument("--field", choices=["rational", "complex"], default=RATIONAL,
                     help="scalar field for one-sided realizations")
    sub.add_argument("--coefficients", choices=["printed", "derived"], default="derived",
                     help="recurrence denominators for steps beyond 2")


def _construct(args) -> Realization:
    kind, num = parse_kind_token(args.kind)
    params = AlgebraParams(args.c1, args.c3)
    return build_realization(
        FockSpace(args.dim), params, Fraction(args.j2, 2), kind, num,
        field=args.field, coefficients=args.coefficients,
    )


def _cmd_build(args) -> int:
    r = _construct(args)
    _emit(json.dumps(r.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.input is not None:
        r = _load(args.input, Realization.from_json_dict, "realization")
    else:
        if args.c1 is None or args.c3 is None or args.j2 is None:
            return _verify_usage_error()
        r = _construct(args)
    report = verify_realization(r, VerifyConfig(args.tolerance_coefficient))
    if args.format == "json":
        _emit(report_to_json(report), args.output)
    else:
        _emit(report.to_text(), args.output)
    return exit_code(report)


def _verify_usage_error() -> int:
    sys.stderr.write("verify: need either --input FILE or all of --c1 --c3 --j2\n")
    return USAGE_ERROR


def _cmd_sweep(args) -> int:
    if args.grid == "default":
        grid = default_grid()
    else:
        grid = _load(args.grid, grid_from_json, "grid")
    report = sweep(args.kinds, grid, dim=args.dim,
                   cfg=VerifyConfig(args.tolerance_coefficient))
    if args.format == "json":
        _emit(report_to_json(report), args.output)
    else:
        _emit(report.to_text(), args.output)
    return sweep_exit_code(report)


def _cmd_table(args) -> int:
    table = representation_table(AlgebraParams(args.c1, args.c3), Fraction(args.j2, 2))
    _emit(table.to_csv(), args.output)
    return 0


def _cmd_export_transform(args) -> int:
    params = AlgebraParams(args.c1, args.c3)
    space = FockSpace(args.dim)
    j = Fraction(args.j2, 2)
    if args.map == "s1":
        t = s1_recurrence(space, params, j, q0=args.q0)
    elif args.map == "s1-closed":
        t = s1_closed_form(space, params, j, q0=args.q0)
    else:
        t = s2_matching(space, params, j, q0_even=args.q0, q0_odd=args.q0_odd)
    _emit(json.dumps(t.to_json_dict(), indent=2, allow_nan=False) + "\n", args.output)
    return 0


def _cmd_export_operator(args) -> int:
    r = _construct(args)
    op = {"jp": r.jp, "jm": r.jm, "j3": r.j3}[args.which]
    _emit(json.dumps(op.to_json_dict(), indent=2) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="higgsalg",
                     description="Boson matrix realizations of the cubic angular-momentum algebra, with every identity checked.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = subs.add_parser("build",
                              help="construct a realization and write it as JSON")
    _point_args(p_build)
    _build_args(p_build)
    p_build.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_build.set_defaults(func=_cmd_build)

    p_verify = subs.add_parser("verify",
                               help="check the identities of a realization")
    _point_args(p_verify, required=False)
    _build_args(p_verify)
    p_verify.add_argument("--input", default=None, help="verify a saved realization JSON instead of building")
    p_verify.add_argument("--tolerance-coefficient", type=_tolerance, default=1e-12,
                          help="float tolerance is this times dim times scale")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = subs.add_parser("sweep",
                              help="verify realizations across a coupling/spin grid")
    p_sweep.add_argument("--kinds", type=_kind_list, default=["hp:1", "dyson:1"],
                         help="comma-separated realization tokens")
    p_sweep.add_argument("--grid", default="default",
                         help="'default' or a JSON file of {c1, c3, j2} points")
    p_sweep.add_argument("--dim", type=_dimension, default=32)
    p_sweep.add_argument("--tolerance-coefficient", type=_tolerance, default=1e-12)
    p_sweep.add_argument("--format", choices=["text", "json"], default="text")
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_table = subs.add_parser("table",
                              help="matrix-element table of one multiplet as CSV")
    _point_args(p_table)
    p_table.add_argument("-o", "--output", default=None)
    p_table.set_defaults(func=_cmd_table)

    p_export = subs.add_parser("export",
                               help="write a similarity transform or one operator")
    esubs = p_export.add_subparsers(dest="what", required=True, parser_class=_Parser)

    p_tr = esubs.add_parser("transform",
                            help="diagonal similarity scaling as JSON")
    _point_args(p_tr)
    p_tr.add_argument("--map", choices=["s1", "s1-closed", "s2"], default="s1")
    p_tr.add_argument("--dim", type=int, default=32)
    p_tr.add_argument("--q0", type=_finite_float, default=1.0, help="seed value at n = 0")
    p_tr.add_argument("--q0-odd", type=_finite_float, default=1.0,
                      help="seed at n = 1 for the two-chain step-2 map")
    p_tr.add_argument("-o", "--output", default=None)
    p_tr.set_defaults(func=_cmd_export_transform)

    p_op = esubs.add_parser("operator",
                            help="one generator of a realization as JSON")
    _point_args(p_op)
    _build_args(p_op)
    p_op.add_argument("--which", choices=["jp", "jm", "j3"], required=True)
    p_op.add_argument("-o", "--output", default=None)
    p_op.set_defaults(func=_cmd_export_operator)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as err:
        sys.stderr.write(f"error: {err}\n")
        return DOMAIN_ERROR
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return DOMAIN_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
