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
malformed input file), 70 internal error (any other exception).
Output is byte deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .algebra import AlgebraParams, representation_table
from .fock import FockSpace, RATIONAL, _fraction, _operator_text
from .realizations import Realization, _realization_text, build_realization
from .similarity import _transform_text, s1_closed_form, s1_recurrence, s2_matching
from .verify import (
    _TOLERANCE_COEFFICIENT,
    default_grid,
    exit_code,
    grid_from_json,
    parse_kind_token,
    report_to_json,
    sweep,
    verify_realization,
)

USAGE_ERROR = 64
DOMAIN_ERROR = 65
INTERNAL_ERROR = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return _fraction(text)
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


def _seed(text: str) -> float:
    value = _finite_float(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"seed must be nonzero, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance coefficient must be >= 0, got {text!r}")
    return value


def _int_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {text!r}")
    return value


def _dimension(text: str) -> int:
    return _int_at_least(text, 2, "truncation dimension")


def _doubled_spin(text: str) -> int:
    return _int_at_least(text, 0, "doubled spin 2j")


def _kind_token(text: str) -> tuple[str, int]:
    try:
        return parse_kind_token(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _kind_list(text: str) -> list[str]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("empty realization list")
    for t in tokens:
        _kind_token(t)
    return tokens


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str, parse, what: str):
    """Read a JSON file and parse it; a malformed file raises ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except KeyError as err:
        raise ValueError(f"malformed {what} file: missing key {err.args[0]!r}") from None
    except RecursionError as err:
        # nesting deeper than the decoder or a parser can recurse
        raise ValueError(f"malformed {what} file: {err}") from None


def _point_args(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("--c1", type=_rational, required=required, help="linear structure constant, as p/q")
    sub.add_argument("--c3", type=_rational, required=required, help="cubic structure constant, as p/q")
    sub.add_argument("--j2", type=_doubled_spin, required=required, help="doubled spin 2j (a nonnegative integer)")


def _build_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kind", type=_kind_token, default="hp:1",
                     help="realization token: hp:K, dyson:K, or villain:FORM")
    sub.add_argument("--dim", type=_dimension, default=32, help="truncation dimension")
    sub.add_argument("--field", choices=["rational", "complex"], default=RATIONAL,
                     help="scalar field for one-sided realizations")


def _construct(args) -> Realization:
    kind, num = args.kind
    params = AlgebraParams(args.c1, args.c3)
    return build_realization(FockSpace(args.dim), params, Fraction(args.j2, 2), kind, num,
                             field=args.field)


def _cmd_build(args) -> int:
    r = _construct(args)
    _emit(_realization_text(r) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.input is not None:
        r = _load(args.input, Realization.from_json_dict, "realization")
    elif args.c1 is None or args.c3 is None or args.j2 is None:
        sys.stderr.write("verify: need either --input FILE or all of --c1 --c3 --j2\n")
        return USAGE_ERROR
    else:
        r = _construct(args)
    return _report(verify_realization(r, args.tolerance_coefficient), args)


def _report(report, args) -> int:
    """Write a verify or sweep report in the requested format; return its
    exit code."""
    _emit(report_to_json(report) if args.format == "json" else report.to_text(), args.output)
    return exit_code(report)


def _cmd_sweep(args) -> int:
    if args.grid == "default":
        grid = default_grid()
    else:
        grid = _load(args.grid, grid_from_json, "grid")
    report = sweep(args.kinds, grid, dim=args.dim,
                   tolerance_coefficient=args.tolerance_coefficient)
    return _report(report, args)


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
    _emit(_transform_text(t) + "\n", args.output)
    return 0


def _cmd_export_operator(args) -> int:
    r = _construct(args)
    op = {"jp": r.jp, "jm": r.jm, "j3": r.j3}[args.which]
    _emit(_operator_text(op) + "\n", args.output)
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
    p_verify.add_argument("--tolerance-coefficient", type=_tolerance, default=_TOLERANCE_COEFFICIENT,
                          help="float tolerance is this times dim times scale")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = subs.add_parser("sweep",
                              help="verify realizations across a coupling/spin grid")
    p_sweep.add_argument("--kinds", type=_kind_list, default=("hp:1", "dyson:1"),
                         help="comma-separated realization tokens")
    p_sweep.add_argument("--grid", default="default",
                         help="'default' or a JSON file of {c1, c3, j2} points")
    p_sweep.add_argument("--dim", type=_dimension, default=32)
    p_sweep.add_argument("--tolerance-coefficient", type=_tolerance, default=_TOLERANCE_COEFFICIENT)
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
    p_tr.add_argument("--dim", type=_dimension, default=32)
    p_tr.add_argument("--q0", type=_seed, default=1.0, help="seed value at n = 0")
    p_tr.add_argument("--q0-odd", type=_seed, default=1.0,
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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.  Parsing leaves
    it unchanged and every default is immutable, so calls cannot leak into
    one another."""
    return build_parser()


def _is_value(parser: argparse.ArgumentParser, text: str) -> bool:
    """Whether ``parser`` reads ``text``, after a space, as a value and not
    as an option: it is empty or one character long, it does not start with
    a prefix character, or it is a negative number by the parser's own
    pattern, in a parser with no option that looks like one."""
    return (len(text) < 2 or text[0] not in parser.prefix_chars
            or (parser._negative_number_matcher.match(text) is not None
                and not parser._has_negative_number_optionals))


@functools.lru_cache(maxsize=16)
def _table(parser: argparse.ArgumentParser) -> tuple[dict, frozenset, dict]:
    """What ``_quick`` reads of a leaf parser: its plain store actions by
    option string; the actions that must be given, being required or having
    a string default their type refuses; and the value of every other one
    left out, as argparse fills it, then the parser's ``set_defaults``."""
    options, needed, absent = {}, set(), {}
    for action in parser._actions:
        if type(action) is argparse._StoreAction and action.nargs is None:
            options.update(dict.fromkeys(action.option_strings, action))
        if action.required:
            needed.add(action)
        elif action.default is not argparse.SUPPRESS:
            value, typed = action.default, isinstance(action.default, str) and action.type
            try:
                absent[action.dest] = action.type(value) if typed else value
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                needed.add(action)
    for dest, default in parser._defaults.items():
        absent.setdefault(dest, default)
    return options, frozenset(needed), absent


def _quick(argv) -> argparse.Namespace | None:
    """The namespace ``_parser().parse_args(argv)`` returns, read in one
    pass over the parser's own table (``_table``), or None.

    It reads only a well-formed command line: a subcommand path, then exact
    option strings of that subcommand, each given once with one value, as
    ``--opt value`` or ``--opt=value``.  Anything else (help, an
    abbreviation, a repeated or unknown option, a missing required one, a
    value its type or choices refuse) gives None and is left to argparse,
    so every usage line, message and exit code stays argparse's own."""
    parser, path, i = _parser(), {}, 0
    while parser._subparsers is not None:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        if i == len(argv) or argv[i] not in sub.choices:
            return None
        path[sub.dest] = argv[i]
        parser = sub.choices[argv[i]]
        i += 1
    options, needed, absent = _table(parser)
    given = {}
    while i < len(argv):
        word = argv[i]
        action = options.get(word)
        if action is not None and i + 1 < len(argv) and _is_value(parser, argv[i + 1]):
            text, i = argv[i + 1], i + 2
        elif word.startswith("--") and "=" in word:
            option, text = word.split("=", 1)
            action, i = options.get(option), i + 1
            if text == "--":  # argparse drops a "--" from an option's values
                return None
        else:
            return None
        if action is None or action in given:
            return None
        given[action] = text
    if not needed.issubset(given):
        return None
    values = {**path, **absent}
    for action, text in given.items():
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    args = argparse.Namespace()
    args.__dict__.update(values)
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _quick(argv) or _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return DOMAIN_ERROR
    except Exception as err:  # the CLI boundary: exit 1 stays "a check failed"
        message = " ".join(str(err).split())
        sys.stderr.write(f"error: internal: {type(err).__name__}: {message}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
