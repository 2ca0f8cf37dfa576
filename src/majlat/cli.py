"""majlat command line: vector files in, JSON results and SVG plots out.

Commands: compare, meet, join, inf, sup, polytope, ball, ocr, lorenz.
Inputs are JSON ({"d": ..., "vectors": [["0.6", ...], ...]}) or CSV (one
vector per row); entries travel as decimal or ratio strings so exact mode
stays exact. Exit codes: 0 success, 1 validation error, 2 I/O or parse
error, 3 unsupported (ball vertex listing above the cap, or a result
value too large to print), 4 internal error (a fault in majlat itself;
the line names the exception).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Callable, Sequence

from .core import OrderedProbVector, compare, make_vector, partial_sums
from .errors import (
    DimensionTooLargeError,
    InputArityError,
    MajlatError,
    ParseError,
    TooManyDigitsError,
)
from .lattice import family_inf, family_sup, join, meet
from .numeric import DEFAULT_FLOAT_TOL, Scalar, scalar_str
from .polytope import Ball, ball_vertices, flattest_approx, steepest_approx
from .resource_theory import ResourceTheory, optimal_common_resource
from .svg import emit_lorenz_svg

MESSAGE_LIMIT = 200  # characters in one error line on stderr


def _ball(vectors: list[OrderedProbVector], args: argparse.Namespace) -> list[OrderedProbVector]:
    ball = Ball(vectors[0], args.eps)  # Ball parses the string in the center's mode
    if args.which == "inf":
        return [flattest_approx(ball)]
    if args.which == "sup":
        return [steepest_approx(ball)]
    return list(ball_vertices(ball).vertices)


# name: (help, fewest input vectors, most or None for no limit, kernel).
# A kernel maps (vectors, args) to the result vectors; compare's returns
# the ordering instead, and lorenz has no result beyond its plot.
_COMMANDS: dict[str, tuple[str, int, int | None, Callable[[list, argparse.Namespace], object]]] = {
    "compare": ("majorization comparison of exactly two vectors", 2, 2,
                lambda v, args: compare(v[0], v[1]).value),
    "meet": ("greatest lower bound of exactly two vectors", 2, 2, lambda v, args: [meet(v[0], v[1])]),
    "join": ("least upper bound of exactly two vectors", 2, 2, lambda v, args: [join(v[0], v[1])]),
    "inf": ("family infimum of one or more vectors", 1, None, lambda v, args: [family_inf(v)]),
    "sup": ("family supremum of one or more vectors", 1, None, lambda v, args: [family_sup(v)]),
    "polytope": ("infimum or supremum of the hull of the given vertices", 1, None,
                 lambda v, args: [family_inf(v) if args.which == "inf" else family_sup(v)]),
    "ball": ("l1-ball vertices, or the ball's infimum/supremum", 1, 1, _ball),
    "ocr": ("optimal common resource of the given targets", 1, None,
            lambda v, args: [optimal_common_resource(v, ResourceTheory(args.theory))]),
    "lorenz": ("plot Lorenz curves of the given vectors", 1, None, lambda v, args: []),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="majlat", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", "-i", dest="inputs", action="append", default=[],
                        metavar="PATH", help="input file (JSON or CSV); repeatable")
    common.add_argument("--out", "-o", dest="out", metavar="PATH",
                        help="write the result document here instead of stdout")
    common.add_argument("--mode", choices=("exact", "float"), default="exact")
    common.add_argument("--tol", type=float, default=None,
                        help=f"absolute tolerance > 0 (float mode only; default {DEFAULT_FLOAT_TOL!r})")
    common.add_argument("--svg", metavar="PATH", help="also write a Lorenz-curve plot")
    common.add_argument("--sort", action="store_true",
                        help="sort input entries non-increasing instead of rejecting")
    common.add_argument("--normalize", action="store_true",
                        help="rescale input entries to unit sum instead of rejecting")

    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (blurb, *_) in _COMMANDS.items():
        parsers[name] = sub.add_parser(name, parents=[common], help=blurb)

    group = parsers["polytope"].add_mutually_exclusive_group(required=True)
    group.add_argument("--inf", dest="which", action="store_const", const="inf")
    group.add_argument("--sup", dest="which", action="store_const", const="sup")

    ball = parsers["ball"]
    ball.add_argument("--center", metavar="V", help="comma-separated center entries")
    ball.add_argument("--eps", metavar="E", required=True, help="l1 radius")
    ball_group = ball.add_mutually_exclusive_group()
    ball_group.add_argument("--inf", dest="which", action="store_const", const="inf")
    ball_group.add_argument("--sup", dest="which", action="store_const", const="sup")

    parsers["ocr"].add_argument("--theory", required=True,
                                choices=("entanglement", "coherence", "purity"))
    return parser


def _rows_from_file(path: str) -> list[list[object]]:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            if path.lower().endswith(".csv"):
                return [[cell.strip() for cell in row] for row in csv.reader(handle) if row]
            data = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, an integer past the digit limit, deep nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: invalid CSV: {exc}") from exc
    if not isinstance(data, dict) or "vectors" not in data:
        raise ParseError(f'{path}: expected an object with a "vectors" field')
    vectors = data["vectors"]
    if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
        raise ParseError(f'{path}: "vectors" must be a list of entry lists')
    if "d" in data:
        declared = data["d"]
        if not isinstance(declared, int) or isinstance(declared, bool) or declared < 1:
            raise ParseError(f'{path}: "d" must be a positive integer, got {declared!r}')
        if any(len(v) != declared for v in vectors):
            raise ParseError(f'{path}: vector length disagrees with "d" = {declared}')
    return vectors


def _load_vectors(args: argparse.Namespace) -> list[OrderedProbVector]:
    rows: list[list[object]] = []
    for path in args.inputs:
        rows.extend(_rows_from_file(path))
    if args.command == "ball" and args.center is not None:
        rows.append([cell.strip() for cell in args.center.split(",")])
    return [make_vector(row, normalize=args.normalize, sort=args.sort, tol=args.tol) for row in rows]


def _vector_strings(vectors: Sequence[OrderedProbVector], text: Callable[[Scalar], str]) -> list[list[str]]:
    try:
        return [[text(e) for e in v.entries] for v in vectors]
    except ValueError as exc:  # raised by int-to-text conversion past its digit limit
        raise TooManyDigitsError(f"a value has more than {sys.get_int_max_str_digits()} digits") from exc


def _result_block(vectors: Sequence[OrderedProbVector], exact: bool) -> dict:
    block = {"d": vectors[0].d, "vectors": _vector_strings(vectors, scalar_str)}
    if exact:
        block["rationals"] = _vector_strings(vectors, str)
    return block


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line whose tol is already set (0 in exact mode)."""
    vectors = _load_vectors(args)
    exact = args.mode == "exact"
    _, fewest, most, kernel = _COMMANDS[args.command]
    if len(vectors) < fewest or (most is not None and len(vectors) > most):
        expected = str(fewest) if most == fewest else f"at least {fewest}"
        raise InputArityError(f"{args.command} expects {expected} vector(s), got {len(vectors)}")
    found = kernel(vectors, args)
    ordering, results = (found, []) if isinstance(found, str) else (None, found)

    doc = {
        "command": args.command,
        "mode": args.mode,
        "tolerance": None if exact else repr(args.tol),
        "inputs": {
            "paths": list(args.inputs),
            "d": vectors[0].d,
            "vectors": _vector_strings(vectors, scalar_str),
        },
    }
    if args.command == "ball":
        doc["inputs"]["eps"] = args.eps
    doc["result"] = _result_block(results, exact) if results else None
    if ordering is not None:
        doc["ordering"] = ordering

    if args.svg:
        curves = [(f"x{i + 1}", partial_sums(v)) for i, v in enumerate(vectors)]
        if len(results) == 1:
            curves.append((args.command, partial_sums(results[0])))
        else:
            curves.extend((f"{args.command} v{i + 1}", partial_sums(v)) for i, v in enumerate(results))
        svg = emit_lorenz_svg(curves)  # rendered before the file is opened, so a failure leaves it as it was
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
        doc["svg"] = args.svg

    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _fail(code: int, message: str) -> int:
    """Print one bounded stderr line; inputs and values can be thousands of digits long."""
    line = " ".join(f"majlat: {message}".splitlines())
    if len(line) > MESSAGE_LIMIT:
        line = line[: MESSAGE_LIMIT - 3] + "..."
    print(line, file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.tol is not None and args.mode == "exact":
            parser.error("--tol is only valid with --mode float")
        if args.tol is not None and not 0 < args.tol < math.inf:
            parser.error(f"--tol must be finite and greater than 0, got {args.tol!r}")
        if args.command == "lorenz" and not args.svg:
            parser.error("lorenz requires --svg PATH")
    except SystemExit as exc:
        return int(exc.code or 0)
    # tol 0 forces exact parsing, so stray JSON floats are rejected
    args.tol = 0.0 if args.mode == "exact" else args.tol or DEFAULT_FLOAT_TOL
    try:
        return run(args)
    except (DimensionTooLargeError, TooManyDigitsError) as exc:
        return _fail(3, f"unsupported: {exc}")
    except (ParseError, OSError) as exc:
        return _fail(2, str(exc))
    except MajlatError as exc:
        return _fail(1, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a bug, not bad input: still one line and no traceback
        return _fail(4, f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
