"""Command line interface.

Subcommands: cohomology, support, bfunction, localize, mv.  Results print
as JSON (default) or aligned text, except that mv has JSON only;
identical input and configuration give byte-identical JSON.  Exit codes:
0 success, 1 invalid input (usage errors included), 2 b-function bound
exceeded, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import (BBoundExceededError, DerhamError, InvalidInputError)
from .localization import localize
from .mv import family_for_mv, mv_complex
from .parsing import parse_operator, parse_polynomial
from .pipeline import (ProblemSpec, compute_derham, compute_derham_support,
                       load_presentation_overrides)
from .presentations import DModPresentation
from .restriction import DEFAULT_MAX_B_DEGREE, restriction_b_function_module
from .weyl import format_operator


def _setup_logging():
    level = os.environ.get("DERHAM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s",
                        stream=sys.stderr)


def _vars(arg: str):
    names = [v.strip() for v in arg.split(",") if v.strip()]
    if not names:
        raise InvalidInputError("empty --vars")
    return names


def _b_degree(arg: str) -> int:
    if not arg.isdecimal():
        raise argparse.ArgumentTypeError(f"{arg!r} is not a nonnegative integer")
    return int(arg)


def _usage_error(message: str):
    """Replaces argparse's exit with status 2, which the b-bound owns."""
    raise InvalidInputError(message)


def _emit(payload: dict, fmt: str = "json", text: str = None):
    print(text if fmt == "text" else json.dumps(payload, indent=2, sort_keys=True))


def _add_common(p, formats=True, b_degree=True):
    p.add_argument("--vars", required=True, help="comma separated variable names")
    if formats:
        p.add_argument("--format", choices=("json", "text"), default="json")
    if b_degree:
        p.add_argument("--max-b-degree", type=_b_degree, default=DEFAULT_MAX_B_DEGREE,
                       help="nonnegative bound on the degree of the whole b-function")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="derham",
        description="algebraic de Rham cohomology of complements of affine "
                    "varieties, by Groebner bases in the Weyl algebra")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, about in (("cohomology", "de Rham cohomology of the complement"),
                        ("support", "cohomology with support in a subvariety")):
        p = sub.add_parser(name, help=about)
        _add_common(p)
        p.add_argument("--poly", action="append", required=True,
                       help="polynomial cutting out the removed variety (repeatable)")
        p.add_argument("--support-poly", action="append", default=[],
                       help="polynomial cutting out the support (repeatable)")
        p.add_argument("--dump-intermediate", metavar="DIR", default=None)
        p.add_argument("--presentation", metavar="FILE", default=None,
                       help="JSON file with user-supplied localizations")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock stage timings in the report")

    p = sub.add_parser("bfunction", help="restriction b-function of a module")
    _add_common(p)
    p.add_argument("--module", required=True,
                   help="semicolon separated relation operators of a cyclic module")
    p.add_argument("--shift", type=int, default=0)

    p = sub.add_parser("localize", help="present R_f as a cyclic module")
    _add_common(p, b_degree=False)
    p.add_argument("--poly", required=True)

    p = sub.add_parser("mv", help="print the Mayer-Vietoris complex as JSON")
    _add_common(p, formats=False, b_degree=False)
    p.add_argument("--poly", action="append", required=True)
    for parser in (ap, *sub.choices.values()):
        parser.error = _usage_error
    return ap


def _cmd_pipeline(args, kind: str) -> int:
    names = _vars(args.vars)
    if kind == "cohomology" and args.support_poly:
        raise InvalidInputError(
            "--support-poly belongs to the `support` subcommand")
    overrides = None
    if getattr(args, "presentation", None):
        overrides = load_presentation_overrides(args.presentation, len(names), names)
    spec = ProblemSpec(names, args.poly, args.support_poly or None,
                       max_b_degree=args.max_b_degree,
                       dump_dir=args.dump_intermediate,
                       presentations=overrides,
                       collect_timings=args.timings)
    if kind == "support":
        report = compute_derham_support(spec)
    else:
        report = compute_derham(spec)
    _emit(report.to_json(), args.format, report.to_text())
    return 0


def _cmd_bfunction(args) -> int:
    names = _vars(args.vars)
    n = len(names)
    rels = [parse_operator(chunk.strip(), n, names)
            for chunk in args.module.split(";") if chunk.strip()]
    pres = DModPresentation.cyclic(n, rels, shift=(args.shift,))
    b = restriction_b_function_module(pres, max_degree=args.max_b_degree)
    payload = {"schema": "derham.bfunction/1",
               "module_relations": [format_operator(r.components[0])
                                    for r in pres.relations],
               "shift": args.shift,
               "b_function": str(b),
               "integer_roots": b.integer_roots()}
    _emit(payload, args.format, str(b))
    return 0


def _cmd_localize(args) -> int:
    names = _vars(args.vars)
    n = len(names)
    f = parse_polynomial(args.poly, n, names)
    mod = localize(f)
    payload = {"schema": "derham.localize/1",
               "poly": format_operator(f),
               "exponent": mod.exponent,
               "bernstein_sato": str(mod.b_function),
               "relations": [format_operator(r.components[0])
                             for r in mod.presentation.relations]}
    text = "\n".join(payload["relations"]) + f"\nexponent: {mod.exponent}"
    _emit(payload, args.format, text)
    return 0


def _cmd_mv(args) -> int:
    names = _vars(args.vars)
    n = len(names)
    polys = [parse_polynomial(p, n, names) for p in args.poly]
    family = family_for_mv(n, polys)
    cplx = mv_complex(family, len(polys))
    _emit(cplx.to_json())
    return 0


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command in ("cohomology", "support"):
            return _cmd_pipeline(args, args.command)
        if args.command == "bfunction":
            return _cmd_bfunction(args)
        if args.command == "localize":
            return _cmd_localize(args)
        if args.command == "mv":
            return _cmd_mv(args)
        raise InvalidInputError(f"unknown command {args.command}")
    except BBoundExceededError as exc:
        print(json.dumps({"error": str(exc), "stage": exc.stage,
                          "kind": "b-bound-exceeded"}), file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(json.dumps({"error": str(exc), "stage": exc.stage,
                          "kind": "invalid-input"}), file=sys.stderr)
        return 1
    except DerhamError as exc:
        print(json.dumps({"error": str(exc), "stage": exc.stage,
                          "kind": "inconsistency"}), file=sys.stderr)
        return 3
    except Exception as exc:  # unexpected: report as an internal failure
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}",
                          "stage": None, "kind": "internal"}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
