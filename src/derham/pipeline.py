"""Top-level pipelines: de Rham cohomology of complements, with and
without support, as staged Groebner computations.

Stage order: localize every needed product, build the Mayer-Vietoris (or
tensored Cech) complex, apply the Fourier automorphism, replace by a
V-strict free complex, minimize it by cancelling its unit entries between
generators of equal shift, compute the restriction b-function over the
original degrees, truncate to the integer-root window and read off exact
ranks.  dims[i] is the cohomology of the truncated complex at position
i - n; that re-indexing lives here and is printed in the report.
"""

from __future__ import annotations

import json
import logging
import os
import time
from typing import Callable, Optional, Sequence

from . import __version__ as _pkg_version
from .errors import DerhamError, InconsistencyError, InvalidInputError
from .mv import (family_for_mv, family_for_support, mv_complex, mv_tensor_cech)
from .parsing import parse_operator, parse_polynomial
from .restriction import (DEFAULT_MAX_B_DEGREE, b_function_of_complex,
                          cohomology_dims, fourier_complex,
                          integer_root_window, omega_tensor_truncate)
from .strictify import minimize_complex, strictify_complex
from .weyl import WeylElement, format_operator

log = logging.getLogger("derham.pipeline")

REINDEX_NOTE = "dims[i] = H^(i-n) of the truncated complex"
ORDER_NOTE = ("shifted V-degree, then total degree, then graded reverse "
              "lexicographic, then position; normal S-pair strategy, FIFO ties")


class ProblemSpec:
    """Validated input for one cohomology computation."""

    __slots__ = ("n", "names", "polys", "support_polys", "max_b_degree",
                 "dump_dir", "presentations", "collect_timings")

    def __init__(self, names: Sequence[str], polys: Sequence[str],
                 support_polys: Optional[Sequence[str]] = None,
                 max_b_degree: int = DEFAULT_MAX_B_DEGREE,
                 dump_dir: Optional[str] = None,
                 presentations: Optional[dict] = None,
                 collect_timings: bool = False):
        self.names = list(names)
        self.n = len(self.names)
        if self.n < 1:
            raise InvalidInputError("need at least one variable")
        if not polys:
            raise InvalidInputError(
                "need at least one polynomial; use F = {1} for an empty variety")
        self.polys = [self._poly(p) for p in polys]
        self.support_polys = [self._poly(p) for p in (support_polys or [])]
        for f in self.polys + self.support_polys:
            if f.is_zero():
                raise InvalidInputError("the zero polynomial cuts out everything")
        if max_b_degree < 0:
            raise InvalidInputError("max_b_degree must be nonnegative")
        self.max_b_degree = max_b_degree
        self.dump_dir = dump_dir
        self.presentations = dict(presentations or {})
        self.collect_timings = collect_timings

    def _poly(self, p) -> WeylElement:
        if isinstance(p, WeylElement):
            return p
        return parse_polynomial(p, self.n, self.names)


class ResultReport:
    """Machine-readable outcome of a pipeline run."""

    __slots__ = ("kind", "n", "names", "polys", "support_polys", "dims",
                 "b_function", "window", "shifts", "gb_sizes", "timings",
                 "warnings", "family_exponent")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    def euler(self) -> int:
        return sum((-1) ** i * v for i, v in enumerate(self.dims))

    def to_json(self) -> dict:
        return {
            "schema": "derham.report/2",
            "version": _pkg_version,
            "kind": self.kind,
            "n": self.n,
            "vars": self.names,
            "polys": self.polys,
            "support_polys": self.support_polys,
            "dims": {str(i): v for i, v in enumerate(self.dims)},
            "euler_characteristic": self.euler(),
            "b_function": str(self.b_function),
            "window": None if self.window.is_empty() else [self.window.k0,
                                                           self.window.k1],
            "family_exponent": self.family_exponent,
            "shifts": {str(k): list(v) for k, v in self.shifts.items()},
            "engine": {"order": ORDER_NOTE, "gb_sizes": self.gb_sizes},
            "reindex": REINDEX_NOTE,
            "timings": self.timings,
            "warnings": self.warnings,
        }

    def to_text(self) -> str:
        lines = [f"kind: {self.kind}", f"variables: {', '.join(self.names)}"]
        lines.append("polynomials: " + "; ".join(self.polys))
        if self.support_polys:
            lines.append("support: " + "; ".join(self.support_polys))
        for i, v in enumerate(self.dims):
            lines.append(f"dim H^{i} = {v}")
        lines.append(f"b-function: {self.b_function}")
        if self.window.is_empty():
            lines.append("window: empty")
        else:
            lines.append(f"window: [{self.window.k0}, {self.window.k1}]")
        lines.append(f"euler characteristic: {self.euler()}")
        return "\n".join(lines)


class _Stage:
    """Names the failing stage on any error and collects timings."""

    def __init__(self, report_timings):
        self.timings = report_timings

    def run(self, name, fn, *args, **kw):
        log.info("stage %s", name)
        t0 = time.monotonic()
        try:
            out = fn(*args, **kw)
        except DerhamError as exc:
            if exc.stage is None:
                exc.stage = name
            raise
        if self.timings is not None:
            self.timings[name] = round(time.monotonic() - t0, 6)
        return out


def _dump(spec: ProblemSpec, name: str, payload: Callable[[], dict]):
    """Write payload(), a JSON-ready dict, to name in spec.dump_dir; without
    a dump_dir nothing is serialized."""
    if not spec.dump_dir:
        return
    os.makedirs(spec.dump_dir, exist_ok=True)
    path = os.path.join(spec.dump_dir, name)
    with open(path, "w") as fh:
        json.dump(payload(), fh, indent=2, sort_keys=True)


def _run(spec: ProblemSpec, kind: str) -> ResultReport:
    n = spec.n
    timings = {} if spec.collect_timings else None
    stage = _Stage(timings)
    warnings: list = []

    r = len(spec.polys)
    s = len(spec.support_polys)
    if kind == "support":
        family = stage.run("localize", family_for_support, n, spec.polys,
                           spec.support_polys, spec.presentations)
        complex_ = stage.run("mv-tensor-cech", mv_tensor_cech, family, r, s)
    else:
        family = stage.run("localize", family_for_mv, n, spec.polys,
                           spec.presentations)
        complex_ = stage.run("mayer-vietoris", mv_complex, family, r)
    _dump(spec, "mv_complex.json", complex_.to_json)

    transformed = stage.run("fourier", fourier_complex, complex_)
    _dump(spec, "fourier_complex.json", transformed.to_json)

    strict = stage.run("strictify", strictify_complex, transformed)
    if not strict.complete:
        warnings.append("vertical resolutions were cut at the working depth; "
                        "positions at the edge are not read")
    _dump(spec, "strict_complex.json", strict.total.to_json)
    _dump(spec, "double_complex.json", strict.double.to_json)

    minimal = stage.run("minimize", minimize_complex, strict.total)
    _dump(spec, "minimal_complex.json", minimal.to_json)

    positions = list(range(transformed.lo, transformed.hi + 1))
    b = stage.run("b-function", b_function_of_complex, minimal,
                  spec.max_b_degree, positions)
    window = stage.run("window", integer_root_window, b)
    _dump(spec, "b_function.json", lambda: {
        "b_function": str(b),
        "integer_roots": b.integer_roots(),
        "window": None if window.is_empty() else [window.k0, window.k1]})

    truncated = stage.run("truncate", omega_tensor_truncate, minimal, window)
    _dump(spec, "truncated_complex.json", truncated.to_json)

    raw = stage.run("ranks", cohomology_dims, truncated)
    dims = [raw.get(i - n, 0) for i in range(0, 2 * n + 1)]
    if kind == "cohomology":
        for i in range(n + r, 2 * n + 1):
            if dims[i]:
                raise InconsistencyError(
                    f"vanishing bound violated: dim H^{i} = {dims[i]} with "
                    f"i >= n + r = {n + r}", stage="ranks")
    # positions above n would be H^i with i > 2n and must vanish; positions
    # below -n sit in the unread margin toward the resolution cut
    for k, v in raw.items():
        if v and n < k:
            raise InconsistencyError(
                f"cohomology outside the admissible band at position {k}",
                stage="ranks")

    gb_sizes = {"strict_ranks": [m.rank for m in strict.total.modules],
                "minimal_ranks": [m.rank for m in minimal.modules],
                "truncated_dims": [truncated.dim(k) for k in truncated.degrees()]}
    report = ResultReport(
        kind=kind, n=n, names=spec.names,
        polys=[format_operator(p) for p in spec.polys],
        support_polys=[format_operator(p) for p in spec.support_polys],
        dims=dims, b_function=b, window=window,
        shifts={m: tuple(minimal.module(m).shift_or_zero())
                for m in minimal.degrees()},
        gb_sizes=gb_sizes, timings=timings, warnings=warnings,
        family_exponent=family.exponent)
    _dump(spec, "report.json", report.to_json)
    return report


def compute_derham(spec: ProblemSpec) -> ResultReport:
    """dims[i] = dim H^i_dR of the complement of Var(polys) in C^n."""
    return _run(spec, "cohomology")


def compute_derham_support(spec: ProblemSpec) -> ResultReport:
    """dims[i] = dim H^i_dR with support in Var(support_polys), on the
    complement of Var(polys); equals the relative cohomology of the pair."""
    if not spec.support_polys:
        raise InvalidInputError("support computation needs support polynomials")
    return _run(spec, "support")


def load_presentation_overrides(path: str, n: int, names) -> dict:
    """User-supplied localizations: a JSON list of {poly, exponent,
    relations}; keys are canonical polynomial strings.  An unreadable
    file, invalid JSON, a missing key, a non-integer exponent or a
    polynomial or relation that is not a string is invalid input."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read presentation file {path}: "
                                f"{exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"presentation file {path} is not JSON: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise InvalidInputError("a presentation file holds an object or a list of them")
    out = {}
    for entry in data:
        missing = [key for key in ("poly", "exponent", "relations")
                   if not isinstance(entry, dict) or key not in entry]
        if missing:
            raise InvalidInputError(f"presentation entry lacks {', '.join(missing)}")
        poly, exponent, relations = entry["poly"], entry["exponent"], entry["relations"]
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise InvalidInputError(f"presentation exponent {exponent!r} is not an integer")
        if not isinstance(poly, str) or not isinstance(relations, list) or \
                not all(isinstance(r, str) for r in relations):
            raise InvalidInputError("a presentation gives its poly as a string and "
                                    "its relations as a list of strings")
        f = parse_polynomial(poly, n, names)
        rels = [parse_operator(rtext, n, names) for rtext in relations]
        out[format_operator(f)] = (exponent, rels)
    return out
