"""Workload inputs and their oracles, kept as the benchmark's own data.

Every workload is a list of cases.  A case knows how to build its input
(parsing and validation are set-up, not solve time), how to compute its
answer, how to check that answer against an oracle that does not come from
the code under test, and how to digest it for the determinism check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm

from derham import (DerhamError, ProblemSpec, compute_derham,
                    compute_derham_support, format_operator,
                    formal_action_is_zero, localize, parse_polynomial)

# Golden dims from singular cohomology of the complements (Kunneth, Gysin,
# Euler characteristics of plane curves).  Every case finishes in under 4 s.
GOLDEN = [
    (["x"], ["x"], [1, 1, 0]),
    (["x"], ["x^2 - x"], [1, 2, 0]),
    (["x"], ["x^3 - x"], [1, 3, 0]),
    (["x"], ["x", "x"], [1, 1, 0]),
    (["x", "y"], ["x*y"], [1, 2, 1, 0, 0]),
    (["x", "y"], ["x", "y"], [1, 0, 0, 1, 0]),
    (["x", "y"], ["x", "y", "x + y"], [1, 0, 0, 1, 0]),
    (["x", "y"], ["x*y", "x + y"], [1, 0, 0, 1, 0]),
    (["x", "y"], ["x*y - 1"], [1, 1, 1, 0, 0]),
    (["x", "y"], ["y - x^2"], [1, 1, 0, 0, 0]),
    (["x", "y"], ["x*y*(x + y)"], [1, 3, 2, 0, 0]),
    (["x", "y"], ["x*(x - 1)", "y"], [1, 0, 0, 2, 0]),
    (["x", "y"], ["y^2 - x^3"], [1, 1, 0, 0, 0]),
    (["x", "y"], ["y^2 - x^3 - x^2"], [1, 1, 1, 0, 0]),
    (["x", "y"], ["x^2 + y^2 - 1"], [1, 1, 1, 0, 0]),
    (["x", "y"], ["(x*y - 1)*x"], [1, 2, 1, 0, 0]),
    (["x", "y"], ["y^2 - x^5"], [1, 1, 0, 0, 0]),
    (["x", "y", "z"], ["x"], [1, 1, 0, 0, 0, 0, 0]),
    (["x", "y", "z"], ["x*y*z"], [1, 3, 3, 1, 0, 0, 0]),
    (["x", "y", "z"], ["x", "y", "z"], [1, 0, 0, 0, 0, 1, 0]),
]

GOLDEN_SUPPORT = [
    (["x", "y"], ["x"], ["y"], [0, 0, 1, 1, 0]),
    (["x", "y"], ["1"], ["x"], [0, 0, 1, 0, 0]),
    (["x", "y"], ["x"], ["1"], [0, 0, 0, 0, 0]),
    (["x", "y"], ["x*y"], ["x - y"], [0, 0, 1, 1, 0]),
    (["x", "y"], ["x", "y"], ["x - 1"], [0, 0, 1, 0, 0]),
    (["x", "y"], ["x", "y"], ["x - 1", "y - 1"], [0, 0, 0, 0, 1]),
]

# The r = 4 golden case: the common zero locus is the points (0,0), (1,1).
TWO_POINTS = (["x", "y"], ["x*(x - 1)", "x*(y - 1)", "y*(x - 1)", "y*(y - 1)"],
              [1, 0, 0, 2, 0])

# Bernstein-Sato polynomials as computed at the commit that introduced this
# benchmark.  They are re-checked independently below: b(-1) = 0, every
# root is a rational in (-n, 0), every relation annihilates f^a.
BERNSTEIN_SATO = [
    (["x", "y"], "y^2 - x^5",
     "s^5 + 5*s^4 + 99/10*s^3 + 97/10*s^2 + 47009/10000*s + 9009/10000"),
    (["x", "y"], "x^3 - y^4",
     "s^7 + 7*s^6 + 499/24*s^5 + 815/24*s^4 + 227563/6912*s^3 + 43627/2304*s^2"
     " + 4461779/746496*s + 595595/746496"),
    (["x", "y"], "y^2 - x^7",
     "s^7 + 7*s^6 + 583/28*s^5 + 955/28*s^4 + 182317/5488*s^3 + 105559/5488*s^2"
     " + 46136019/7529536*s + 6235515/7529536"),
    (["x", "y"], "y^3 - x^5",
     "s^9 + 9*s^8 + 1606/45*s^7 + 3682/45*s^6 + 2016371/16875*s^5"
     " + 388871/3375*s^4 + 167056264/2278125*s^3 + 22542364/759375*s^2"
     " + 17763519136/2562890625*s + 1820955136/2562890625"),
    (["x", "y"], "x*y*(x + y)*(x - y)",
     "s^6 + 6*s^5 + 235/16*s^4 + 75/4*s^3 + 841/64*s^2 + 153/32*s + 45/64"),
    (["x", "y"], "(x^2 - y^3)*(x - 1)",
     "s^4 + 4*s^3 + 215/36*s^2 + 71/18*s + 35/36"),
    (["x", "y", "z"], "x^2 + y^3 + z^3",
     "s^4 + 11/2*s^3 + 401/36*s^2 + 709/72*s + 77/24"),
    (["x", "y"], "x^2*y^2 + x^5 + y^5",
     "s^8 + 7*s^7 + 423/20*s^6 + 36*s^5 + 377259/10000*s^4 + 249027/10000*s^3"
     " + 404117/40000*s^2 + 46027/20000*s + 9009/40000"),
    (["x", "y", "z"], "x*y*z*(x + y + z)",
     "s^6 + 13/2*s^5 + 279/16*s^4 + 791/32*s^3 + 625/32*s^2 + 261/32*s + 45/32"),
]


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class PipelineCase:
    """compute_derham or compute_derham_support against expected dims."""

    def __init__(self, names, polys, expected, support=None):
        self.names, self.polys, self.support = names, polys, support
        self.expected = expected
        self.label = ",".join(names) + ": " + " ".join(
            polys + (["|"] + support if support else []))

    def prepare(self) -> ProblemSpec:
        return ProblemSpec(self.names, self.polys, support_polys=self.support)

    def compute(self, spec: ProblemSpec):
        if self.support:
            return compute_derham_support(spec)
        return compute_derham(spec)

    def check(self, report):
        if report.dims != self.expected:
            return f"dims {report.dims}, expected {self.expected}"
        return None

    def digest(self, report) -> str:
        return _sha256(report.to_json())

    @staticmethod
    def sizes(report) -> dict:
        sizes = report.gb_sizes
        return {"strictify.strict_rank_sum": sum(sizes["strict_ranks"]),
                "restriction.truncated_dim_sum": sum(sizes["truncated_dims"]),
                "restriction.b_degree": report.b_function.degree}


class LocalizeCase:
    """localize (the `derham localize` path) against a stored b-function."""

    def __init__(self, names, poly, b_function):
        self.names, self.poly, self.b_function = names, poly, b_function
        self.label = ",".join(names) + f": localize {poly}"

    def prepare(self):
        return parse_polynomial(self.poly, len(self.names), self.names)

    def compute(self, f):
        return f, localize(f)

    def check(self, out):
        f, mod = out
        b = mod.b_function
        if str(b) != self.b_function:
            return f"b-function {b}, expected {self.b_function}"
        if b(-1) != 0:
            return "b(-1) != 0"
        n = len(self.names)
        if negative_rational_roots(list(b.coeffs), n) is None:
            return f"b-function has a root that is not a rational in (-{n}, 0)"
        for rel in mod.presentation.relations:
            op = rel.components[0]
            if not formal_action_is_zero(op, f, mod.exponent):
                return f"relation {format_operator(op)} does not annihilate f^{mod.exponent}"
        return None

    def digest(self, out) -> str:
        _, mod = out
        rels = [format_operator(r.components[0]) for r in mod.presentation.relations]
        return _sha256({"b_function": str(mod.b_function),
                        "exponent": mod.exponent, "relations": rels})

    @staticmethod
    def sizes(out) -> dict:
        return {}


def negative_rational_roots(coeffs, n: int):
    """The roots (with multiplicity) of a polynomial over Q, given by its
    coefficients constant term first, if all of them are rationals in
    (-n, 0); None otherwise."""
    poly = [Fraction(c) for c in coeffs]
    roots = []
    while len(poly) > 1:
        den = lcm(*(c.denominator for c in poly))
        ints = [int(c * den) for c in poly]
        root = next((r for r in _candidates(ints, n) if _eval(poly, r) == 0), None)
        if root is None:
            return None
        roots.append(root)
        poly = _deflate(poly, root)
    return sorted(roots)


def _divisors(m: int):
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _candidates(ints, n: int):
    """Rational root test restricted to (-n, 0): -p/q with p dividing the
    constant term and q the leading term."""
    if ints[0] == 0:
        return
    for q in _divisors(abs(ints[-1])):
        for p in _divisors(abs(ints[0])):
            if p >= n * q:
                break
            if gcd(p, q) == 1:
                yield Fraction(-p, q)


def _eval(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _deflate(poly, root):
    """Quotient of poly by (s - root), by synthetic division."""
    out = [Fraction(0)] * (len(poly) - 1)
    carry = Fraction(0)
    for k in range(len(poly) - 1, 0, -1):
        carry = carry * root + poly[k]
        out[k - 1] = carry
    return out


# ---------------------------------------------------------------------------
# seeded line arrangements in C^2, checked against Orlik-Solomon
# ---------------------------------------------------------------------------

# One arrangement of lines a*x + b*y + c (|a|, |b|, |c| <= 2) per
# combinatorial type: three double points, one triple point, a parallel
# pair with a transversal.  The seed flips the signs of x and y in each.
# Those flips change every input polynomial but map each Groebner
# computation onto an identical one, so a pass costs the same work for
# every seed; drawing arbitrary arrangements instead moved a pass by up to
# 3 s of 12 s, which would swamp the run-to-run spread.
ARRANGEMENT_SHAPES = [
    ((1, 1, -2), (0, 2, 1), (1, 0, 1)),
    ((1, 0, -1), (0, 1, 2), (1, 1, 1)),
    ((1, 2, 1), (1, 2, 2), (1, -1, 2)),
]


def format_line(line) -> str:
    parts = []
    for coeff, var in zip(line, ("x", "y", None)):
        if not coeff:
            continue
        mag = abs(coeff)
        body = str(mag) if var is None else (var if mag == 1 else f"{mag}*{var}")
        sign = "-" if coeff < 0 else ("+" if parts else "")
        parts.append(f"{sign} {body}" if parts else sign + body)
    return "(" + " ".join(parts) + ")"


def orlik_solomon_dims(lines) -> list:
    """Betti numbers of the complement of an affine line arrangement in C^2:
    b1 = number of lines, b2 = sum over intersection points p of (m_p - 1)."""
    through = {}
    for (i, l1), (j, l2) in itertools.combinations(enumerate(lines), 2):
        (a1, b1, c1), (a2, b2, c2) = l1, l2
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        point = (Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det))
        through.setdefault(point, set()).update((i, j))
    b2 = sum(len(s) - 1 for s in through.values())
    return [1, len(lines), b2, 0, 0]


def arrangement_case(lines) -> PipelineCase:
    poly = "*".join(format_line(l) for l in lines)
    return PipelineCase(["x", "y"], [poly], orlik_solomon_dims(lines))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def golden_sweep(rng: random.Random) -> list:
    cases = [PipelineCase(names, polys, dims) for names, polys, dims in GOLDEN]
    cases += [PipelineCase(names, polys, dims, support=sup)
              for names, polys, sup, dims in GOLDEN_SUPPORT]
    for shape in ARRANGEMENT_SHAPES:
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        cases.append(arrangement_case([(a * sx, b * sy, c) for a, b, c in shape]))
    rng.shuffle(cases)
    return cases


def two_points(rng: random.Random) -> list:
    names, polys, dims = TWO_POINTS
    return [PipelineCase(names, polys, dims)]


def bernstein_sato(rng: random.Random) -> list:
    cases = [LocalizeCase(names, poly, b) for names, poly, b in BERNSTEIN_SATO]
    rng.shuffle(cases)
    return cases


def selftest(rng: random.Random) -> list:
    names, poly, b = BERNSTEIN_SATO[0]
    return [PipelineCase(["x"], ["x"], [1, 1, 0]),
            PipelineCase(["x", "y"], ["x*y"], [1, 2, 1, 0, 0]),
            LocalizeCase(names, poly, b)]


_STAGES = ["pipeline.localize", "pipeline.mayer-vietoris", "pipeline.fourier",
           "pipeline.strictify", "pipeline.b-function", "pipeline.truncate",
           "pipeline.ranks"]
_ENGINE = ["groebner.buchberger", "groebner.reduce", "groebner.mono_mul_flat",
           "localization.annihilator", "localization.bernstein_sato",
           "weyl.weyl_mul"]

# name -> (function making the cases, spans a traced pass must record calls in)
WORKLOADS = {
    "golden-sweep": (golden_sweep, _STAGES + _ENGINE + [
        "pipeline.mv-tensor-cech", "groebner.solver", "linalg.rank",
        "linalg.solve"]),
    "two-points": (two_points, _STAGES + _ENGINE + [
        "groebner.solver", "linalg.rank", "linalg.solve"]),
    "bernstein-sato": (bernstein_sato, _ENGINE),
    "selftest": (selftest, _STAGES + _ENGINE + ["groebner.solver", "linalg.rank"]),
}


def build(workload: str, seed: int) -> list:
    make, _ = WORKLOADS[workload]
    return make(random.Random(seed))


def run_case(case, prepared):
    """(output, error message or None); a DerhamError is a failed case."""
    try:
        return case.compute(prepared), None
    except DerhamError as exc:
        return None, f"{type(exc).__name__} in stage {exc.stage}: {exc}"
