import random
import re
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from derham import (FiltrationSpec, ModuleElement, SubmoduleSolver,  # noqa: E402
                    WeylElement)
from derham.presentations import cycle_generators  # noqa: E402


def random_weyl(rng: random.Random, n: int, max_deg: int = 2,
                max_terms: int = 3, coeff_bound: int = 4) -> WeylElement:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        alpha = tuple(rng.randint(0, max_deg) for _ in range(n))
        beta = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = Fraction(rng.randint(-coeff_bound, coeff_bound),
                     rng.randint(1, coeff_bound))
        key = alpha + beta
        terms[key] = terms.get(key, Fraction(0)) + c
    return WeylElement(n, terms)


def random_polynomial(rng: random.Random, n: int, max_deg: int = 2,
                      max_terms: int = 3, coeff_bound: int = 4) -> WeylElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(0, max_deg) for _ in range(n))
        key = alpha + (0,) * n
        terms[key] = terms.get(key, Fraction(0)) + rng.randint(-coeff_bound, coeff_bound)
    return WeylElement(n, terms)


def random_module_element(rng: random.Random, n: int, rank: int,
                          **kw) -> ModuleElement:
    return ModuleElement(n, [random_weyl(rng, n, **kw) for _ in range(rank)])


def relations_contain(pres, vectors) -> bool:
    """Every vector lies in the relation submodule of pres: one solver over
    the relations checks the nonzero ones, and none is built without
    them."""
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return True
    solver = SubmoduleSolver(FiltrationSpec(pres.n), pres.rank, pres.relations,
                             pres.shift_or_zero())
    return all(solver.contains(v) for v in vectors)


def cohomology_vanishes(c, k) -> bool:
    """H^k(c) = 0: every cycle generator of C^k lies in the submodule of
    the boundary rows and the relations of C^k."""
    cycles, _ = cycle_generators(c, k)
    prev = c.differential(k - 1)
    rows = (list(prev.rows) if prev is not None else []) + list(c.module(k).relations)
    solver = SubmoduleSolver(FiltrationSpec(c.n), c.module(k).rank, rows)
    return all(solver.contains(z) for z in cycles)


SOLVER_LINE = re.compile(r"solver: rank \d+, \d+ generators, "
                         r"(\d+) S-pairs reduced, (\d+) skipped$")


def solver_work(messages):
    """(solver builds, S-pairs reduced, S-pairs skipped), summed over the
    per-build lines of SubmoduleSolver among the log messages."""
    builds = reduced = skipped = 0
    for message in messages:
        found = SOLVER_LINE.search(message)
        if found:
            builds += 1
            reduced += int(found.group(1))
            skipped += int(found.group(2))
    return builds, reduced, skipped


STAGE_LINE = re.compile(r"(?:^|INFO )stage ([\w-]+)$")


def stage_work(messages):
    """{stage: solver_work of the messages logged inside it}, each stage
    opened by the pipeline's "stage NAME" line; messages before the first
    stage line fall under None."""
    per_stage, stage = {}, None
    for message in messages:
        found = STAGE_LINE.search(message)
        if found:
            stage = found.group(1)
        else:
            per_stage.setdefault(stage, []).append(message)
    return {stage: solver_work(lines) for stage, lines in per_stage.items()}
