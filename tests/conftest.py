import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from derham import FiltrationSpec, ModuleElement, WeylElement  # noqa: E402
from derham.groebner import SolverCache  # noqa: E402
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


def relations_contain(pres, v, solvers) -> bool:
    """v lies in the relation submodule of pres, always when pres has rank 0;
    the solver over the relations comes from `solvers`."""
    return pres.rank == 0 or solvers.get(pres.rank, pres.relations,
                                         pres.shift_or_zero()).contains(v)


def cohomology_vanishes(c, k) -> bool:
    """H^k(c) = 0: every cycle generator of C^k lies in the submodule of
    the boundary rows and the relations of C^k."""
    solvers = SolverCache(FiltrationSpec(c.n))
    cycles = cycle_generators(c, k, solvers)
    prev = c.differential(k - 1)
    rows = (list(prev.rows) if prev is not None else []) + list(c.module(k).relations)
    return all(solvers.get(c.module(k).rank, rows).contains(z) for z in cycles)
