"""Independent oracles beyond the hand-picked goldens.

- Kunneth: the complement of V(f(x) g(y)) is the product of the two
  complements, so its Poincare polynomial is the product of the
  pipeline's own answers for f and for g, or of the golden dims of f and
  g for seeded draws from the one-polynomial goldens.
- Gysin: for a smooth closed Z of codimension c, H^i_Z(U) = H^(i-2c)(Z cap U).
- Orlik-Solomon for affine plane arrangements in C^3: b_k is the sum of
  |mu(X)| over the flats X of codimension k (Orlik-Solomon, Invent. Math.
  56, 1980; Orlik-Terao, Arrangements of Hyperplanes, 1992), with the
  intersection poset and its Moebius function computed here from the plane
  coefficients alone.
"""

import itertools
import random

import pytest

from derham import ProblemSpec, compute_derham, compute_derham_support
from derham.linalg import rank
from test_examples import GOLDEN


def dims(names, polys, support=None):
    spec = ProblemSpec(names, polys, support_polys=support)
    return (compute_derham_support if support else compute_derham)(spec).dims


def poincare_product(p, q):
    """Coefficients of the product of two Poincare polynomials; dims of
    lengths 2a + 1 and 2b + 1 give the 2(a + b) + 1 of the product space."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


KUNNETH = [
    ((["x"], "x*(x - 1)"), (["y"], "y"), "x*(x - 1)*y", [1, 3, 2, 0, 0]),
    ((["x"], "x^3 - x"), (["y"], "y^2 - 1"), "(x^3 - x)*(y^2 - 1)", [1, 5, 6, 0, 0]),
    ((["x"], "x*(x - 1)"), (["y", "z"], "y*z - 1"), "x*(x - 1)*(y*z - 1)",
     [1, 3, 3, 2, 0, 0, 0]),
    ((["x"], "x^2 - x"), (["y", "z"], "y*z"), "(x^2 - x)*y*z", [1, 4, 5, 2, 0, 0, 0]),
]


@pytest.mark.parametrize("left,right,product,expected", KUNNETH,
                         ids=[case[2] for case in KUNNETH])
def test_kunneth(left, right, product, expected):
    (names_f, f), (names_g, g) = left, right
    got = dims(names_f + names_g, [product])
    assert got == expected
    assert got == poincare_product(dims(names_f, [f]), dims(names_g, [g]))


def one_polynomial_goldens(names):
    """(poly, dims) of the goldens over exactly `names` with one poly."""
    cases = [getattr(case, "values", case) for case in GOLDEN]
    return [(polys[0], expected) for case_names, polys, expected in cases
            if case_names == names and len(polys) == 1]


def kunneth_draws(seed):
    """Four distinct products f(x) g(y) of one-variable goldens and one
    f(x, y) g(z) of a two-variable and a one-variable golden, each with
    the golden dims of its two factors."""
    rng = random.Random(seed)
    one = one_polynomial_goldens(["x"])
    two = one_polynomial_goldens(["x", "y"])
    pairs = rng.sample([(f, g) for f in one for g in one], 4)
    draws = [(["x", "y"], f"({f})*({g.replace('x', 'y')})", df, dg)
             for (f, df), (g, dg) in pairs]
    (f, df), (g, dg) = rng.choice(two), rng.choice(one)
    draws.append((["x", "y", "z"], f"({f})*({g.replace('x', 'z')})", df, dg))
    return draws


KUNNETH_DRAWS = kunneth_draws(17)


@pytest.mark.parametrize("names,product,left,right", KUNNETH_DRAWS,
                         ids=[draw[1] for draw in KUNNETH_DRAWS])
def test_seeded_kunneth_pairs(names, product, left, right):
    assert dims(names, [product]) == poincare_product(left, right)


def test_gysin_for_a_smooth_curve():
    # Z = {y = x^2} is a copy of the x-line, so Z cap U is C minus the
    # roots of x (x - 1), and c = 1 shifts its cohomology up by two
    got = dims(["x", "y"], ["x*(x - 1)"], ["y - x^2"])
    assert got == [0, 0, 1, 2, 0]
    assert got == [0, 0] + dims(["x"], ["x*(x - 1)"])


def flats(planes):
    """{closure: codimension} over the nonempty intersections of planes
    a x + b y + c z + d = 0, each keyed by the set of planes containing it;
    the whole space is the empty closure."""
    out = {frozenset(): 0}
    for size in range(1, len(planes) + 1):
        for subset in itertools.combinations(range(len(planes)), size):
            system = [list(planes[i]) for i in subset]
            codim = rank([row[:3] for row in system])
            if rank(system) != codim:
                continue  # parallel planes: empty intersection
            closure = frozenset(j for j in range(len(planes))
                                if rank(system + [list(planes[j])]) == codim)
            out[closure] = codim
    return out


def orlik_solomon_dims(planes):
    lattice = flats(planes)
    mu = {}
    for x in sorted(lattice, key=len):
        mu[x] = 1 if not x else -sum(mu[y] for y in mu if y < x)
    betti = [0] * 7
    for x, codim in lattice.items():
        betti[codim] += abs(mu[x])
    return betti


def test_orlik_solomon_examples():
    # three coordinate planes: a normal crossing, (1 + t)^3
    assert orlik_solomon_dims([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]) == \
        [1, 3, 3, 1, 0, 0, 0]
    # two parallel planes and a third: (1 + 2t)(1 + t)
    assert orlik_solomon_dims([(1, 0, 0, 0), (1, 0, 0, -1), (0, 1, 0, 0)]) == \
        [1, 3, 2, 0, 0, 0, 0]
    # three planes through one line: the line arrangement x, y, x + y times C
    assert orlik_solomon_dims([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]) == \
        [1, 3, 2, 0, 0, 0, 0]


PLANES = [
    ("x*y*z*(x + y - 1)", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, -1)],
     [1, 4, 6, 3, 0, 0, 0]),
    ("x*y*(x + y + z - 1)", [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, -1)],
     [1, 3, 3, 1, 0, 0, 0]),
    ("x*y*z*(x + y + z)", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)],
     [1, 4, 6, 3, 0, 0, 0]),
]


@pytest.mark.parametrize("poly,planes,expected", PLANES,
                         ids=[case[0] for case in PLANES])
def test_plane_arrangement_matches_orlik_solomon(poly, planes, expected):
    assert orlik_solomon_dims(planes) == expected
    assert dims(["x", "y", "z"], [poly]) == expected
