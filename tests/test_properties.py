"""Randomized property suites; each runs at least 200 exact cases.

The suites are plain functions so the acceptance module can invoke them
with its own bookkeeping.
"""

import random
from fractions import Fraction

from conftest import random_module_element, random_polynomial, random_weyl
from derham import (ChainComplexPres, DModPresentation, FiltrationSpec,
                    GradedVectorComplex, ModuleElement, OperatorMatrix,
                    ProblemSpec, SubmoduleSolver, TruncationWindow, WeylElement,
                    apply_to_polynomial, b_function_of_complex, cohomology_dims,
                    compute_derham, fourier,
                    fourier_complex, graded_koszul, integer_root_window,
                    omega_tensor_truncate, parse_operator,
                    strictify_complex, v_degree, weyl_mul)
from derham.mv import family_for_mv, mv_complex


def run_weyl_algebra_suite(cases=220, seed=101):
    rng = random.Random(seed)
    one = WeylElement.one(2)
    for _ in range(cases):
        p = random_weyl(rng, 2)
        q = random_weyl(rng, 2)
        r = random_weyl(rng, 2)
        assert weyl_mul(weyl_mul(p, q), r) == weyl_mul(p, weyl_mul(q, r))
        assert weyl_mul(p, q + r) == weyl_mul(p, q) + weyl_mul(p, r)
        assert weyl_mul(one, p) == p and weyl_mul(p, one) == p
        g = random_polynomial(rng, 2)
        assert apply_to_polynomial(weyl_mul(p, q), g) == \
            apply_to_polynomial(p, apply_to_polynomial(q, g))
    for i in range(2):
        xi, di = WeylElement.x(i, 2), WeylElement.d(i, 2)
        assert weyl_mul(di, xi) - weyl_mul(xi, di) == one
    return cases


def run_fourier_suite(cases=220, seed=102):
    rng = random.Random(seed)
    for _ in range(cases):
        p = random_weyl(rng, 2)
        q = random_weyl(rng, 2)
        twice = fourier(fourier(p))
        twist = WeylElement(2, {e: c * (-1) ** sum(e) for e, c in p.terms.items()})
        assert twice == twist
        assert fourier(weyl_mul(p, q)) == weyl_mul(fourier(p), fourier(q))
        # single normally ordered monomials: V-degree negates under Fourier
        if p.terms:
            e, c = next(iter(p.terms.items()))
            mono = WeylElement(2, {e: c})
            assert v_degree(fourier(mono)) == -v_degree(mono)
        if not p.is_zero() and not q.is_zero():
            ep = max(p.terms)
            eq = max(q.terms)
            mp = WeylElement(2, {ep: p.terms[ep]})
            mq = WeylElement(2, {eq: q.terms[eq]})
            assert v_degree(weyl_mul(mp, mq)) == v_degree(mp) + v_degree(mq)
    return cases


def run_chain_property_suite(cases=200, seed=103):
    """delta o delta = 0 for constructed complexes.

    Random free two-step complexes are built from syzygies (an exact
    construction), and the library-built complexes get their membership
    check; each verified composite row counts as one case.
    """
    rng = random.Random(seed)
    spec = FiltrationSpec(1)
    checked = 0
    while checked < cases:
        rows = [random_module_element(rng, 1, 2, max_deg=1, max_terms=2)
                for _ in range(2)]
        rows = [r for r in rows if not r.is_zero()]
        if not rows:
            continue
        phi = OperatorMatrix(1, 2, rows)
        ker = SubmoduleSolver(spec, 2, phi.rows).syzygy_basis
        if not ker:
            checked += 1
            continue
        top = OperatorMatrix(1, len(rows), ker)
        comp = top.compose(phi)
        for row in comp.rows:
            assert row.is_zero()
            checked += 1
    # library-built complexes with Groebner-verified chains
    fam = family_for_mv(2, [parse_operator("x1", 2), parse_operator("x2", 2)])
    mv = mv_complex(fam, 2)
    mv.check_chain()
    fourier_complex(mv).check_chain()
    strictify_complex(fourier_complex(mv)).total.check_chain()
    return checked


def run_window_widening_suite(cases=200, seed=104):
    rng = random.Random(seed)
    corpus = []
    for polys, n in ((["x1"], 1), (["x1^2 - x1"], 1), (["x1*x2"], 2)):
        fam = family_for_mv(n, [parse_operator(p, n) for p in polys])
        fc = fourier_complex(mv_complex(fam, len(polys)))
        strict = strictify_complex(fc).total
        b = b_function_of_complex(strict, positions=list(range(fc.lo, fc.hi + 1)))
        w = integer_root_window(b)
        base = cohomology_dims(omega_tensor_truncate(strict, w))
        corpus.append((strict, w, base))
    done = 0
    while done < cases:
        strict, w, base = corpus[done % len(corpus)]
        left, right = rng.randint(0, 3), rng.randint(0, 3)
        wide = TruncationWindow(w.k0 - left, w.k1 + right)
        dims = cohomology_dims(omega_tensor_truncate(strict, wide))
        for k in set(base) | set(dims):
            assert dims.get(k, 0) == base.get(k, 0)
        done += 1
    return done


def run_vanishing_suite():
    """Corollary bound: dims[i] = 0 for i >= n + r on every shipped input."""
    shipped = [(["x"], ["x"], 1), (["x"], ["x^2 - x"], 1),
               (["x", "y"], ["x*y"], 2), (["x", "y"], ["x", "y"], 2),
               (["x", "y"], ["y^2 - x^3"], 2), (["x"], ["x", "x"], 1)]
    cases = 0
    for names, polys, n in shipped:
        report = compute_derham(ProblemSpec(names, polys))
        r = len(polys)
        for i in range(n + r, 2 * n + 1):
            assert report.dims[i] == 0, (polys, i)
            cases += 1
        assert report.dims[0] == 1  # connected complement
        cases += 1
    return cases


def run_exactness_propagation_suite(cases=200, seed=105):
    """Exact tails stay exact after truncation.

    Mapping cones of identity maps are exact complexes; their truncations
    must vanish everywhere.  The duplicated-polynomial input has an exact
    top position and reproduces the single-polynomial answer.
    """
    rng = random.Random(seed)
    menu = ["x1*d1", "x1*d1 + 1", "x1*d1 - 2", "x1", "d1", "x1*d1^2 + d1"]
    done = 0
    while done < cases:
        op = parse_operator(rng.choice(menu), 1)
        pres = DModPresentation.cyclic(1, [op])
        ident = OperatorMatrix(1, 1, [ModuleElement.unit(1, 1, 0)])
        cone = ChainComplexPres(1, 0, [pres, pres], [ident])
        strict = strictify_complex(cone).total
        b = b_function_of_complex(strict, positions=[0, 1])
        t = omega_tensor_truncate(strict, integer_root_window(b))
        dims = cohomology_dims(t)
        assert all(v == 0 for v in dims.values()), (str(op), dims)
        done += 1
    # duplicated polynomial: exact top, same answer as the single one
    report = compute_derham(ProblemSpec(["x"], ["x", "x"]))
    assert report.dims == [1, 1, 0]
    return done


def run_koszul_suite(cases=200):
    line = {(0, j): 1 for j in range(-10, 1)}
    xact = {(0, 0, j): [[Fraction(1)]] for j in range(-9, 1)}
    L1 = GradedVectorComplex(0, 0, -10, 14, 1, line, {}, xact)
    # two-variable polynomial module
    def monoms(deg):
        return [(a, deg - a) for a in range(deg, -1, -1)]
    dims2 = {(0, j): -j + 1 for j in range(-10, 1)}
    xact2 = {}
    for j in range(-9, 1):
        src = monoms(-j)
        tgt = {m: i for i, m in enumerate(monoms(-j + 1))}
        for l in range(2):
            rows = []
            for (a, b) in src:
                row = [Fraction(0)] * len(tgt)
                row[tgt[(a + 1, b) if l == 0 else (a, b + 1)]] = Fraction(1)
                rows.append(row)
            xact2[(l, 0, j)] = rows
    L2 = GradedVectorComplex(0, 0, -10, 14, 2, dims2, {}, xact2)
    done = 0
    for k in range(-7, 13):
        if k != 0:
            assert graded_koszul(L1, k).is_exact(), k
            done += 1
    for k in range(-7, 12):
        if k != 0:
            assert graded_koszul(L2, k).is_exact(), k
            done += 1
    # window sanity on the non-root slice
    assert not graded_koszul(L1, 0).is_exact()
    assert not graded_koszul(L2, 0).is_exact()
    done += 2
    # repeat across scaled variants to reach the case budget: a nonzero
    # multiple of the x-action keeps every slice exact
    scale = 1
    while done < cases:
        xs = {key: [[Fraction(scale)]] for key in xact}
        scaled = GradedVectorComplex(0, 0, -10, 14, 1, line, {}, xs)
        for k in (1, 2, -1, -2, 3, -3):
            assert graded_koszul(scaled, k).is_exact(), (scale, k)
            done += 1
        scale += 1
    return done


def test_weyl_algebra_suite():
    assert run_weyl_algebra_suite() >= 200


def test_fourier_suite():
    assert run_fourier_suite() >= 200


def test_chain_property_suite():
    assert run_chain_property_suite() >= 200


def test_window_widening_suite():
    assert run_window_widening_suite() >= 200


def test_vanishing_suite():
    assert run_vanishing_suite() > 0


def test_exactness_propagation_suite():
    assert run_exactness_propagation_suite() >= 200


def test_koszul_suite():
    assert run_koszul_suite() >= 200
