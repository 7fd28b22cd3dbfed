"""Structural invariants: quasi-isomorphism witnesses for the strict
replacement, and the graded-kill property of the complex b-function."""

import random

from conftest import relations_contain
from derham import (FiltrationSpec, ModuleElement, SubmoduleSolver, WeylElement,
                    b_function_of_complex, fourier_complex,
                    parse_polynomial, strictify_complex, verify_v_strict)
from derham.mv import family_for_mv, mv_complex
from derham.restriction import generator_membership_holds
from derham.weyl import NEG_INF


def fourier_mv(n, texts):
    polys = [parse_polynomial(t, n) for t in texts]
    fam = family_for_mv(n, polys)
    return fourier_complex(mv_complex(fam, len(polys)))


def cycle_gen_heads(c, k):
    """Generators of the cycle preimages at degree k (cover coordinates)."""
    from derham.presentations import cycle_generators
    return cycle_generators(c, k)[0]


def test_comparison_is_chain_map_and_quasi_iso():
    spec = FiltrationSpec(2)
    c = fourier_mv(2, ["x1", "x2"])
    res = strictify_complex(c)
    tot = res.total
    assert verify_v_strict(tot).passed

    # chain map: comparison o d_C = d_Tot o comparison, modulo relations
    for m in range(c.lo, c.hi):
        lhs = res.comparison[m].compose(c.differential(m))
        rhs = tot.differential(m).compose(res.comparison[m + 1])
        assert relations_contain(c.module(m + 1),
                                 [r1 - r2 for r1, r2 in zip(lhs.rows, rhs.rows)])

    for k in range(c.lo, c.hi + 1):
        orig = c.module(k)
        # cycles of the strict total complex at degree k, mapped down
        dmat = tot.differential(k)
        if dmat is None:
            tot_cycles = [ModuleElement.unit(tot.n, tot.module(k).rank, i)
                          for i in range(tot.module(k).rank)]
        else:
            ksolver = SubmoduleSolver(spec, dmat.target_rank, dmat.rows,
                                      ambient_shift=tot.module(k + 1).shift_or_zero(),
                                      cofactor_shift=tot.module(k).shift_or_zero())
            tot_cycles = ksolver.syzygy_basis
        mapped = [res.comparison[k].apply(z) for z in tot_cycles]

        prev = c.differential(k - 1)
        boundaries = list(prev.rows) if prev is not None else []

        # surjectivity on cohomology: every original cycle generator is a
        # mapped cycle modulo boundaries and relations
        down_gens = mapped + boundaries + list(orig.relations)
        solver = SubmoduleSolver(spec, orig.rank, down_gens,
                                 ambient_shift=orig.shift_or_zero())
        for z in cycle_gen_heads(c, k):
            assert solver.contains(z)

        # injectivity on generators: a total cycle whose image dies in
        # H^k(C) is itself a boundary of the total complex
        bsolver = SubmoduleSolver(spec, orig.rank,
                                  boundaries + list(orig.relations),
                                  ambient_shift=orig.shift_or_zero()) \
            if boundaries or orig.relations else None
        tprev = tot.differential(k - 1)
        tot_bound = SubmoduleSolver(spec, tot.module(k).rank,
                                    list(tprev.rows),
                                    ambient_shift=tot.module(k).shift_or_zero()) \
            if tprev is not None and tprev.source_rank else None
        for z, mz in zip(tot_cycles, mapped):
            dies = mz.is_zero() or (bsolver is not None and bsolver.contains(mz))
            if dies:
                assert tot_bound is not None and tot_bound.contains(z)


def test_b_function_kills_graded_cohomology_samples():
    rng = random.Random(42)
    c = fourier_mv(1, ["x1"])
    res = strictify_complex(c)
    tot = res.total
    details = []
    b = b_function_of_complex(tot, positions=[0], details=details)

    for kappa, _, shift, bsolver in details:
        # multiply the kernel generator by sampled V-homogeneous monomials:
        # the shifted membership must keep holding at the shifted level
        samples = [WeylElement.one(1), WeylElement.x(0, 1),
                   WeylElement.d(0, 1), WeylElement.monomial(1, (2,), (0,)),
                   WeylElement.monomial(1, (0,), (2,)),
                   WeylElement.monomial(1, (1,), (2,))]
        for _ in range(10):
            a, bexp = rng.randint(0, 2), rng.randint(0, 2)
            samples.append(WeylElement.monomial(1, (a,), (bexp,)))
        for mono in samples:
            moved = kappa.left_mul(mono)
            if moved.is_zero():
                continue
            lam = moved.v_degree(shift)
            if lam == NEG_INF:
                continue
            assert generator_membership_holds(b, moved, int(lam), bsolver, shift)
