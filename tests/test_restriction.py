import logging
import random
from fractions import Fraction

import pytest

from conftest import solver_work
from derham import (BBoundExceededError, ChainComplexPres, DModPresentation,
                    FiltrationSpec, GradedVectorComplex, InternalError,
                    InvalidInputError, ModuleElement, OperatorMatrix,
                    ThetaPolynomial, TruncationWindow, WeylElement,
                    b_function_of_complex,
                    certify_b_function, cohomology_dims, family_for_mv,
                    fourier_complex, graded_koszul, integer_root_window,
                    mv_complex, omega_tensor_truncate, parse_operator,
                    parse_polynomial, restriction_b_function_module,
                    strictify_complex)
from derham import linalg
from derham.groebner import SubmoduleSolver
from derham.weyl import term_v_degree, theta


def me(n, *ops):
    return ModuleElement(n, [parse_operator(o, n) for o in ops])


def euler_complex():
    """0 -> D[0] -(xd)-> D[0] -> 0 in degrees -1, 0."""
    free = DModPresentation.free(1, 1, (0,))
    mat = OperatorMatrix(1, 1, [me(1, "x1*d1")])
    return ChainComplexPres(1, -1, [free, free], [mat])


# -- ThetaPolynomial ---------------------------------------------------

def test_theta_polynomial_algebra():
    b = ThetaPolynomial.from_roots([0, -1])
    assert str(b) == "s^2 + s"
    assert b(0) == 0 and b(-1) == 0 and b(1) == 2
    c = ThetaPolynomial.from_roots([0, 0, Fraction(1, 2), -1])
    assert c.exact_divide(b) == ThetaPolynomial.from_roots([0, Fraction(1, 2)])
    assert b.exact_divide(ThetaPolynomial.one()) == b
    with pytest.raises(InternalError):
        c.exact_divide(ThetaPolynomial.from_roots([2]))
    with pytest.raises(InternalError):
        b.exact_divide(c)
    with pytest.raises(InvalidInputError):
        ThetaPolynomial([])


def test_integer_root_window():
    assert integer_root_window(ThetaPolynomial.from_roots([0, -1])) == \
        TruncationWindow(-1, 0)
    assert integer_root_window(ThetaPolynomial([1, 0, 1])).is_empty()
    assert integer_root_window(ThetaPolynomial.one()).is_empty()
    # fractional roots do not count
    b = ThetaPolynomial.from_roots([Fraction(1, 2), 3])
    assert integer_root_window(b) == TruncationWindow(3, 3)


def test_window_validation():
    with pytest.raises(InvalidInputError):
        TruncationWindow(2, 1)
    with pytest.raises(InvalidInputError):
        TruncationWindow(None, 3)


# -- module b-functions ------------------------------------------------

def test_b_function_unit_suite():
    polynomial_ring = DModPresentation.cyclic(1, [parse_operator("d1", 1)],
                                              shift=(0,))
    assert str(restriction_b_function_module(polynomial_ring)) == "s"

    delta = DModPresentation.cyclic(1, [parse_operator("x1", 1)], shift=(0,))
    assert str(restriction_b_function_module(delta)) == "s + 1"

    zero = DModPresentation.cyclic(1, [parse_operator("1", 1)], shift=(0,))
    assert restriction_b_function_module(zero) == ThetaPolynomial.one()


def test_b_function_respects_shift():
    delta = DModPresentation.cyclic(1, [parse_operator("x1", 1)], shift=(2,))
    b = restriction_b_function_module(delta)
    assert b.integer_roots() == [1]


def test_integer_roots_of_seeded_products():
    # prod (s - r) over integer, non-integer, repeated and zero roots: the
    # integer roots are exactly the integers among the r
    rng = random.Random(7)
    for _ in range(2000):
        roots = [Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(0, 3))]
        roots += [Fraction(rng.randint(-12, 12), rng.randint(2, 5))
                  for _ in range(rng.randint(0, 3))]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 2)))
        if rng.random() < 0.3:
            roots.append(Fraction(0))
        b = ThetaPolynomial.from_roots(roots)
        expected = sorted({int(r) for r in roots if r.denominator == 1})
        assert b.integer_roots() == expected, roots


def test_integer_roots_match_brute_force_under_large_constants():
    # fractional roots with large numerators and denominators make the
    # cleared constant term huge; every integer root lies in [-30, 30]
    rng = random.Random(19)
    for _ in range(100):
        roots = [Fraction(rng.randint(-30, 30)) for _ in range(rng.randint(0, 4))]
        fractions = (Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(2, 97))
                     for _ in range(rng.randint(0, 6)))
        roots += [r for r in fractions if r.denominator > 1]
        b = ThetaPolynomial.from_roots(roots)
        assert b.integer_roots() == [r for r in range(-40, 41) if not b(r)], roots


def test_integer_roots_of_a_b_function_with_a_large_constant():
    # the restriction b-function of (y^2 - x^5)*(z^3 - z): its cleared
    # constant is about -2.1e14, and Cauchy's bound is 49,973,849
    top_down = ["1", "-42", "4064/5", "-48048/5", "48486382/625", "-282929724/625",
                "6159070492/3125", "-20354263944/3125", "6427707006233/390625",
                "-12396864763626/390625", "90369594207004/1953125",
                "-97605172817208/1953125", "9424406491680384/244140625",
                "-4897758801172608/244140625", "1523710747266048/244140625",
                "-42479241412608/48828125"]
    b = ThetaPolynomial([Fraction(c) for c in reversed(top_down)])
    assert b.integer_roots() == [3, 4, 5]


def test_b_function_not_specializable():
    free = DModPresentation.free(1, 1, (0,))
    with pytest.raises(BBoundExceededError):
        restriction_b_function_module(free, max_degree=5)


def test_b_function_degree_bound_covers_the_lcm():
    # two deltas at shifts 0 and 2: each generator's own factor has
    # degree 1 (s + 1 and s - 1), and the bound applies to their lcm
    pres = DModPresentation(1, 2, [me(1, "x1", "0"), me(1, "0", "x1")], (0, 2))
    with pytest.raises(BBoundExceededError):
        restriction_b_function_module(pres, max_degree=1)
    b = restriction_b_function_module(pres, max_degree=2)
    assert b == ThetaPolynomial.from_roots([-1, 1])


def test_b_function_of_complex_with_certificate():
    c = euler_complex()
    details = []
    b = b_function_of_complex(c, details=details)
    assert str(b) == "s"
    assert certify_b_function(b, details)
    # dropping the only root breaks a membership
    assert not certify_b_function(ThetaPolynomial.one(), details)
    # an extra integer root that no membership needs fails the certificate
    assert not certify_b_function(b * ThetaPolynomial([-3, 1]), details)


def test_b_function_exact_complex_is_one():
    free = DModPresentation.free(1, 1, (0,))
    ident = OperatorMatrix(1, 1, [me(1, "1")])
    c = ChainComplexPres(1, 0, [free, free], [ident])
    assert b_function_of_complex(c) == ThetaPolynomial.one()


def test_b_function_error_path():
    free = DModPresentation.free(1, 1, (0,))
    c = ChainComplexPres(1, 0, [free], [])
    with pytest.raises(BBoundExceededError):
        b_function_of_complex(c, max_degree=4)


# -- reference copies of the searches before they shared one routine -----

def reference_minimal_b(kappa, lam, boundary_solver, shift, max_degree):
    """The undetermined-coefficients search that rebuilt every row of its
    linear system from all theta-power images at each degree."""
    n = kappa.n
    th = theta(n)

    def nf(e):
        return e if boundary_solver is None else boundary_solver.normal_form(e, lam)

    def high_terms(e):
        for pos, comp in enumerate(e.components):
            for exps, c in comp.terms.items():
                if term_v_degree(exps, n) + shift[pos] >= lam:
                    yield (pos, exps), c

    reduced = [nf(kappa)]
    high_monos, mono_index = [], {}
    for t in range(max_degree + 1):
        while len(reduced) <= t:
            reduced.append(nf(reduced[-1].left_mul(th)))
        for k in range(len(reduced)):
            for mono, _ in high_terms(reduced[k]):
                if mono not in mono_index:
                    mono_index[mono] = len(high_monos)
                    high_monos.append(mono)
        coef_maps = [dict(high_terms(reduced[k])) for k in range(t + 1)]
        rows = [[coef_maps[k].get(mono, Fraction(0)) for k in range(t)]
                for mono in high_monos]
        rhs = [-coef_maps[t].get(mono, Fraction(0)) for mono in high_monos]
        sol = linalg.solve(rows, rhs) if rows else [Fraction(0)] * t
        if sol is not None:
            return ThetaPolynomial(list(sol) + [Fraction(1)])
    raise BBoundExceededError(f"no b-function of degree <= {max_degree}")


def poly_remainder(coeffs, b):
    """The remainder of an ascending coefficient list by the monic b."""
    r, d = list(coeffs), b.degree
    for k in reversed(range(len(r) - d)):
        f = r[k + d]
        for i, c in enumerate(b.coeffs):
            r[k + i] -= f * c
    return r[:d]


def reference_lcm(p, q):
    """lcm of monic polynomials, through their gcd by Euclid's algorithm."""
    a, g = p, q
    r = poly_remainder(a.coeffs, g)
    while any(r):
        a, g = g, ThetaPolynomial(r)
        r = poly_remainder(a.coeffs, g)
    return (p * q).exact_divide(g)


def reference_shift(q, c):
    """The polynomial s -> q(s + c), by Horner's rule."""
    out = [Fraction(0)]
    for a in reversed(q.coeffs):
        out = [c * hi + lo for hi, lo in zip(out + [0], [0] + out)]
        out[0] += a
    return ThetaPolynomial(out)


def reference_lcm_b(cases, max_degree):
    """The lcm of the generators' own minimal polynomials, shifted by their
    degrees, or "bound exceeded" if one of them or the lcm exceeds
    max_degree."""
    out = ThetaPolynomial.one()
    for kappa, lam, shift, solver in cases:
        q = outcome(reference_minimal_b, kappa, lam, solver, shift, max_degree)
        if isinstance(q, str):
            return q
        out = reference_lcm(out, reference_shift(q, -lam))
    return out if out.degree <= max_degree else "bound exceeded"


def reference_module_b(pres, max_degree):
    """The module b-function as its own loop over the unit vectors."""
    shift = pres.shift_or_zero()
    solver = SubmoduleSolver(FiltrationSpec(pres.n), pres.rank, pres.relations, shift) \
        if pres.relations else None
    return reference_lcm_b([(ModuleElement.unit(pres.n, pres.rank, i), shift[i],
                             shift, solver) for i in range(pres.rank)], max_degree)


def outcome(fn, *args):
    """The polynomial, or "bound exceeded" if the search ended there."""
    try:
        return fn(*args)
    except BBoundExceededError:
        return "bound exceeded"


def operator_in(rng, n, i, max_deg):
    """A random operator in x_i and d_i alone."""
    terms = {}
    for _ in range(2):
        exps = [0] * (2 * n)
        exps[i], exps[n + i] = rng.randint(0, max_deg), rng.randint(0, max_deg)
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return WeylElement(n, terms)


def random_presentations():
    """Seeded cyclic and rank-2 presentations with shifts, n = 1 and 2.

    Each unit vector is killed by one operator per variable, so the module
    is holonomic unless a drawn operator vanishes; the rank-2 draws add one
    random relation coupling the two generators, and in two variables they
    keep to degree 1 so that their solver builds stay short."""
    rng = random.Random(13)
    draws = []
    for n, rank in ((1, 1), (1, 2), (2, 1), (2, 2)):
        max_deg = 1 if n * rank == 4 else 2
        for _ in range(5):
            rels = [ModuleElement(n, [operator_in(rng, n, i, max_deg) if j == pos
                                      else WeylElement.zero(n) for j in range(rank)])
                    for pos in range(rank) for i in range(n)]
            if rank == 2:
                rels.append(ModuleElement(
                    n, [operator_in(rng, n, rng.randrange(n), max_deg) for _ in range(rank)]))
            shift = tuple(rng.randint(-2, 2) for _ in range(rank))
            draws.append(DModPresentation(n, rank, rels, shift))
    return draws


def strict_complex_cases():
    """The strict complex of x*y in C^2, with (kappa, lam, shift, boundary
    solver) of every cycle generator, as the search records them."""
    family = family_for_mv(2, [parse_polynomial("x1*x2", 2)], {})
    c = strictify_complex(fourier_complex(mv_complex(family, 1))).total
    details = []
    b_function_of_complex(c, details=details)
    return c, details


def test_certificate_reads_the_search_records(caplog):
    # every boundary solver the certificate needs is the search's own
    c, details = strict_complex_cases()
    b = b_function_of_complex(c)
    assert any(bsolver is not None for *_, bsolver in details)
    caplog.set_level(logging.DEBUG, logger="derham.groebner")
    assert certify_b_function(b, details)
    assert solver_work(r.getMessage() for r in caplog.records)[0] == 0


def test_minimal_b_matches_reference():
    # the presentations' unit vectors are the cases of the module test below
    c, cases = strict_complex_cases()
    found = set()
    for max_degree in range(4):
        new = outcome(b_function_of_complex, c, max_degree)
        assert new == reference_lcm_b(cases, max_degree)
        found.add(new if isinstance(new, str) else "polynomial")
    assert found == {"polynomial", "bound exceeded"}


def test_module_b_function_matches_reference():
    found = set()
    for pres in random_presentations():
        for max_degree in range(4):
            new = outcome(restriction_b_function_module, pres, max_degree)
            assert new == reference_module_b(pres, max_degree)
            found.add(new if isinstance(new, str) else "polynomial")
    assert found == {"polynomial", "bound exceeded"}


# -- Fourier transform of complexes -------------------------------------

def test_fourier_complex_localization():
    rx = DModPresentation.cyclic(1, [parse_operator("x1*d1 + 1", 1)])
    out = fourier_complex(ChainComplexPres(1, 0, [rx], []))
    rel = out.modules[0].relations[0].components[0]
    assert rel in (parse_operator("x1*d1", 1), parse_operator("-x1*d1", 1))


def test_fourier_complex_zero():
    z = ChainComplexPres(1, 0, [DModPresentation.zero(1)], [])
    assert fourier_complex(z).modules[0].rank == 0


def test_double_fourier_sign_twist():
    from derham import fourier
    p = parse_operator("x1^2*d1 + 3*x1", 1)
    twice = fourier(fourier(p))
    # x -> -x, d -> -d on each monomial
    expected = WeylElement(1, {e: c * (-1) ** sum(e) for e, c in p.terms.items()})
    assert twice == expected


# -- truncation ----------------------------------------------------------

def test_truncation_hand_example():
    t = omega_tensor_truncate(euler_complex(), TruncationWindow(0, 0))
    assert t.dim(-1) == 1 and t.dim(0) == 1
    assert t.matrices[0] == [[Fraction(0)]]
    assert cohomology_dims(t) == {-1: 1, 0: 1}


def test_truncation_derivative_entry():
    # differential d: basis {1} at shift 1 maps to {d} at shift 0: entry 1
    mods = [DModPresentation.free(1, 1, (1,)), DModPresentation.free(1, 1, (0,))]
    mat = OperatorMatrix(1, 1, [me(1, "d1")])
    c = ChainComplexPres(1, 0, mods, [mat])
    t = omega_tensor_truncate(c, TruncationWindow(1, 1))
    assert t.dim(0) == 1 and t.dim(1) == 1
    assert t.matrices[0] == [[Fraction(1)]]


def test_truncation_x_entry_dies():
    # basis {1} -> {1}: the multiplication entry x vanishes at x := 0
    mods = [DModPresentation.free(1, 1, (0,)), DModPresentation.free(1, 1, (0,))]
    mat = OperatorMatrix(1, 1, [me(1, "x1")])
    c = ChainComplexPres(1, 0, mods, [mat])
    t = omega_tensor_truncate(c, TruncationWindow(0, 0))
    assert t.matrices[0] == [[Fraction(0)]]
    # with a derivative in the basis, the commutator constant survives
    mods2 = [DModPresentation.free(1, 1, (-1,)), DModPresentation.free(1, 1, (0,))]
    mat2 = OperatorMatrix(1, 1, [me(1, "x1")])
    c2 = ChainComplexPres(1, 0, mods2, [mat2])
    t2 = omega_tensor_truncate(c2, TruncationWindow(-1, 0))
    assert any(any(v != 0 for v in row) for row in t2.matrices[0])


def test_truncation_empty_window():
    t = omega_tensor_truncate(euler_complex(), TruncationWindow.empty())
    assert cohomology_dims(t) == {-1: 0, 0: 0}


def test_cohomology_dims_rank_nullity():
    def two_spot(matrix):
        bases = [[((0,), 0), ((0,), 1)], [((0,), 0), ((0,), 1)]]
        from derham.restriction import TruncatedComplex
        return TruncatedComplex(0, bases, [matrix], TruncationWindow(0, 0))

    zero = two_spot([[0, 0], [0, 0]])
    assert cohomology_dims(zero) == {0: 2, 1: 2}
    ident = two_spot([[1, 0], [0, 1]])
    assert cohomology_dims(ident) == {0: 0, 1: 0}
    rank1 = two_spot([[1, 0], [1, 0]])
    assert cohomology_dims(rank1) == {0: 1, 1: 1}


def test_window_widening_invariance():
    c = euler_complex()
    base = cohomology_dims(omega_tensor_truncate(c, TruncationWindow(0, 0)))
    for k0, k1 in ((-1, 1), (-2, 2), (0, 3), (-4, 0)):
        wide = cohomology_dims(omega_tensor_truncate(c, TruncationWindow(k0, k1)))
        for k in base:
            assert wide.get(k, 0) == base[k]


# -- graded Koszul oracle ------------------------------------------------

def polynomial_line_module(jlo=-8, jhi=8):
    dims = {(0, j): 1 for j in range(jlo, 1)}
    xact = {(0, 0, j): [[Fraction(1)]] for j in range(jlo + 1, 1)}
    return GradedVectorComplex(0, 0, jlo, jhi, 1, dims, {}, xact)


def test_koszul_line_fixture():
    L = polynomial_line_module()
    for k in (1, 2, 3, -2, -5):
        assert graded_koszul(L, k).is_exact()
    assert not graded_koszul(L, 0).is_exact()


def test_koszul_zero_complex():
    L = GradedVectorComplex(0, 0, -3, 3, 1, {}, {}, {})
    assert graded_koszul(L, 0).is_exact()


def test_koszul_window_error():
    L = polynomial_line_module(jlo=-2, jhi=0)
    with pytest.raises(InvalidInputError):
        graded_koszul(L, 1)


def test_koszul_two_row_mapping_cone():
    # d = 1 reduces to the two-row construction: dims are piece(k+1) + piece(k)
    L = polynomial_line_module()
    K = graded_koszul(L, -2)
    assert K.dims() == [1, 1]


def test_truncated_complex_rejects_nonzero_composite():
    from derham import InconsistencyError
    from derham.restriction import TruncatedComplex
    bases = [[((0,), 0)], [((0,), 0)], [((0,), 0)]]
    with pytest.raises(InconsistencyError):
        TruncatedComplex(0, bases, [[[1]], [[1]]], TruncationWindow(0, 0))
    # the same spaces with a zero second map form a complex
    t = TruncatedComplex(0, bases, [[[1]], [[0]]], TruncationWindow(0, 0))
    assert cohomology_dims(t) == {0: 0, 1: 0, 2: 1}
