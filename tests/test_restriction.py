import random
from fractions import Fraction

import pytest

from derham import (BBoundExceededError, ChainComplexPres, DModPresentation,
                    FiltrationSpec, GradedVectorComplex, InvalidInputError,
                    ModuleElement, OperatorMatrix, ThetaPolynomial,
                    TruncationWindow, WeylElement, b_function_of_complex,
                    certify_b_function, cohomology_dims, family_for_mv,
                    fourier_complex, graded_koszul, integer_root_window,
                    mv_complex, omega_tensor_truncate, parse_operator,
                    parse_polynomial, restriction_b_function_module,
                    strictify_complex)
from derham import groebner, linalg
from derham.errors import ReductionLimitError
from derham.groebner import SolverCache
from derham.restriction import _boundary_solver, _minimal_b_for_generator
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
    assert b.taylor_shift(3)(0) == b(3)
    one = ThetaPolynomial.one()
    assert one.lcm(b) == b
    assert b.lcm(ThetaPolynomial.from_roots([0])) == b
    c = ThetaPolynomial.from_roots([0, 0, 2])
    assert b.lcm(c).degree == 4
    assert b.gcd(c) == ThetaPolynomial.from_roots([0])
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
    assert restriction_b_function_module(zero).is_one()


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


def test_b_function_not_specializable():
    free = DModPresentation.free(1, 1, (0,))
    with pytest.raises(BBoundExceededError):
        restriction_b_function_module(free, max_degree=5)


def test_b_function_of_complex_with_certificate():
    c = euler_complex()
    details = []
    b = b_function_of_complex(c, details=details)
    assert str(b) == "s"
    assert certify_b_function(b, details, c)
    # dropping the only root breaks a membership
    assert not certify_b_function(ThetaPolynomial.one(), details, c)
    # an extra integer root that no membership needs fails the certificate
    assert not certify_b_function(b * ThetaPolynomial([-3, 1]), details, c)


def test_b_function_exact_complex_is_one():
    free = DModPresentation.free(1, 1, (0,))
    ident = OperatorMatrix(1, 1, [me(1, "1")])
    c = ChainComplexPres(1, 0, [free, free], [ident])
    assert b_function_of_complex(c).is_one()


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
        return e if boundary_solver is None else boundary_solver.normal_form(e)

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


def reference_module_b(pres, max_degree):
    """The module b-function as its own loop over the unit vectors."""
    shift = pres.shift_or_zero()
    solver = SolverCache(FiltrationSpec(pres.n)).get(pres.rank, pres.relations, shift) \
        if pres.relations else None
    out = ThetaPolynomial.one()
    for i in range(pres.rank):
        gen = ModuleElement.unit(pres.n, pres.rank, i)
        q = reference_minimal_b(gen, shift[i], solver, shift, max_degree)
        out = out.lcm(q.taylor_shift(-shift[i]))
    return out


def outcome(fn, *args):
    """The polynomial, or which of the two expected errors ended the search."""
    try:
        return fn(*args)
    except BBoundExceededError:
        return "bound exceeded"
    except ReductionLimitError:
        return "division budget exhausted"


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


@pytest.fixture
def small_division_budget(monkeypatch):
    # V-order division need not terminate on these draws (a coset may have
    # no V-minimal member); a small budget ends such a search in both
    # routines with the same error instead of after a million steps
    monkeypatch.setattr(groebner, "DEFAULT_REDUCTION_LIMIT", 200)


def strict_complex_kappas():
    """(kappa, lam, boundary solver, shift) of every cycle generator of the
    strict complex of x*y in C^2."""
    family = family_for_mv(2, [parse_polynomial("x1*x2", 2)], {})
    c = strictify_complex(fourier_complex(mv_complex(family, 1))).total
    details = []
    b_function_of_complex(c, details=details)
    solvers = SolverCache(FiltrationSpec(c.n))
    return [(d.kappa, d.lam, _boundary_solver(c, d.position, solvers),
             c.module(d.position).shift_or_zero()) for d in details]


def test_minimal_b_matches_reference(small_division_budget):
    cases = []
    for pres in random_presentations():
        shift = pres.shift_or_zero()
        solver = outcome(SolverCache(FiltrationSpec(pres.n)).get, pres.rank,
                         pres.relations, shift) if pres.relations else None
        if solver != "division budget exhausted":  # no search without a basis
            cases += [(ModuleElement.unit(pres.n, pres.rank, i), shift[i], solver, shift)
                      for i in range(pres.rank)]
    cases += strict_complex_kappas()
    found = set()
    for kappa, lam, solver, shift in cases:
        for max_degree in range(4):
            new = outcome(_minimal_b_for_generator, kappa, lam, solver, shift, max_degree)
            assert new == outcome(reference_minimal_b, kappa, lam, solver, shift,
                                  max_degree)
            found.add(new if isinstance(new, str) else "polynomial")
    assert found == {"polynomial", "bound exceeded", "division budget exhausted"}


def test_module_b_function_matches_reference(small_division_budget):
    found = set()
    for pres in random_presentations():
        for max_degree in range(4):
            new = outcome(restriction_b_function_module, pres, max_degree)
            assert new == outcome(reference_module_b, pres, max_degree)
            found.add(new if isinstance(new, str) else "polynomial")
    assert found == {"polynomial", "bound exceeded", "division budget exhausted"}


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
