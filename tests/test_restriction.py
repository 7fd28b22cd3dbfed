from fractions import Fraction

import pytest

from derham import (BBoundExceededError, ChainComplexPres, DModPresentation,
                    FiltrationSpec, GradedVectorComplex, InvalidInputError,
                    ModuleElement, OperatorMatrix, ThetaPolynomial,
                    TruncationWindow, WeylElement, b_function_of_complex,
                    certify_b_function, cohomology_dims, euler_characteristic,
                    fourier_complex, graded_koszul, integer_root_window,
                    omega_tensor_truncate, parse_operator,
                    restriction_b_function_module)

SPEC1 = FiltrationSpec.full(1)


def me(n, *ops):
    return ModuleElement(n, [parse_operator(o, n) for o in ops])


def euler_complex():
    """0 -> D[0] -(xd)-> D[0] -> 0 in degrees -1, 0."""
    free = DModPresentation.free(1, 1, (0,))
    mat = OperatorMatrix(1, 1, [me(1, "x1*d1")], source_shift=(0,),
                         target_shift=(0,))
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
    assert str(restriction_b_function_module(polynomial_ring, SPEC1)) == "s"

    delta = DModPresentation.cyclic(1, [parse_operator("x1", 1)], shift=(0,))
    assert str(restriction_b_function_module(delta, SPEC1)) == "s + 1"

    zero = DModPresentation.cyclic(1, [parse_operator("1", 1)], shift=(0,))
    assert restriction_b_function_module(zero, SPEC1).is_one()


def test_b_function_respects_shift():
    delta = DModPresentation.cyclic(1, [parse_operator("x1", 1)], shift=(2,))
    b = restriction_b_function_module(delta, SPEC1)
    assert b.integer_roots() == [1]


def test_b_function_not_specializable():
    free = DModPresentation.free(1, 1, (0,))
    with pytest.raises(BBoundExceededError):
        restriction_b_function_module(free, SPEC1, max_degree=5)


def test_b_function_of_complex_with_certificate():
    c = euler_complex()
    details = []
    b = b_function_of_complex(c, SPEC1, details=details)
    assert str(b) == "s"
    assert certify_b_function(b, details, c, SPEC1)
    # dropping the only root breaks a membership
    assert not certify_b_function(ThetaPolynomial.one(), details, c, SPEC1)
    # an extra integer root that no membership needs fails the certificate
    assert not certify_b_function(b * ThetaPolynomial([-3, 1]), details, c, SPEC1)


def test_b_function_exact_complex_is_one():
    free = DModPresentation.free(1, 1, (0,))
    ident = OperatorMatrix(1, 1, [me(1, "1")], source_shift=(0,), target_shift=(0,))
    c = ChainComplexPres(1, 0, [free, free], [ident])
    assert b_function_of_complex(c, SPEC1).is_one()


def test_b_function_error_path():
    free = DModPresentation.free(1, 1, (0,))
    c = ChainComplexPres(1, 0, [free], [])
    with pytest.raises(BBoundExceededError):
        b_function_of_complex(c, SPEC1, max_degree=4)


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
    mat = OperatorMatrix(1, 1, [me(1, "d1")], source_shift=(1,), target_shift=(0,))
    c = ChainComplexPres(1, 0, mods, [mat])
    t = omega_tensor_truncate(c, TruncationWindow(1, 1))
    assert t.dim(0) == 1 and t.dim(1) == 1
    assert t.matrices[0] == [[Fraction(1)]]


def test_truncation_x_entry_dies():
    # basis {1} -> {1}: the multiplication entry x vanishes at x := 0
    mods = [DModPresentation.free(1, 1, (0,)), DModPresentation.free(1, 1, (0,))]
    mat = OperatorMatrix(1, 1, [me(1, "x1")], source_shift=(0,), target_shift=(0,))
    c = ChainComplexPres(1, 0, mods, [mat])
    t = omega_tensor_truncate(c, TruncationWindow(0, 0))
    assert t.matrices[0] == [[Fraction(0)]]
    # with a derivative in the basis, the commutator constant survives
    mods2 = [DModPresentation.free(1, 1, (-1,)), DModPresentation.free(1, 1, (0,))]
    mat2 = OperatorMatrix(1, 1, [me(1, "x1")], source_shift=(-1,), target_shift=(0,))
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
    assert euler_characteristic(cohomology_dims(rank1)) == 0


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
        assert graded_koszul(L, FiltrationSpec(1, 1), k).is_exact()
    assert not graded_koszul(L, FiltrationSpec(1, 1), 0).is_exact()


def test_koszul_zero_complex():
    L = GradedVectorComplex(0, 0, -3, 3, 1, {}, {}, {})
    assert graded_koszul(L, FiltrationSpec(1, 1), 0).is_exact()


def test_koszul_window_error():
    L = polynomial_line_module(jlo=-2, jhi=0)
    with pytest.raises(InvalidInputError):
        graded_koszul(L, FiltrationSpec(1, 1), 1)


def test_koszul_two_row_mapping_cone():
    # d = 1 reduces to the two-row construction: dims are piece(k+1) + piece(k)
    L = polynomial_line_module()
    K = graded_koszul(L, FiltrationSpec(1, 1), -2)
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
