import random
from fractions import Fraction

import pytest

from conftest import random_polynomial, random_weyl
from derham import (NEG_INF, DimensionMismatchError, InvalidInputError,
                    WeylElement, apply_to_polynomial, format_operator, fourier,
                    parse_operator, theta, v_degree, weyl_mul)
from derham.errors import InternalError
from derham.weyl import MonomialCodec, mono_mul_flat


def x(i, n):
    return WeylElement.x(i, n)


def in_contract(c):
    """The coefficient contract: an int if c is integral, a Fraction
    otherwise, never a float."""
    return type(c) is (int if c.denominator == 1 else Fraction)


def d(i, n):
    return WeylElement.d(i, n)


def test_commutation_relation():
    assert weyl_mul(d(0, 1), x(0, 1)) == weyl_mul(x(0, 1), d(0, 1)) + 1


def test_euler_square_against_action_oracle():
    xd = x(0, 1) * d(0, 1)
    square = weyl_mul(xd, xd)
    assert square == WeylElement.monomial(1, (2,), (2,)) + xd
    for k in range(6):
        mono = WeylElement.monomial(1, (k,), (0,))
        assert apply_to_polynomial(square, mono) == mono.scale(k * k)


def test_multiply_by_zero():
    p = parse_operator("x1^2*d1 - 3*d2", 2)
    assert weyl_mul(p, WeylElement.zero(2)).is_zero()
    assert weyl_mul(WeylElement.zero(2), p).is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        weyl_mul(x(0, 1), x(0, 2))
    # checked before the shortcut for a zero factor
    with pytest.raises(DimensionMismatchError):
        weyl_mul(WeylElement.zero(1), x(0, 2))


def test_v_degree_examples():
    assert v_degree(WeylElement.monomial(2, (1, 1), (1, 0))) == -1
    assert v_degree(WeylElement.one(2)) == 0
    assert v_degree(WeylElement.monomial(1, (0,), (2,)), 3) == 5
    assert v_degree(WeylElement.zero(1)) == NEG_INF


def test_fourier_on_generators():
    assert fourier(x(0, 2)) == d(0, 2)
    assert fourier(d(1, 2)) == -x(1, 2)
    xd = x(0, 1) * d(0, 1)
    assert fourier(xd) == -xd - 1


def test_theta():
    assert theta(1) == x(0, 1) * d(0, 1)
    assert theta(2) == x(0, 2) * d(0, 2) + x(1, 2) * d(1, 2)


def test_apply_to_polynomial():
    g = WeylElement.monomial(1, (2,), (0,))
    assert apply_to_polynomial(d(0, 1), g) == WeylElement.monomial(1, (1,), (0,), 2)
    xd = x(0, 1) * d(0, 1)
    for k in range(5):
        mono = WeylElement.monomial(1, (k,), (0,))
        assert apply_to_polynomial(xd, mono) == mono.scale(k)
    comm = weyl_mul(d(0, 1), x(0, 1)) - weyl_mul(x(0, 1), d(0, 1))
    rng = random.Random(7)
    for _ in range(20):
        g = random_polynomial(rng, 1)
        assert apply_to_polynomial(comm, g) == g


def _reference_apply(p, g):
    """p applied to g term by term: x^a d^b . x^c = c!/(c-b)! x^(a+c-b),
    zero when some c_i < b_i, with Fraction accumulation."""
    n = p.n
    out = {}
    for ep, cp in p.terms.items():
        a, b = ep[:n], ep[n:]
        for eg, cg in g.terms.items():
            c = eg[:n]
            if any(c[i] < b[i] for i in range(n)):
                continue
            m = 1
            for i in range(n):
                for j in range(b[i]):
                    m *= c[i] - j
            key = tuple(a[i] + c[i] - b[i] for i in range(n)) + (0,) * n
            s = out.get(key, Fraction(0)) + cp * cg * m
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_to_polynomial_matches_reference(n):
    rng = random.Random(50 + n)
    for _ in range(100):
        p = random_weyl(rng, n, max_deg=3, max_terms=4)
        g = random_polynomial(rng, n, max_deg=3, max_terms=4)
        got = apply_to_polynomial(p, g).terms
        assert got == _reference_apply(p, g)
        assert all(map(in_contract, got.values()))


def test_apply_to_polynomial_checks_its_inputs():
    with pytest.raises(DimensionMismatchError):
        apply_to_polynomial(d(0, 1), x(0, 2))
    with pytest.raises(InvalidInputError, match="polynomial argument"):
        apply_to_polynomial(d(0, 1), d(0, 1))


def test_canonical_text_form():
    p = parse_operator("3*x1^2*d1 - 1/2*d2", 2)
    assert format_operator(p) == "3*x1^2*d1 - 1/2*d2"
    assert format_operator(WeylElement.zero(2)) == "0"
    assert format_operator(WeylElement.one(1)) == "1"
    q = weyl_mul(d(0, 1), x(0, 1))
    assert format_operator(q) == "x1*d1 + 1"


def test_format_parse_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        p = random_weyl(rng, 2)
        assert parse_operator(format_operator(p), 2) == p


def _reference_weyl_mul(p, q):
    """The product contracting variable by variable, d^b x^c = sum_k
    C(b,k) C(c,k) k! x^(c-k) d^(b-k), with Fraction accumulation."""
    from math import comb, factorial
    n = p.n
    out = {}
    for ep, cp in p.terms.items():
        a, b = ep[:n], ep[n:]
        for eq, cq in q.terms.items():
            c, d_ = eq[:n], eq[n:]
            partial = [((), (), 1)]
            for i in range(n):
                contractions = [(k, comb(b[i], k) * comb(c[i], k) * factorial(k))
                                for k in range(min(b[i], c[i]) + 1)]
                partial = [(al + (a[i] + c[i] - k,), be + (b[i] + d_[i] - k,), m * mult)
                           for al, be, m in partial for k, mult in contractions]
            for al, be, m in partial:
                key = al + be
                s = out.get(key, Fraction(0)) + cp * cq * m
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weyl_mul_matches_reference(n):
    rng = random.Random(40 + n)
    for _ in range(60):
        p = random_weyl(rng, n, max_deg=3, max_terms=4)
        q = random_weyl(rng, n, max_deg=3, max_terms=4)
        got = weyl_mul(p, q).terms
        assert got == _reference_weyl_mul(p, q)
        assert all(map(in_contract, got.values()))


def _shift_codec(n, shift):
    return MonomialCodec(n, 1, 16, shift_pairs=(shift,))


def _shift_power(a, b):
    """(s - b)^a as a repeated product of s - b: ascending coefficients."""
    poly = [1]
    for _ in range(a):
        poly = [hi - b * lo for lo, hi in zip(poly + [0], [0] + poly)]
    return poly


def _reference_shift_product(n, shift, qe, vec):
    """q * vec for the monomial q with exponents qe, pair `shift` a shift
    pair: d_i^b x_i^a = (x_i - b)^a d_i^b there, the Weyl contraction on
    every other pair, with terms in the kernel's order (each term of vec
    in turn, the earlier variable slowest, fewer contractions first)."""
    from itertools import product
    from math import comb, factorial
    out = {}
    for e, c in vec.items():
        per_var = []
        for i in range(n):
            b, a = qe[n + i], e[i]
            if not (a and b):
                continue
            if i == shift:
                coeffs = _shift_power(a, b)  # s^(a - k) has coeffs[a - k]
                per_var.append([(i, k, 0, coeffs[a - k]) for k in range(a + 1)])
            else:
                per_var.append([(i, k, k, comb(b, k) * comb(a, k) * factorial(k))
                                for k in range(min(a, b) + 1)])
        for choice in product(*per_var):
            exps = [p + r for p, r in zip(qe, e)]
            mult = c
            for i, kx, kd, m in choice:
                exps[i] -= kx
                exps[n + i] -= kd
                mult *= m
            key = tuple(exps)
            s = out.get(key, 0) + mult
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _random_exps(rng, n, top=3):
    return tuple(rng.randint(0, top) for _ in range(2 * n))


@pytest.mark.parametrize("n, shift", [(1, 0), (2, 1), (3, 0), (3, 2)])
def test_shift_pair_products_match_reference(n, shift):
    rng = random.Random(70 + 3 * n + shift)
    codec = _shift_codec(n, shift)
    shifted = 0
    for _ in range(80):
        qe = _random_exps(rng, n)
        vec = {_random_exps(rng, n): rng.randint(-3, 3) or 1
               for _ in range(rng.randint(1, 4))}
        want = _reference_shift_product(n, shift, qe, vec)
        flat = {codec.pack(0, e): c for e, c in vec.items()}
        got = mono_mul_flat(codec, 1, codec.pack(0, qe) - codec.one, flat, 0, {})
        got = [(codec.exponents(m), c) for m, c in got.items()]
        assert got == list(want.items())
        shifted += qe[n + shift] > 0 and any(e[shift] for e in vec)
    assert shifted >= 20


def _shift_mul(codec, p, q):
    """p * q for flat vectors over a codec with a shift pair."""
    out = {}
    for m, c in p.items():
        mono_mul_flat(codec, c, m - codec.one, q, 0, out)
    return out


def test_shift_pair_product_is_associative():
    rng = random.Random(77)
    for n, shift in ((1, 0), (2, 1), (3, 2)):
        codec = _shift_codec(n, shift)
        for _ in range(40):
            a, b, c = ({codec.pack(0, _random_exps(rng, n, 2)): rng.randint(1, 3)}
                       for _ in range(3))
            assert _shift_mul(codec, _shift_mul(codec, a, b), c) == \
                _shift_mul(codec, a, _shift_mul(codec, b, c))
    # dt s = (s - 1) dt on the one pair: dt^2 s^2 = s^2 dt^2 - 4 s dt^2 + 4 dt^2
    codec = _shift_codec(1, 0)
    got = _shift_mul(codec, {codec.pack(0, (0, 2)): 1}, {codec.pack(0, (2, 0)): 1})
    assert {codec.exponents(m): c for m, c in got.items()} == \
        {(2, 2): 1, (1, 2): -4, (0, 2): 4}


def test_shift_pair_refuses_the_homogenized_product():
    codec = _shift_codec(2, 1)
    vec = {codec.pack(0, (0, 1, 0, 0)): 1}
    with pytest.raises(InternalError, match="shift pair"):
        mono_mul_flat(codec, 1, codec.pack(0, (0, 0, 0, 1)) - codec.one, vec, 2, {})
    # the Weyl pair beside it still multiplies under h_step = 2
    out = mono_mul_flat(codec, 1, codec.pack(0, (0, 0, 1, 0)) - codec.one,
                        {codec.pack(0, (1, 0, 0, 0)): 1}, 2, {})
    assert sorted(codec.unpack(m) for m in out) == \
        [(0, (0, 0, 0, 0), 2), (0, (1, 0, 1, 0), 0)]


# coefficients whose sums and products are often integral, as ints and as
# Fractions (an integral Fraction among them)
_MIXED = (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
          Fraction(2, 3), Fraction(4, 2), Fraction(-6, 3))


def _mixed_weyl(rng, n, no_d_of=None):
    """Terms with coefficients drawn from _MIXED; with no_d_of = i, no d_i."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        e = list(_random_exps(rng, n, 2))
        if no_d_of is not None:
            e[n + no_d_of] = 0
        terms.append((tuple(e), rng.choice(_MIXED)))
    return terms


def _fractions(terms):
    """The reference: the same terms summed over Fractions only."""
    out = {}
    for e, c in terms:
        s = out.get(e, Fraction(0)) + Fraction(c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _reference(n, terms):
    class Ref:  # what _reference_weyl_mul reads of an element
        pass
    ref = Ref()
    ref.n, ref.terms = n, _fractions(terms)
    return ref


def _check(got, want):
    assert got.terms == want
    assert all(map(in_contract, got.terms.values()))


def test_mixed_coefficients_keep_the_contract():
    from derham import ModuleElement
    from derham.localization import substitute_s
    rng = random.Random(91)
    integral = 0  # results that came out integral from Fraction operands
    for _ in range(150):
        n = rng.randint(1, 2)
        tp, tq = _mixed_weyl(rng, n), _mixed_weyl(rng, n)
        p, q = WeylElement(n, tp), WeylElement(n, tq)
        fp, fq = _fractions(tp), _fractions(tq)
        _check(p, fp)
        _check(p + q, _fractions(list(fp.items()) + list(fq.items())))
        _check(p - q, _fractions(list(fp.items()) + [(e, -c) for e, c in fq.items()]))
        c = rng.choice(_MIXED)
        _check(p.scale(c), _fractions([(e, v * Fraction(c)) for e, v in fp.items()]))
        prod = _reference_weyl_mul(_reference(n, tp), _reference(n, tq))
        _check(weyl_mul(p, q), prod)
        moved = ModuleElement(n, [q, p]).left_mul(p)
        _check(moved.components[0], prod)
        _check(moved.components[1],
               _reference_weyl_mul(_reference(n, tp), _reference(n, tp)))
        # an element of D_(n-1)[s], s the trailing pair, at a mixed value
        ts = _mixed_weyl(rng, n + 1, no_d_of=n)
        value = rng.choice(_MIXED)
        want = _fractions([(e[:n] + e[n + 1:2 * n + 1], c * Fraction(value) ** e[n])
                           for e, c in _fractions(ts).items()])
        _check(substitute_s(WeylElement(n + 1, ts), value), want)
        if any(type(c) is Fraction for c in p.terms.values()):
            integral += any(type(c) is int for c in weyl_mul(p, q).terms.values())
    assert integral >= 20
    half = WeylElement.constant(1, Fraction(1, 2))
    assert type((half + half).constant_coefficient()) is int
    assert type(half.scale(2).constant_coefficient()) is int
    assert (half * 2).terms == {(0, 0): 1}
    assert type(weyl_mul(x(0, 1).scale(2), d(0, 1).scale(Fraction(1, 2)))
                .terms[(1, 1)]) is int
    with pytest.raises(InvalidInputError, match="non-rational"):
        WeylElement.constant(1, 0.5)
    with pytest.raises(InvalidInputError, match="non-rational"):
        half.scale(0.5)
    # so does a float operand on either side of +, - and *
    for operation in (lambda: half + 0.5, lambda: half - 0.5, lambda: half * 0.5,
                      lambda: 0.5 * half, lambda: 0.5 + half, lambda: 0.5 - half):
        with pytest.raises(InvalidInputError, match="non-rational"):
            operation()
