import random
from fractions import Fraction

import pytest

from conftest import random_polynomial, random_weyl
from derham import (NEG_INF, DimensionMismatchError, WeylElement,
                    apply_to_polynomial, format_operator, fourier,
                    parse_operator, theta, v_degree, weyl_mul)


def x(i, n):
    return WeylElement.x(i, n)


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
        assert all(type(c) is Fraction for c in got.values())
