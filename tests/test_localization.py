from fractions import Fraction

import pytest

from derham import (FiltrationSpec, InvalidInputError, LocalizationFamily,
                    ModuleElement, SubmoduleSolver, WeylElement,
                    annihilator_of_fs, bernstein_sato, formal_action_is_zero,
                    localize, parse_operator, parse_polynomial)
from derham.localization import _to_dns, substitute_s


def same_ideal(ops_a, ops_b, n):
    spec = FiltrationSpec(n)
    sa = SubmoduleSolver(spec, 1, [ModuleElement(n, [o]) for o in ops_a
                                   if not o.is_zero()])
    sb = SubmoduleSolver(spec, 1, [ModuleElement(n, [o]) for o in ops_b
                                   if not o.is_zero()])
    return all(sa.contains(ModuleElement(n, [o])) for o in ops_b) and \
        all(sb.contains(ModuleElement(n, [o])) for o in ops_a)


def test_localize_coordinate():
    mod = localize(parse_polynomial("x1", 1))
    assert mod.exponent == -1
    assert str(mod.b_function) == "s + 1"
    rels = [r.components[0] for r in mod.presentation.relations]
    assert same_ideal(rels, [parse_operator("x1*d1 + 1", 1)], 1)


def test_localize_second_coordinate():
    mod = localize(parse_polynomial("x2", 2))
    rels = [r.components[0] for r in mod.presentation.relations]
    assert same_ideal(rels, [parse_operator("d1", 2),
                             parse_operator("x2*d2 + 1", 2)], 2)
    for r in rels:
        assert formal_action_is_zero(r, parse_polynomial("x2", 2), -1)


def test_localize_product():
    f = parse_polynomial("x1*x2", 2)
    mod = localize(f)
    assert str(mod.b_function) == "s^2 + 2*s + 1"
    assert mod.exponent == -1
    for r in (rr.components[0] for rr in mod.presentation.relations):
        assert formal_action_is_zero(r, f, -1)


def test_localize_constant():
    mod = localize(parse_polynomial("5", 2))
    assert mod.exponent == 0
    rels = [r.components[0] for r in mod.presentation.relations]
    assert same_ideal(rels, [WeylElement.d(0, 2), WeylElement.d(1, 2)], 2)


def test_localize_groebner_work_is_pinned(monkeypatch):
    # products of a monomial and a vector inside the Groebner engine for
    # one localization (weyl_mul has its own binding of the kernel); any
    # change in Buchberger's or the division's work moves this count
    import derham.groebner as G
    calls = []
    kernel = G.mono_mul_flat

    def spy(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(G, "mono_mul_flat", spy)
    localize(parse_polynomial("y^3 - x^5", 2, ("x", "y")))
    assert len(calls) == 1218


def test_localize_rejects_zero():
    with pytest.raises(InvalidInputError):
        localize(WeylElement.zero(1))
    with pytest.raises(InvalidInputError):
        localize(parse_operator("d1", 1))


def test_bernstein_sato_smooth():
    assert str(bernstein_sato(parse_polynomial("x1^2 - x1", 1))) == "s + 1"


def test_bernstein_sato_cusp():
    b = bernstein_sato(parse_polynomial("x2^2 - x1^3", 2))
    # (s + 1)(s + 5/6)(s + 7/6)
    assert b(Fraction(-1)) == 0
    assert b(Fraction(-5, 6)) == 0
    assert b(Fraction(-7, 6)) == 0
    assert b.degree == 3
    assert b.integer_roots() == [-1]


def test_annihilator_substitution():
    f = parse_polynomial("x1", 1)
    ann = annihilator_of_fs(f)
    at_minus_two = [substitute_s(g, -2) for g in ann]
    # D/<x d + 2> is R_x on the generator x^(-2)
    for g in at_minus_two:
        assert formal_action_is_zero(g, f, -2)


def reference_to_dns(p, n):
    """_to_dns with the falling factorial multiplied out by hand."""
    big, ns = n + 3, n + 1
    out = WeylElement.zero(ns)
    for e, c in p.terms.items():
        k = e[n]
        poly = [Fraction(1)]
        for j in range(k):  # multiply by (-1 - j) - s
            nxt = [Fraction(0)] * (len(poly) + 1)
            for deg, coef in enumerate(poly):
                nxt[deg] += coef * Fraction(-1 - j)
                nxt[deg + 1] -= coef
            poly = nxt
        base = WeylElement(ns, {e[:n] + (0,) + e[big:big + n] + (0,): c})
        sacc = WeylElement.zero(ns)
        for deg, coef in enumerate(poly):
            if coef:
                mono = [0] * (2 * ns)
                mono[n] = deg
                sacc = sacc + WeylElement(ns, {tuple(mono): coef})
        out = out + base * sacc
    return out


def test_to_dns_matches_reference():
    # t^k dt^k in the algebra of x1, t, u, v is the k-th falling factorial
    # of theta = t dt, rewritten through theta = -s - 1
    n, big = 1, 4
    total = WeylElement.zero(big)
    for k in range(7):
        exps = [0] * (2 * big)
        exps[n] = exps[big + n] = k
        mono = WeylElement(big, {tuple(exps): Fraction(k + 1, 2)})
        assert _to_dns(mono, n) == reference_to_dns(mono, n)
        total = total + mono
    # equal, and in the same term order
    assert list(_to_dns(total, n).terms.items()) == \
        list(reference_to_dns(total, n).terms.items())


def test_exponent_request():
    mod = localize(parse_polynomial("x1", 1)).at_exponent(-3)
    for r in (rr.components[0] for rr in mod.presentation.relations):
        assert formal_action_is_zero(r, parse_polynomial("x1", 1), -3)
    with pytest.raises(InvalidInputError, match="above the minimal integer root"):
        localize(parse_polynomial("x1", 1)).at_exponent(0)


def test_family_common_exponent_and_multipliers():
    x = parse_polynomial("x1", 2)
    y = parse_polynomial("x2", 2)
    fam = LocalizationFamily(2, [x, y], [(0,), (1,), (0, 1)])
    assert fam.exponent == -1
    assert fam.multiplier((0,), (0, 1)) == y
    assert fam.multiplier((1,), (0, 1)) == x
    assert fam.multiplier((0,), (0,)) == WeylElement.one(2)


def test_family_rejects_zero_member():
    with pytest.raises(InvalidInputError):
        LocalizationFamily(1, [WeylElement.zero(1)], [(0,)])


def test_family_duplicates_allowed():
    x = parse_polynomial("x1", 1)
    fam = LocalizationFamily(1, [x, x], [(0,), (1,), (0, 1)])
    sq = fam.module((0, 1))
    assert sq.f == x * x
    for r in (rr.components[0] for rr in sq.presentation.relations):
        assert formal_action_is_zero(r, x * x, fam.exponent)


def test_localizations_are_specializable():
    # holonomicity proxy: the restriction b-function search terminates on
    # the Fourier transform of every shipped localization
    from derham import (ChainComplexPres, DModPresentation, fourier_complex,
                        restriction_b_function_module)
    for text, n in (("x1", 1), ("x1*x2", 2), ("x2^2 - x1^3", 2)):
        mod = localize(parse_polynomial(text, n))
        cplx = ChainComplexPres(n, 0, [mod.presentation], [])
        moved = fourier_complex(cplx).modules[0]
        shifted = DModPresentation(n, 1, moved.relations, (0,))
        b = restriction_b_function_module(shifted)
        assert b.degree >= 1


def test_user_supplied_presentation():
    x = parse_polynomial("x1", 1)
    overrides = {"x1": (-1, [parse_operator("x1*d1 + 1", 1)])}
    fam = LocalizationFamily(1, [x], [(0,)], overrides=overrides)
    assert fam.exponent == -1
    assert fam.module((0,)).from_user
    bad = {"x1": (-1, [parse_operator("x1*d1", 1)])}
    with pytest.raises(InvalidInputError):
        LocalizationFamily(1, [x], [(0,)], overrides=bad)
