import random
from fractions import Fraction

import pytest

from conftest import random_polynomial
from derham import (FiltrationSpec, InvalidInputError, LocalizationFamily,
                    ModuleElement, SubmoduleSolver, WeylElement,
                    annihilator_of_fs, bernstein_sato, formal_action_is_zero,
                    format_operator, localize, parse_operator,
                    parse_polynomial)
from derham.groebner import GBEngine, block_elim_codec, elements_degree, me_to_flat
from derham.localization import _extend, _specialize, _to_dns, substitute_s
from derham.restriction import ThetaPolynomial
from derham.weyl import apply_to_polynomial


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
    assert len(calls) == 327


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
    ns = n + 1
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
        base = WeylElement(ns, {e[:n] + (0,) + e[ns:ns + n] + (0,): c})
        sacc = WeylElement.zero(ns)
        for deg, coef in enumerate(poly):
            if coef:
                mono = [0] * (2 * ns)
                mono[n] = deg
                sacc = sacc + WeylElement(ns, {tuple(mono): coef})
        out = out + base * sacc
    return out


def test_to_dns_matches_reference():
    # t^k dt^k in the algebra of x1, t is the k-th falling factorial of
    # theta = t dt, rewritten through theta = -s - 1
    n, ns = 1, 2
    total = WeylElement.zero(ns)
    for k in range(7):
        exps = [0] * (2 * ns)
        exps[n] = exps[ns + n] = k
        exps[0] = k % 2
        mono = WeylElement(ns, {tuple(exps): Fraction(k + 1, 2)})
        assert _to_dns(mono, n) == reference_to_dns(mono, n)
        total = total + mono
    # equal, and in the same term order
    assert list(_to_dns(total, n).terms.items()) == \
        list(reference_to_dns(total, n).terms.items())


def uv_annihilator(f):
    """Ann(f^s) by the Oaku-Takayama elimination: adjoin t, dt and central
    u, v with u v = 1, eliminate u, v from <t - u f, d_i + u f_i dt,
    u v - 1> in D_{n+3} (pairs x_1..x_n, t, u, v), move each u,v-free
    entry of the reduced basis to weight zero (t, u: +1; dt, v: -1) and
    rewrite it in D_n[s]."""
    n = f.n
    big = n + 3
    t, dt = WeylElement.x(n, big), WeylElement.d(n, big)
    u, v = WeylElement.x(n + 1, big), WeylElement.x(n + 2, big)
    gens = [t - u * _extend(f, big)]
    for i in range(n):
        fi = _extend(apply_to_polynomial(WeylElement.d(i, n), f), big)
        gens.append(WeylElement.d(i, big) + u * fi * dt)
    gens.append(u * v - 1)
    elems = [ModuleElement(big, [g]) for g in gens]
    codec = block_elim_codec(big, (n + 1, n + 2, big + n + 1, big + n + 2),
                             elements_degree(elems))
    reduced = GBEngine(codec, h_step=0).buchberger([me_to_flat(g, codec) for g in elems])
    keep = list(range(n + 1)) + list(range(big, big + n + 1))  # all but u, v
    out = []
    for _, _, vec in reduced:
        elem = {codec.exponents(m): c for m, c in vec.items()}
        if any(e[n + 1] or e[n + 2] or e[big + n + 1] or e[big + n + 2] for e in elem):
            continue
        (w,) = {e[n] + e[n + 1] - e[big + n] - e[n + 2] for e in elem}
        p = WeylElement(big, elem)
        if w > 0:
            p = dt ** w * p
        elif w < 0:
            p = t ** (-w) * p
        # drop the u, v pairs, keeping the term order, and rewrite in D_n[s]
        small = WeylElement(n + 1, [(tuple(e[j] for j in keep), c)
                                    for e, c in p.terms.items()])
        out.append(_to_dns(small, n))
    return [g for g in out if not g.is_zero()]


# the nine bernstein-sato bench curves, then every nonconstant product
# that a seed-1 golden-sweep pass localizes and the constant 1 beside them
BENCH_CURVES = [
    ("y^2 - x^5", 2), ("x^3 - y^4", 2), ("y^2 - x^7", 2), ("y^3 - x^5", 2),
    ("x*y*(x + y)*(x - y)", 2), ("(x^2 - y^3)*(x - 1)", 2), ("x^2 + y^3 + z^3", 3),
    ("x^2*y^2 + x^5 + y^5", 2), ("x*y*z*(x + y + z)", 3)]
GOLDEN_PRODUCTS = [
    ("x1", 1), ("x1^2", 1), ("x1^2 - x1", 1), ("x1^3 - x1", 1),
    ("x1", 2), ("x2", 2), ("x1*x2", 2), ("x1 + x2", 2), ("x1*x2 - 1", 2),
    ("x1^2 - x1", 2), ("x2^2 - x2", 2), ("-x1^2 + x2", 2), ("x1*x2 - x1", 2),
    ("x1*x2 - x2", 2), ("-x1^3 + x2^2", 2), ("-x1^5 + x2^2", 2),
    ("x1*x2 + x2^2", 2), ("x1^2 + x1*x2", 2), ("x1^2*x2 - x1", 2),
    ("x1*x2^2 - x1*x2", 2), ("x1^2 + x2^2 - 1", 2), ("x1^2*x2 - x1*x2", 2),
    ("x1^2*x2 + x1*x2^2", 2), ("x1^2*x2 - x1*x2^2", 2),
    ("-x1^3 - x1^2 + x2^2", 2), ("x1*x2^2 - x1*x2 - x2^2 + x2", 2),
    ("x1^2*x2 - x1^2 - x1*x2 + x1", 2),
    ("x1^2*x2^2 - x1^2*x2 - x1*x2^2 + x1*x2", 2),
    ("x1^2*x2 - x1*x2^2 + 2*x1^2 - 2*x1*x2 - x2^2 - 3*x2 - 2", 2),
    ("2*x1^2*x2 + 2*x1*x2^2 + x1^2 - x1*x2 + 2*x2^2 - x1 - 3*x2 - 2", 2),
    ("-x1^3 - 3*x1^2*x2 + 4*x2^3 + 5*x1^2 + 11*x1*x2 + 2*x2^2 - 8*x1 - 10*x2 + 4", 2),
    ("x1", 3), ("x2", 3), ("x3", 3), ("x1*x2", 3), ("x1*x3", 3), ("x2*x3", 3),
    ("x1*x2*x3", 3), ("1", 2)]


def oracle_inputs():
    for text, n in BENCH_CURVES:
        f = parse_polynomial(text, n, ("x", "y", "z")[:n])
        yield pytest.param(f, id=text)
    for text, n in GOLDEN_PRODUCTS:
        yield pytest.param(parse_polynomial(text, n), id=f"{text} over {n}")
    yield pytest.param(parse_polynomial("-3/2", 2), id="-3/2")
    for seed in range(10):
        rng = random.Random(seed)
        n = 2 + seed % 2
        f = random_polynomial(rng, n, max_deg=2, max_terms=3)
        while f.is_constant():
            f = random_polynomial(rng, n, max_deg=2, max_terms=3)
        yield pytest.param(f, id=f"random {seed}")


@pytest.mark.parametrize("f", oracle_inputs())
def test_annihilator_matches_the_uv_elimination(f):
    # the u,v-free part J of the Oaku-Takayama elimination is D_{n+1} J_0,
    # so its reduced basis is the one re-based from Briancon-Maisonobe:
    # the same elements, terms and term order
    got = [list(g.terms.items()) for g in annihilator_of_fs(f)]
    assert got == [list(g.terms.items()) for g in uv_annihilator(f)]


def elimination_b_function(f):
    """b_f by elimination: the reduced basis of Ann(f^s) + D_n[s] f under
    an order eliminating x and d, whose lowest-degree entry in s alone is
    b_f up to a scalar."""
    n = f.n
    ns = n + 1
    gens = annihilator_of_fs(f) + [_extend(f, ns)]
    block = tuple(range(n)) + tuple(range(ns, ns + n))
    elems = [ModuleElement(ns, [g]) for g in gens]
    codec = block_elim_codec(ns, block, elements_degree(elems))
    reduced = GBEngine(codec, h_step=0).buchberger([me_to_flat(v, codec) for v in elems])
    best = None
    for _, _, vec in reduced:
        exps = [codec.exponents(m) for m in vec]
        if any(e[i] for e in exps for i in block) or any(e[ns + n] for e in exps):
            continue
        coeffs = {e[n]: c for e, c in zip(exps, vec.values())}
        cand = ThetaPolynomial([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])
        if best is None or cand.degree < best.degree:
            best = cand
    return best


@pytest.mark.parametrize("f", oracle_inputs())
def test_b_function_matches_the_elimination(f):
    # the first linear dependence among the normal forms of the powers of
    # s is the monic generator the elimination finds
    assert str(bernstein_sato(f)) == str(elimination_b_function(f))


def test_exponent_request():
    x = parse_polynomial("x1", 1)
    mod = _specialize(x, annihilator_of_fs(x), bernstein_sato(x), -3)
    for r in (rr.components[0] for rr in mod.presentation.relations):
        assert formal_action_is_zero(r, x, -3)


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


def test_family_localizes_each_distinct_product_once(monkeypatch):
    # (0,) and (1,) are both x: one Briancon-Maisonobe run for x and one
    # for x^2, each feeding the annihilator and the b-function
    import derham.localization as L
    calls = {"bm": [], "ann": [], "b": []}

    def spy(name, fn):
        def traced(f, *args):
            calls[name].append(format_operator(f))
            return fn(f, *args)
        return traced

    monkeypatch.setattr(L, "_bm_basis", spy("bm", L._bm_basis))
    monkeypatch.setattr(L, "annihilator_of_fs", spy("ann", L.annihilator_of_fs))
    monkeypatch.setattr(L, "bernstein_sato", spy("b", L.bernstein_sato))
    x = parse_polynomial("x1", 1)
    fam = LocalizationFamily(1, [x, x], [(0,), (1,), (0, 1)])
    assert {k: sorted(v) for k, v in calls.items()} == \
        {"bm": ["x1", "x1^2"], "ann": ["x1", "x1^2"], "b": ["x1", "x1^2"]}
    assert fam.modules[(0,)] is fam.modules[(1,)]


def test_family_duplicates_allowed():
    x = parse_polynomial("x1", 1)
    fam = LocalizationFamily(1, [x, x], [(0,), (1,), (0, 1)])
    sq = fam.modules[(0, 1)]
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
    assert fam.modules[(0,)].b_function is None
    bad = {"x1": (-1, [parse_operator("x1*d1", 1)])}
    with pytest.raises(InvalidInputError):
        LocalizationFamily(1, [x], [(0,)], overrides=bad)
