"""Localizations R_f as cyclic D_n-modules via the Bernstein-Sato route.

The annihilator of f^s is computed by elimination: adjoin a pair (t, dt)
and central helpers u, v with u v = 1; the ideal generated by t - u f,
d_i + u f_i dt and u v - 1 is homogeneous for the weight (t: 1, dt: -1,
u: 1, v: -1), so eliminating u, v and multiplying each survivor to weight
zero lands in D_n[t dt].  Rewriting t^a dt^a as a falling factorial and
substituting t dt = -s - 1 yields generators of Ann(f^s) in D_n[s].

b_f(s) then generates (Ann(f^s) + D_n[s] f) intersect Q[s]; with s0 the
minimal integer root, D_n / Ann(f^s)|_{s=s0} presents R_f on f^s0.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalError, InvalidInputError
from .groebner import GBEngine, block_elim_codec, elements_degree, me_to_flat
from .groebner import ModuleElement
from .presentations import DModPresentation
from .restriction import ThetaPolynomial
from .weyl import WeylElement, apply_to_polynomial, format_operator

log = logging.getLogger("derham.localization")


# ---------------------------------------------------------------------------
# ring plumbing: D_n  <->  D_{n+1}<t>[u,v]  <->  D_n[s]
# ---------------------------------------------------------------------------

def _extend(p: WeylElement, big_n: int) -> WeylElement:
    """View p in a Weyl algebra with extra trailing pairs."""
    n = p.n
    pad = big_n - n
    terms = {}
    for e, c in p.terms.items():
        terms[e[:n] + (0,) * pad + e[n:] + (0,) * pad] = c
    return WeylElement(big_n, terms)


def _weight(exps, n: int) -> int:
    """t-weight of a monomial in the extended algebra: t and u count +1,
    dt and v count -1 (indices n, n+1, n+2 are t, u, v)."""
    big = n + 3
    return exps[n] + exps[n + 1] - exps[big + n] - exps[n + 2]


def _is_uv_free(exps, n: int) -> bool:
    big = n + 3
    return exps[n + 1] == 0 and exps[n + 2] == 0 and exps[big + n + 1] == 0 \
        and exps[big + n + 2] == 0


def annihilator_of_fs(f: WeylElement) -> list:
    """Generators of Ann(f^s) as elements of D_n[s] (s = trailing central pair)."""
    n = f.n
    if f.is_zero():
        raise InvalidInputError("cannot localize at the zero polynomial")
    if not f.is_polynomial():
        raise InvalidInputError("localization needs a polynomial")
    big = n + 3  # pairs: x_1..x_n, t, u, v
    t = WeylElement.x(n, big)
    dt = WeylElement.d(n, big)
    u = WeylElement.x(n + 1, big)
    v = WeylElement.x(n + 2, big)
    fe = _extend(f, big)
    gens = [t - u * fe]
    for i in range(n):
        fi = _extend(apply_to_polynomial(WeylElement.d(i, n), f), big)
        gens.append(WeylElement.d(i, big) + u * fi * dt)
    gens.append(u * v - 1)

    # eliminate u and v with a genuine term order; no homogenization needed
    elems = [ModuleElement(big, [g]) for g in gens]
    codec = block_elim_codec(big, (n + 1, n + 2, big + n + 1, big + n + 2),
                             elements_degree(elems))
    engine = GBEngine(codec, h_step=0)
    reduced = engine.buchberger([me_to_flat(v, codec) for v in elems])

    out = []
    for lead, _, vec in reduced:
        elem = {codec.exponents(m): c for m, c in vec.items()}
        if not all(_is_uv_free(e, n) for e in elem):
            continue
        weights = {_weight(e, n) for e in elem}
        if len(weights) != 1:
            raise InternalError("elimination produced a non-homogeneous element")
        w = weights.pop()
        p = WeylElement(big, elem)
        if w > 0:
            p = dt ** w * p
        elif w < 0:
            p = t ** (-w) * p
        out.append(_to_dns(p, n))
    return [g for g in out if not g.is_zero()]


def _to_dns(p: WeylElement, n: int) -> WeylElement:
    """Rewrite a weight-zero, uv-free element as an element of D_n[s].

    Every term is x^a d^b t^k dt^k; t^k dt^k is the falling factorial
    theta (theta-1) ... (theta-k+1) with theta = t dt, and theta = -s - 1,
    so it is (-1)^k (s + 1) (s + 2) ... (s + k).  s is central, so the term
    is the sum over j of that polynomial's s^j coefficient times x^a s^j d^b.
    """
    big = n + 3
    falling = [[1]]  # [k]: ascending coefficients of (-1)^k (s + 1) ... (s + k)
    terms = []
    for e, c in p.terms.items():
        k = e[n]
        if e[big + n] != k:
            raise InternalError("weight-zero element with unbalanced t, dt")
        while len(falling) <= k:  # the last one times -(s + j)
            j, last = len(falling), falling[-1]
            falling.append([-(u * j + v) for u, v in zip(last + [0], [0] + last)])
        a, b = e[:n], e[big:big + n] + (0,)
        terms += [(a + (j,) + b, c * coef) for j, coef in enumerate(falling[k])]
    return WeylElement(n + 1, terms)


def substitute_s(p: WeylElement, value) -> WeylElement:
    """Evaluate the central s (trailing pair) of a D_n[s]-element."""
    ns = p.n
    n = ns - 1
    value = Fraction(value)
    terms = {}
    for e, c in p.terms.items():
        k = e[n]
        if e[ns + n]:
            raise InternalError("ds occurs in a D_n[s]-element")
        key = e[:n] + e[ns:ns + n]
        coeff = c * value ** k
        if not coeff:
            continue
        acc = terms.get(key, Fraction(0)) + coeff
        if acc:
            terms[key] = acc
        elif key in terms:
            del terms[key]
    return WeylElement(n, terms)


def bernstein_sato(f: WeylElement, ann: Optional[list] = None) -> ThetaPolynomial:
    """The Bernstein-Sato polynomial of f, monic generator of
    (Ann(f^s) + D_n[s] f) intersect Q[s]."""
    n = f.n
    if ann is None:
        ann = annihilator_of_fs(f)
    ns = n + 1
    gens = list(ann) + [_extend(f, ns)]
    # eliminate everything except s
    block = tuple(range(n)) + tuple(range(ns, ns + n))
    elems = [ModuleElement(ns, [g]) for g in gens]
    codec = block_elim_codec(ns, block, elements_degree(elems))
    engine = GBEngine(codec, h_step=0)
    reduced = engine.buchberger([me_to_flat(v, codec) for v in elems])
    best = None
    for lead, _, vec in reduced:
        coeffs = {}
        pure = True
        for m, c in vec.items():
            e = codec.exponents(m)
            if any(e[i] for i in block) or e[ns + n]:
                pure = False
                break
            coeffs[e[n]] = c
        if not pure or not coeffs:
            continue
        poly = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]
        cand = ThetaPolynomial(poly)
        if best is None or cand.degree < best.degree:
            best = cand
    if best is None:
        raise InternalError(f"no Bernstein-Sato polynomial found for {format_operator(f)}")
    return best


# ---------------------------------------------------------------------------
# localized modules and families
# ---------------------------------------------------------------------------

class LocalizedModule:
    """R_f presented as D_n / Ann(f^s)|_{s=exponent}, cyclic on f^exponent."""

    __slots__ = ("f", "exponent", "b_function", "presentation", "ann_s", "from_user")

    def __init__(self, f: WeylElement, exponent: int, b_function,
                 presentation: DModPresentation, ann_s=None, from_user=False):
        self.f = f
        self.exponent = exponent
        self.b_function = b_function
        self.presentation = presentation
        self.ann_s = ann_s
        self.from_user = from_user

    def at_exponent(self, a: int) -> "LocalizedModule":
        """Re-present on the generator f^a (a <= the minimal integer root)."""
        if a == self.exponent:
            return self
        if self.ann_s is None:
            raise InvalidInputError(
                "user-supplied presentation cannot be moved to a different exponent")
        s0 = self.b_function.integer_roots()[0]
        if a > s0:
            raise InvalidInputError(f"exponent {a} above the minimal integer root {s0}")
        return _specialize(self.f, self.ann_s, self.b_function, a)


def _specialize(f: WeylElement, ann_s, b: ThetaPolynomial, a: int) -> LocalizedModule:
    n = f.n
    rels = [substitute_s(g, a) for g in ann_s]
    rels = [r for r in rels if not r.is_zero()]
    pres = DModPresentation.cyclic(n, rels)
    return LocalizedModule(f, a, b, pres, ann_s=ann_s)


def localize(f: WeylElement) -> LocalizedModule:
    """A cyclic presentation of R_f on the generator f^s0.

    s0 is the minimal integer root of the Bernstein-Sato polynomial;
    at_exponent moves the presentation to a lower exponent.  Nonzero
    constants localize trivially with s0 = 0.
    """
    n = f.n
    if f.is_zero():
        raise InvalidInputError("cannot localize at the zero polynomial")
    if not f.is_polynomial():
        raise InvalidInputError("localization needs a polynomial")
    if f.is_constant():
        pres = DModPresentation.cyclic(n, [WeylElement.d(i, n) for i in range(n)])
        return LocalizedModule(f, 0, ThetaPolynomial.one(), pres, ann_s=None)
    ann = annihilator_of_fs(f)
    b = bernstein_sato(f, ann)
    roots = b.integer_roots()
    if not roots:
        raise InternalError(
            f"Bernstein-Sato polynomial {b} of a nonconstant polynomial has "
            "no integer root")
    return _specialize(f, ann, b, roots[0])


def formal_action_is_zero(op: WeylElement, f: WeylElement, a: int) -> bool:
    """Does op annihilate the formal symbol f^a?

    Values are tracked as maps {k: polynomial coefficient of f^k}; one
    derivative step sends c f^k to (dc) f^k + k c (df) f^(k-1).
    """
    n = op.n
    fprime = [apply_to_polynomial(WeylElement.d(i, n), f) for i in range(n)]

    def d_step(val: dict, i: int) -> dict:
        out: dict = {}
        for k, c in val.items():
            dc = apply_to_polynomial(WeylElement.d(i, n), c)
            if not dc.is_zero():
                out[k] = out.get(k, WeylElement.zero(n)) + dc
            lower = c.scale(k) * fprime[i]
            if not lower.is_zero():
                out[k - 1] = out.get(k - 1, WeylElement.zero(n)) + lower
        return {k: v for k, v in out.items() if not v.is_zero()}

    total: dict = {}
    for e, coeff in op.terms.items():
        alpha, beta = e[:n], e[n:]
        val = {a: WeylElement.one(n)}
        for i in range(n):
            for _ in range(beta[i]):
                val = d_step(val, i)
        xmono = WeylElement.monomial(n, alpha, (0,) * n, coeff)
        for k, c in val.items():
            term = xmono * c
            if not term.is_zero():
                total[k] = total.get(k, WeylElement.zero(n)) + term
    total = {k: v for k, v in total.items() if not v.is_zero()}
    if not total:
        return True
    # clear the f-powers: multiply through by f^(-min k)
    m = min(total)
    acc = WeylElement.zero(n)
    for k, c in total.items():
        acc = acc + c * f ** (k - m)
    return acc.is_zero()


class LocalizationFamily:
    """Localizations of products of a fixed factor list, on one generator
    exponent so that the natural maps become polynomial multipliers.

    index_sets lists every needed multiset of factor indices; all their
    products get presented on the common exponent a = min over the family
    of the minimal integer roots (user-supplied presentations must already
    use that exponent).
    """

    def __init__(self, n: int, factors: Sequence[WeylElement], index_sets,
                 overrides: Optional[dict] = None):
        self.n = n
        self.factors = list(factors)
        if not self.factors:
            raise InvalidInputError("empty polynomial family")
        for f in self.factors:
            if f.is_zero():
                raise InvalidInputError("zero polynomial in the family")
            if not f.is_polynomial():
                raise InvalidInputError("family members must be polynomials")
        overrides = dict(overrides or {})

        products = {}
        for idxs in index_sets:
            key = tuple(sorted(idxs))
            if key not in products:
                products[key] = self.product(key)

        raw = {}
        exponents = []
        for key, poly in sorted(products.items()):
            text = format_operator(poly)
            if text in overrides:
                exponent, rels = overrides[text]
                pres = DModPresentation.cyclic(n, rels)
                raw[key] = LocalizedModule(poly, exponent, None, pres, from_user=True)
                exponents.append(exponent)
                log.info("localization of %s supplied by the user", text)
            else:
                mod = localize(poly)
                raw[key] = mod
                if not poly.is_constant():
                    exponents.append(mod.exponent)
        self.exponent = min(exponents) if exponents else 0

        self.modules = {}
        for key, mod in raw.items():
            if mod.from_user:
                if mod.exponent != self.exponent:
                    raise InvalidInputError(
                        f"user presentation of {format_operator(mod.f)} uses exponent "
                        f"{mod.exponent}, but the family needs {self.exponent}")
                self._verify(mod)
                self.modules[key] = mod
            elif mod.f.is_constant():
                self.modules[key] = LocalizedModule(mod.f, self.exponent,
                                                    mod.b_function, mod.presentation,
                                                    ann_s=mod.ann_s)
            else:
                self.modules[key] = mod.at_exponent(self.exponent)

    def product(self, idxs) -> WeylElement:
        out = WeylElement.one(self.n)
        for i in idxs:
            out = out * self.factors[i]
        return out

    def module(self, idxs) -> LocalizedModule:
        return self.modules[tuple(sorted(idxs))]

    def multiplier(self, src_idxs, dst_idxs) -> WeylElement:
        """The operator carrying the generator of R_(f_src) into R_(f_dst):
        multiplication by (extra factors)^(-a)."""
        src = tuple(sorted(src_idxs))
        dst = tuple(sorted(dst_idxs))
        extra = list(dst)
        for i in src:
            if i not in extra:
                raise InternalError("natural map needs src indices inside dst")
            extra.remove(i)
        prod = self.product(extra)
        return prod ** (-self.exponent)

    def _verify(self, mod: LocalizedModule):
        for rel in mod.presentation.relations:
            op = rel.components[0]
            if not formal_action_is_zero(op, mod.f, mod.exponent):
                raise InvalidInputError(
                    f"user relation {format_operator(op)} does not annihilate "
                    f"{format_operator(mod.f)}^{mod.exponent}")
