"""Localizations R_f as cyclic D_n-modules via the Bernstein-Sato route.

The annihilator of f^s comes from the elimination of Briancon and
Maisonobe.  In D_n<s, dt>, where s commutes with x and d and
dt s = (s - 1) dt, the left ideal <s + f dt, d_i + f_i dt> meets D_n[s]
in Ann(f^s).  Buchberger runs there under the order (dt-degree, s-degree,
degree in x and d, grevlex), which eliminates dt; the kernel multiplies
by the shift rule on the pair (s, dt) (weyl.MonomialCodec.shift_pairs).

The presentation, and so every report, is the one the Oaku-Takayama
elimination gave: adjoin t, dt and central u, v with u v = 1, and keep
the u,v-free part J of the reduced basis of <t - u f, d_i + u f_i dt,
u v - 1> under an order eliminating u, v.  J is the annihilator in
D_{n+1} of f^s in D_n[s, 1/f] f^s, where t acts by s -> s + 1 and dt by
g(s) f^s -> -s g(s - 1) f^(s-1).  It is homogeneous for the weight
(t: 1, dt: -1), and its weight-0 part J_0 is the image of Ann(f^s) under
s -> -t dt - 1.  J = D_{n+1} J_0: an element of J of weight w is t^w q
(w >= 0) or dt^(-w) q (w < 0) with q of weight 0, and t and dt act
injectively, so q annihilates f^s and lies in J_0.  So D_{n+1} times the
image of the dt-free entries of Briancon-Maisonobe's basis is J, and one
more Buchberger run, under block_elim_codec(n + 1, (), degree), the old
order on the u,v-free monomials, gives J's reduced basis.  A reduced
basis is unique (the groebner module docstring says why), and the u,v-free
entries of a reduced basis under an order eliminating u, v are the
reduced basis of J, so both routes give the same entries in the same
order.  Each entry is homogeneous; multiplying it by dt^w or t^(-w) lands
in weight zero, that is in D_n[t dt], and rewriting t^a dt^a as a falling
factorial and t dt = -s - 1 yields a generator of Ann(f^s) in D_n[s].

b_f(s) generates (Ann(f^s) + D_n[s] f) intersect Q[s]; with s0 the
minimal integer root, D_n / Ann(f^s)|_{s=s0} presents R_f on f^s0.  One
Briancon-Maisonobe run (_bm_basis) feeds both the annihilator and b_f,
which is read off its basis by the first linear dependence among the
normal forms of 1, s, s^2, ... (Noro, ICMS 2002; Levandovskyy and
Martin-Morales, ISSAC 2008), in exact rationals.  Three facts make that
exact:

- The dt-free entries of the reduced basis are the reduced basis of
  Ann(f^s) in D_n[s] under the codec's order restricted there: dt-degree
  is the top weight, so an element whose lead is dt-free is dt-free, and
  a product of dt-free elements stays dt-free.
- Buchberger may start from those entries and f with only f marked
  changed: an S-pair of two dt-free entries reduces to zero by the
  dt-free entries alone, as a reducer whose lead divides a dt-free
  monomial is dt-free.  So the run gives a basis of I = Ann(f^s) +
  D_n[s] f under the same codec.
- s is central and I is a left ideal, so s^(k+1) - s NF(s^k) lies in I
  and NF(s^(k+1)) = NF(s NF(s^k)).  NF is linear and vanishes exactly on
  I, so sum c_k s^k lies in I iff sum c_k NF(s^k) = 0: the first
  dependence is the monic b_f.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import InternalError, InvalidInputError
from .groebner import GBEngine, block_elim_codec, elements_degree, me_to_flat
from .groebner import ModuleElement, _DivisorIndex
from .presentations import DModPresentation
from .restriction import ThetaPolynomial
from .weyl import (MonomialCodec, WeylElement, apply_to_polynomial, format_operator,
                   mono_mul_flat)

log = logging.getLogger("derham.localization")


# ---------------------------------------------------------------------------
# ring plumbing: D_n  <->  D_n<s, dt>  ->  D_{n+1}  ->  D_n[s]
# ---------------------------------------------------------------------------

def _extend(p: WeylElement, big_n: int) -> WeylElement:
    """View p in a Weyl algebra with extra trailing pairs."""
    n = p.n
    pad = big_n - n
    terms = {}
    for e, c in p.terms.items():
        terms[e[:n] + (0,) * pad + e[n:] + (0,) * pad] = c
    return WeylElement(big_n, terms)


def _bm_codec(n: int, degree: int) -> MonomialCodec:
    """D_n<s, dt> on pair n, dt s = (s - 1) dt, under the order (dt-degree,
    s-degree, degree in x and d, grevlex): an elimination order for dt."""
    ns = n + 1
    dt = tuple(int(j == ns + n) for j in range(2 * ns))
    s = tuple(int(j == n) for j in range(2 * ns))
    rest = tuple(1 - a - b for a, b in zip(dt, s))
    return MonomialCodec(ns, 1, degree, (("dt degree", dt, (0,)),
                                         ("s degree", s, (0,)),
                                         ("rest degree", rest, (0,))),
                         shift_pairs=(n,))


def _bm_basis(f: WeylElement) -> tuple:
    """(codec, entries): the dt-free entries of the reduced basis of
    Briancon-Maisonobe's ideal under _bm_codec, as (lead, lc, vec) with
    primitive int coefficients, leads ascending; the reduced basis of
    Ann(f^s) in D_n[s] (module docstring)."""
    n = f.n
    if f.is_zero():
        raise InvalidInputError("cannot localize at the zero polynomial")
    if not f.is_polynomial():
        raise InvalidInputError("localization needs a polynomial")
    ns = n + 1
    s, dt = WeylElement.x(n, ns), WeylElement.d(n, ns)
    gens = [s + _extend(f, ns) * dt]
    for i in range(n):
        fi = apply_to_polynomial(WeylElement.d(i, n), f)
        gens.append(WeylElement.d(i, ns) + _extend(fi, ns) * dt)
    elems = [ModuleElement(ns, [g]) for g in gens]
    codec = _bm_codec(n, elements_degree(elems))
    reduced = GBEngine(codec, h_step=0).buchberger([me_to_flat(v, codec) for v in elems])
    # dt-degree is the top weight: an entry is dt-free iff its lead is
    dt_free = codec.weight_floor(1)
    return codec, [entry for entry in reduced if entry[0] < dt_free]


def annihilator_of_fs(f: WeylElement, bm: Optional[tuple] = None) -> list:
    """Generators of Ann(f^s) as elements of D_n[s] (s = trailing central
    pair); bm is _bm_basis(f) if the caller has it."""
    n = f.n
    if bm is None:
        bm = _bm_basis(f)
    codec, entries = bm
    ns = n + 1
    # pair n is (t, dt) in D_{n+1}; s = -t dt - 1 carries the entries into J_0
    xn, dt = WeylElement.x(n, ns), WeylElement.d(n, ns)
    s_image = -(xn * dt) - 1
    powers = [WeylElement.one(ns)]  # [j]: s_image^j
    j0 = []
    for _, _, vec in entries:
        terms = []
        for m, c in vec.items():
            e = codec.exponents(m)
            while len(powers) <= e[n]:
                powers.append(powers[-1] * s_image)
            terms += [(e[:n] + (k[n],) + e[ns:ns + n] + (k[ns + n],), c * ck)
                      for k, ck in powers[e[n]].terms.items()]
        j0.append(ModuleElement(ns, [WeylElement(ns, terms)]))
    rebase = block_elim_codec(ns, (), elements_degree(j0))
    basis = GBEngine(rebase, h_step=0).buchberger([me_to_flat(v, rebase) for v in j0])

    out = []
    for _, _, vec in basis:
        elem = {rebase.exponents(m): c for m, c in vec.items()}
        weights = {e[n] - e[ns + n] for e in elem}
        if len(weights) != 1:
            raise InternalError("elimination produced a non-homogeneous element")
        w = weights.pop()
        p = WeylElement(ns, elem)
        if w > 0:
            p = dt ** w * p
        elif w < 0:
            p = xn ** (-w) * p
        out.append(_to_dns(p, n))
    return [g for g in out if not g.is_zero()]


def _to_dns(p: WeylElement, n: int) -> WeylElement:
    """Rewrite a weight-zero element of D_{n+1} (t, dt on pair n) as an
    element of D_n[s].

    Every term is x^a t^k d^b dt^k; t^k dt^k is the falling factorial
    theta (theta-1) ... (theta-k+1) with theta = t dt, and theta = -s - 1,
    so it is (-1)^k (s + 1) (s + 2) ... (s + k).  s is central, so the term
    is the sum over j of that polynomial's s^j coefficient times x^a s^j d^b.
    """
    ns = n + 1
    falling = [[1]]  # [k]: ascending coefficients of (-1)^k (s + 1) ... (s + k)
    terms = []
    for e, c in p.terms.items():
        k = e[n]
        if e[ns + n] != k:
            raise InternalError("weight-zero element with unbalanced t, dt")
        while len(falling) <= k:  # the last one times -(s + j)
            j, last = len(falling), falling[-1]
            falling.append([-(u * j + v) for u, v in zip(last + [0], [0] + last)])
        a, b = e[:n], e[ns:ns + n] + (0,)
        terms += [(a + (j,) + b, c * coef) for j, coef in enumerate(falling[k])]
    return WeylElement(ns, terms)


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


def bernstein_sato(f: WeylElement, bm: Optional[tuple] = None) -> ThetaPolynomial:
    """The Bernstein-Sato polynomial of f, monic generator of
    (Ann(f^s) + D_n[s] f) intersect Q[s]: the first linear dependence among
    the normal forms of 1, s, s^2, ... (module docstring); bm is
    _bm_basis(f) if the caller has it."""
    if bm is None:
        bm = _bm_basis(f)
    codec, entries = bm
    n = f.n
    ns = n + 1
    engine = GBEngine(codec, h_step=0)
    gens = [vec for _, _, vec in entries]
    gens.append(me_to_flat(ModuleElement(ns, [_extend(f, ns)]), codec))
    basis = engine.buchberger(gens, changed={len(entries)})
    index = _DivisorIndex(basis, codec)
    s = codec.pack(0, tuple(int(j == n) for j in range(2 * ns))) - codec.one
    deps = linalg.FirstDependence()
    nf = engine.reduce({codec.one: 1}, basis, index=index)
    while True:
        coeffs = deps.add(nf)
        if coeffs is not None:
            return ThetaPolynomial(coeffs)
        # s is central and the ideal a left one: NF(s^(k+1)) = NF(s NF(s^k))
        nf = engine.reduce(mono_mul_flat(codec, 1, s, nf, 0, {}), basis, index=index)


# ---------------------------------------------------------------------------
# localized modules and families
# ---------------------------------------------------------------------------

class LocalizedModule:
    """R_f presented as D_n / Ann(f^s)|_{s=exponent}, cyclic on f^exponent;
    b_function is None on a user-supplied presentation."""

    __slots__ = ("f", "exponent", "b_function", "presentation")

    def __init__(self, f: WeylElement, exponent: int, b_function,
                 presentation: DModPresentation):
        self.f = f
        self.exponent = exponent
        self.b_function = b_function
        self.presentation = presentation


def _specialize(f: WeylElement, ann_s, b: ThetaPolynomial, a: int) -> LocalizedModule:
    """R_f on f^a: a constant f on the relations d_i, any other on the
    annihilator ann_s of f^s at s = a."""
    n = f.n
    if f.is_constant():
        rels = [WeylElement.d(i, n) for i in range(n)]
    else:
        rels = [substitute_s(g, a) for g in ann_s]
        rels = [r for r in rels if not r.is_zero()]
    return LocalizedModule(f, a, b, DModPresentation.cyclic(n, rels))


def localize(f: WeylElement) -> LocalizedModule:
    """A cyclic presentation of R_f on the generator f^s0: the family of
    the one factor f.

    s0 is the minimal integer root of the Bernstein-Sato polynomial.
    Nonzero constants localize trivially with s0 = 0.
    """
    return LocalizationFamily(f.n, [f], [(0,)]).modules[(0,)]


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
    use that exponent).  Index sets with one product share one module, and
    each distinct product's annihilator is computed once.
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

        keys = sorted({tuple(sorted(idxs)) for idxs in index_sets})
        polys = {key: self.product(key) for key in keys}

        found = {}  # each distinct product: a user module, or (Ann(f^s), b_f)
        exponents = []
        for poly in polys.values():
            if poly in found:
                continue
            text = format_operator(poly)
            if text in overrides:
                exponent, rels = overrides[text]
                pres = DModPresentation.cyclic(n, rels)
                found[poly] = LocalizedModule(poly, exponent, None, pres)
                exponents.append(exponent)
                log.info("localization of %s supplied by the user", text)
            elif poly.is_constant():
                found[poly] = None, ThetaPolynomial.one()
            else:
                bm = _bm_basis(poly)
                ann, b = annihilator_of_fs(poly, bm), bernstein_sato(poly, bm)
                roots = b.integer_roots()
                if not roots:
                    raise InternalError(
                        f"Bernstein-Sato polynomial {b} of a nonconstant polynomial "
                        "has no integer root")
                found[poly] = ann, b
                exponents.append(roots[0])
        self.exponent = min(exponents) if exponents else 0

        for poly, mod in found.items():
            if isinstance(mod, LocalizedModule):
                if mod.exponent != self.exponent:
                    raise InvalidInputError(
                        f"user presentation of {format_operator(mod.f)} uses exponent "
                        f"{mod.exponent}, but the family needs {self.exponent}")
                self._verify(mod)
            else:
                found[poly] = _specialize(poly, *mod, self.exponent)
        self.modules = {key: found[poly] for key, poly in polys.items()}

    def product(self, idxs) -> WeylElement:
        """f_I, from its first factor on: one factor is that factor."""
        idxs = list(idxs)
        if not idxs:
            return WeylElement.one(self.n)
        out = self.factors[idxs[0]]
        for i in idxs[1:]:
            out = out * self.factors[i]
        return out

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
