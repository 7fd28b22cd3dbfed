"""Exact arithmetic in the n-th Weyl algebra over the rationals.

Elements are kept in normal order (every x to the left of every d) as a
sparse map from exponent vectors to nonzero rational coefficients.  The
exponent vector of ``c * x^alpha * d^beta`` is the length-2n tuple
``alpha + beta``.  All arithmetic is exact; there is no floating point
anywhere in this package.

Every product in the package runs through one kernel, mono_mul_flat: a
monomial times a flat module vector, built on the one-variable
contraction _pair_contractions.  weyl_mul applies it once per term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from operator import add

from .errors import DimensionMismatchError, InvalidInputError

NEG_INF = float("-inf")

Exps = tuple  # length-2n tuple of nonnegative ints: alpha + beta


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise InvalidInputError(f"non-rational coefficient {c!r}")


@lru_cache(maxsize=1024)
def _pair_contractions(b: int, c: int) -> tuple:
    """Expansion of d^b x^c in one variable: sum over k of
    comb(b,k)*comb(c,k)*k! * x^(c-k) d^(b-k), as (k, multiplier) pairs."""
    top = min(b, c)
    return tuple((k, comb(b, k) * comb(c, k) * factorial(k)) for k in range(top + 1))


def mono_mul_flat(n: int, coeff, qe: tuple, qh: int, vec: dict,
                  h_step: int) -> dict:
    """Left-multiply a flat vector by the monomial coeff * x^qa d^qb h^qh.

    The one multiplication kernel: weyl_mul and every Groebner routine run
    on it.  A flat vector maps (position, exponents, h-power) to a
    coefficient.  A term in which k pairs d_i x_i contract gains h^(h_step
    * k), so h_step = 2 multiplies in the homogenized algebra and h_step =
    0 in D_n.  Coefficients are ints or Fractions; the output has the type
    of their product.
    """
    dvars = [i for i in range(n) if qe[n + i]]
    out: dict = {}
    get = out.get
    for (pos, e, h), c in vec.items():
        hits = [i for i in dvars if e[i]]
        base = coeff * c
        if not hits:
            # no d of the monomial meets an x of the term: one product term
            key = (pos, tuple(map(add, qe, e)), qh + h)
            s = get(key, 0) + base
            if s:
                out[key] = s
            elif key in out:
                del out[key]
            continue
        # d_i^b x_i^a contracts k times for every i in hits, independently;
        # product() runs the earlier variable slowest
        summed = list(map(add, qe, e))
        for combo in product(*[_pair_contractions(qe[n + i], e[i]) for i in hits]):
            exps = summed[:]
            mult, ks = 1, 0
            for i, (k, mk) in zip(hits, combo):
                if k:
                    exps[i] -= k
                    exps[n + i] -= k
                    mult *= mk
                    ks += k
            key = (pos, tuple(exps), qh + h + h_step * ks)
            s = get(key, 0) + base * mult
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


class WeylElement:
    """A normally ordered element of D_n with exact rational coefficients.

    Immutable by convention: no operation changes its operands, though a
    sum with a zero summand is the other summand itself.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise InvalidInputError("variable count must be nonnegative")
        self.n = n
        clean = {}
        if terms:
            for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
                c = _as_fraction(coeff)
                if not c:
                    continue
                if len(exps) != 2 * n or any(e < 0 for e in exps):
                    raise InvalidInputError(f"bad exponent vector {exps!r} for n={n}")
                exps = tuple(exps)
                acc = clean.get(exps)
                c = c if acc is None else acc + c
                if c:
                    clean[exps] = c
                elif acc is not None:
                    del clean[exps]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "WeylElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "WeylElement":
        return cls(n, {(0,) * (2 * n): Fraction(1)})

    @classmethod
    def constant(cls, n: int, c) -> "WeylElement":
        return cls(n, {(0,) * (2 * n): _as_fraction(c)})

    @classmethod
    def x(cls, i: int, n: int) -> "WeylElement":
        """The multiplication operator x_i (0-based index)."""
        e = [0] * (2 * n)
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    @classmethod
    def d(cls, i: int, n: int) -> "WeylElement":
        """The partial derivative d_i (0-based index)."""
        e = [0] * (2 * n)
        e[n + i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, alpha, beta, coeff=1) -> "WeylElement":
        return cls(n, {tuple(alpha) + tuple(beta): _as_fraction(coeff)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        """True when no derivative occurs (a commutative polynomial in x)."""
        n = self.n
        return all(not any(e[n:]) for e in self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_coefficient(self) -> Fraction:
        return self.terms.get((0,) * (2 * self.n), Fraction(0))

    def sorted_terms(self) -> list:
        """Terms in the canonical (descending) print order."""
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "WeylElement"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"operands over D_{self.n} and D_{other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.constant(self.n, other)
        self._check(other)
        # elements are immutable, so a zero summand can hand back the other
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        r = WeylElement.__new__(WeylElement)
        r.n, r.terms = self.n, out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = WeylElement.__new__(WeylElement)
        r.n = self.n
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylElement.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "WeylElement":
        c = _as_fraction(c)
        r = WeylElement.__new__(WeylElement)
        r.n = self.n
        r.terms = {} if not c else {e: c * v for e, v in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return weyl_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise InvalidInputError("negative operator power")
        out = WeylElement.one(self.n)
        for _ in range(k):
            out = weyl_mul(out, self)
        return out

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"WeylElement({self.n}, {format_operator(self)!r})"

    def __str__(self):
        return format_operator(self)


def weyl_mul(p: WeylElement, q: WeylElement) -> WeylElement:
    """Normally ordered product in D_n: the kernel mono_mul_flat applied to
    q once per term of p, in the plain algebra (h_step = 0)."""
    if p.n != q.n:
        raise DimensionMismatchError(f"operands over D_{p.n} and D_{q.n}")
    n = p.n
    flat = {(0, e, 0): c for e, c in q.terms.items()}
    out: dict = {}
    get = out.get
    for ep, cp in p.terms.items():
        for (_, e, _), c in mono_mul_flat(n, cp, ep, 0, flat, 0).items():
            s = get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    r = WeylElement.__new__(WeylElement)
    r.n, r.terms = n, out
    return r


class FiltrationSpec:
    """The V-filtration along x_1..x_n, the one for restriction to the
    origin: V^k D_n is spanned by the monomials x^alpha d^beta with
    |beta| - |alpha| <= k, so n is its only datum.

    A solver carries one, because an empty generating set does not tell it
    n; everything else reads n off its inputs.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise InvalidInputError("variable count must be nonnegative")
        self.n = n

    def __eq__(self, other):
        return isinstance(other, FiltrationSpec) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"FiltrationSpec(n={self.n})"


def term_v_degree(exps: Exps, n: int) -> int:
    """V-degree |beta| - |alpha| of a single monomial."""
    return sum(exps[n:]) - sum(exps[:n])


def v_degree(p: WeylElement, shift: int = 0):
    """Shifted V-degree of an operator; NEG_INF for the zero element."""
    if p.is_zero():
        return NEG_INF
    return max(term_v_degree(e, p.n) for e in p.terms) + shift


def fourier(p: WeylElement) -> WeylElement:
    """The automorphism sending each x_i to d_i and each d_i to -x_i."""
    n = p.n
    out = WeylElement.zero(n)
    for e, c in p.terms.items():
        a, b = e[:n], e[n:]
        # image of x^a d^b is d^a (-x)^b, re-normal-ordered
        left = WeylElement(n, {(0,) * n + a: Fraction(1)})
        right = WeylElement(n, {b + (0,) * n: c * (-1) ** sum(b)})
        out = out + weyl_mul(left, right)
    return out


def theta(n: int) -> WeylElement:
    """The Euler operator x_1 d_1 + ... + x_n d_n."""
    if n == 0:
        raise InvalidInputError("theta is empty for n = 0")
    terms = {}
    for i in range(n):
        e = [0] * (2 * n)
        e[i] = 1
        e[n + i] = 1
        terms[tuple(e)] = Fraction(1)
    return WeylElement(n, terms)


def _falling(g: int, b: int) -> int:
    """g (g-1) ... (g-b+1); valid for negative g as well."""
    out = 1
    for j in range(b):
        out *= g - j
    return out


def apply_to_polynomial(p: WeylElement, g: WeylElement) -> WeylElement:
    """Natural action of p on a commutative polynomial g (d_i = d/dx_i)."""
    if p.n != g.n:
        raise DimensionMismatchError(f"operands over D_{p.n} and D_{g.n}")
    if not g.is_polynomial():
        raise InvalidInputError("apply_to_polynomial needs a polynomial argument")
    n = p.n
    out: dict = {}
    for ep, cp in p.terms.items():
        a, b = ep[:n], ep[n:]
        for eg, cg in g.terms.items():
            gam = eg[:n]
            m = 1
            for i in range(n):
                if b[i]:
                    if gam[i] < b[i]:
                        m = 0
                        break
                    m *= _falling(gam[i], b[i])
            if not m:
                continue
            key = tuple(a[i] + gam[i] - b[i] for i in range(n)) + (0,) * n
            s = out.get(key, Fraction(0)) + cp * cg * m
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return WeylElement(n, out)


# -- canonical text form ----------------------------------------------

def _format_monomial(exps: Exps, n: int) -> str:
    parts = []
    for i in range(n):
        if exps[i] == 1:
            parts.append(f"x{i + 1}")
        elif exps[i]:
            parts.append(f"x{i + 1}^{exps[i]}")
    for i in range(n):
        if exps[n + i] == 1:
            parts.append(f"d{i + 1}")
        elif exps[n + i]:
            parts.append(f"d{i + 1}^{exps[n + i]}")
    return "*".join(parts)


def format_operator(p: WeylElement) -> str:
    """Canonical text form: terms sorted, x-variables x1..xn, d-variables d1..dn."""
    if p.is_zero():
        return "0"
    chunks = []
    for exps, coeff in p.sorted_terms():
        mono = _format_monomial(exps, p.n)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)
