"""Exact arithmetic in the n-th Weyl algebra over the rationals.

Elements are kept in normal order (every x to the left of every d) as a
sparse map from exponent vectors to nonzero rational coefficients.  The
exponent vector of ``c * x^alpha * d^beta`` is the length-2n tuple
``alpha + beta``.  All arithmetic is exact; there is no floating point
anywhere in this package.

The coefficient contract: an element stores a coefficient as an int when
it is integral and as a Fraction otherwise, never as a float and never as
an integral Fraction.  The constructors, +, scale and weyl_mul keep that
form (_as_rational), so an operator with integer coefficients holds ints,
which take less memory than Fractions and go into the Groebner engine's
integer division as they are.  Dividing two coefficients therefore needs
a Fraction on one side: 1 / c is a float when c is an int.

Every product in the package runs through one kernel, mono_mul_flat: a
monomial times a flat module vector.  A flat vector keys its terms by
packed monomials, one int each (MonomialCodec).  A codec may declare a
pair a shift pair, d_i x_i = (x_i - 1) d_i, for the elimination in
D_n<s, dt> that finds Ann(f^s).  A quotient monomial with no d shifts
every term by itself.  For one with d's, the codec keeps a
plan (_Plan), built on first use per set of d-exponents and h_step: the
x fields those d's meet and, per pattern of x-exponents a term has there,
the expansion of the commutations.  The plans live as long as their
codec: one elimination in localization, one solver (whose engine and
divider share its codec), or one of weyl_mul's cached codecs.  The
kernel adds its product into a vector the caller passes, in place, and
pushes every key it inserts onto the caller's heap if there is one; so
division adds each product term straight into its working vector.
weyl_mul packs its operands and accumulates the kernel's products for
every term of the left factor into one vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heappush
from math import comb, factorial

from .errors import DimensionMismatchError, InternalError, InvalidInputError

NEG_INF = float("-inf")

Exps = tuple  # length-2n tuple of nonnegative ints: alpha + beta


def _as_rational(c):
    """c in the coefficient contract: an int if it is integral, a Fraction
    otherwise."""
    if type(c) is int:  # the common case, before isinstance's subclass check
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise InvalidInputError(f"non-rational coefficient {c!r}")


class MonomialCodec:
    """One Python int per flat monomial (position, exponents, h-power).

    The fields of the int, from the most significant down:

    - the order's linear weights, each sum(coefs * e) plus a constant per
      position, biased to be nonnegative (coefs are -1, 0 or 1);
    - the exponents e[2n-1], ..., e[0], then h, each stored as wmax - e;
    - the position, stored as pmax - pos.

    Exponent and h fields share one width W and wmax = 2^W - 1, so an
    exponent is the complement of its field.  Every field has a guard bit
    above it that no valid monomial sets.  Then:

    - integer order is the order (weights, then grevlex, then h, then
      position), and packing is injective: the low fields alone fix the
      monomial;
    - packing is linear, so for M and L at one position, M - L is the
      quotient monomial and T + (M - L) the product T * (M / L);
    - L divides M iff (L | guard) - M keeps the guard bit of every
      exponent and h field and the position field is its guard bit alone
      (the groebner module docstring gives the argument).

    W holds total degrees of 128 times the given degree and at least
    2^16 - 1, as Buchberger raises degrees; a field that overflows all the
    same sets a guard bit, and overflow() names it in an InternalError.
    """

    def __init__(self, n: int, positions: int, degree: int, weights=(),
                 shift_pairs=()):
        """weights: (name, coefs over the 2n exponents, constant per
        position) triples, the most significant first.  shift_pairs: the
        indices i of the pairs (x_i, d_i) that multiply by the shift rule
        d_i x_i = (x_i - 1) d_i in place of d_i x_i = x_i d_i + 1."""
        self.n = n
        self.shift_pairs = frozenset(shift_pairs)
        width = max(16, degree.bit_length() + 8)
        self.wmax = wmax = (1 << width) - 1
        pbits = max(1, (positions - 1).bit_length())
        self.pmax = (1 << pbits) - 1
        names = [f"x{i + 1}" for i in range(n)] + [f"d{i + 1}" for i in range(n)]
        # (name, offset, value width), least significant first
        fields = [("position", 0, pbits)]
        off = pbits + 1
        self.off_h = off
        for name in ["h"] + names:
            fields.append((name, off, width))
            off += width + 1
        self.off_e = [o for _, o, _ in fields[2:]]
        eh_values = sum(wmax << o for _, o, _ in fields[1:])
        # unit[j]: what one more e[j] adds; base[pos]: the monomial 1 at pos
        unit = [-(1 << o) for o in self.off_e]
        base = [eh_values + (self.pmax - p) for p in range(max(positions, 1))]
        # (offset, coef +1 value mask, coef -1 value mask, bias, width)
        self._weights = []
        for name, coefs, consts in reversed(weights):
            # a weight's terms sum to at most the degree, itself at most wmax
            low = min((0, *consts)) + wmax * min((0, *coefs))
            high = max((0, *consts)) + wmax * max((0, *coefs))
            wbits = max(1, (high - low).bit_length())
            fields.append((name, off, wbits))
            for j, a in enumerate(coefs):
                unit[j] += a << off
            for p in range(positions):
                base[p] += (consts[p] - low) << off
            plus = sum(wmax << o for o, a in zip(self.off_e, coefs) if a == 1)
            minus = sum(wmax << o for o, a in zip(self.off_e, coefs) if a == -1)
            self._weights.append((off, plus, minus, low, wbits))
            off += wbits + 1
        self.top = fields[-1][1]
        self._fields = fields
        self._unit, self._base = unit, base
        self.guard = sum(1 << (o + w) for _, o, w in fields)
        eh_guards = sum(1 << (o + width) for _, o, _ in fields[1:2 + 2 * n])
        self._eh_guards, self.ehvalues, self._width = eh_guards, eh_values, width
        # the divisibility test: (L | guard) - M & dmask == dtarget
        self.dmask = eh_guards | ((2 << pbits) - 1)
        self.dtarget = eh_guards | (1 << pbits)
        self.hunit = 1 << self.off_h
        self.hfield = wmax << self.off_h
        self.dvalues = sum(wmax << o for o in self.off_e[n:])
        self.one = base[0]
        # _sum adds the exponent and h fields: pairs of neighbours first,
        # into fields twice as wide, then every pair by one multiplication;
        # no partial sum of 2n + 1 fields of at most wmax reaches 2^(2W+2)
        stride = 2 * (width + 1)
        pairs = n + 1
        self._even = sum(wmax << (stride * k) for k in range(pairs))
        self._mult = sum(1 << (stride * k) for k in range(pairs))
        self._sum_shift = stride * (pairs - 1)
        self._sum_mask = (1 << stride) - 1
        # mono_mul_flat's plans, by (d-exponents of the quotient, h_step)
        self._plans = {}

    # -- packing ---------------------------------------------------------

    def pack(self, pos: int, exps, h: int = 0) -> int:
        m = self._base[pos] - h * self.hunit
        for e, u in zip(exps, self._unit):
            if e:
                m += e * u
        if m & self.guard:
            self.overflow(m)
        return m

    def weight_floor(self, *values) -> int:
        """The least int at or above which exactly the monomials lie whose
        leading weights are at least `values` (lexicographically); a value
        beyond its field's range, NEG_INF too, is clamped to it."""
        floor = 0
        for v, (off, _, _, low, wbits) in zip(values, reversed(self._weights)):
            floor += max(0, min(v - low, 1 << wbits)) << off
        return floor

    def unpack(self, m: int) -> tuple:
        """(position, exponents, h) of a packed monomial."""
        nm, wmax = ~m, self.wmax
        return (nm & self.pmax, tuple([(nm >> o) & wmax for o in self.off_e]),
                (nm >> self.off_h) & wmax)

    def exponents(self, m: int) -> tuple:
        nm, wmax = ~m, self.wmax
        return tuple([(nm >> o) & wmax for o in self.off_e])

    def h(self, m: int) -> int:
        return (~m >> self.off_h) & self.wmax

    def overflow(self, m: int):
        """Raise InternalError naming the lowest field whose guard bit m
        sets: the field that left its range first."""
        for name, o, w in self._fields:
            if m >> (o + w) & 1:
                break
        raise InternalError(f"monomial overflows its packed {name} field")

    # -- arithmetic on packed monomials -----------------------------------

    def divides(self, lead: int, m: int) -> bool:
        return ((lead | self.guard) - m) & self.dmask == self.dtarget

    def _sum(self, x: int) -> int:
        """Sum of the exponent and h fields of x, each at most wmax."""
        x >>= self.off_h
        even = self._even
        y = (x & even) + ((x >> (self._width + 1)) & even)
        return (y * self._mult >> self._sum_shift) & self._sum_mask

    def degree(self, m: int) -> int:
        """sum(exponents) + h."""
        return self._sum(self.ehvalues & ~m)

    def _lcm_fields(self, a: int, b: int) -> int:
        """The exponent and h fields of lcm(a, b): the smaller field of the
        two, as the larger exponent is."""
        g = ((a | self.guard) - b) & self._eh_guards
        take_b = g - (g >> self._width)  # value bits of the fields where a >= b
        return (b & take_b) | (a & (self.ehvalues ^ take_b))

    def lcm_key(self, a: int, b: int) -> int:
        """lcm(a, b) of two monomials at one position without its weight
        fields, which are costly to pack: the divisibility test, equality
        and degree() work on it unchanged."""
        return self._lcm_fields(a, b) | (a & self.pmax)

    def lcm(self, a: int, b: int) -> int:
        """Least common multiple of two monomials at one position."""
        inc = (a & self.ehvalues) - self._lcm_fields(a, b)  # exponents gained over a
        m = a - inc
        for off, plus, minus, _, _ in self._weights:
            if plus:
                m += self._sum(inc & plus) << off
            if minus:
                m -= self._sum(inc & minus) << off
        if m & self.guard:
            self.overflow(m)
        return m


@lru_cache(maxsize=64)
def _product_codec(n: int, degree_bits: int) -> MonomialCodec:
    """The unweighted codec weyl_mul packs through."""
    return MonomialCodec(n, 1, (1 << degree_bits) - 1)


def mono_mul_flat(codec: MonomialCodec, coeff, q: int, vec: dict,
                  h_step: int, out: dict, heap: list | None = None) -> dict:
    """Add coeff times the quotient monomial q times the flat vector vec
    into the flat vector out, in place, and return out.

    The one multiplication kernel: weyl_mul and every Groebner routine run
    on it.  A flat vector maps packed monomials (MonomialCodec) to
    coefficients; q = M - L is the difference of two packed monomials at
    one position, the monomial M / L.  A quotient with no d gives every
    term T the one product term T + q.  Otherwise d_i^b x_i^a expands as
    sum over k of comb(b,k)*comb(a,k)*k! * x_i^(a-k) d_i^(b-k),
    independently for each i, and k contractions lower x_i and d_i by k
    and multiply by h^(h_step * k): h_step = 2 multiplies in the
    homogenized algebra and h_step = 0 in D_n.  A pair the codec declares
    a shift pair, as (s, dt) in D_n<s, dt>, expands d_i^b x_i^a as
    (x_i - b)^a d_i^b instead: k contractions lower x_i alone by k and
    multiply by comb(a,k)*(-b)^k, for h_step = 0 only (_Plan raises for
    h_step = 2).  The codec keeps one _Plan per (d-exponents of q,
    h_step), built on the first call that needs it, so each expansion is
    computed once per codec and pattern of the x-exponents that q's d's
    meet, not once per term.  Every product term is checked against the
    guard bits.

    Each product term is added into out as the expansion meets it, the
    earlier variable slowest: a sum that cancels deletes its key, and a
    key not in out is inserted at the end.  With a heap given, -key is
    pushed onto it for every key inserted, so a key that cancels and comes
    back within one call is pushed again.  coeff is nonzero; coefficients
    are ints or Fractions, and a new term has the type of their product.
    """
    guard, get = codec.guard, out.get
    qd = ~(q + codec.one) & codec.dvalues  # the d-exponents of q, in place
    if not qd:
        # no contraction anywhere: each term gives the one product term t + q
        for t, c in vec.items():
            k = t + q
            if k & guard:
                codec.overflow(k)
            old = get(k)
            if old is None:
                out[k] = coeff * c
                if heap is not None:
                    heappush(heap, -k)
            else:
                s = old + coeff * c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out
    plan = codec._plans.get((qd, h_step))
    if plan is None:
        plan = codec._plans[qd, h_step] = _Plan(codec, qd, h_step)
    xmask = plan.xmask
    for t, c in vec.items():
        # the term with no contraction comes first; it is all there is
        # when t has none of the x_i that q's d_i meet
        base = coeff * c
        k = t + q
        if k & guard:
            codec.overflow(k)
        old = get(k)
        if old is None:
            out[k] = base
            if heap is not None:
                heappush(heap, -k)
        else:
            s = old + base
            if s:
                out[k] = s
            else:
                del out[k]
        x = t & xmask
        if x == xmask:
            continue
        for dk, mult in plan[x]:
            key = k + dk
            if key & guard:
                codec.overflow(key)
            old = get(key)
            if old is None:
                out[key] = base * mult
                if heap is not None:
                    heappush(heap, -key)
            else:
                s = old + base * mult
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


class _Plan(dict):
    """mono_mul_flat's plan for the quotients with one set of d-exponents,
    under one h_step.

    dq holds (x_i offset, b, what one contraction adds, shift) for every
    d_i^b of the quotient, i ascending, and xmask the x_i fields they
    meet.  A contraction of a Weyl pair lowers x_i and d_i by one; one of
    a shift pair (MonomialCodec's shift_pairs) lowers x_i alone, as
    d_i^b x_i^a = (x_i - b)^a d_i^b = sum over k of comb(a,k)*(-b)^k *
    x_i^(a-k) d_i^b.  That rule has no homogenized form, so a shift pair
    multiplies only for h_step = 0.  As a dict the plan maps t & xmask,
    the fields of a term t there, to the (what the contractions add,
    multiplier) pairs over the choices of k for every x_i that t holds,
    the earlier variable slowest and fewer contractions first, but without
    the first choice, all k = 0, which the kernel adds itself.  An entry is
    built the first time a term shows its pattern.
    """

    __slots__ = ("dq", "xmask", "wmax")

    def __init__(self, codec: MonomialCodec, qd: int, h_step: int):
        n, wmax, unit, off_e = codec.n, codec.wmax, codec._unit, codec.off_e
        step_h = h_step * codec.hunit
        dq, xmask = [], 0
        for i in range(n):
            b = (qd >> off_e[n + i]) & wmax
            if not b:
                continue
            if i not in codec.shift_pairs:
                dq.append((off_e[i], b, -unit[i] - unit[n + i] - step_h, False))
            elif h_step:
                raise InternalError("a shift pair multiplies only for h_step = 0")
            else:
                dq.append((off_e[i], b, -unit[i], True))
            xmask |= wmax << off_e[i]
        self.dq, self.xmask, self.wmax = dq, xmask, wmax

    def __missing__(self, x: int) -> tuple:
        nx, wmax = ~x, self.wmax
        combos = [(0, 1)]
        for ox, b, step, shift in self.dq:
            a = (nx >> ox) & wmax
            if not a:
                continue
            if shift:
                ks = [(k * step, comb(a, k) * (-b) ** k) for k in range(a + 1)]
            else:
                ks = [(k * step, comb(b, k) * comb(a, k) * factorial(k))
                      for k in range(min(b, a) + 1)]
            combos = [(d1 + d2, m1 * m2) for d1, m1 in combos for d2, m2 in ks]
        combos = self[x] = tuple(combos[1:])
        return combos


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
                c = _as_rational(coeff)
                if not c:
                    continue
                if len(exps) != 2 * n or (exps and min(exps) < 0):
                    raise InvalidInputError(f"bad exponent vector {exps!r} for n={n}")
                exps = tuple(exps)
                acc = clean.get(exps)
                c = c if acc is None else _as_rational(acc + c)
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
        return cls(n, {(0,) * (2 * n): 1})

    @classmethod
    def constant(cls, n: int, c) -> "WeylElement":
        return cls(n, {(0,) * (2 * n): c})

    @classmethod
    def x(cls, i: int, n: int) -> "WeylElement":
        """The multiplication operator x_i (0-based index)."""
        e = [0] * (2 * n)
        e[i] = 1
        return cls(n, {tuple(e): 1})

    @classmethod
    def d(cls, i: int, n: int) -> "WeylElement":
        """The partial derivative d_i (0-based index)."""
        e = [0] * (2 * n)
        e[n + i] = 1
        return cls(n, {tuple(e): 1})

    @classmethod
    def monomial(cls, n: int, alpha, beta, coeff=1) -> "WeylElement":
        return cls(n, {tuple(alpha) + tuple(beta): coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        """True when no derivative occurs (a commutative polynomial in x)."""
        n = self.n
        return all(not any(e[n:]) for e in self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_coefficient(self):
        return self.terms.get((0,) * (2 * self.n), 0)

    def sorted_terms(self) -> list:
        """Terms in the canonical (descending) print order."""
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "WeylElement"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"operands over D_{self.n} and D_{other.n}")

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            other = WeylElement.constant(self.n, other)
        self._check(other)
        # elements are immutable, so a zero summand can hand back the other
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        add_terms_into(out, other.terms)
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
        if not isinstance(other, WeylElement):
            other = WeylElement.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "WeylElement":
        c = _as_rational(c)
        r = WeylElement.__new__(WeylElement)
        r.n = self.n
        r.terms = {} if not c else {e: _as_rational(c * v) for e, v in self.terms.items()}
        return r

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return self.scale(other)
        return weyl_mul(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int):
        if k < 0:
            raise InvalidInputError("negative operator power")
        if k == 0:
            return WeylElement.one(self.n)
        out = self
        for _ in range(k - 1):
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


def add_terms_into(acc: dict, terms: dict) -> None:
    """Add the terms of one element into the terms dict acc, in place: a
    sum that cancels deletes its key, a new key goes at the end, and an
    integral sum of Fractions is stored as an int."""
    get = acc.get
    for e, c in terms.items():
        old = get(e)
        if old is None:
            acc[e] = c
        else:
            s = old + c
            if s:
                acc[e] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del acc[e]


def weyl_mul(p: WeylElement, q: WeylElement) -> WeylElement:
    """Normally ordered product in D_n: the kernel mono_mul_flat adds the
    product of each term of p with q into one vector, in the plain algebra
    (h_step = 0), through an unweighted codec wide enough for the
    product's degree."""
    if p.n != q.n:
        raise DimensionMismatchError(f"operands over D_{p.n} and D_{q.n}")
    n = p.n
    if not (p.terms and q.terms):
        return WeylElement.zero(n)
    degree = max(map(sum, p.terms)) + max(map(sum, q.terms))
    # every degree below 2^8 gets the narrowest width, so one codec per n
    codec = _product_codec(n, max(degree.bit_length(), 8))
    pack, one = codec.pack, codec.one
    flat = {pack(0, e): c for e, c in q.terms.items()}
    out: dict = {}
    for ep, cp in p.terms.items():
        mono_mul_flat(codec, cp, pack(0, ep) - one, flat, 0, out)
    r = WeylElement.__new__(WeylElement)
    r.n = n
    exponents = codec.exponents
    r.terms = {exponents(k): c if type(c) is int or c.denominator != 1 else c.numerator
               for k, c in out.items()}
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
    out = {}
    for e, c in p.terms.items():
        a, b = e[:n], e[n:]
        # image of x^a d^b is d^a (-x)^b, re-normal-ordered
        right = WeylElement(n, {b + (0,) * n: c * (-1) ** sum(b)})
        if any(a):
            right = weyl_mul(WeylElement(n, {(0,) * n + a: 1}), right)
        add_terms_into(out, right.terms)
    r = WeylElement.__new__(WeylElement)
    r.n, r.terms = n, out
    return r


def theta(n: int) -> WeylElement:
    """The Euler operator x_1 d_1 + ... + x_n d_n."""
    if n == 0:
        raise InvalidInputError("theta is empty for n = 0")
    terms = {}
    for i in range(n):
        e = [0] * (2 * n)
        e[i] = 1
        e[n + i] = 1
        terms[tuple(e)] = 1
    return WeylElement(n, terms)


def apply_to_polynomial(p: WeylElement, g: WeylElement) -> WeylElement:
    """Natural action of p on a commutative polynomial g (d_i = d/dx_i):
    the d-free part of the normally ordered product p g."""
    if p.n != g.n:
        raise DimensionMismatchError(f"operands over D_{p.n} and D_{g.n}")
    if not g.is_polynomial():
        raise InvalidInputError("apply_to_polynomial needs a polynomial argument")
    n = p.n
    return WeylElement(n, {e: c for e, c in weyl_mul(p, g).terms.items()
                           if not any(e[n:])})


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
