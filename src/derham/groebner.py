"""Groebner bases for submodules of free modules over the Weyl algebra.

Orders that refine the shifted V-degree are not well-orders on D_n, so
every Buchberger loop runs in the homogenized Weyl algebra (a central
variable h with d_i x_i = x_i d_i + h^2) under a genuine term order and
the result is dehomogenized.  Every division ends by construction:
membership reduces h^N times the homogenized element against the
h-saturated basis, or else by a term order on D_n, and division in D_n
under a V-order is floored at a V-degree, as inside one V-degree of a
block the order ranks by total degree and finitely many V-degrees lie
between the lead and the floor.

The flat internal format keys a term by one int, its packed monomial
(MonomialCodec in weyl.py), and maps it to a coefficient; the public
surface speaks ModuleElement / OperatorMatrix, and tuples (position,
exponents, h-power) appear only where the two meet: me_to_flat,
flat_to_me and the codec's pack and unpack.  Every product of a monomial
and a flat vector runs through mono_mul_flat in weyl.py, the one
multiplication kernel, which weyl_mul shares; it adds the product into a
vector the caller passes.

A monomial order here is a codec: v_order_codec and block_elim_codec lay
out the fields of the int so that integer order is the monomial order.
The order's weights are the top fields, then the exponents in grevlex
order, h and the position, each exponent stored as wmax - e so that a
larger exponent ranks lower among monomials of equal weights.  Two
monomials compare as their tuples (weights, -e[2n-1], ..., -e[0], -h,
-pos) do, because every field holds a value in [0, 2^width) below its own
guard bit and the fields are compared most significant first.  The low
fields alone determine the monomial, so distinct monomials get distinct
ints: the order is total and no two terms tie.

Divisibility is one subtraction.  With G the guard bits of all fields,
(L | G) - M holds 2^w + L_f - M_f in each field f, which is positive, so
no field borrows from the next.  The guard bit survives exactly where L_f
>= M_f, that is, where L's exponent (or h-power) is at most M's; and the
position field is exactly its guard bit iff the positions agree.  L
divides M iff the difference, masked to those bits, is codec.dtarget.

All division runs through one kernel, GBEngine.reduce:

- Heap order.  A packed monomial is its own order key, so a heapq min-heap
  over the negated ints, with lazy deletion of cancelled monomials, pops
  terms in exactly the order of ``max(work)``.  The reducer is the first
  in list order whose lead divides; the quotient monomial is m - lead.
  Each step hands mono_mul_flat the working vector and the heap: the
  kernel adds every product term into work in place and pushes the
  negated key of every term it inserts.  A key that cancels and comes
  back is pushed again; its stale copy pops after the live one has left
  work, and is skipped.
- Divisor index.  A _DivisorIndex finds that reducer.  Per position field
  it holds the guarded leads in list order; a lead at another position
  divides nothing there, so the first divisor at m's position is the
  first in the list.  For every monomial it has met it stores where that
  monomial's search resumes: the index of its first dividing lead, or the
  list length if no lead divided it.  Buchberger keeps one index per run
  and appends each new entry to it.  As the list only grows, a stored
  answer stays right: the leads before it still do not divide, a stored
  divisor still does, and a search from the old length meets only the
  leads appended since.  Each saturation round is a new run with a fresh
  index, and a reduce against any other list (a query, or _interreduce
  against the others) builds its own, so no index outlives its list's
  growth or serves two lists.
- Integer pseudo-division.  Reducer lists hold primitive integer
  coefficients (primitive_entry).  The working vector and the remainder
  are kept as integers times 1/scale: a step with lead coefficient c
  against a reducer with lead coefficient lc multiplies both, and scale,
  by lc/gcd(c, lc) and subtracts (c/gcd(c, lc)) * q * reducer.  A
  vector of ints, such as an S-polynomial, starts with scale 1 and is
  copied as it is; whether it is all ints is read off its coefficients,
  not off integral=True.  The queries divide by scale once per remainder
  term at the exit, so the Fraction remainder equals that of rational
  division step for step.  The integer exit (integral=True) returns the
  int remainder instead, an IntRemainder carrying its scale.
  Buchberger and _interreduce take it: they make the int remainder
  primitive, its first key the lead, and build no Fraction; the
  Bernstein-Sato search keeps its NF(s^k) in ints by the scale.

Buchberger saves work in four places without changing its output.  The
first is the S-pair update of Gebauer and Moeller (JSC 6, 1988).  A new
entry k drops each pending pair (i, j) whose lcm lead(k) divides and
differs from both lcm(i, k) and lcm(j, k) (B_k).  Of the new pairs (i, k)
at k's position it keeps one per lcm, the lowest i (F), and none whose lcm
another new lcm divides properly (M).  Each drop is the chain criterion:
S(i, j) needs no reduction if lead(k) divides lcm(i, j) and S(i, k) and
S(j, k) are treated.  That holds in the (homogenized) Weyl algebra as in
a polynomial ring, because lead monomials are multiplicative there:
lead(m g) is m lead(g) up to a coefficient.  The product criterion does
not: it fails for modules, and for ideals it needs the two operators to
commute.  A pending pair lives in a dict, (i, j) to its lcm key
(codec.lcm_key), and in a heap by lcm degree with FIFO ties; only a
popped pair still in the dict is reduced.

The other three hold because the tail of a reduced basis entry is unique.
Take an entry g of a Groebner basis and two remainders of g modulo the
other entries, scaled to one lead coefficient.  Their difference lies in
the module and has no term divisible by another lead, so if it were
nonzero its lead would be divisible by lead(g).  For h_step=2 every
vector is homogeneous, so that term would have the degree of lead(g) and
equal it; for h_step=0 the order is a term order, so that term would be
at least lead(g).  But its terms are tail terms, below lead(g).  So the
reduced basis is unique too, and:

- A new entry is reduced in full against the entries before it, so later
  steps do not multiply its reducible tail again.  Its lead, and so the
  pairs it forms, stay; an S-pair may then reduce to zero where it did
  not, but the entries still form a Groebner basis of the same module,
  whose reduced basis is unique.  The division ends: for h_step=2 every
  vector is homogeneous, and for h_step=0 the order is a term order (the
  V-order divider, whose order is no well-order, never runs Buchberger).
- _interreduce walks the minimal leads in ascending order.  An entry with
  no tail term divisible by another lead is reduced already and passes
  through, its terms in descending order as reduce emits them.  The
  run's index makes that test: a lead of the run divides a tail term
  iff a minimal lead other than the entry's own does, as every lead has
  a minimal divisor and no tail term is a multiple of its own lead.  Any
  other entry is reduced against the current list (the entries below it
  reduced, those above not yet), a Groebner basis with the same leads, so
  the remainder is the one all-pairs reduction gives.
- A saturation round in SubmoduleSolver divides some entries of the
  reduced basis by their h-content h^c and resumes Buchberger from the
  stripped entries (GBEngine.resume).  h is central and the V-order's
  weights do not see h, so lead(h^c g) = h^c lead(g), and a standard
  representation of an S-pair of two unchanged entries with respect to
  the old basis is one with respect to the stripped list.  A stripped
  entry is still homogeneous, primitive and led by its old lead less c
  h-powers, so it enters as it is.  resume is told which entries changed
  and updates with each changed entry in ascending order, against the
  unchanged ones and the changed ones before it; it never forms a pair of
  two unchanged entries.  The round returns the reduced basis, which a
  restart from scratch returns too.
"""

from __future__ import annotations

import heapq
import logging
from fractions import Fraction
from itertools import count
from math import gcd
from operator import itemgetter
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InternalError, InvalidInputError
from .weyl import (NEG_INF, FiltrationSpec, MonomialCodec, WeylElement,
                   add_terms_into, mono_mul_flat, term_v_degree, weyl_mul)

log = logging.getLogger("derham.groebner")

FlatVec = dict  # packed monomial (MonomialCodec) -> coefficient
_INT = {int}
_NO_LEADS = ((), ())


class IntRemainder(dict):
    """The integer exit of GBEngine.reduce: the remainder's terms in ints,
    scale times the exact ones, with scale a positive int.  A dict, so a
    zero remainder tests false as the Fraction exit's does."""

    __slots__ = ("scale",)


# ---------------------------------------------------------------------------
# public element types
# ---------------------------------------------------------------------------

class ModuleElement:
    """An element of a free module D_n^rank, one WeylElement per component."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: Sequence[WeylElement]):
        self.n = n
        comps = tuple(components)
        for c in comps:
            if c.n != n:
                raise DimensionMismatchError("mixed variable counts in module element")
        self.components = comps

    @classmethod
    def zero(cls, n: int, rank: int) -> "ModuleElement":
        return cls(n, [WeylElement.zero(n)] * rank)

    @classmethod
    def unit(cls, n: int, rank: int, pos: int) -> "ModuleElement":
        comps = [WeylElement.zero(n)] * rank
        comps[pos] = WeylElement.one(n)
        return cls(n, comps)

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def _operand(self, other) -> "ModuleElement":
        """other as a module element: an operator, or a scalar through
        WeylElement.constant, is one of rank 1."""
        if isinstance(other, ModuleElement):
            return other
        if not isinstance(other, WeylElement):
            other = WeylElement.constant(self.n, other)
        return ModuleElement(self.n, [other])

    def __add__(self, other):
        other = self._operand(other)
        if self.rank != other.rank:
            raise DimensionMismatchError("sum of module elements of different ranks")
        return ModuleElement(self.n, [a + b for a, b in zip(self.components, other.components)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if self.rank != other.rank:
            raise DimensionMismatchError("difference of module elements of different ranks")
        return ModuleElement(self.n, [a - b for a, b in zip(self.components, other.components)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ModuleElement(self.n, [-c for c in self.components])

    def scale(self, c) -> "ModuleElement":
        return ModuleElement(self.n, [comp.scale(c) for comp in self.components])

    def left_mul(self, op: WeylElement) -> "ModuleElement":
        """op times every component; a scalar op goes through
        WeylElement.constant."""
        if not isinstance(op, WeylElement):
            op = WeylElement.constant(self.n, op)
        return ModuleElement(self.n, [weyl_mul(op, c) for c in self.components])

    def v_degree(self, shift: Optional[Sequence[int]] = None):
        """Shifted V-degree: max over components of v_degree + shift."""
        if shift is None:
            shift = (0,) * self.rank
        best = NEG_INF
        for j, c in enumerate(self.components):
            if c.is_zero():
                continue
            vd = max(term_v_degree(e, self.n) for e in c.terms) + shift[j]
            if vd > best:
                best = vd
        return best

    def __eq__(self, other):
        return (isinstance(other, ModuleElement) and self.n == other.n
                and self.components == other.components)

    def __hash__(self):
        return hash((self.n, self.components))

    def __repr__(self):
        return "ModuleElement(" + ", ".join(str(c) for c in self.components) + ")"


class OperatorMatrix:
    """A left-module map by right multiplication of row vectors.

    rows[i] is the image of the i-th source generator, an element of the
    target free module, so (v . M)_j = sum_i v_i * rows[i][j].  Shifts live
    on the modules of a complex, not on the map.
    """

    __slots__ = ("n", "source_rank", "target_rank", "rows")

    def __init__(self, n: int, target_rank: int, rows: Sequence[ModuleElement]):
        self.n = n
        self.rows = tuple(rows)
        self.source_rank = len(self.rows)
        self.target_rank = target_rank
        for r in self.rows:
            if r.rank != target_rank:
                raise DimensionMismatchError("row rank does not match target rank")

    @classmethod
    def zero(cls, n: int, source_rank: int, target_rank: int) -> "OperatorMatrix":
        rows = [ModuleElement.zero(n, target_rank) for _ in range(source_rank)]
        return cls(n, target_rank, rows)

    def apply(self, v: ModuleElement) -> ModuleElement:
        """v . M for a source row vector v: one terms dict per target
        component accumulates sum_i v_i * rows[i]."""
        n = self.n
        acc = [{} for _ in range(self.target_rank)]
        for vi, row in zip(v.components, self.rows):
            if vi.terms:
                for out, c in zip(acc, row.components):
                    add_terms_into(out, weyl_mul(vi, c).terms)
        comps = []
        for terms in acc:
            r = WeylElement.__new__(WeylElement)
            r.n, r.terms = n, terms
            comps.append(r)
        return ModuleElement(n, comps)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self followed by other (source of other = target of self)."""
        if self.target_rank != other.source_rank:
            raise DimensionMismatchError("composition rank mismatch")
        return OperatorMatrix(self.n, other.target_rank,
                              [other.apply(row) for row in self.rows])

    def is_zero(self) -> bool:
        return all(r.is_zero() for r in self.rows)

    def __repr__(self):
        return f"OperatorMatrix({self.source_rank}x{self.target_rank})"


# ---------------------------------------------------------------------------
# monomial orders as packed codecs
# ---------------------------------------------------------------------------

def v_order_codec(n: int, shifts: Sequence[int], block_start: int,
                  degree: int) -> MonomialCodec:
    """Two-block module order: positions < block_start dominate; inside a
    block, shifted V-degree, total degree, grevlex, h, position.  The
    block weight is the top field, 1 on the first block, so a monomial
    lies in the first block iff it is at least 1 << codec.top."""
    shifts = tuple(shifts)
    positions = range(len(shifts))
    return MonomialCodec(n, len(shifts), degree, (
        ("block", (0,) * (2 * n), tuple(int(p < block_start) for p in positions)),
        ("V-degree", (-1,) * n + (1,) * n, shifts),
        ("degree", (1,) * (2 * n), (0,) * len(shifts))))


def block_elim_codec(n: int, block: Sequence[int], degree: int) -> MonomialCodec:
    """Term order on D_n itself (one position) whose first weight is the
    total degree over the `block` exponent indices, then the rest of the
    degree, grevlex, h."""
    inside = tuple(int(j in block) for j in range(2 * n))
    return MonomialCodec(n, 1, degree, (
        ("block degree", inside, (0,)),
        ("rest degree", tuple(1 - a for a in inside), (0,))))


def elements_degree(elements: Sequence[ModuleElement]) -> int:
    """Largest total degree of a term of the elements; 0 if there is none."""
    return max((sum(e) for v in elements for c in v.components for e in c.terms),
               default=0)


# ---------------------------------------------------------------------------
# flat arithmetic
# ---------------------------------------------------------------------------

def me_to_flat(v: ModuleElement, codec: MonomialCodec, offset: int = 0) -> FlatVec:
    pack = codec.pack
    out = {}
    for j, comp in enumerate(v.components):
        for e, c in comp.terms.items():
            out[pack(offset + j, e)] = c
    return out


def flat_to_me(vec: FlatVec, codec: MonomialCodec, rank: int,
               offset: int = 0) -> ModuleElement:
    n = codec.n
    unpack = codec.unpack
    comps = [dict() for _ in range(rank)]
    for m, c in vec.items():
        pos, e, h = unpack(m)
        if h:
            raise InternalError("an h-power is left on a vector leaving the "
                                "engine; it must be dehomogenized first")
        comps[pos - offset][e] = c
    zero = WeylElement.zero(n)
    return ModuleElement(n, [WeylElement(n, t) if t else zero for t in comps])


def primitive_entry(vec: FlatVec) -> tuple:
    """The reducer entry (lead, lc, vec) of a nonzero vec scaled to
    primitive int coefficients with positive lead coefficient."""
    den = 1
    for c in vec.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = {m: c.numerator * (den // c.denominator) for m, c in vec.items()}
    return _primitive(max(num), num)


def _primitive(lead: int, num: FlatVec) -> tuple:
    """primitive_entry of a nonzero int vec whose lead is known: the first
    key of an integral remainder of reduce."""
    g = gcd(*num.values())
    if num[lead] < 0:
        g = -g
    num = {m: c // g for m, c in num.items()}
    return lead, num[lead], num


def homogenize_flat(vec: FlatVec, codec: MonomialCodec) -> FlatVec:
    """Raise every term's h-power to the vector's largest degree."""
    if not vec:
        return vec
    hunit, guard = codec.hunit, codec.guard
    degrees = list(map(codec.degree, vec))
    deg = max(degrees)
    out: FlatVec = {}
    for (m, c), d in zip(vec.items(), degrees):
        key = m - (deg - d) * hunit
        if key & guard:
            codec.overflow(key)
        old = out.get(key)
        s = c if old is None else old + c
        if s:
            out[key] = s
        elif old is not None:
            del out[key]
    return out


def dehomogenize_flat(vec: FlatVec, codec: MonomialCodec) -> FlatVec:
    """Set h = 1: every h field to its value for h^0."""
    hfield = codec.hfield
    out: FlatVec = {}
    for m, c in vec.items():
        key = m | hfield
        old = out.get(key)
        s = c if old is None else old + c
        if s:
            out[key] = s
        elif old is not None:
            del out[key]
    return out


def _minimalize_entries(entries: list, codec: MonomialCodec) -> list:
    """Drop entries whose lead is properly divisible by another lead, and
    all but the first copy of a duplicated lead; the rest keep their list
    order.  Preserves the basis property; used after dehomogenizing, by
    _interreduce, and by Buchberger's criteria F and M on (lcm key, k,
    None) candidates.

    The distinct leads are walked in ascending order of the int their
    exponents and h-power spell, and each is tested only against the
    minimal leads kept so far: a proper divisor has no exponent larger
    and one smaller, so it comes first, and a lead with a proper divisor
    has a minimal one.  The fields store wmax - e, so the walk descends
    in codec.ehvalues & lead.  The packed int itself would not do: under
    the V-order a divisor can be the larger int."""
    first = {}
    for i, (lead, _, _) in enumerate(entries):
        first.setdefault(lead, i)
    guard, dmask, dtarget = codec.guard, codec.dmask, codec.dtarget
    minimal = []  # guarded
    for lead in sorted(first, key=codec.ehvalues.__and__, reverse=True):
        for lg in minimal:
            if (lg - lead) & dmask == dtarget:
                del first[lead]
                break
        else:
            minimal.append(lead | guard)
    return [entry for i, entry in enumerate(entries) if first.get(entry[0]) == i]


class _DivisorIndex:
    """The reducers of one list that only grows, for finding the first in
    list order whose lead divides a monomial: per position field, the
    guarded leads and the entries in list order, and per monomial met, where
    its search resumes (module docstring)."""

    __slots__ = ("pmax", "guard", "dmask", "dtarget", "at", "seen")

    def __init__(self, reducers, codec: MonomialCodec):
        self.pmax, self.guard = codec.pmax, codec.guard
        self.dmask, self.dtarget = codec.dmask, codec.dtarget
        self.at = {}    # position field -> ([lead | guard], [entry])
        self.seen = {}  # monomial -> index of its first divisor in at, or len
        for entry in reducers:
            self.append(entry)

    def append(self, entry):
        lgs, entries = self.at.setdefault(entry[0] & self.pmax, ([], []))
        lgs.append(entry[0] | self.guard)
        entries.append(entry)

    def find(self, m: int):
        """The first reducer (lead, lc, vec) whose lead divides m, or None.
        reduce inlines this search."""
        lgs, entries = self.at.get(m & self.pmax, _NO_LEADS)
        dmask, dtarget = self.dmask, self.dtarget
        i = self.seen.get(m, 0)
        rest = lgs[i:]
        for lg in rest:
            if (lg - m) & dmask == dtarget:
                i += rest.index(lg)  # the first copy of lg is the first divisor
                self.seen[m] = i
                return entries[i]
        self.seen[m] = len(lgs)
        return None


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class GBEngine:
    """Buchberger machinery over one packed monomial order.

    h_step = 2 gives the homogenized Weyl algebra; h_step = 0 the plain
    algebra (for genuine term orders that need no homogenization).
    """

    def __init__(self, codec: MonomialCodec, h_step: int):
        self.codec = codec
        self.n = codec.n
        self.h_step = h_step
        # S-pairs that went through reduce, and those skipped: dropped by
        # M, F or B_k (module docstring), over every buchberger call
        self.spairs_reduced = 0
        self.spairs_skipped = 0

    # division ---------------------------------------------------------

    def reduce(self, vec: FlatVec, reducers, mode: str = "full",
               floor: int = 0, integral: bool = False,
               index: Optional[_DivisorIndex] = None) -> FlatVec:
        """Division remainder, with Fraction coefficients, of vec by
        reducers: a list of (lead, lc, vec) entries with int coefficients.

        mode "full": every term gets reduced; "top": stop at the first
        irreducible lead.  Terms below floor are no reduction candidates:
        they pass through to the remainder untouched.  integral=True is
        the integer exit: the remainder comes back in ints, scale times
        the exact one, as an IntRemainder that carries scale.
        index, if given, is a _DivisorIndex of reducers kept from earlier
        calls on a list that has only grown since.  The module docstring
        states the kernel's contract.
        """
        codec, h_step = self.codec, self.h_step
        dmask, dtarget, pmax = codec.dmask, codec.dtarget, codec.pmax
        heappop = heapq.heappop
        if index is None:
            index = _DivisorIndex(reducers, codec)
        at, seen = index.at.get, index.seen
        # work and remainder hold scale * (the rational vectors) in ints
        scale = 1
        if set(map(type, vec.values())) <= _INT:
            work = dict(vec)
        else:
            for c in vec.values():
                scale = scale * c.denominator // gcd(scale, c.denominator)
            work = {m: c.numerator * (scale // c.denominator) for m, c in vec.items()}
        heap = [-m for m in work]
        heapq.heapify(heap)
        remainder: FlatVec = {}
        while work:
            m = -heappop(heap)
            c = work.get(m)
            if c is None:
                continue  # cancelled after it was pushed
            if m < floor:
                # every term left lies below floor too: all pass through
                for m2 in sorted(work, reverse=True):
                    remainder[m2] = work[m2]
                break
            # _DivisorIndex.find, inlined
            lgs, entries = at(m & pmax, _NO_LEADS)
            i = seen.get(m, 0)
            rest = lgs[i:]
            for lg in rest:
                if (lg - m) & dmask == dtarget:
                    i += rest.index(lg)
                    break
            else:
                seen[m] = len(lgs)
                del work[m]
                remainder[m] = c
                if mode == "top":
                    remainder.update(work)
                    break
                continue
            seen[m] = i
            lead, lc, rvec = entries[i]
            g = gcd(c, lc)
            f = lc // g
            if f != 1:
                for k in work:
                    work[k] *= f
                for k in remainder:
                    remainder[k] *= f
                scale *= f
            mono_mul_flat(codec, -(c // g), m - lead, rvec, h_step, work, heap)
        if integral:
            out = IntRemainder(remainder)
            out.scale = scale
            return out
        return {m: Fraction(c, scale) for m, c in remainder.items()}

    # Buchberger ---------------------------------------------------------

    def buchberger(self, gens: Sequence[FlatVec]) -> list:
        """Unique reduced basis of the module generated by gens, as
        (lead, lc, vec) entries with primitive int coefficients."""
        entries = []
        for g in gens:
            if self.h_step:
                g = homogenize_flat(g, self.codec)
            if g:
                entries.append(primitive_entry(g))
        return self.resume(entries, range(len(entries)))

    def resume(self, entries: list, changed) -> list:
        """buchberger's reduced basis of the module that entries generate.

        entries are reducer entries (lead, lc, vec): nonzero, primitive
        ints with a positive lead coefficient, homogeneous if h_step, as
        primitive_entry and homogenize_flat leave them; the list grows in
        place.  changed holds the indices of those that may break the
        basis property: every S-pair of two other entries has a standard
        representation with respect to entries (the module docstring says
        when that holds).  Only pairs that touch a changed index are formed.
        """
        codec, h_step = self.codec, self.h_step
        guard, dmask, dtarget, pmax = codec.guard, codec.dmask, codec.dtarget, codec.pmax
        lcm_key, degree = codec.lcm_key, codec.degree
        index = _DivisorIndex(entries, codec)
        pairs = {}  # pending (i, j) -> lcm key; the heap holds (degree, counter, i, j)
        heap, counter = [], count()

        def update(new, olds):
            # B_k drops pending pairs, F and M the new ones (module docstring)
            lead = entries[new][0]
            cand = {k: lcm_key(entries[k][0], lead) for k in olds
                    if not (entries[k][0] ^ lead) & pmax}
            if not cand:
                return  # no pair, pending or new, at the position of lead
            lg = lead | guard
            drop = [p for p, key in pairs.items() if (lg - key) & dmask == dtarget
                    and key != cand[p[0]] and key != cand[p[1]]]
            for p in drop:
                del pairs[p]
            kept = _minimalize_entries([(key, k, None) for k, key in cand.items()], codec)
            for key, k, _ in kept:
                pairs[k, new] = key
                heapq.heappush(heap, (degree(key), next(counter), k, new))
            self.spairs_skipped += len(drop) + len(cand) - len(kept)

        for new in sorted(changed):
            update(new, [k for k in range(len(entries)) if k < new or k not in changed])

        while heap:
            _, _, i, j = heapq.heappop(heap)
            if pairs.pop((i, j), None) is None:
                continue  # dropped by B_k
            self.spairs_reduced += 1
            li, lci, vi = entries[i]
            lj, lcj, vj = entries[j]
            l = codec.lcm(li, lj)
            s = mono_mul_flat(codec, lcj, l - li, vi, h_step, {})
            mono_mul_flat(codec, -lci, l - lj, vj, h_step, s)
            r = self.reduce(s, entries, mode="top", integral=True, index=index)
            if not r:
                continue
            # reduce the tail too; the lead comes out first
            r = self.reduce(r, entries, integral=True, index=index)
            entries.append(_primitive(next(iter(r)), r))
            index.append(entries[-1])
            update(len(entries) - 1, range(len(entries) - 1))

        return self._interreduce(entries, index)

    def _interreduce(self, entries, index: _DivisorIndex) -> list:
        # one entry per minimal lead; leads are distinct ints, so sorting
        # fixes the order.  Walking up it, out[:i] is reduced and out[i + 1:]
        # not yet; only an entry with a reducible tail term is divided (the
        # module docstring says why the result does not depend on the list,
        # and why index, one over entries, can test the tails)
        kept = sorted(_minimalize_entries(entries, self.codec), key=itemgetter(0))
        out = list(kept)
        for i, (lead, lc, vec) in enumerate(kept):
            if any(m != lead and index.find(m) for m in vec):
                others = out[:i] + out[i + 1:]
                out[i] = _primitive(lead, self.reduce(vec, others, integral=True))
            else:
                out[i] = (lead, lc, {m: vec[m] for m in sorted(vec, reverse=True)})
        return out


# ---------------------------------------------------------------------------
# submodule solver: basis, cofactors, syzygies, witnesses in one run
# ---------------------------------------------------------------------------

class SubmoduleSolver:
    """All Groebner data for one generating set of a submodule of D_n^rank.

    The augmented module {(g_i, e_i)} is computed once; its reduced basis
    yields the V-adapted basis of <g_i> (elements whose lead sits in the
    main block), each with its cofactor over the g_i (cofactors), and a
    basis of the syzygy module (elements supported entirely in the
    cofactor block).  The spec names n, which an empty generating set
    cannot.  Each build logs its rank, its generator count and its
    S-pairs, reduced and skipped (dropped by Buchberger's criteria M, F or
    B_k), at debug level.
    """

    def __init__(self, spec: FiltrationSpec, rank: int,
                 gens: Sequence[ModuleElement], ambient_shift=None,
                 cofactor_shift=None):
        self.spec = spec
        self.rank = rank
        self.gens = list(gens)
        n = spec.n
        self.n = n
        self.ambient_shift = tuple(ambient_shift) if ambient_shift is not None \
            else (0,) * rank
        if len(self.ambient_shift) != rank:
            raise InvalidInputError("ambient shift length != rank")
        if cofactor_shift is None:
            cofactor_shift = obvious_shift(self.gens, self.ambient_shift)
        self.cofactor_shift = tuple(cofactor_shift)
        if len(self.cofactor_shift) != len(self.gens):
            raise InvalidInputError("cofactor shift length != number of generators")

        p = len(self.gens)
        shifts = self.ambient_shift + self.cofactor_shift
        self.codec = codec = v_order_codec(n, shifts, rank, elements_degree(self.gens))
        # the main block: monomials whose block weight (the top field) is 1
        self.floor = codec.weight_floor(1)
        self.engine = GBEngine(codec, h_step=2)
        aug = []
        for i, g in enumerate(self.gens):
            if g.rank != rank:
                raise DimensionMismatchError("generator rank mismatch")
            flat = me_to_flat(g, codec)
            flat[codec.pack(rank + i, (0,) * (2 * n))] = Fraction(1)
            aug.append(flat)

        # saturate with respect to h: orders refining the V-degree are not
        # well-orders, so membership is only decidable against a basis of
        # the h-saturation (reduction then stays in the homogenized world).
        # A round strips the h-content of some entries of a reduced basis;
        # pairs of two unstripped entries keep their standard representations
        # (module docstring), so Buchberger resumes from the stripped ones
        hunit = codec.hunit
        reduced = self.engine.buchberger(aug)
        for _ in range(64):
            stripped = []
            changed = set()
            for i, (lead, lc, vec) in enumerate(reduced):
                content = min(map(codec.h, vec))
                if content:
                    changed.add(i)
                    shift = content * hunit
                    lead, vec = lead + shift, {m + shift: c for m, c in vec.items()}
                stripped.append((lead, lc, vec))
            if not changed:
                break
            reduced = self.engine.resume(stripped, changed)
        else:
            raise InternalError("h-saturation did not stabilize")
        self._h_entries = reduced
        # the h-powers N a query tries before a term order decides
        top = max((codec.h(lead) for lead, _, _ in reduced if lead >= self.floor),
                  default=0)
        self._powers = range(0, top + 2, 2)
        self._term_basis = None  # a DegreeOrderBasis of the gens, on first use

        main_entries = []      # main-block leads, dehomogenized, with tails
        syz_entries = []       # cofactor-block leads, dehomogenized
        for lead, lc, vec in reduced:
            d = dehomogenize_flat(vec, codec)
            if not d:
                continue
            entry = primitive_entry(d)
            if entry[0] >= self.floor:
                main_entries.append(entry)
            else:
                syz_entries.append(entry)
        self._deh_entries = _minimalize_entries(main_entries, codec)
        self._syz_entries = _minimalize_entries(syz_entries, codec)

        # division in D_n, always floored at a V-degree
        self.divider = GBEngine(codec, h_step=0)
        log.debug("solver: rank %d, %d generators, %d S-pairs reduced, %d skipped",
                  rank, p, self.engine.spairs_reduced, self.engine.spairs_skipped)

    # -- derived data ---------------------------------------------------

    @property
    def basis(self):
        """The reduced V-adapted basis of <gens>: the main parts of the
        main-block entries."""
        floor = self.floor
        return [flat_to_me({m: c for m, c in vec.items() if m >= floor},
                           self.codec, self.rank)
                for _, _, vec in self._deh_entries]

    @property
    def cofactors(self):
        """The cofactor blocks of those entries: cofactors[i] . gens == basis[i]."""
        floor = self.floor
        return [flat_to_me({m: c for m, c in vec.items() if m < floor},
                           self.codec, len(self.gens), self.rank)
                for _, _, vec in self._deh_entries]

    @property
    def syzygy_basis(self):
        """V-adapted basis of {w : w . gens = 0} under the cofactor shift."""
        return [flat_to_me(vec, self.codec, len(self.gens), self.rank)
                for _, _, vec in self._syz_entries]

    # -- queries ---------------------------------------------------------

    def _homogeneous_remainder(self, flat: FlatVec, powers):
        """The dehomogenized cofactor of the first N in powers for which
        h^N flat, a homogenized main-block vector, reduces against the
        saturated basis to a zero main block, which proves membership as h
        is central; None if no N does.  A lead can keep an h-power: for the
        gens x^2 and 3/4 x^2 - x d the basis is [8], with lead 8 h^2 over a
        cofactor tail free of h, and -1 clears at N = 2, not at N = 0."""
        codec, floor = self.codec, self.floor
        for power in powers:
            raised = {m - power * codec.hunit: c for m, c in flat.items()}
            for m in raised:
                if m & codec.guard:
                    codec.overflow(m)
            rem = self.engine.reduce(raised, self._h_entries, mode="full", floor=floor)
            if max(rem, default=0) < floor:
                return {m: -c for m, c in dehomogenize_flat(rem, codec).items()}
        return None

    def cofactor(self, e: ModuleElement):
        """A w with w . gens = e, or None when e is not in the submodule.

        N runs over 0, 2, ..., one past the largest h-power of a main-block
        lead.  If none clears, a basis under a degree term order in D_n,
        built on first use, decides, and a member goes on to larger N: h^N
        e^h lies in the homogenized module for large N."""
        if e.rank != self.rank:
            raise DimensionMismatchError("element rank mismatch")
        codec = self.codec
        flat = homogenize_flat(me_to_flat(e, codec), codec)
        w = self._homogeneous_remainder(flat, self._powers)
        if w is None:
            if self._term_basis is None:
                self._term_basis = DegreeOrderBasis(self.n, self.rank, self.gens)
            if not self._term_basis.contains(e):
                return None
            w = self._homogeneous_remainder(flat, count(self._powers[-1] + 2, 2))
        return flat_to_me(w, codec, len(self.gens), self.rank)

    def contains(self, e: ModuleElement) -> bool:
        return self.cofactor(e) is not None

    def normal_form(self, e: ModuleElement, degree) -> ModuleElement:
        """The terms of shifted V-degree >= degree of a remainder of e whose
        terms there are not lead-divisible: zero for members and linear in
        e, since two such remainders differ by a member whose lead would be
        one of those terms.  The floored division ends."""
        if e.rank != self.rank:
            raise DimensionMismatchError("element rank mismatch")
        floor = self.codec.weight_floor(1, degree)
        rem = self.divider.reduce(me_to_flat(e, self.codec), self._deh_entries,
                                  floor=floor)
        return flat_to_me({m: c for m, c in rem.items() if m >= floor}, self.codec,
                          self.rank)

    def reduce_cofactor(self, w: ModuleElement, degree) -> ModuleElement:
        """w minus syzygies, with no lead-divisible term of shifted V-degree
        >= degree under the cofactor shift.  The floored division ends, and
        a remainder that reaches degree has the least degree in w + Syz:
        the difference to a lower member would be a syzygy with an
        irreducible lead."""
        codec = self.codec
        rem = self.divider.reduce(me_to_flat(w, codec, self.rank), self._syz_entries,
                                  floor=codec.weight_floor(0, degree))
        return flat_to_me(rem, codec, len(self.gens), self.rank)

    def min_degree_witness(self, target: ModuleElement):
        """A w with w . gens = target, or None.  w exceeds the target's
        V-degree exactly when the minimal witness does, and then has its
        degree; if the cofactor shift bounds each generator's degree, w is
        minimal."""
        w = self.cofactor(target)
        if w is None:
            return None
        return self.reduce_cofactor(w, target.v_degree(self.ambient_shift))


class DegreeOrderBasis:
    """Membership in the submodule <gens> of D_n^rank, decided by a
    Buchberger basis in the plain algebra (h_step=0) under a degree term
    order, with no cofactors and no h-saturation.  Whether a remainder is
    zero does not depend on the order, so the answer is SubmoduleSolver's."""

    __slots__ = ("rank", "engine", "basis")

    def __init__(self, n: int, rank: int, gens: Sequence[ModuleElement]):
        self.rank = rank
        codec = MonomialCodec(n, rank, elements_degree(gens), (
            ("degree", (1,) * (2 * n), (0,) * rank),))
        self.engine = GBEngine(codec, h_step=0)
        self.basis = self.engine.buchberger([me_to_flat(g, codec) for g in gens])

    def contains(self, e: ModuleElement) -> bool:
        if e.rank != self.rank:
            raise DimensionMismatchError("element rank mismatch")
        return not self.engine.reduce(me_to_flat(e, self.engine.codec), self.basis)


def obvious_shift(rows: Sequence[ModuleElement], shift: Sequence[int]):
    """Per-row shifts: the V-degree of each row under `shift`.

    A zero row has no degree; it gets shift 0, silently, so degenerate
    complexes stay usable.
    """
    shift = tuple(shift)
    out = []
    for row in rows:
        vd = row.v_degree(shift)
        out.append(0 if vd == NEG_INF else int(vd))
    return tuple(out)
