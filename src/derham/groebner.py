"""Groebner bases for submodules of free modules over the Weyl algebra.

Orders that refine the shifted V-degree are not well-orders on D_n, so
every Buchberger loop runs in the homogenized Weyl algebra (a central
variable h with d_i x_i = x_i d_i + h^2) under a genuine term order and
the result is dehomogenized.  Division against a finished basis happens
directly in D_n with a step budget guarding the (pathological) inputs
whose cosets have no V-minimal member.

The flat internal format keys a term by (position, exponents, h-power);
the public surface speaks ModuleElement / OperatorMatrix.  Every product
of a monomial and a flat vector runs through mono_mul_flat in weyl.py,
the one multiplication kernel, which weyl_mul shares.

All division runs through one kernel, GBEngine.reduce:

- Heap order.  Each monomial's order key is computed once, when it enters
  the working vector, in its descending form (every order key function
  here attaches one as ``key.descending``).  A heapq min-heap over those
  keys, with lazy deletion of cancelled monomials, pops terms in exactly
  the order of ``max(work, key=key)``: the keys are injective on the
  monomials that occur.  The reducer is the first whose lead divides.
- Integer pseudo-division.  Reducer lists hold primitive integer
  coefficients (primitive_entry).  The working vector is kept as integers
  times 1/scale: a step with lead coefficient c against a reducer with
  lead coefficient lc multiplies the vector and scale by lc/gcd(c, lc)
  and subtracts (c/gcd(c, lc)) * q * reducer.  Division by scale happens
  once per remainder term, so the Fraction remainder equals that of
  rational division step for step.
- The step budget counts the same division steps as rational division.

Buchberger skips finished work in two places without changing its output,
because the tail of a reduced basis entry is unique.  Take an entry g of a
Groebner basis and two remainders of g modulo the other entries, scaled to
one lead coefficient.  Their difference lies in the module and has no term
divisible by another lead, so if it were nonzero its lead would be
divisible by lead(g).  For h_step=2 every vector is homogeneous, so that
term would have the degree of lead(g) and equal it; for h_step=0 the order
is a term order, so that term would be at least lead(g).  But its terms
are tail terms, below lead(g).  So the reduced basis is unique too, and:

- _interreduce walks the minimal leads in ascending order.  An entry with
  no tail term divisible by another lead is reduced already and passes
  through, its terms in descending key order as reduce emits them.  Any
  other entry is reduced against the current list (the entries below it
  reduced, those above not yet), a Groebner basis with the same leads, so
  the remainder is the one all-pairs reduction gives.
- A saturation round in SubmoduleSolver divides some entries of the
  reduced basis by their h-content h^c and restarts Buchberger from the
  stripped list.  h is central and lead(h^c g) = h^c lead(g) under
  v_order_key, so a standard representation of an S-pair of two
  unchanged entries with respect to the old basis is one with respect to
  the stripped list.  Buchberger is told which entries changed, forms only
  the pairs that touch one of them, and counts every other pair as
  treated for the chain criterion.  The round returns the reduced basis,
  which a restart from scratch returns too.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import le, neg, sub
from typing import Callable, Optional, Sequence

from .errors import (DimensionMismatchError, InternalError, InvalidInputError,
                     ReductionLimitError)
from .weyl import (NEG_INF, FiltrationSpec, WeylElement, mono_mul_flat,
                   term_v_degree, weyl_mul)


DEFAULT_REDUCTION_LIMIT = 1_000_000

Mono = tuple  # (pos, exps, h)
FlatVec = dict


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

    def __add__(self, other):
        if self.rank != other.rank:
            raise DimensionMismatchError("sum of module elements of different ranks")
        return ModuleElement(self.n, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if self.rank != other.rank:
            raise DimensionMismatchError("difference of module elements of different ranks")
        return ModuleElement(self.n, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return ModuleElement(self.n, [-c for c in self.components])

    def scale(self, c) -> "ModuleElement":
        return ModuleElement(self.n, [comp.scale(c) for comp in self.components])

    def left_mul(self, op: WeylElement) -> "ModuleElement":
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

    @classmethod
    def identity(cls, n: int, rank: int) -> "OperatorMatrix":
        return cls(n, rank, [ModuleElement.unit(n, rank, i) for i in range(rank)])

    def apply(self, v: ModuleElement) -> ModuleElement:
        """v . M for a source row vector v."""
        out = ModuleElement.zero(self.n, self.target_rank)
        for vi, row in zip(v.components, self.rows):
            if not vi.is_zero():
                out = out + row.left_mul(vi)
        return out

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
# order keys on flat monomials
# ---------------------------------------------------------------------------

# Each key function here returns `key` (larger is higher) with `key.descending`
# attached: a flat tuple with every component negated, so that ascending
# order of `descending` is descending order of `key`.  Both are injective
# on the monomials that occur, which makes heap order equal max order.

def v_order_key(n: int, shifts: Sequence[int], block_start: int) -> Callable:
    """Two-block module order: positions < block_start dominate; inside a
    block, shifted V-degree, total degree, grevlex, h, position."""
    shifts = tuple(shifts)

    def key(mono: Mono):
        pos, e, h = mono
        blk = 1 if pos < block_start else 0
        vd = sum(e[n:]) - sum(e[:n]) + shifts[pos]
        return (blk, vd, sum(e), tuple(map(neg, reversed(e))), -h, -pos)

    def descending(mono: Mono):
        pos, e, h = mono
        return ((-1 if pos < block_start else 0),
                sum(e[:n]) - sum(e[n:]) - shifts[pos], -sum(e), *e[::-1], h, pos)

    key.descending = descending
    return key


def block_elim_key(block: Sequence[int]) -> Callable:
    """Term order whose first block is total degree over `block` indices.

    It ignores h, so it is injective only where h is always 0 (h_step=0).
    """
    block = tuple(block)

    def key(mono: Mono):
        pos, e, h = mono
        bd = sum(e[i] for i in block)
        return (bd, sum(e) - bd, tuple(map(neg, reversed(e))), -pos)

    def descending(mono: Mono):
        pos, e, h = mono
        bd = sum(e[i] for i in block)
        return (-bd, bd - sum(e), *e[::-1], pos)

    key.descending = descending
    return key


# ---------------------------------------------------------------------------
# flat arithmetic
# ---------------------------------------------------------------------------

def me_to_flat(v: ModuleElement, offset: int = 0) -> FlatVec:
    out = {}
    for j, comp in enumerate(v.components):
        for e, c in comp.terms.items():
            out[(offset + j, e, 0)] = c
    return out


def flat_to_me(vec: FlatVec, n: int, rank: int, offset: int = 0) -> ModuleElement:
    comps = [dict() for _ in range(rank)]
    for (pos, e, h), c in vec.items():
        if h:
            raise InvalidInputError("dehomogenize before converting to ModuleElement")
        comps[pos - offset][e] = c
    zero = WeylElement.zero(n)
    return ModuleElement(n, [WeylElement(n, t) if t else zero for t in comps])


def flat_add_into(acc: FlatVec, other: FlatVec, scale=1):
    for k, c in other.items():
        s = acc.get(k, 0) + scale * c
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


def _lead(vec: FlatVec, key: Callable) -> Mono:
    """The largest monomial of a nonzero vec under key."""
    return min(vec, key=key.descending)


def primitive_entry(vec: FlatVec, key: Callable) -> tuple:
    """The reducer entry (lead, lc, vec) of a nonzero vec scaled to
    primitive int coefficients with positive lead coefficient."""
    den = 1
    for c in vec.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = {m: c.numerator * (den // c.denominator) for m, c in vec.items()}
    lead = _lead(num, key)
    g = gcd(*num.values())
    if num[lead] < 0:
        g = -g
    num = {m: c // g for m, c in num.items()}
    return lead, num[lead], num


def homogenize_flat(vec: FlatVec) -> FlatVec:
    if not vec:
        return vec
    deg = max(sum(e) + h for (_, e, h) in vec)
    out: FlatVec = {}
    for (pos, e, _h), c in vec.items():
        key = (pos, e, deg - sum(e))
        old = out.get(key)
        s = c if old is None else old + c
        if s:
            out[key] = s
        elif old is not None:
            del out[key]
    return out


def dehomogenize_flat(vec: FlatVec) -> FlatVec:
    out: FlatVec = {}
    for (pos, e, _h), c in vec.items():
        key = (pos, e, 0)
        old = out.get(key)
        s = c if old is None else old + c
        if s:
            out[key] = s
        elif old is not None:
            del out[key]
    return out


def _mono_divides(m1: Mono, m2: Mono) -> bool:
    if m1[0] != m2[0] or m1[2] > m2[2]:
        return False
    return all(map(le, m1[1], m2[1]))


def _minimalize_entries(entries: list) -> list:
    """Drop entries whose lead is properly divisible by another lead, and
    all but the first copy of a duplicated lead.  Preserves the basis
    property; used after dehomogenizing."""
    first = {}
    for i, (lead, _, _) in enumerate(entries):
        first.setdefault(lead, i)
    out = []
    for i, (lead, lc, vec) in enumerate(entries):
        if first[lead] != i:
            continue
        if any(_mono_divides(l2, lead) and l2 != lead for l2, _, _ in entries):
            continue
        out.append((lead, lc, vec))
    return out


def _tail_reducible(lead: Mono, vec: FlatVec, leads_at: dict) -> bool:
    """Whether a lead in leads_at (leads by position) other than `lead`
    divides a term of vec other than `lead`."""
    for m in vec:
        if m == lead:
            continue
        mexp, mh = m[1], m[2]
        for l in leads_at.get(m[0], ()):
            if l != lead and l[2] <= mh and all(map(le, l[1], mexp)):
                return True
    return False


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class GBEngine:
    """Buchberger machinery over one flat monomial order.

    h_step = 2 gives the homogenized Weyl algebra; h_step = 0 the plain
    algebra (for genuine term orders that need no homogenization).
    """

    def __init__(self, n: int, key: Callable, h_step: int):
        self.n = n
        self.key = key
        self.h_step = h_step
        self.limit = DEFAULT_REDUCTION_LIMIT
        # S-pairs that went through reduce, and those the chain criterion
        # skipped, over every buchberger call of this engine
        self.spairs_reduced = 0
        self.spairs_skipped = 0

    # division ---------------------------------------------------------

    def reduce(self, vec: FlatVec, reducers, mode: str = "full",
               pred: Optional[Callable] = None) -> FlatVec:
        """Division remainder, with Fraction coefficients, of vec by
        reducers: a list of (lead, lc, vec) entries with int coefficients.

        mode "full": every term gets reduced; "top": stop at the first
        irreducible lead.  pred filters which monomials are reduction
        candidates (others pass through to the remainder untouched).
        The module docstring states the kernel's contract.
        """
        n, h_step, desc = self.n, self.h_step, self.key.descending
        heappush, heappop = heapq.heappush, heapq.heappop
        # work holds scale * (the rational working vector) in ints
        scale = 1
        for c in vec.values():
            scale = scale * c.denominator // gcd(scale, c.denominator)
        work = {m: c.numerator * (scale // c.denominator) for m, c in vec.items()}
        heap = [(desc(m), m) for m in work]
        heapq.heapify(heap)
        remainder: FlatVec = {}
        steps = 0
        while work:
            m = heappop(heap)[1]
            c = work.get(m)
            if c is None:
                continue  # cancelled after it was pushed
            if pred is not None and not pred(m):
                # everything at or below m in this block passes through
                del work[m]
                remainder[m] = Fraction(c, scale)
                continue
            mpos, mexp, mh = m
            for lead, lc, rvec in reducers:
                # _mono_divides(lead, m), inlined: this scan is the hot path
                if lead[0] == mpos and lead[2] <= mh and all(map(le, lead[1], mexp)):
                    break
            else:
                del work[m]
                remainder[m] = Fraction(c, scale)
                if mode == "top":
                    for m2, c2 in work.items():
                        remainder[m2] = Fraction(c2, scale)
                    return remainder
                continue
            g = gcd(c, lc)
            f = lc // g
            if f != 1:
                for k in work:
                    work[k] *= f
                scale *= f
            q = tuple(map(sub, mexp, lead[1]))
            prod = mono_mul_flat(n, c // g, q, mh - lead[2], rvec, h_step)
            for k, v in prod.items():
                old = work.get(k)
                if old is None:
                    work[k] = -v
                    heappush(heap, (desc(k), k))
                elif old == v:
                    del work[k]
                else:
                    work[k] = old - v
            steps += 1
            if steps > self.limit:
                raise ReductionLimitError(
                    "division step budget exhausted; the coset may have no "
                    "V-minimal representative")
        return remainder

    # Buchberger ---------------------------------------------------------

    def buchberger(self, gens: Sequence[FlatVec], changed=None) -> list:
        """Unique reduced basis of the module generated by gens, as
        (lead, lc, vec) entries with primitive int coefficients.

        changed, if given, holds the indices of the gens that may break the
        basis property: every S-pair of two other gens has a standard
        representation with respect to gens (the module docstring says when
        that holds).  Only pairs that touch a changed index are formed.
        The gens must then be nonzero, so that indices name entries.
        """
        key = self.key
        entries = []  # (lead, lc, vec)
        for g in gens:
            if self.h_step:
                g = homogenize_flat(g)
            if g:
                entries.append(primitive_entry(g, key))

        pending = []
        in_queue = set()
        counter = 0

        def lcm_mono(m1: Mono, m2: Mono) -> Mono:
            return (m1[0], tuple(map(max, m1[1], m2[1])),
                    max(m1[2], m2[2]))

        def push(i, j):
            nonlocal counter
            li, lj = entries[i][0], entries[j][0]
            if li[0] != lj[0]:
                return
            l = lcm_mono(li, lj)
            heapq.heappush(pending, (sum(l[1]) + l[2], counter, i, j))
            in_queue.add((i, j))
            counter += 1

        treated = set()
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if changed is None or i in changed or j in changed:
                    push(i, j)
                else:
                    treated.add((i, j))  # a standard representation exists

        while pending:
            _, _, i, j = heapq.heappop(pending)
            in_queue.discard((i, j))
            treated.add((i, j))
            li, lci, vi = entries[i]
            lj, lcj, vj = entries[j]
            l = lcm_mono(li, lj)
            # chain criterion
            skip = False
            for k in range(len(entries)):
                if k in (i, j) or not _mono_divides(entries[k][0], l):
                    continue
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in in_queue and pjk not in in_queue and \
                        pik in treated and pjk in treated:
                    skip = True
                    break
            if skip:
                self.spairs_skipped += 1
                continue
            self.spairs_reduced += 1
            qi = tuple(map(sub, l[1], li[1]))
            qj = tuple(map(sub, l[1], lj[1]))
            s = mono_mul_flat(self.n, lcj, qi, l[2] - li[2], vi, self.h_step)
            flat_add_into(s, mono_mul_flat(self.n, lci, qj, l[2] - lj[2],
                                           vj, self.h_step), -1)
            r = self.reduce(s, entries, mode="top")
            if not r:
                continue
            entries.append(primitive_entry(r, key))
            new = len(entries) - 1
            for k in range(new):
                push(k, new)

        return self._interreduce(entries)

    def _interreduce(self, entries) -> list:
        # one entry per minimal lead; the key is injective, so sorting fixes
        # the order.  Walking up it, out[:i] is reduced and out[i + 1:] not
        # yet; only an entry with a reducible tail term is divided (the
        # module docstring says why the result does not depend on the list)
        key = self.key
        kept = sorted(_minimalize_entries(entries), key=lambda t: key(t[0]))
        leads_at = {}
        for lead, _, _ in kept:
            leads_at.setdefault(lead[0], []).append(lead)
        out = list(kept)
        for i, (lead, lc, vec) in enumerate(kept):
            if _tail_reducible(lead, vec, leads_at):
                others = out[:i] + out[i + 1:]
                out[i] = primitive_entry(self.reduce(vec, others, mode="full"), key)
            else:
                out[i] = (lead, lc, {m: vec[m] for m in sorted(vec, key=key.descending)})
        return out


# ---------------------------------------------------------------------------
# submodule solver: basis, cofactors, syzygies, witnesses in one run
# ---------------------------------------------------------------------------

class SubmoduleSolver:
    """All Groebner data for one generating set of a submodule of D_n^rank.

    The augmented module {(g_i, e_i)} is computed once; its reduced basis
    yields the V-adapted basis of <g_i> with cofactors (elements whose
    lead sits in the main block) and a basis of the syzygy module (elements
    supported entirely in the cofactor block).  The spec names n, which
    an empty generating set cannot.
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
        self.key = v_order_key(n, shifts, rank)
        self.engine = GBEngine(n, self.key, h_step=2)
        aug = []
        for i, g in enumerate(self.gens):
            if g.rank != rank:
                raise DimensionMismatchError("generator rank mismatch")
            flat = me_to_flat(g)
            flat[(rank + i, (0,) * (2 * n), 0)] = Fraction(1)
            aug.append(flat)

        # saturate with respect to h: orders refining the V-degree are not
        # well-orders, so membership is only decidable against a basis of
        # the h-saturation (reduction then stays in the homogenized world).
        # A round strips the h-content of some entries of a reduced basis;
        # pairs of two unstripped entries keep their standard representations
        # (module docstring), so Buchberger resumes from the stripped ones
        reduced = self.engine.buchberger(aug)
        for _ in range(64):
            stripped = []
            changed = set()
            for i, (_lead, _lc, vec) in enumerate(reduced):
                content = min(h for (_, _, h) in vec)
                if content:
                    changed.add(i)
                    vec = {(pos, e, h - content): c for (pos, e, h), c in vec.items()}
                stripped.append(vec)
            if not changed:
                break
            reduced = self.engine.buchberger(stripped, changed)
        else:
            raise InternalError("h-saturation did not stabilize")
        self._h_entries = reduced

        main_entries = []      # main-block leads, dehomogenized, with tails
        syz_entries = []       # cofactor-block leads, dehomogenized
        for lead, lc, vec in reduced:
            d = dehomogenize_flat(vec)
            if not d:
                continue
            entry = primitive_entry(d, self.key)
            if entry[0][0] < rank:
                main_entries.append(entry)
            else:
                syz_entries.append(entry)
        self._deh_entries = _minimalize_entries(main_entries)
        self._syz_entries = _minimalize_entries(syz_entries)

        # divider engine for D_n (h never appears after dehomogenization)
        self.divider = GBEngine(n, self.key, h_step=0)

    # -- derived data ---------------------------------------------------

    def basis_with_cofactors(self):
        """[(basis element over rank, cofactor vector over gens)] pairs."""
        out = []
        for _, _, vec in self._deh_entries:
            main = {k: c for k, c in vec.items() if k[0] < self.rank}
            cof = {(k[0] - self.rank, k[1], k[2]): c
                   for k, c in vec.items() if k[0] >= self.rank}
            out.append((flat_to_me(main, self.n, self.rank),
                        flat_to_me(cof, self.n, len(self.gens))))
        return out

    @property
    def basis(self):
        return [b for b, _ in self.basis_with_cofactors()]

    @property
    def syzygy_basis(self):
        """V-adapted basis of {w : w . gens = 0} under the cofactor shift."""
        out = []
        for _, _, vec in self._syz_entries:
            shifted = {(k[0] - self.rank, k[1], k[2]): c for k, c in vec.items()}
            out.append(flat_to_me(shifted, self.n, len(self.gens)))
        return out

    # -- queries ---------------------------------------------------------

    def _homogeneous_remainder(self, e: ModuleElement):
        """Reduce the homogenization of e against the saturated basis.

        Always terminates.  A zero main block proves that e lies in the
        submodule; a nonzero one does not prove the opposite.  Saturation
        strips only the h-content of a whole augmented entry, so an entry
        whose cofactor tail has no h keeps an h-power on its main lead,
        and that lead cannot divide a term of lower h-power: for the gens
        x^2 and 3/4 x^2 - x d the basis is [8], with lead 8 h^2 over a
        cofactor tail free of h, and the main block of -1 stays -1.
        """
        rank = self.rank
        flat = homogenize_flat(me_to_flat(e))
        rem = self.engine.reduce(flat, self._h_entries, mode="full",
                                 pred=lambda m: m[0] < rank)
        main = {k: c for k, c in rem.items() if k[0] < rank}
        cof = {(k[0] - rank, k[1], k[2]): -c
               for k, c in rem.items() if k[0] >= rank}
        return main, cof

    def normal_form_with_cofactor(self, e: ModuleElement):
        """(r, w) with e = r + w . gens and no term of r lead-divisible.

        The homogenized reduction settles members whose main block it
        clears; everything else, members included, continues with direct
        division in D_n, which decides membership and may need the step
        budget to reach the V-minimal representative.
        """
        if e.rank != self.rank:
            raise DimensionMismatchError("element rank mismatch")
        rank = self.rank
        main_h, cof_h = self._homogeneous_remainder(e)
        cof = flat_to_me(dehomogenize_flat(cof_h), self.n, len(self.gens))
        if not main_h:
            return ModuleElement.zero(self.n, rank), cof
        start = dehomogenize_flat(main_h)
        rem = self.divider.reduce(start, self._deh_entries, mode="full",
                                  pred=lambda m: m[0] < rank)
        main = {k: c for k, c in rem.items() if k[0] < rank}
        extra = {(k[0] - rank, k[1], k[2]): -c
                 for k, c in rem.items() if k[0] >= rank}
        cof = cof + flat_to_me(extra, self.n, len(self.gens))
        return flat_to_me(main, self.n, rank), cof

    def normal_form(self, e: ModuleElement) -> ModuleElement:
        return self.normal_form_with_cofactor(e)[0]

    def contains(self, e: ModuleElement) -> bool:
        """Exact membership: the fully reduced remainder is zero exactly for
        members."""
        return self.normal_form(e).is_zero()

    def reduce_cofactor(self, w: ModuleElement) -> ModuleElement:
        """Normal form of w against the syzygy basis: the V-minimal element
        of the coset w + Syz(gens) under the cofactor shift.

        w sits in the cofactor block of the solver's own order, which ranks
        that block exactly as an order on the cofactor shift alone would.
        """
        rem = self.divider.reduce(me_to_flat(w, self.rank), self._syz_entries,
                                  mode="full")
        return flat_to_me(rem, self.n, len(self.gens), self.rank)

    def min_degree_witness(self, target: ModuleElement):
        """A w with w . gens = target of minimal shifted V-degree, or None."""
        nf, w = self.normal_form_with_cofactor(target)
        if not nf.is_zero():
            return None
        return self.reduce_cofactor(w)


class SolverCache:
    """One SubmoduleSolver per key, for the length of one call.

    The key is (spec, rank, gens in order, ambient shift, cofactor shift),
    the spec holding only n, after the defaults are filled in: a missing
    ambient shift is zero and a missing cofactor shift is the obvious shift
    of the generators, exactly as SubmoduleSolver fills them.  The same
    submodule under another generator order or cofactor shift is another
    key and is built again.  A solver is a deterministic function of its
    key and is never changed after construction, so a hit hands back the
    solver the caller would have built.  Callers create one cache per call
    and drop it when the call returns; `builds` and `hits` count what it
    did, `spairs_reduced` and `spairs_skipped` sum the S-pair counts of the
    solvers it built.
    """

    __slots__ = ("spec", "builds", "hits", "spairs_reduced", "spairs_skipped",
                 "_solvers")

    def __init__(self, spec: FiltrationSpec):
        self.spec = spec
        self.builds = 0
        self.hits = 0
        self.spairs_reduced = 0
        self.spairs_skipped = 0
        self._solvers = {}

    def get(self, rank: int, gens: Sequence[ModuleElement], ambient_shift=None,
            cofactor_shift=None) -> SubmoduleSolver:
        gens = tuple(gens)
        ambient = tuple(ambient_shift) if ambient_shift is not None else (0,) * rank
        if len(ambient) != rank:
            raise InvalidInputError("ambient shift length != rank")
        cofactor = tuple(cofactor_shift) if cofactor_shift is not None \
            else obvious_shift(gens, ambient)
        key = (self.spec, rank, gens, ambient, cofactor)
        solver = self._solvers.get(key)
        if solver is None:
            solver = SubmoduleSolver(self.spec, rank, gens, ambient, cofactor)
            self._solvers[key] = solver
            self.builds += 1
            self.spairs_reduced += solver.engine.spairs_reduced
            self.spairs_skipped += solver.engine.spairs_skipped
        else:
            self.hits += 1
        return solver

    def basis(self, rank: int, gens: Sequence[ModuleElement], shift):
        """V-adapted basis of <gens> under `shift`; [] for no generators."""
        if rank == 0 or not gens:
            return []
        return self.get(rank, gens, shift).basis

    def syzygies(self, rank: int, rows: Sequence[ModuleElement], ambient_shift,
                 cofactor_shift=None):
        """V-adapted basis of the syzygies of `rows`; [] for no rows."""
        if not rows:
            return []
        return self.get(rank, rows, ambient_shift, cofactor_shift).syzygy_basis


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
