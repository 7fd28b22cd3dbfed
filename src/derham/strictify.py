"""Replacing a bounded complex by a quasi-isomorphic V-strict free complex.

The construction runs in two phases.  Phase one walks the complex from the
top degree down, rewriting each C^i over the direct sum of covers of the
boundary, homology and next-boundary modules and choosing shift vectors so
that the short exact sequences of relation submodules become V-strict.
Both quotient maps of a spot, Z~ -> H and C^i -> B_next, are identities
on generators, so each generator lifts to its own unit vector.  One
solver over the cycle generators does for the cycle module Z~, as the
relations of C^i lie in Z~ and the B_next-relations are Z~ itself; one
more gives the H-basis and its pairs.  Each spot ends as one record that
phase two reads.  Phase two walks back up, building compatible free covers
level by level with the horseshoe lemma (Weibel, An Introduction to
Homological Algebra, Lemma 2.2.8) over the flag B < Z < C of each spot,
with H = Z/B and B_next = C/Z.  The flag is a block one: B sits in the
leading components of C, H in the middle ones and B_next in the trailing
ones.  The columns B, H and B_next are resolved on their own, each step
covering a V-adapted basis by generators of its kernel.  A level's cover
of C is the B-rows followed by one lift of each H-row into Z and of each
B_next-row into C, at no higher V-degree than the row: phase one's pairs
at level one, and (-w | s) below, for s a syzygy of the rows above and w
a V-minimal witness of the combination s of their lifts, found column by
column from the top.  The total complex of the resulting double complex
is V-strict and quasi-isomorphic to the input; the comparison map reads
off the level-zero block.

Each solver belongs to the step whose submodule it solves, and gives its
basis with the cofactor of each basis element, its syzygies, and
cofactors of other targets on request.  Where two steps solve the same
submodule, _solver hands the first one's solver to the second: at the
top spot the H-solver is the one that found the cycles of the spot
below, and at level one a column whose basis is a spot's cycle
generators takes its Z~ solver.  A loop over a solver's own basis reads
each cofactor off the basis entry; any other loop asks its solver for
every target, and one whose targets are all zero asks for none.  Phase
one builds at most three solvers per spot, each over another submodule.
Phase two takes the boundary, homology and next-boundary bases of each
spot, and their lifts, from phase one.  Its only fresh builds are the
column steps: the one solver over a column's basis gives that step's
kernel and every witness into the column.  Nothing resolves the rows of
Z or of C, and nothing needs to.

minimize_complex then shrinks the total complex: it cancels every
constant entry between generators of equal shift, which keeps the complex
V-strict and its b-function, and leaves strictify_complex's own output
as it is.
"""

from __future__ import annotations

import logging
from fractions import Fraction

from .errors import InconsistencyError, InternalError, InvalidInputError
from .groebner import (ModuleElement, OperatorMatrix, SubmoduleSolver,
                       obvious_shift)
from .presentations import (ChainComplexPres, DModPresentation, _heads,
                            cycle_generators)
from .restriction import _differential_solver
from .weyl import (NEG_INF, FiltrationSpec, WeylElement, format_operator,
                   v_degree, weyl_mul)

log = logging.getLogger("derham.strictify")

# how far below the complex the vertical resolutions reach, beyond n; every
# golden case ends its resolutions before the edge, and a margin of 1 keeps
# every golden answer while 0 breaks seven of them
DEPTH_MARGIN = 2


# ---------------------------------------------------------------------------
# small data carriers
# ---------------------------------------------------------------------------

class QuotientSES:
    """0 -> A -> B -> C -> 0 of presented modules, maps on the covers;
    the input of verify_strict_ses."""

    __slots__ = ("a", "b", "c", "a_to_b", "b_to_c")

    def __init__(self, a: DModPresentation, b: DModPresentation,
                 c: DModPresentation, a_to_b: OperatorMatrix, b_to_c: OperatorMatrix):
        self.a, self.b, self.c = a, b, c
        self.a_to_b = a_to_b
        self.b_to_c = b_to_c


def _solver(n, gens, ambient_shift, known=None) -> SubmoduleSolver:
    """The solver over gens under ambient_shift, with the obvious cofactor
    shift: known, a solver built with its obvious cofactor shift too, when
    it is over the same gens under the same ambient shift, and a new build
    otherwise."""
    gens, ambient_shift = list(gens), tuple(ambient_shift)
    if known is not None and known.gens == gens and known.ambient_shift == ambient_shift:
        return known
    return SubmoduleSolver(FiltrationSpec(n), len(ambient_shift), gens, ambient_shift)


class ResolutionStep:
    """One step 0 -> K -> P[shift] -> M -> 0 of a column resolution: the
    rows, a V-adapted basis of M under ambient_shift, map the generators
    of P onto M, and shift is their obvious shift.  solver, the one solver
    over the rows (known, if it is that solver), gives the kernel K (its
    syzygy basis) and every witness into the column; there is none over
    no rows."""

    __slots__ = ("n", "shift", "rows", "ambient_shift", "solver", "kernel")

    def __init__(self, n, rows, ambient_shift, known=None):
        self.n = n
        self.rows = list(rows)
        self.ambient_shift = tuple(ambient_shift)
        self.solver = _solver(n, self.rows, self.ambient_shift, known) if self.rows else None
        self.shift = self.solver.cofactor_shift if self.solver is not None else ()
        self.kernel = self.solver.syzygy_basis if self.solver is not None else []

    @property
    def rank(self):
        return len(self.rows)

    def witness(self, target: ModuleElement) -> ModuleElement:
        """A V-minimal w with w . rows = target; zero for a zero target."""
        if target.is_zero():
            return ModuleElement.zero(self.n, self.rank)
        w = self.solver.min_degree_witness(target) if self.solver is not None else None
        if w is None:
            raise InconsistencyError("horseshoe lift: the target lies outside the cover")
        return w


# ---------------------------------------------------------------------------
# shared solving helpers
# ---------------------------------------------------------------------------

def _cofactor_heads(solver, targets, width, context: str):
    """The first `width` cofactor entries expressing each target over the
    generators of `solver`, or an inconsistency error.

    A zero target gets a zero head without a query, so `solver` may be
    None when no target is nonzero.
    """
    out = []
    for t in targets:
        if t.is_zero():
            out.append(ModuleElement.zero(t.n, width))
            continue
        cof = solver.cofactor(t)
        if cof is None:
            raise InconsistencyError(f"{context}: element is not in the submodule")
        out.append(ModuleElement(t.n, cof.components[:width]))
    return out


def _embed(v: ModuleElement, rank: int, offset: int, n: int) -> ModuleElement:
    comps = [WeylElement.zero(n)] * rank
    for j, c in enumerate(v.components):
        comps[offset + j] = c
    return ModuleElement(n, comps)


def _bound_shifts(rank, constraints):
    """Componentwise largest shifts with vdeg(witness) <= vdeg(bound)."""
    shift = [0] * rank
    bounded = [False] * rank
    for comps, bound in constraints:
        if bound == NEG_INF:
            continue
        for j, op in enumerate(comps):
            if op.is_zero():
                continue
            cap = int(bound) - v_degree(op)
            if not bounded[j] or cap < shift[j]:
                shift[j] = cap
                bounded[j] = True
    return tuple(shift)


# ---------------------------------------------------------------------------
# the horseshoe lemma over a flag of submodules
# ---------------------------------------------------------------------------

def horseshoe_step(step_b: ResolutionStep, step_h: ResolutionStep,
                   step_bn: ResolutionStep, lifts_h, lifts_bn):
    """One level of the horseshoe lemma over a block flag B < Z < C, with
    H = Z/B and B_next = C/Z; returns (rows, next_lifts_h, next_lifts_bn).

    C lies in the free module of the steps' ambients, in the order B, H,
    B_next; Z lies in its B- and H-components and B in its B-components.
    lifts_h[j] in Z and lifts_bn[j] in C project onto H-row j and B_next-row
    j at no higher V-degree.  The rows are the B-rows, the H-lifts and the
    B_next-lifts, padded to the width of C.

    For s in the H-kernel, the combination s of the H-lifts lies in B, and
    its B-witness t gives the next lift (-t | s).  For s in the B_next-kernel
    the combination lies in Z, and its witness is found column by column
    from the top: u, the H-witness of its H-part, and v, the B-witness of
    what is left once the combination u of the H-lifts is subtracted, give
    (-v | -u | s).  No witness exceeds its target's V-degree and no lift its
    row's, so no next lift does either: the double complex stays V-strict.
    """
    n = step_b.n
    width_b = len(step_b.ambient_shift)
    shift_z = step_b.ambient_shift + step_h.ambient_shift
    shift_c = shift_z + step_bn.ambient_shift
    for lifts, step, shift in ((lifts_h, step_h, shift_z), (lifts_bn, step_bn, shift_c)):
        # a zero lift has degree -inf
        if any(lift.v_degree(shift) > need for lift, need in zip(lifts, step.shift)):
            raise InternalError("lift of the required V-degree not found; the input "
                                "sequence is not V-strict")
    rows = [_embed(v, len(shift_c), 0, n) for v in step_b.rows + lifts_h] + lifts_bn

    # products act componentwise, so only the leading parts of the lifts matter
    def leading(lifts, width):
        return OperatorMatrix(n, width, [ModuleElement(n, v.components[:width])
                                         for v in lifts])

    h_into_b, bn_into_z = leading(lifts_h, width_b), leading(lifts_bn, len(shift_z))
    next_h = []
    for s in step_h.kernel:
        t = step_b.witness(h_into_b.apply(s))
        next_h.append(ModuleElement(n, (-t).components + s.components))
    next_bn = []
    for s in step_bn.kernel:
        z = bn_into_z.apply(s).components
        u = step_h.witness(ModuleElement(n, z[width_b:]))
        v = step_b.witness(ModuleElement(n, z[:width_b]) - h_into_b.apply(u))
        next_bn.append(ModuleElement(n, (-v).components + (-u).components + s.components))
    return rows, next_h, next_bn


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VStrictFailure:
    __slots__ = ("position", "level", "witness", "witness_degree", "kind")

    def __init__(self, position, level, witness, witness_degree, kind):
        self.position = position
        self.level = level
        self.witness = witness
        self.witness_degree = witness_degree
        self.kind = kind

    def __repr__(self):
        w = "; ".join(format_operator(c) for c in self.witness.components
                      if not c.is_zero()) if self.witness is not None else ""
        return (f"VStrictFailure({self.kind} at position {self.position}, "
                f"level {self.level}, witness [{w}])")


class VStrictReport:
    __slots__ = ("passed", "failures", "checked")

    def __init__(self, passed, failures, checked):
        self.passed = passed
        self.failures = failures
        self.checked = checked


def verify_v_strict(c: ChainComplexPres) -> VStrictReport:
    """Check V-adaptedness exactly and V-strictness via minimal witnesses.

    For each differential, every element g of a V-adapted basis of its
    image must admit a preimage of shifted V-degree at most vdeg(g); the
    normal form of any particular preimage (here the cofactor the solver
    keeps with g) against the syzygies of the rows realizes the minimal
    degree, so the check is a decision, not a search.
    """
    if not c.is_free():
        raise InvalidInputError("verify_v_strict needs a free complex with shifts")
    failures = []
    checked = 0
    for k in range(c.lo, c.hi):
        dmat = c.differential(k)
        src_shift = c.module(k).shift_or_zero()
        tgt_shift = c.module(k + 1).shift_or_zero()
        for i, row in enumerate(dmat.rows):
            vd = row.v_degree(tgt_shift)
            if vd != NEG_INF and vd > src_shift[i]:
                failures.append(VStrictFailure(k, int(vd), row, int(vd),
                                               "not-V-adapted"))
        if dmat.source_rank == 0 or dmat.is_zero():
            continue
        solver = _differential_solver(c, k)
        for g, cof in zip(solver.basis, solver.cofactors):
            j = g.v_degree(tgt_shift)
            if j == NEG_INF:
                continue
            j = int(j)
            checked += 1
            w = solver.reduce_cofactor(cof, j)
            wd = w.v_degree(src_shift)
            wd = int(wd) if wd != NEG_INF else None
            if wd is not None and wd > j:
                failures.append(VStrictFailure(k + 1, j, g, wd, "not-strict"))
    return VStrictReport(not failures, failures, checked)


def verify_strict_ses(ses: QuotientSES) -> bool:
    """Spot-check strictness of a quotient-module SES at the generators.

    Checks V-adaptedness of both maps, surjectivity of B -> C level by
    level on the C-generators, and that kernel elements of B -> C lift
    through A at their own V-degree.
    """
    n = ses.b.n
    sa = ses.a.shift_or_zero()
    sb = ses.b.shift_or_zero()
    sc = ses.c.shift_or_zero()
    for i, row in enumerate(ses.a_to_b.rows):
        vd = row.v_degree(sb)
        if vd != NEG_INF and vd > sa[i]:
            return False
    for i, row in enumerate(ses.b_to_c.rows):
        vd = row.v_degree(sc)
        if vd != NEG_INF and vd > sb[i]:
            return False
    # level surjectivity at C: generator e_j needs a preimage of degree <= sc[j]
    spec = FiltrationSpec(n)
    gens_c = list(ses.b_to_c.rows) + list(ses.c.relations)
    solver = SubmoduleSolver(spec, ses.c.rank, gens_c, sc,
                             tuple(sb) + obvious_shift(ses.c.relations, sc))
    for j in range(ses.c.rank):
        w = solver.min_degree_witness(ModuleElement.unit(n, ses.c.rank, j))
        if w is None:
            return False
        wd = w.v_degree(solver.cofactor_shift)
        if wd != NEG_INF and wd > sc[j]:
            return False
    # strictness at A: kernel generators of B -> C lift at their degree.
    # The solver above, with cofactor shift sb on its B-part, gives them
    # V-adapted in the shift they are measured in
    ker_heads = _heads(solver.syzygy_basis, ses.b.rank)
    asolver = SubmoduleSolver(spec, ses.b.rank,
                              list(ses.a_to_b.rows) + list(ses.b.relations),
                              sb, tuple(sa) + obvious_shift(ses.b.relations, sb))
    for g in ker_heads:
        w = asolver.min_degree_witness(g)
        if w is None:
            return False
        wd = w.v_degree(asolver.cofactor_shift)
        gd = g.v_degree(sb)
        if wd != NEG_INF and gd != NEG_INF and wd > gd:
            return False
    return True


# ---------------------------------------------------------------------------
# the full complex driver
# ---------------------------------------------------------------------------

class _LevelData:
    __slots__ = ("ranks", "shift", "vertical")

    def __init__(self, ranks, shift, vertical):
        self.ranks = ranks            # (boundary, homology, next-boundary)
        self.shift = tuple(shift)
        self.vertical = vertical      # rows into the previous level, k >= 1

    @property
    def rank(self):
        return sum(self.ranks)


class _SpotResolution:
    __slots__ = ("levels", "realization")

    def __init__(self, levels, realization):
        self.levels = levels
        self.realization = realization


class StrictDoubleComplex:
    """Serializable description of the double complex behind the total."""

    def __init__(self, spots: dict):
        self.spots = spots

    def to_json(self):
        out = {"schema": "derham.double-complex/1", "spots": []}
        for i in sorted(self.spots):
            sr = self.spots[i]
            levels = []
            for k, lv in enumerate(sr.levels):
                entry = {
                    "level": k,
                    "block_ranks": list(lv.ranks),
                    "shift": list(lv.shift),
                }
                if lv.vertical is not None:
                    entry["vertical"] = [[format_operator(c) for c in row.components]
                                         for row in lv.vertical]
                levels.append(entry)
            out["spots"].append({
                "degree": i,
                "levels": levels,
                "horizontal_sign": "(-1)^level",
                "realization": [[format_operator(c) for c in row.components]
                                for row in sr.realization],
            })
        return out


class StrictificationResult:
    __slots__ = ("total", "comparison", "double", "lo", "hi", "edge", "complete")

    def __init__(self, total, comparison, double, lo, hi, edge, complete):
        self.total = total
        self.comparison = comparison
        self.double = double
        self.lo = lo
        self.hi = hi
        self.edge = edge
        self.complete = complete


class _PhaseOneSpot:
    """Phase one's rewrite of C^i over P_B + P_H + P_Bnext: the block
    ranks, the three shift vectors, the bases of the H- and
    B_next-relations under their shifts, their lifts into the relations of
    the covers of Z~ and of C^i, the realization rows of the cover
    generators in C^i, and the solver over the cycle generators, or None."""

    __slots__ = ("ranks", "shift_b", "shift_h", "shift_bn", "basis_h", "basis_bn",
                 "lifts_h", "lifts_bn", "realization", "zsolver")

    def __init__(self, ranks, shift_b, shift_h, shift_bn, basis_h, basis_bn,
                 lifts_h, lifts_bn, realization, zsolver):
        self.ranks = ranks            # (boundary, homology, next-boundary)
        self.shift_b, self.shift_h, self.shift_bn = shift_b, shift_h, shift_bn
        self.basis_h, self.basis_bn = basis_h, basis_bn
        self.lifts_h, self.lifts_bn = lifts_h, lifts_bn
        self.realization = realization
        self.zsolver = zsolver


def _phase_one(c: ChainComplexPres):
    """Rewrites every C^i over boundary/homology/next-boundary covers,
    choosing shift vectors top-down; returns {spot: _PhaseOneSpot}.

    At spot i, Z~ is the cycle module on the cycle generators, B the
    boundary inside it, H = Z~/B and B_next = C^i/Z~, so 0 -> B -> Z~ ->
    H -> 0 and 0 -> Z~ -> C^i -> B_next -> 0 are the spot's two short exact
    sequences.  Z~ -> H and C^i -> B_next are identities on generators, so
    each generator lifts to its own unit vector: Z~ is rewritten over P_B +
    P_H by the boundary rows and the units, and C^i over P_B + P_H +
    P_Bnext by their images, the cycle generators, followed by the first
    rank_bn units of D^rank.  A relation r of H or B_next then lifts to r
    itself.  One solver over zgens alone, under the B_next-shift (the
    C^i-shift at the top spot), solves all of Z~: the relations of C^i lie
    in Z~, so the cycle relations are its syzygies and the cofactors of
    rels_c, and the B_next-relations are Z~ itself, so its basis is the
    B_next-basis, each entry r paired with (0 | h' | r) for h' = -w, w the
    cofactor of r read off the solver's entry.  Then bound the H-shifts by
    those pairs, take the H-basis and its pairs, read off the same way,
    from one solver under the H-shift, and bound the B-shifts by the
    H-pairs; the B_next-shift is the B-shift of the spot above.  The
    paired lifts are phase two's lifts at level one.
    """
    n = c.n
    spots = {}
    shift_bn = ()
    below = cycle_generators(c, c.hi)
    for i in range(c.hi, c.lo - 1, -1):
        orig = c.module(i)
        rank, shift_c, rels_c = orig.rank, orig.shift_or_zero(), list(orig.relations)
        zgens = below[0]
        below = cycle_generators(c, i - 1)  # the cycles of spot i - 1, and their solver
        p = len(zgens)
        prev = c.differential(i - 1)
        rank_b = prev.source_rank if prev is not None else 0
        rank_bn = rank if i < c.hi else 0

        # one solver over the cycle generators: the cycle relations are its
        # syzygies and its cofactors of rels_c, and rows_bz its cofactors of
        # the boundary rows
        rows_b = list(prev.rows) if prev is not None else []
        zsolver = _solver(n, zgens, shift_bn if rank_bn else shift_c) \
            if zgens or any(not r.is_zero() for r in rels_c + rows_b) else None
        syz = zsolver.syzygy_basis if zsolver is not None else []
        rels_z = _heads(syz + _cofactor_heads(zsolver, rels_c, p,
                                              "relation is not a cycle"), p)
        rows_bz = _cofactor_heads(zsolver, rows_b, p, "boundary row is not a cycle")
        rels_h = rels_z + [r for r in rows_bz if not r.is_zero()]

        # each H- and B_next-generator lifts to its own unit vector: P_B + P_H
        # covers Z~ by rows_bz and the units, and P_B + P_H + P_Bnext covers
        # C^i by their images and the first rank_bn units of D^rank.  Each
        # entry of rows_bz is a full cofactor over zgens, so its image is
        # its boundary row
        realization = rows_b + zgens + [ModuleElement.unit(n, rank, j) for j in range(rank_bn)]

        # step 1: the B_next-relations are Z~ itself, so their basis is the
        # solver's own, and each entry r pairs with h' = -w, w its cofactor
        basis_bn = zsolver.basis if rank_bn and zgens else []
        pairs_bn = list(zip(basis_bn, [-w for w in zsolver.cofactors] if basis_bn else ()))

        # step 2: H-shifts from the paired lifts
        shift_h = _bound_shifts(p, [(w.components, r.v_degree(shift_bn))
                                    for r, w in pairs_bn])

        # step 3: basis of the H-relations and paired lifts b, from one
        # solver: its generators start with the boundary rows.  At the top
        # spot Z~ is all of C^i, so it is the cycle solver of spot i - 1
        solver = _solver(n, rows_bz + rels_z, shift_h, below[1]) if p and rels_h else None
        basis_h = solver.basis if solver is not None else []
        pairs_h = [(r, ModuleElement(n, (-w).components[:rank_b]))
                   for r, w in zip(basis_h, solver.cofactors if basis_h else ())]

        # step 4: B-shifts from the H-pairs; the B_next-pairs have no B-part
        shift_b = _bound_shifts(rank_b, [(w.components, r.v_degree(shift_h))
                                         for r, w in pairs_h])

        # each pair (r, w) concatenates to a relation (w | r) of the cover,
        # which steps 2 and 4 keep at or below r's own degree
        zero_b = ModuleElement.zero(n, rank_b).components
        lifts_h = [ModuleElement(n, w.components + r.components) for r, w in pairs_h]
        lifts_bn = [ModuleElement(n, zero_b + w.components + r.components)
                    for r, w in pairs_bn]
        spots[i] = _PhaseOneSpot((rank_b, p, rank_bn), shift_b, shift_h, shift_bn,
                                 basis_h, basis_bn, lifts_h, lifts_bn, realization,
                                 zsolver)
        shift_bn = shift_b
    return spots


def _phase_two(c: ChainComplexPres, phase1: dict, edge: int):
    """Builds compatible free resolutions spot by spot, level by level."""
    n = c.n
    spots = {}
    res_b: list = []
    complete_all = True
    for i in range(c.lo, c.hi + 1):
        sp = phase1[i]
        depth = i - edge

        # extend the carried boundary resolution to the needed depth; phase
        # one passed this spot's B-shift down as the B_next-shift of spot
        # i - 1, so that spot's B_next-basis is the boundary basis here
        if not res_b:
            res_b.append(ResolutionStep(n, phase1[i - 1].basis_bn if i > c.lo else [],
                                        sp.shift_b))
        while len(res_b) < depth:
            res_b.append(ResolutionStep(n, res_b[-1].kernel, res_b[-1].shift))

        levels = [_LevelData(sp.ranks, sp.shift_b + sp.shift_h + sp.shift_bn, None)]
        # the rows and ambient shifts of the H- and B_next-steps: phase one's
        # bases at level one, then the kernels of the steps above
        rows_h, shift_h = sp.basis_h, sp.shift_h
        rows_bn, shift_bn = sp.basis_bn, sp.shift_bn
        lifts_h, lifts_bn = sp.lifts_h, sp.lifts_bn
        res_bnext = []
        for step_b in res_b:
            # by the snake lemma the Z- and C-columns are resolved once the
            # B-, H- and B_next-columns are
            if not (step_b.rows or rows_h or rows_bn):
                break
            # at level one a column whose basis is the cycle generators
            # takes phase one's Z~ solver
            known = sp.zsolver if len(levels) == 1 else None
            step_h = ResolutionStep(n, rows_h, shift_h, known)
            step_bn = ResolutionStep(n, rows_bn, shift_bn, known)
            rows, lifts_h, lifts_bn = horseshoe_step(step_b, step_h, step_bn,
                                                     lifts_h, lifts_bn)
            ranks = (step_b.rank, step_h.rank, step_bn.rank)
            _assert_triangular(rows, ranks, levels[-1].ranks)
            levels.append(_LevelData(ranks, step_b.shift + step_h.shift + step_bn.shift,
                                     rows))
            res_bnext.append(step_bn)
            rows_h, shift_h = step_h.kernel, step_h.shift
            rows_bn, shift_bn = step_bn.kernel, step_bn.shift
        else:
            complete_all = complete_all and not (res_b[-1].kernel or rows_h or rows_bn)
        spots[i] = _SpotResolution(levels, sp.realization)
        res_b = res_bnext
    return spots, complete_all


def _assert_triangular(rows, ranks, prev_ranks):
    rb, rh, rbn = ranks
    prb, prh, prbn = prev_ranks
    for idx, row in enumerate(rows):
        comps = row.components
        if idx < rb:
            bad = any(not c.is_zero() for c in comps[prb:])
        elif idx < rb + rh:
            bad = any(not c.is_zero() for c in comps[prb + prh:])
        else:
            bad = False
        if bad:
            raise InternalError("vertical differential lost its triangular shape")


def strictify_complex(c: ChainComplexPres) -> StrictificationResult:
    """A V-strict free complex quasi-isomorphic to c, with its witnesses.

    Vertical resolutions reach down to edge = lo - (n + DEPTH_MARGIN); the
    total complex is reliable at positions strictly above the edge.
    """
    n = c.n
    edge = c.lo - (n + DEPTH_MARGIN)
    log.info("strictifying complex over degrees [%d, %d], edge %d",
             c.lo, c.hi, edge)
    phase1 = _phase_one(c)
    spots, complete = _phase_two(c, phase1, edge)

    # assemble the total complex
    blocks = {}
    for m in range(edge, c.hi + 1):
        blk = []
        for i in range(max(c.lo, m), c.hi + 1):
            k = i - m
            if k < len(spots[i].levels):
                blk.append((k, i))
        blocks[m] = blk

    modules = []
    offsets = {}
    for m in range(edge, c.hi + 1):
        shift = ()
        off = {}
        total = 0
        for k, i in blocks[m]:
            lv = spots[i].levels[k]
            off[(k, i)] = total
            total += lv.rank
            shift = shift + lv.shift
        offsets[m] = off
        modules.append(DModPresentation.free(n, total, shift))

    diffs = []
    zero = WeylElement.zero(n)
    for m in range(edge, c.hi):
        tgt_rank = modules[m + 1 - edge].rank
        rows = []
        for k, i in blocks[m]:
            lv = spots[i].levels[k]
            rb, rh, rbn = lv.ranks
            for g in range(lv.rank):
                # place the blocks of the row into its components
                comps = [zero] * tgt_rank
                if k >= 1 and (k - 1, i) in offsets[m + 1]:
                    block = lv.vertical[g].components
                    start = offsets[m + 1][(k - 1, i)]
                    comps[start:start + len(block)] = block
                if g >= rb + rh and (k, i + 1) in offsets[m + 1]:
                    pos = offsets[m + 1][(k, i + 1)] + (g - rb - rh)
                    comps[pos] = comps[pos] + WeylElement.constant(n, (-1) ** k)
                rows.append(ModuleElement(n, comps))
        diffs.append(OperatorMatrix(n, tgt_rank, rows))

    total = ChainComplexPres(n, edge, modules, diffs)
    comparison = {}
    for m in range(max(edge, c.lo), c.hi + 1):
        orig_rank = c.module(m).rank
        rows = []
        for k, i in blocks[m]:
            lv = spots[i].levels[k]
            for g in range(lv.rank):
                if k == 0:
                    rows.append(spots[i].realization[g])
                else:
                    rows.append(ModuleElement.zero(n, orig_rank))
        comparison[m] = OperatorMatrix(n, orig_rank, rows)

    return StrictificationResult(total, comparison, StrictDoubleComplex(spots),
                                 c.lo, c.hi, edge, complete)


def _unit_pivot(rows, source_shift, target_shift, one):
    """The first (row, column) whose entry is a nonzero constant between
    generators of equal shift, or None."""
    for a, row in enumerate(rows):
        for b, entry in enumerate(row):
            if len(entry.terms) == 1 and one in entry.terms and \
                    source_shift[a] == target_shift[b]:
                return a, b
    return None


def minimize_complex(c: ChainComplexPres) -> ChainComplexPres:
    """Cancel every constant entry between generators of equal shift.

    Gaussian elimination on a free complex: a constant u at row a, column
    b of d_m, where source generator a and target generator b carry the
    same shift, is a filtered isomorphism between the two rank-one
    summands.  Row a and column b go away, every other row r of d_m
    becomes r - (r_b / u) . row_a, d_(m-1) loses column a and d_(m+1)
    loses row b.  The result is filtered homotopy equivalent to c, so it
    stays V-strict and has the same gr.  Pivots are taken in (degree,
    row, column) order; a cancellation in d_m only deletes entries of its
    neighbours, so one pass over the degrees finds every pivot.
    """
    if not c.is_free():
        raise InvalidInputError("minimize_complex needs a free complex")
    n = c.n
    one = (0,) * (2 * n)
    shifts = [list(m.shift_or_zero()) for m in c.modules]
    mats = [[list(row.components) for row in d.rows] for d in c.differentials]
    cancelled = 0
    for m, rows in enumerate(mats):
        while True:
            pivot = _unit_pivot(rows, shifts[m], shifts[m + 1], one)
            if pivot is None:
                break
            a, b = pivot
            row_a = rows.pop(a)
            inv = Fraction(1, row_a[b].constant_coefficient())
            for r, row in enumerate(rows):
                if row[b]:
                    f = row[b].scale(inv)
                    row = [x - weyl_mul(f, y) if y else x
                           for x, y in zip(row, row_a)]
                del row[b]
                rows[r] = row
            if m > 0:
                for row in mats[m - 1]:
                    del row[a]
            if m + 1 < len(mats):
                del mats[m + 1][b]
            del shifts[m][a], shifts[m + 1][b]
            cancelled += 1
    modules = [DModPresentation.free(n, len(s), s) for s in shifts]
    diffs = [OperatorMatrix(n, len(s), [ModuleElement(n, row) for row in rows])
             for s, rows in zip(shifts[1:], mats)]
    log.debug("minimize: ranks %s -> %s, %d cancellations",
              [mod.rank for mod in c.modules], [len(s) for s in shifts], cancelled)
    return ChainComplexPres(n, c.lo, modules, diffs)

