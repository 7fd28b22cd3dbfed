"""Replacing a bounded complex by a quasi-isomorphic V-strict free complex.

The construction runs in two phases.  Phase one walks the complex from the
top degree down, rewriting each C^i over the direct sum of covers of the
boundary, homology and next-boundary modules and choosing shift vectors so
that the short exact sequences of relation submodules become V-strict.
Both quotient maps of a spot, Z~ -> H and C^i -> B_next, are identities
on generators, so each generator lifts to its own unit vector and no
solver is needed to lift it; one solver gives both the H-basis and the
pairs of its entries, and each spot ends as one record that phase two
reads.  Phase two walks back up, building compatible free covers level
by level with the horseshoe lemma (Weibel, An Introduction to Homological
Algebra, Lemma 2.2.8): each level's cover of the cycle column is (B-cover)
+ (H-cover) and the full column is that plus the next boundary cover.
Both short exact sequences of a level, 0 -> B -> Z -> H -> 0 and 0 -> Z ->
C -> B_next -> 0, are blocks: in each 0 -> A -> M -> Q -> 0, A sits in the
leading components of M, Q in the trailing ones, and the projection M -> Q
keeps the trailing components.  The Q-cover is a V-adapted basis of Q and
the M-cover is the A-cover followed by one lift of each Q-basis entry, of
M-degree at most its Q-degree: phase one's pairs at level one, and (-t |
s) below, for s a syzygy of the Q-basis and t a V-minimal witness of the
A-part of the combination s of the lifts above.  The total complex of the
resulting double complex is V-strict and quasi-isomorphic to the input;
the comparison map reads off the level-zero block.

A strictify_complex call builds one solver per cache key: every solver
comes from one SolverCache that the call creates, passes down through
both phases and drops when it returns.  Its key is (n, rank, generators
in order, ambient shift, cofactor shift), with a missing ambient shift
read as zero and a missing cofactor shift as the obvious shift of the
generators, so a basis, a syzygy module and a cofactor query over the
same generating list share one Groebner computation; the same submodule
under another generator order or cofactor shift is solved again.  Each
loop asks its solver for every target, and a loop whose targets are all
zero asks for none.  Phase two takes the boundary, homology and
next-boundary bases of each spot, and their lifts, from phase one.  Its
only fresh builds are the syzygies of each Q-basis and the witness solver
over each Z-cover; the witness solver over a boundary cover is the one
that resolved it.  Nothing resolves an M-cover, and nothing needs to.

minimize_complex then shrinks the total complex: it cancels every
constant entry between generators of equal shift, which keeps the complex
V-strict and its b-function, and leaves strictify_complex's own output
as it is.
"""

from __future__ import annotations

import logging

from .errors import InconsistencyError, InternalError, InvalidInputError
from .groebner import (ModuleElement, OperatorMatrix, SolverCache,
                       SubmoduleSolver, obvious_shift)
from .presentations import (ChainComplexPres, DModPresentation, _heads,
                            cycle_generators)
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


class ResolutionStep:
    """One step 0 -> K -> P[shift] -> M -> 0; the rows map the generators
    of P onto generators of M inside its ambient free module, and kernel
    is a V-adapted basis of K, or None where nothing reads it."""

    __slots__ = ("shift", "rows", "kernel")

    def __init__(self, shift, rows, kernel):
        self.shift = tuple(shift)
        self.rows = list(rows)
        self.kernel = kernel

    @property
    def rank(self):
        return len(self.rows)


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
# free covers of strict sequences of submodules
# ---------------------------------------------------------------------------

def free_cover_ses(cover_a: ResolutionStep, lifts, shift_b, basis_c, shift_c,
                   solvers: SolverCache):
    """One level of the horseshoe lemma over a strict SES 0 -> A -> B -> C
    -> 0 of submodules; returns (cover_b, cover_c, next_lifts).

    The maps are blocks: B lies in D^(a+c) under shift_b, A in its leading
    a = len(shift_b) - len(shift_c) components, and B -> C keeps the
    trailing c components.  basis_c must already be a V-adapted basis of C
    under shift_c, and lifts[j] an element of B that projects onto
    basis_c[j] with B-degree at most its C-degree.  The C-cover is basis_c
    itself, and the B-cover the A-cover followed by the lifts; the latter
    has no kernel (None), since nothing reads it.

    next_lifts are the lifts one level down: for s in the kernel of the
    C-cover, sum s_j lifts[j] has no C-part, so it lies in A, and a
    V-minimal witness t over the A-cover gives the lift (-t | s) in the
    kernel of the B-cover.  The witness solver has the key of the A-cover's
    own resolution, so a resolved A-cover costs a cache hit; none is built
    for an empty A-cover or for zero targets.
    """
    n = solvers.spec.n
    rank_b, rank_c = len(shift_b), len(shift_c)
    a = rank_b - rank_c
    c_shift = obvious_shift(basis_c, shift_c)
    for lift, need in zip(lifts, c_shift):
        got = lift.v_degree(shift_b)
        if got != NEG_INF and got > need:
            raise InternalError(
                "lift of the required V-degree not found; the input sequence "
                "is not V-strict")
    kernel_c = solvers.syzygies(rank_c, basis_c, shift_c, c_shift)
    cover_c = ResolutionStep(c_shift, basis_c, kernel_c)
    b_rows = [_embed(r, rank_b, 0, n) for r in cover_a.rows] + lifts
    cover_b = ResolutionStep(cover_a.shift + c_shift, b_rows, None)

    combine = OperatorMatrix(n, rank_b, lifts)
    targets = [ModuleElement(n, combine.apply(s).components[:a]) for s in kernel_c]
    solver = solvers.get(a, cover_a.rows, shift_b[:a], cover_a.shift) \
        if cover_a.rows and any(not t.is_zero() for t in targets) else None
    next_lifts = []
    for s, t in zip(kernel_c, targets):
        if t.is_zero():
            w = ModuleElement.zero(n, cover_a.rank)
        else:
            w = solver.min_degree_witness(t) if solver is not None else None
            if w is None:
                raise InconsistencyError(
                    "horseshoe lift: the target lies outside the A-cover")
        next_lifts.append(ModuleElement(n, (-w).components + s.components))
    return cover_b, cover_c, next_lifts


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
    normal form of any particular preimage against the syzygies of the
    rows realizes the minimal degree, so the check is a decision, not a
    search.
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
        solver = SubmoduleSolver(FiltrationSpec(c.n), dmat.target_rank,
                                 list(dmat.rows), ambient_shift=tgt_shift,
                                 cofactor_shift=src_shift)
        for g in solver.basis:
            j = g.v_degree(tgt_shift)
            if j == NEG_INF:
                continue
            j = int(j)
            checked += 1
            w = solver.min_degree_witness(g)
            if w is None:
                raise InternalError("image basis element without preimage")
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
    solvers = SolverCache(FiltrationSpec(n))
    gens_c = list(ses.b_to_c.rows) + list(ses.c.relations)
    solver = solvers.get(ses.c.rank, gens_c, sc,
                         tuple(sb) + obvious_shift(ses.c.relations, sc))
    for j in range(ses.c.rank):
        w = solver.min_degree_witness(ModuleElement.unit(n, ses.c.rank, j))
        if w is None:
            return False
        wd = w.v_degree(solver.cofactor_shift)
        if wd != NEG_INF and wd > sc[j]:
            return False
    # strictness at A: kernel generators of B -> C lift at their degree
    ker_heads = _heads(solvers.syzygies(ses.c.rank, gens_c, sc), ses.b.rank)
    asolver = solvers.get(ses.b.rank, list(ses.a_to_b.rows) + list(ses.b.relations),
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
    the covers of Z~ and of C^i, and the realization rows of the cover
    generators in C^i."""

    __slots__ = ("ranks", "shift_b", "shift_h", "shift_bn", "basis_h", "basis_bn",
                 "lifts_h", "lifts_bn", "realization")

    def __init__(self, ranks, shift_b, shift_h, shift_bn, basis_h, basis_bn,
                 lifts_h, lifts_bn, realization):
        self.ranks = ranks            # (boundary, homology, next-boundary)
        self.shift_b, self.shift_h, self.shift_bn = shift_b, shift_h, shift_bn
        self.basis_h, self.basis_bn = basis_h, basis_bn
        self.lifts_h, self.lifts_bn = lifts_h, lifts_bn
        self.realization = realization


def _phase_one(c: ChainComplexPres, solvers: SolverCache):
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
    itself.  The shifts follow a four-step recipe: bound the H-shifts
    against a basis of the B_next-relations through paired lifts, then
    bound the B-shifts against bases of both the H-relations and the
    B_next-relations.  The B_next-shift is the B-shift of the spot above.
    One solver over the boundary rows and the cycle relations, under the
    H-shift, gives the H-basis and its pairs.  The paired lifts of the two
    bases are phase two's lifts at level one.
    """
    n = c.n
    ztilde = {k: cycle_generators(c, k, solvers) for k in c.degrees()}
    spots = {}
    shift_bn = ()
    for i in range(c.hi, c.lo - 1, -1):
        orig = c.module(i)
        rank, shift_c, rels_c = orig.rank, orig.shift_or_zero(), list(orig.relations)
        zgens = ztilde[i]
        p = len(zgens)
        prev = c.differential(i - 1)
        rank_b = prev.source_rank if prev is not None else 0
        rank_bn = rank if i < c.hi else 0
        rels_bn = zgens if rank_bn else []

        # presentation of the cycles on zgens, and the boundary map into it,
        # both from one solver over the cycle generators
        gens_z = zgens + rels_c
        rows_b = list(prev.rows) if prev is not None else []
        zsolver = solvers.get(rank, gens_z, shift_c) \
            if gens_z or any(not r.is_zero() for r in rows_b) else None
        rels_z = _heads(zsolver.syzygy_basis, p) if zsolver is not None else []
        rows_bz = _cofactor_heads(zsolver, rows_b, p, "boundary row is not a cycle")
        rels_h = rels_z + [r for r in rows_bz if not r.is_zero()]

        # each H- and B_next-generator lifts to its own unit vector: P_B + P_H
        # covers Z~ by rows_bz and the units, and P_B + P_H + P_Bnext covers
        # C^i by their images and the first rank_bn units of D^rank
        into_c = OperatorMatrix(n, rank, zgens)
        qz_in_c = [into_c.apply(r) for r in rows_bz] + zgens
        realization = qz_in_c + [ModuleElement.unit(n, rank, j) for j in range(rank_bn)]

        # step 1: basis of the B_next-relations and paired lifts (b', h')
        basis_bn = solvers.basis(rank_bn, rels_bn, shift_bn)
        targets = [-r for r in basis_bn]
        solver = solvers.get(rank, qz_in_c + rels_c, shift_c) \
            if any(not t.is_zero() for t in targets) else None
        pairs_bn = list(zip(basis_bn, _cofactor_heads(
            solver, targets, rank_b + p,
            "pairing a B_next-relation into the middle kernel")))

        # step 2: H-shifts from the paired lifts
        shift_h = _bound_shifts(p, [(w.components[rank_b:], r.v_degree(shift_bn))
                                    for r, w in pairs_bn])

        # step 3: basis of the H-relations and paired lifts b, from one
        # solver: its generators start with the boundary rows
        solver = solvers.get(p, rows_bz + rels_z, shift_h) if p and rels_h else None
        basis_h = solver.basis if solver is not None else []
        pairs_h = list(zip(basis_h, _cofactor_heads(
            solver, [-r for r in basis_h], rank_b,
            "pairing an H-relation into the Z~ kernel")))

        # step 4: B-shifts from both families
        constraints = [(w.components[:rank_b], r.v_degree(shift_bn))
                       for r, w in pairs_bn]
        constraints += [(w.components, r.v_degree(shift_h)) for r, w in pairs_h]
        shift_b = _bound_shifts(rank_b, constraints)

        # each pair (r, w) concatenates to a relation (w | r) of the cover,
        # which step 4 keeps at or below r's own degree
        lifts_h = [ModuleElement(n, w.components + r.components) for r, w in pairs_h]
        lifts_bn = [ModuleElement(n, w.components + r.components) for r, w in pairs_bn]
        spots[i] = _PhaseOneSpot((rank_b, p, rank_bn), shift_b, shift_h, shift_bn,
                                 basis_h, basis_bn, lifts_h, lifts_bn, realization)
        shift_bn = shift_b
    return spots


def _phase_two(c: ChainComplexPres, solvers: SolverCache, phase1: dict, edge: int):
    """Builds compatible free resolutions spot by spot, level by level."""
    spots = {}
    res_b: list = []
    complete_all = True
    for i in range(c.lo, c.hi + 1):
        sp = phase1[i]
        shift0 = sp.shift_b + sp.shift_h + sp.shift_bn
        depth = i - edge

        # phase one passed this spot's B-shift down as the B_next-shift of
        # spot i - 1, so that spot's B_next-basis is the boundary basis here
        gb_ib = phase1[i - 1].basis_bn if i > c.lo else []

        # extend the carried boundary resolution to the needed depth
        while len(res_b) < depth:
            if not res_b:
                prev_rank, prev_shift, prev_kernel = sp.ranks[0], sp.shift_b, gb_ib
            else:
                st = res_b[-1]
                prev_rank, prev_shift, prev_kernel = st.rank, st.shift, st.kernel
            sh = obvious_shift(prev_kernel, prev_shift)
            ker = solvers.syzygies(prev_rank, prev_kernel, prev_shift, sh)
            res_b.append(ResolutionStep(sh, prev_kernel, ker))

        levels = [_LevelData(sp.ranks, shift0, None)]
        kb, kh, kbn = gb_ib, sp.basis_h, sp.basis_bn
        lifts_h, lifts_bn = sp.lifts_h, sp.lifts_bn
        prb, prh, prbn = sp.ranks
        psh = shift0
        res_bnext = []
        complete = False
        for k in range(1, depth + 1):
            # by the snake lemma the Z- and C-columns are resolved once the
            # B-, H- and B_next-columns are
            if not (kb or kh or kbn):
                complete = True
                break
            d_step = res_b[k - 1]
            # 0 -> B -> Z -> H -> 0, then 0 -> Z -> C -> B_next -> 0: the
            # Z-cover P_B + P_H built over the first is the A-side cover of
            # the second.  kh and kbn are bases under the slices of psh
            # passed with them: basis_h and basis_bn from phase one at k = 1,
            # and after that the previous level's kernels, syzygy bases under
            # the matching slices of psh = cover_c.shift.  Phase one lifted
            # them at k = 1, and each free_cover_ses call lifts the next.
            cover_z, cover_h, lifts_h = free_cover_ses(
                d_step, lifts_h, psh[:prb + prh], kh, psh[prb:prb + prh], solvers)
            cover_c, cover_bn, lifts_bn = free_cover_ses(
                cover_z, lifts_bn, psh, kbn, psh[prb + prh:], solvers)
            ranks_k = (d_step.rank, cover_h.rank, cover_bn.rank)
            _assert_triangular(cover_c.rows, ranks_k, (prb, prh, prbn))
            levels.append(_LevelData(ranks_k, cover_c.shift, cover_c.rows))
            res_bnext.append(cover_bn)
            kb, kh, kbn = d_step.kernel, cover_h.kernel, cover_bn.kernel
            prb, prh, prbn = ranks_k
            psh = cover_c.shift
        else:
            complete = not (kb or kh or kbn)
        complete_all = complete_all and complete
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
    solvers = SolverCache(FiltrationSpec(n))
    phase1 = _phase_one(c, solvers)
    spots, complete = _phase_two(c, solvers, phase1, edge)
    log.debug("strictify: %d solver builds, %d cache hits",
              solvers.builds, solvers.hits)
    log.debug("strictify: %d S-pairs reduced, %d skipped by the chain criterion",
              solvers.spairs_reduced, solvers.spairs_skipped)

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
    for m in range(edge, c.hi):
        tgt_rank = modules[m + 1 - edge].rank
        rows = []
        for k, i in blocks[m]:
            lv = spots[i].levels[k]
            rb, rh, rbn = lv.ranks
            for g in range(lv.rank):
                row = ModuleElement.zero(n, tgt_rank)
                if k >= 1 and (k - 1, i) in offsets[m + 1]:
                    row = row + _embed(lv.vertical[g], tgt_rank,
                                       offsets[m + 1][(k - 1, i)], n)
                if g >= rb + rh and (k, i + 1) in offsets[m + 1]:
                    sign = (-1) ** k
                    unit = ModuleElement.unit(
                        n, tgt_rank, offsets[m + 1][(k, i + 1)] + (g - rb - rh))
                    row = row + unit.scale(sign)
                rows.append(row)
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
            inv = 1 / row_a[b].constant_coefficient()
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

