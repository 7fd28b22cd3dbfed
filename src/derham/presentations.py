"""Finitely presented left D_n-modules and bounded complexes of them.

A presentation is D_n^rank modulo the submodule generated by its relation
vectors.  Complexes carry one differential matrix per degree; the chain
property is checked by Groebner membership of every composite row in the
target relations.
"""

from __future__ import annotations

import logging
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InconsistencyError, InvalidInputError
from .groebner import (ModuleElement, OperatorMatrix, SolverCache, SubmoduleSolver,
                       obvious_shift)
from .parsing import parse_operator
from .weyl import FiltrationSpec, WeylElement, format_operator

log = logging.getLogger("derham.presentations")


class DModPresentation:
    """D_n^rank / <relations>, with an optional shift vector."""

    __slots__ = ("n", "rank", "relations", "shift", "_solver")

    def __init__(self, n: int, rank: int, relations: Sequence[ModuleElement] = (),
                 shift=None):
        self.n = n
        self.rank = rank
        rels = []
        for r in relations:
            if r.rank != rank:
                raise DimensionMismatchError("relation rank != presentation rank")
            if not r.is_zero():
                rels.append(r)
        self.relations = tuple(rels)
        self.shift = None if shift is None else tuple(shift)
        if self.shift is not None and len(self.shift) != rank:
            raise InvalidInputError("shift length != rank")
        self._solver = None

    @classmethod
    def free(cls, n: int, rank: int, shift=None) -> "DModPresentation":
        return cls(n, rank, (), shift)

    @classmethod
    def cyclic(cls, n: int, operators: Sequence[WeylElement], shift=None) -> "DModPresentation":
        rels = [ModuleElement(n, [op]) for op in operators]
        return cls(n, 1, rels, shift)

    @classmethod
    def zero(cls, n: int) -> "DModPresentation":
        return cls(n, 0, (), ())

    def shift_or_zero(self):
        return self.shift if self.shift is not None else (0,) * self.rank

    def solver(self) -> SubmoduleSolver:
        """Cached Groebner data for the relation submodule."""
        if self._solver is None:
            self._solver = SubmoduleSolver(FiltrationSpec(self.n), self.rank,
                                           list(self.relations),
                                           ambient_shift=self.shift_or_zero())
        return self._solver

    def contains_relation(self, e: ModuleElement) -> bool:
        if self.rank == 0:
            return True
        return self.solver().contains(e)

    def is_zero_module(self) -> bool:
        """True when the relations generate everything (decidable by GB)."""
        return all(self.contains_relation(ModuleElement.unit(self.n, self.rank, i))
                   for i in range(self.rank))

    def is_free(self) -> bool:
        return not self.relations

    def __repr__(self):
        return f"DModPresentation(n={self.n}, rank={self.rank}, #rel={len(self.relations)})"


class DModMap:
    """A map of presented modules given by a matrix on the free covers."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: DModPresentation, target: DModPresentation,
                 matrix: OperatorMatrix, check: bool = False):
        if matrix.source_rank != source.rank or matrix.target_rank != target.rank:
            raise DimensionMismatchError("matrix shape does not fit the presentations")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            self.check_well_defined()

    def check_well_defined(self):
        for rel in self.source.relations:
            img = self.matrix.apply(rel)
            if not img.is_zero() and not self.target.contains_relation(img):
                raise InconsistencyError(
                    "map is not well defined: a source relation does not land "
                    "in the target relations")

    def compose(self, other: "DModMap") -> "DModMap":
        return DModMap(self.source, other.target, self.matrix.compose(other.matrix))


class ChainComplexPres:
    """A bounded complex of presented modules, degrees lo..hi.

    differentials[k] maps modules[k] to modules[k+1].
    """

    __slots__ = ("n", "lo", "modules", "differentials")

    def __init__(self, n: int, lo: int, modules: Sequence[DModPresentation],
                 differentials: Sequence[OperatorMatrix]):
        self.n = n
        self.lo = lo
        self.modules = tuple(modules)
        self.differentials = tuple(differentials)
        if len(self.differentials) != max(0, len(self.modules) - 1):
            raise InvalidInputError("need one differential per consecutive pair")
        for k, dmat in enumerate(self.differentials):
            if dmat.source_rank != self.modules[k].rank or \
                    dmat.target_rank != self.modules[k + 1].rank:
                raise DimensionMismatchError(f"differential {k} has wrong shape")

    @property
    def hi(self) -> int:
        return self.lo + len(self.modules) - 1

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def module(self, k: int) -> DModPresentation:
        if not self.lo <= k <= self.hi:
            return DModPresentation.zero(self.n)
        return self.modules[k - self.lo]

    def differential(self, k: int) -> Optional[OperatorMatrix]:
        """The map leaving degree k, or None outside the range."""
        if not self.lo <= k < self.hi:
            return None
        return self.differentials[k - self.lo]

    def check_chain(self):
        """delta о delta = 0, by membership of composite rows in relations."""
        for k in range(self.lo, self.hi - 1):
            d1 = self.differential(k)
            d2 = self.differential(k + 1)
            comp = d1.compose(d2)
            tgt = self.module(k + 2)
            for i, row in enumerate(comp.rows):
                if row.is_zero():
                    continue
                if not tgt.contains_relation(row):
                    raise InconsistencyError(
                        f"composite differential nonzero at degree {k}, row {i}")

    def is_free(self) -> bool:
        return all(m.is_free() for m in self.modules)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        def me_strings(v: ModuleElement):
            return [format_operator(c) for c in v.components]

        return {
            "schema": "derham.complex/1",
            "n": self.n,
            "lo": self.lo,
            "hi": self.hi,
            "modules": [
                {
                    "rank": m.rank,
                    "shift": list(m.shift) if m.shift is not None else None,
                    "relations": [me_strings(r) for r in m.relations],
                }
                for m in self.modules
            ],
            "differentials": [
                [me_strings(row) for row in dmat.rows]
                for dmat in self.differentials
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainComplexPres":
        n = data["n"]

        def me(rows, rank):
            return ModuleElement(n, [parse_operator(s, n) for s in rows]) \
                if rank else ModuleElement(n, [])

        modules = []
        for m in data["modules"]:
            rank = m["rank"]
            rels = [me(r, rank) for r in m.get("relations", [])]
            modules.append(DModPresentation(n, rank, rels, m.get("shift")))
        diffs = []
        for k, rows in enumerate(data.get("differentials", [])):
            tgt_rank = modules[k + 1].rank
            diffs.append(OperatorMatrix(n, tgt_rank, [me(r, tgt_rank) for r in rows]))
        return cls(n, data["lo"], modules, diffs)


# ---------------------------------------------------------------------------
# cohomology presentations and V-strict resolutions
# ---------------------------------------------------------------------------

class CohomologyData:
    """Kernel generators, boundary generators and a presentation of H^k."""

    __slots__ = ("cycles", "boundaries", "homology", "map_b_to_z", "map_z_to_h")

    def __init__(self, cycles, boundaries, homology, map_b_to_z, map_z_to_h):
        self.cycles = cycles
        self.boundaries = boundaries
        self.homology = homology
        self.map_b_to_z = map_b_to_z
        self.map_z_to_h = map_z_to_h


def _heads(vectors, count):
    """The nonzero truncations of vectors to their first `count` entries.

    Applied to syzygies of (new generators + old relations), these are the
    relations among the new generators.
    """
    out = []
    for v in vectors:
        head = ModuleElement(v.n, v.components[:count])
        if not head.is_zero():
            out.append(head)
    return out


def cycle_generators(c: ChainComplexPres, k: int, solvers: SolverCache):
    """Generators of the preimage in the cover of ker(C^k -> C^k+1).

    These are vectors v in D^rank(k) with v . d_k inside the relations of
    C^k+1; they include the relations of C^k.  The solver comes from
    `solvers`.
    """
    mod = c.module(k)
    dmat = c.differential(k)
    if dmat is None or dmat.target_rank == 0:
        return [ModuleElement.unit(c.n, mod.rank, i) for i in range(mod.rank)]
    tgt = c.module(k + 1)
    gens = list(dmat.rows) + list(tgt.relations)
    return _heads(solvers.syzygies(tgt.rank, gens, tgt.shift_or_zero()), mod.rank)


def cohomology_presentation(c: ChainComplexPres, k: int) -> CohomologyData:
    """Presentations of Z^k, B^k and H^k with the connecting maps."""
    if not c.lo <= k <= c.hi:
        raise InvalidInputError(f"degree {k} outside [{c.lo}, {c.hi}]")
    mod = c.module(k)
    n = c.n
    zgens = cycle_generators(c, k, SolverCache(FiltrationSpec(n)))

    prev = c.differential(k - 1)
    bgens = []
    if prev is not None:
        bgens = [row for row in prev.rows if not row.is_zero()]

    # relations of H^k on the Z-generators: syzygies of the z's modulo the
    # cover relations, plus the expression of every boundary generator
    zsolver = SubmoduleSolver(FiltrationSpec(n), mod.rank,
                              zgens + list(mod.relations),
                              ambient_shift=mod.shift_or_zero())
    relsH = _heads(zsolver.syzygy_basis, len(zgens))
    b_to_z_rows = []
    for idx, b in enumerate(bgens + list(mod.relations)):
        nf, cof = zsolver.normal_form_with_cofactor(b)
        if not nf.is_zero():
            raise InconsistencyError("boundary not contained in the cycles")
        head = ModuleElement(n, cof.components[:len(zgens)])
        if idx < len(bgens):
            b_to_z_rows.append(head)
        if not head.is_zero():
            relsH.append(head)

    hshift = obvious_shift(zgens, mod.shift_or_zero())
    homology = DModPresentation(n, len(zgens), relsH, hshift)
    map_b_to_z = OperatorMatrix(n, len(zgens), b_to_z_rows)
    map_z_to_h = OperatorMatrix.identity(n, len(zgens))
    return CohomologyData(zgens, bgens, homology, map_b_to_z, map_z_to_h)


def v_strict_resolution(pres: DModPresentation, m0: Sequence[int],
                        length: int) -> ChainComplexPres:
    """A V-strict free resolution of pres of the requested length.

    Each cover maps its generators onto a V-adapted basis of the previous
    kernel; shift vectors follow the obvious-shift rule.  The returned
    complex holds the free modules in degrees -length..0 (trailing zero
    modules are trimmed when the kernel vanishes early).
    """
    if length < 1:
        raise InvalidInputError("resolution length must be >= 1")
    n = pres.n
    spec = FiltrationSpec(n)
    m0 = tuple(m0)
    modules = [DModPresentation.free(n, pres.rank, m0)]
    diffs = []
    current = list(pres.relations)
    ambient_shift = m0
    for _ in range(length):
        if not current:
            break
        solver = SubmoduleSolver(spec, modules[0].rank, current,
                                 ambient_shift=ambient_shift)
        basis = solver.basis
        if not basis:
            break
        shifts = obvious_shift(basis, ambient_shift)
        modules.insert(0, DModPresentation.free(n, len(basis), shifts))
        diffs.insert(0, OperatorMatrix(n, modules[1].rank, basis))
        # kernel of the new cover map = syzygies of the basis
        ksolver = SubmoduleSolver(spec, modules[1].rank, basis,
                                  ambient_shift=ambient_shift,
                                  cofactor_shift=shifts)
        current = ksolver.syzygy_basis
        ambient_shift = shifts
    return ChainComplexPres(n, -len(diffs), modules, diffs)
