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
from .groebner import DegreeOrderBasis, ModuleElement, OperatorMatrix, SubmoduleSolver
from .weyl import FiltrationSpec, WeylElement, format_operator

log = logging.getLogger("derham.presentations")


class DModPresentation:
    """D_n^rank / <relations>, with an optional shift vector."""

    __slots__ = ("n", "rank", "relations", "shift")

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

    def is_free(self) -> bool:
        return not self.relations

    def __repr__(self):
        return f"DModPresentation(n={self.n}, rank={self.rank}, #rel={len(self.relations)})"


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
        """delta o delta = 0, by membership of composite rows in relations;
        one degree-order basis per target module, built at its first
        nonzero row: membership needs no V-order, cofactors or
        h-saturation."""
        for k in range(self.lo, self.hi - 1):
            comp = self.differential(k).compose(self.differential(k + 1))
            tgt = self.module(k + 2)
            basis = None
            for i, row in enumerate(comp.rows):
                if row.is_zero():
                    continue
                if basis is None:
                    basis = DegreeOrderBasis(self.n, tgt.rank, tgt.relations)
                if not basis.contains(row):
                    raise InconsistencyError(
                        f"composite differential nonzero at degree {k}, row {i}")

    def is_free(self) -> bool:
        return all(m.is_free() for m in self.modules)

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


# ---------------------------------------------------------------------------
# cycle generators
# ---------------------------------------------------------------------------

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


def cycle_generators(c: ChainComplexPres, k: int):
    """Generators of the preimage in the cover of ker(C^k -> C^k+1), and
    the solver that found them.

    These are vectors v in D^rank(k) with v . d_k inside the relations of
    C^k+1; they include the relations of C^k when d_k is defined on C^k,
    which strictify's phase one relies on and checks.  The solver is over
    the rows of d_k followed by the relations of C^k+1, under the shift
    of C^k+1.  Past the top the generators are the unit vectors and the
    solver is None; so it is when there are no rows to solve.
    """
    mod = c.module(k)
    dmat = c.differential(k)
    if dmat is None or dmat.target_rank == 0:
        return [ModuleElement.unit(c.n, mod.rank, i) for i in range(mod.rank)], None
    tgt = c.module(k + 1)
    gens = list(dmat.rows) + list(tgt.relations)
    if not gens:
        return [], None
    solver = SubmoduleSolver(FiltrationSpec(c.n), tgt.rank, gens, tgt.shift_or_zero())
    return _heads(solver.syzygy_basis, mod.rank), solver
