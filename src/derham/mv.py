"""Mayer-Vietoris and Cech complexes of localizations.

MV(F) places the direct sum of the R_(f_I) over the size-(i+1) subsets I
in degree i, with signed natural localization maps; C(G) is the tensor
product of the two-step complexes R -> R_g; their degreewise tensor
product computes cohomology with support.  One construction builds all
three: MV(F) is the s = 0 case of MV(F) tensor C(G), because C of the
empty family is R, and C(G) is the F = {1} case, because the block of the
constant 1 is R.  All natural maps are polynomial multipliers thanks to
the family-wide generator exponent, and both well-definedness and the
chain property are verified by Groebner membership.
"""

from __future__ import annotations

import itertools
import logging
from typing import Sequence

from .errors import InconsistencyError, InvalidInputError
from .groebner import ModuleElement, OperatorMatrix, SubmoduleSolver
from .localization import LocalizationFamily
from .presentations import ChainComplexPres, DModPresentation
from .weyl import FiltrationSpec, WeylElement

log = logging.getLogger("derham.mv")


def _direct_sum(n: int, blocks: Sequence[DModPresentation]) -> DModPresentation:
    rank = sum(b.rank for b in blocks)
    rels = []
    offset = 0
    for b in blocks:
        for r in b.relations:
            comps = [WeylElement.zero(n)] * rank
            for j, c in enumerate(r.components):
                comps[offset + j] = c
            rels.append(ModuleElement(n, comps))
        offset += b.rank
    return DModPresentation(n, rank, rels)


def _assemble(n: int, layers: list, maps: dict,
              family: LocalizationFamily) -> ChainComplexPres:
    """layers: per degree, ordered list of block keys; maps: (src_key,
    dst_key) -> multiplier operator (signed)."""
    modules = []
    offsets = []
    for layer in layers:
        blocks = [family.modules[key].presentation for key in layer]
        modules.append(_direct_sum(n, blocks))
        off = {}
        total = 0
        for key, b in zip(layer, blocks):
            off[key] = total
            total += b.rank
        offsets.append(off)

    diffs = []
    for t in range(len(layers) - 1):
        src_layer, dst_layer = layers[t], layers[t + 1]
        tgt_rank = modules[t + 1].rank
        rows = []
        for key in src_layer:
            comps = [WeylElement.zero(n)] * tgt_rank
            for dst in dst_layer:
                mult = maps.get((key, dst))
                if mult is not None:
                    comps[offsets[t + 1][dst]] = mult
            rows.append(ModuleElement(n, comps))
        diffs.append(OperatorMatrix(n, tgt_rank, rows))

    cplx = ChainComplexPres(n, 0, modules, diffs)
    _verify_natural_maps(family, maps)
    cplx.check_chain()
    return cplx


def _verify_natural_maps(family: LocalizationFamily, maps: dict):
    """Each source relation must land in the target relations.

    The maps are grouped by target presentation, which equal products
    share, and one solver over each target's relations checks its group."""
    by_target = {}
    for (src, dst), mult in maps.items():
        by_target.setdefault(family.modules[dst].presentation, []).extend(
            (src, dst, ModuleElement(family.n, [rel.components[0] * mult]))
            for rel in family.modules[src].presentation.relations)
    spec = FiltrationSpec(family.n)
    for target, images in by_target.items():
        if not (target.rank and images):
            continue
        solver = SubmoduleSolver(spec, target.rank, target.relations,
                                 target.shift_or_zero())
        for src, dst, img in images:
            if not solver.contains(img):
                raise InconsistencyError(
                    f"natural localization map {src} -> {dst} is not well defined")


def _index_pairs(r: int, s: int):
    """The (I, J) of the blocks R_(f_I g_J): I a nonempty subset of 0..r-1,
    J a subset of r..r+s-1."""
    for isize in range(1, r + 1):
        for jsize in range(0, s + 1):
            for I in itertools.combinations(range(r), isize):
                for J in itertools.combinations(range(r, r + s), jsize):
                    yield I, J


def mv_tensor_cech(family: LocalizationFamily, r: int, s: int) -> ChainComplexPres:
    """Total complex of MV(F) tensor C(G): blocks R_(f_I g_J) in total
    degree (|I| - 1) + |J|, Cech maps signed by the Mayer-Vietoris degree.

    The family holds F on factor indices 0..r-1 and G on r..r+s-1; s = 0
    gives MV(F) itself.
    """
    if r < 1 or s < 0:
        raise InvalidInputError("Mayer-Vietoris complex needs at least one polynomial")
    blocks = [[] for _ in range(r + s)]    # (I, J) per total degree
    for I, J in _index_pairs(r, s):
        blocks[(len(I) - 1) + len(J)].append((I, J))
    layers = []
    maps = {}
    for layer in blocks:
        layer.sort()
        layers.append([I + J for I, J in layer])
        for I, J in layer:
            key = I + J
            for i in range(r):
                if i in I:
                    continue
                dst = tuple(sorted(key + (i,)))
                sign = (-1) ** sum(1 for q in I if q > i)
                maps[(key, dst)] = family.multiplier(key, dst).scale(sign)
            for j in range(r, r + s):
                if j in J:
                    continue
                dst = tuple(sorted(key + (j,)))
                sign = (-1) ** ((len(I) - 1) + sum(1 for q in J if q < j))
                maps[(key, dst)] = family.multiplier(key, dst).scale(sign)
    return _assemble(family.n, layers, maps, family)


def mv_complex(family: LocalizationFamily, r: int) -> ChainComplexPres:
    """MV^i = direct sum of R_(f_I) over |I| = i+1, for 0 <= i <= r-1."""
    return mv_tensor_cech(family, r, 0)


def family_for_support(n: int, polys: Sequence[WeylElement],
                       support_polys: Sequence[WeylElement],
                       overrides=None) -> LocalizationFamily:
    index_sets = [I + J for I, J in _index_pairs(len(polys), len(support_polys))]
    return LocalizationFamily(n, list(polys) + list(support_polys), index_sets,
                              overrides)


def family_for_mv(n: int, polys: Sequence[WeylElement],
                  overrides=None) -> LocalizationFamily:
    return family_for_support(n, polys, [], overrides)
