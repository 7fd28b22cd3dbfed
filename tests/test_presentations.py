from types import SimpleNamespace

import pytest

from conftest import cohomology_vanishes, relations_contain
from derham import (ChainComplexPres, DModPresentation, FiltrationSpec,
                    InconsistencyError, ModuleElement, OperatorMatrix,
                    SubmoduleSolver, WeylElement, family_for_mv, parse_operator,
                    parse_polynomial)
from derham.mv import _verify_natural_maps
from derham.presentations import cycle_generators


def me(n, *ops):
    return ModuleElement(n, [parse_operator(o, n) for o in ops])


def d_complex():
    """0 -> D1 -(d)-> D1 -> 0 in degrees 0, 1."""
    free = DModPresentation.free(1, 1, (0,))
    dmat = OperatorMatrix(1, 1, [me(1, "d1")])
    return ChainComplexPres(1, 0, [free, free], [dmat])


def test_zero_module_detection():
    # a presentation is zero when its relations contain every generator
    def is_zero(pres):
        return relations_contain(pres, [ModuleElement.unit(1, pres.rank, i)
                                        for i in range(pres.rank)])

    assert is_zero(DModPresentation.cyclic(1, [parse_operator("x1", 1),
                                               parse_operator("d1", 1)]))
    assert not is_zero(DModPresentation.cyclic(1, [parse_operator("d1", 1)]))
    assert is_zero(DModPresentation.zero(1))


def test_map_well_defined_check():
    # the natural maps of a localization family: multiplication by x from
    # D/<d> to D/<d^2> is not well defined, multiplication by d is
    family = SimpleNamespace(n=1, modules={
        0: SimpleNamespace(presentation=DModPresentation.cyclic(
            1, [parse_operator("d1", 1)])),
        1: SimpleNamespace(presentation=DModPresentation.cyclic(
            1, [parse_operator("d1^2", 1)]))})
    with pytest.raises(InconsistencyError, match="not well defined"):
        _verify_natural_maps(family, {(0, 1): parse_operator("x1", 1)})
    _verify_natural_maps(family, {(0, 1): parse_operator("d1", 1)})


def test_wrong_natural_map_between_localizations_is_inconsistent():
    # R_x -> R_(x(x-1)) takes 1/x to (x - 1)/(x(x - 1)); the multiplier 1
    # sends x d + 1 outside the target relations, which the term order
    # decides once the homogenized reductions leave it open
    family = family_for_mv(1, [parse_polynomial("x1", 1),
                               parse_polynomial("x1 - 1", 1)])
    with pytest.raises(InconsistencyError, match="not well defined"):
        _verify_natural_maps(family, {((0,), (0, 1)): WeylElement.one(1)})
    _verify_natural_maps(family, {((0,), (0, 1)): parse_operator("x1 - 1", 1)})


def test_chain_check():
    free = DModPresentation.free(1, 1, (0,))
    good = ChainComplexPres(1, 0, [free, free, free],
                            [OperatorMatrix(1, 1, [me(1, "d1")]),
                             OperatorMatrix(1, 1, [ModuleElement.zero(1, 1)])])
    good.check_chain()
    bad = ChainComplexPres(1, 0, [free, free, free],
                           [OperatorMatrix(1, 1, [me(1, "d1")]),
                            OperatorMatrix(1, 1, [me(1, "x1")])])
    with pytest.raises(InconsistencyError):
        bad.check_chain()


def test_chain_check_reduces_modulo_the_target_relations():
    # D -d1-> D -x1-> D/(rel): the composite d1 x1 = x1 d1 + 1 is nonzero,
    # so the check decides membership in the target relations
    free = DModPresentation.free(1, 1, (0,))
    maps = [OperatorMatrix(1, 1, [me(1, "d1")]), OperatorMatrix(1, 1, [me(1, "x1")])]
    target = DModPresentation.cyclic(1, [parse_operator("x1*d1 + 1", 1)], (0,))
    ChainComplexPres(1, 0, [free, free, target], maps).check_chain()
    target = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)], (0,))
    with pytest.raises(InconsistencyError, match="nonzero at degree 0, row 0"):
        ChainComplexPres(1, 0, [free, free, target], maps).check_chain()


def test_cohomology_cokernel():
    # H^1 = D/<d> = C[x]: the top degree is all cycles, and 1 is no boundary
    c = d_complex()
    # the top degree: the unit vectors, found by no solver
    assert cycle_generators(c, 1) == ([me(1, "1")], None)
    assert not cohomology_vanishes(c, 1)


def test_cohomology_kernel_vanishes():
    c = d_complex()
    cycles, solver = cycle_generators(c, 0)
    assert cycles == [] and solver.gens == [me(1, "d1")]
    assert cohomology_vanishes(c, 0)


def test_cohomology_zero_differential():
    pres = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)])
    zmat = OperatorMatrix(1, 1, [ModuleElement.zero(1, 1)])
    c = ChainComplexPres(1, 0, [pres, pres], [zmat])
    for k in (0, 1):
        assert not cohomology_vanishes(c, k)


def test_cohomology_degree_bounds():
    # outside [lo, hi] a complex reads as zero modules and no differential
    c = d_complex()
    assert c.module(5).rank == 0 and c.differential(5) is None
    assert c.differential(1) is None and c.differential(-1) is None
    assert cycle_generators(c, 5) == ([], None)
    assert cohomology_vanishes(c, 5)


def test_boundary_map_lands_in_cycles():
    c = d_complex()
    cycles, _ = cycle_generators(c, 1)
    solver = SubmoduleSolver(FiltrationSpec(1), 1, cycles)
    assert all(solver.contains(row) for row in c.differential(0).rows)
