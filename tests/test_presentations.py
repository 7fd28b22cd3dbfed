import pytest

from derham import (ChainComplexPres, DModPresentation, FiltrationSpec,
                    InconsistencyError, InvalidInputError, ModuleElement,
                    OperatorMatrix, SubmoduleSolver, parse_operator)
from derham.presentations import DModMap, cohomology_presentation


def me(n, *ops):
    return ModuleElement(n, [parse_operator(o, n) for o in ops])


def d_complex():
    """0 -> D1 -(d)-> D1 -> 0 in degrees 0, 1."""
    free = DModPresentation.free(1, 1, (0,))
    dmat = OperatorMatrix(1, 1, [me(1, "d1")])
    return ChainComplexPres(1, 0, [free, free], [dmat])


def test_zero_module_detection():
    assert DModPresentation.cyclic(1, [parse_operator("x1", 1),
                                       parse_operator("d1", 1)]).is_zero_module()
    assert not DModPresentation.cyclic(1, [parse_operator("d1", 1)]).is_zero_module()
    assert DModPresentation.zero(1).is_zero_module()


def test_map_well_defined_check():
    # multiplication by x: D/<d> -> D/<d^2> is not well defined
    src = DModPresentation.cyclic(1, [parse_operator("d1", 1)])
    tgt = DModPresentation.cyclic(1, [parse_operator("d1^2", 1)])
    bad = DModMap(src, tgt, OperatorMatrix(1, 1, [me(1, "x1")]))
    with pytest.raises(InconsistencyError):
        bad.check_well_defined()
    # multiplication by d is fine
    DModMap(src, tgt, OperatorMatrix(1, 1, [me(1, "d1")]), check=True)


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


def test_cohomology_cokernel():
    c = d_complex()
    h1 = cohomology_presentation(c, 1)
    # H^1 = D/<d> = C[x]: nonzero, killed by multiplication with d
    assert not h1.homology.is_zero_module()
    rel_ops = [r for r in h1.homology.relations]
    solver = SubmoduleSolver(FiltrationSpec(1), h1.homology.rank, rel_ops,
                             ambient_shift=h1.homology.shift_or_zero())
    assert solver.contains(ModuleElement(1, [parse_operator("d1", 1)]))


def test_cohomology_kernel_vanishes():
    c = d_complex()
    h0 = cohomology_presentation(c, 0)
    assert h0.homology.is_zero_module()


def test_cohomology_zero_differential():
    pres = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)])
    zmat = OperatorMatrix(1, 1, [ModuleElement.zero(1, 1)])
    c = ChainComplexPres(1, 0, [pres, pres], [zmat])
    for k in (0, 1):
        h = cohomology_presentation(c, k)
        assert not h.homology.is_zero_module()


def test_cohomology_degree_bounds():
    with pytest.raises(InvalidInputError):
        cohomology_presentation(d_complex(), 5)


def test_boundary_map_lands_in_cycles():
    c = d_complex()
    h1 = cohomology_presentation(c, 1)
    assert h1.map_b_to_z.source_rank == len(h1.boundaries)
    assert h1.map_z_to_h.source_rank == len(h1.cycles)


def test_json_round_trip():
    c = d_complex()
    data = c.to_json()
    back = ChainComplexPres.from_json(data)
    assert back.lo == c.lo and back.hi == c.hi
    assert [m.rank for m in back.modules] == [m.rank for m in c.modules]
    assert back.differentials[0].rows[0] == c.differentials[0].rows[0]
    assert back.to_json() == data
