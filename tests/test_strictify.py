import hashlib
import json
import logging

import pytest

from derham import (ChainComplexPres, DModPresentation, FiltrationSpec,
                    InconsistencyError, ModuleElement, OperatorMatrix,
                    ProblemSpec, QuotientSES, ResolutionStep, SubmoduleSES,
                    SubmoduleSolver, WeylElement, cohomology_presentation,
                    compute_derham, compute_derham_support, family_for_mv,
                    format_operator, fourier_complex, free_cover_ses,
                    minimize_complex, mv_complex, parse_operator,
                    strictify_complex,
                    strictify_ses, strictify_two_ses, v_strict_complex,
                    verify_strict_ses, verify_v_strict)
from derham import pipeline

SPEC1 = FiltrationSpec.full(1)

# sha256 of the strict total complex, the double complex and the comparison
# maps of Fourier-transformed Mayer-Vietoris complexes, recorded before the
# solver sharing in strictify; any output change of strictify shows here
PINNED_STRICT = [
    (["x"], ["x"],
     "a3695c5f79151ec279399a72ebb09a2175f42687dda5dc57b02beb6bc0766fc7"),
    (["x", "y"], ["x*y"],
     "ff6c0ab739037bf3231f0e2d426932255e6238e7ba59458505039bbb1ed7281b"),
    (["x", "y"], ["x", "y"],
     "86cac5fce27070a1021ce632204d9875a58c4f726b8057b1aa18391ad1c78f87"),
    (["x", "y"], ["x*y*(x + y)"],
     "6f8ec9320880df741652fc532731ddb1703d1bf3382283c31953ebfca8e7034a"),
    (["x", "y", "z"], ["x", "y", "z"],
     "6c3b0e82675a6b5c28d129ad24b06693c2f23d60323cc94bea9d27f3f130955c"),
]

# sha256 of the JSON of minimize_complex on the total complexes above
PINNED_MINIMAL = [
    (["x"], ["x"],
     "63f8152bdf34c58ce60db241dd964d1f0f3947a3fc403426c3b80c090e3c77e7"),
    (["x", "y"], ["x*y"],
     "7e2557254325fba663fb3bd4e65622c620742a2e3cede40b4620df54dea0ec9b"),
    (["x", "y"], ["x", "y"],
     "e03e774dde63882a0f76774500fbb40ae251078f4bc8352f8c7f407881b7f0a3"),
    (["x", "y"], ["x*y*(x + y)"],
     "e73571dddcc1f7dc658efd0031e1e309c7e691f9276350dddd3bed08b33e2798"),
    (["x", "y", "z"], ["x", "y", "z"],
     "f378b8b41826e74e860f3813477be66ed4c2b193204932d99005f1de873b04b9"),
]


def me(n, *ops):
    return ModuleElement(n, [parse_operator(o, n) if isinstance(o, str) else o
                             for o in ops])


def quotient_ses_xd():
    """0 -> (class of x) -> D/(xd) -> quotient -> 0, annihilator computed."""
    from derham.groebner import SubmoduleSolver
    b = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)])
    gens = [me(1, "x1")] + list(b.relations)
    sol = SubmoduleSolver(SPEC1, 1, gens, ambient_shift=(0,))
    ann = [ModuleElement(1, s.components[:1]) for s in sol.syzygy_basis]
    ann = [a for a in ann if not a.is_zero()]
    a = DModPresentation(1, 1, ann)
    c = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1),
                                    parse_operator("x1", 1)], shift=(0,))
    a_to_b = OperatorMatrix(1, 1, [me(1, "x1")])
    b_to_c = OperatorMatrix.identity(1, 1)
    return QuotientSES(a, b, c, a_to_b, b_to_c)


def test_strictify_ses_degenerate_c_zero():
    a = DModPresentation.cyclic(1, [parse_operator("d1", 1)])
    b = DModPresentation.cyclic(1, [parse_operator("d1", 1)])
    c = DModPresentation.zero(1)
    ses = QuotientSES(a, b, c, OperatorMatrix.identity(1, 1),
                      OperatorMatrix.zero(1, 1, 0))
    wit = strictify_ses(ses, (), SPEC1)
    assert wit.middle.rank == a.rank
    assert wit.shift_b == wit.shift_a


def test_strictify_ses_degenerate_a_zero():
    b = DModPresentation.cyclic(1, [parse_operator("d1", 1)])
    ses = QuotientSES(DModPresentation.zero(1), b, b,
                      OperatorMatrix.zero(1, 0, 1), OperatorMatrix.identity(1, 1))
    wit = strictify_ses(ses, (4,), SPEC1)
    assert wit.middle.rank == 1
    assert wit.shift_b == (4,)


def test_strictify_ses_passes_checker():
    ses = quotient_ses_xd()
    wit = strictify_ses(ses, (0,), SPEC1)
    a_shifted = DModPresentation(1, ses.a.rank, ses.a.relations, wit.shift_a)
    rewritten = QuotientSES(a_shifted, wit.middle, ses.c, wit.incl, wit.proj)
    assert verify_strict_ses(rewritten, SPEC1)
    for ct, lift in wit.pairs:
        need = ct.v_degree(SPEC1, ses.c.shift_or_zero())
        got = lift.v_degree(SPEC1, wit.shift_a)
        assert got <= need


def test_strictify_ses_detects_non_exactness():
    # B -> C not surjective: C = D/(d^2), map = multiplication by d
    a = DModPresentation.zero(1)
    b = DModPresentation.cyclic(1, [parse_operator("d1", 1)])
    c = DModPresentation.cyclic(1, [parse_operator("d1^2", 1)], shift=(0,))
    ses = QuotientSES(a, b, c, OperatorMatrix.zero(1, 0, 1),
                      OperatorMatrix(1, 1, [me(1, "d1")]))
    with pytest.raises(InconsistencyError):
        strictify_ses(ses, (0,), SPEC1)


def test_strictify_two_ses_trivial_outer():
    mid = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)])
    zero = DModPresentation.zero(1)
    seq1 = QuotientSES(mid, mid, zero, OperatorMatrix.identity(1, 1),
                       OperatorMatrix.zero(1, 1, 0))
    seq2 = QuotientSES(zero, mid, mid, OperatorMatrix.zero(1, 0, 1),
                       OperatorMatrix.identity(1, 1))
    wit1, wit2 = strictify_two_ses(seq1, seq2, (), SPEC1)
    assert wit1.middle.rank == 1
    assert wit2.middle.rank == 1


def test_free_cover_ses_collapse():
    # A = 0: the diagram collapses to a free cover of B = C
    gens = [me(1, "x1*d1")]
    ses = SubmoduleSES(SPEC1, 1, (0,), [], 1, (0,), gens, 1, (0,), gens,
                       OperatorMatrix.identity(1, 1), OperatorMatrix.identity(1, 1))
    diag = free_cover_ses(ses, cover_a=ResolutionStep((), [], []))
    assert diag.cover_b.rank == diag.cover_c.rank == 1
    assert diag.cover_b.rows[0] == gens[0]


def test_free_cover_ses_small_instance():
    # B = <x, xd> inside D, C = image under identity mod x: exact strict row
    gens_a = [me(1, "x1")]
    gens_b = [me(1, "x1"), me(1, "x1*d1")]
    gens_c = [me(1, "x1*d1")]
    # use a direct-sum ambient: A -> A + C -> C with block maps
    incl = OperatorMatrix(1, 2, [ModuleElement(1, [parse_operator("1", 1),
                                                   WeylElement.zero(1)])])
    proj = OperatorMatrix(1, 1, [ModuleElement.zero(1, 1),
                                 ModuleElement.unit(1, 1, 0)])
    gens_mid = [ModuleElement(1, [parse_operator("x1", 1), WeylElement.zero(1)]),
                ModuleElement(1, [WeylElement.zero(1), parse_operator("x1*d1", 1)])]
    ses = SubmoduleSES(SPEC1, 1, (0,), gens_a, 2, (0, 0), gens_mid,
                       1, (0,), gens_c, incl, proj)
    diag = free_cover_ses(ses)
    # kernel rows compose to zero through the covers
    for kb in diag.cover_b.kernel:
        img = ModuleElement.zero(1, 2)
        for ci, row in zip(kb.components, diag.cover_b.rows):
            img = img + row.left_mul(ci)
        assert img.is_zero()


def test_free_cover_two_ses_pass_through():
    # F = 0: P_A = P_D
    gens_d = [me(1, "x1*d1")]
    step = ResolutionStep((0,), gens_d, [])
    t2 = SubmoduleSES(SPEC1, 1, (0,), gens_d, 1, (0,), gens_d, 1, (0,), [],
                      OperatorMatrix.identity(1, 1),
                      OperatorMatrix.zero(1, 1, 1))
    t1 = SubmoduleSES(SPEC1, 1, (0,), gens_d, 1, (0,), gens_d, 1, (0,), [],
                      OperatorMatrix.identity(1, 1),
                      OperatorMatrix.zero(1, 1, 1))
    diag2 = free_cover_ses(t2, cover_a=step)
    diag1 = free_cover_ses(t1, cover_a=diag2.cover_b)
    assert diag2.cover_b.rank == step.rank
    assert diag1.cover_b.rank == step.rank


def test_v_strict_complex_free_input():
    free = DModPresentation.free(1, 1, None)
    c = ChainComplexPres(1, 0, [free], [])
    out = v_strict_complex(c)
    assert out.is_free()
    assert verify_v_strict(out).passed


def test_v_strict_complex_single_module():
    pres = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)])
    c = ChainComplexPres(1, 0, [pres], [])
    res = strictify_complex(c)
    tot = res.total
    tot.check_chain()
    assert verify_v_strict(tot).passed
    # comparison maps form a chain map onto the original complex
    for m in range(max(tot.lo, c.lo), c.hi):
        lhs = res.comparison[m].compose(c.differential(m))
        rhs = tot.differential(m).compose(res.comparison[m + 1])
        for r1, r2 in zip(lhs.rows, rhs.rows):
            diff = r1 - r2
            assert c.module(m + 1).contains_relation(diff) or diff.is_zero()


def test_counterexample_total_complex_fails():
    d1 = WeylElement.d(0, 1)
    mods = [DModPresentation.free(1, 2, (1, 1)), DModPresentation.free(1, 1, (0,))]
    mat = OperatorMatrix(1, 1, [ModuleElement(1, [d1]),
                                ModuleElement(1, [d1 - 1])],
                         source_shift=(1, 1), target_shift=(0,))
    tot = ChainComplexPres(1, -1, mods, [mat])
    report = verify_v_strict(tot)
    assert not report.passed
    fail = report.failures[0]
    assert fail.kind == "not-strict"
    assert fail.position == 0 and fail.level == 0
    assert [str(c) for c in fail.witness.components] == ["1"]


def test_zero_maps_always_strict():
    mods = [DModPresentation.free(1, 2, (3, -1)), DModPresentation.free(1, 1, (5,))]
    c = ChainComplexPres(1, 0, mods, [OperatorMatrix.zero(1, 2, 1)])
    assert verify_v_strict(c).passed


def test_resolution_output_is_strict():
    from derham import v_strict_resolution
    pres = DModPresentation.cyclic(1, [parse_operator("x1*d1^2 + d1", 1)])
    res = v_strict_resolution(pres, (0,), 3)
    assert verify_v_strict(res).passed


def test_strictify_two_ses_genuine_instance():
    # complex 0 -> D -(xd)-> D -> 0 at the top spot:
    # seq1: 0 -> Z -> C -> 0 -> 0 and seq2: 0 -> B -> Z -> H -> 0
    free = DModPresentation.free(1, 1, None)
    boundary = DModPresentation.free(1, 1, None)          # B = D . (xd), free
    homology = DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)])
    zero = DModPresentation.zero(1)
    seq1 = QuotientSES(free, free, zero, OperatorMatrix.identity(1, 1),
                       OperatorMatrix.zero(1, 1, 0))
    seq2 = QuotientSES(boundary, free, homology,
                       OperatorMatrix(1, 1, [me(1, "x1*d1")]),
                       OperatorMatrix.identity(1, 1))
    wit1, wit2 = strictify_two_ses(seq1, seq2, (), SPEC1)
    a2 = DModPresentation(1, boundary.rank, boundary.relations, wit2.shift_a)
    rewritten2 = QuotientSES(a2, wit2.middle, homology, wit2.incl, wit2.proj)
    assert verify_strict_ses(rewritten2, SPEC1)
    a1 = DModPresentation(1, wit2.middle.rank, wit2.middle.relations, wit1.shift_a)
    rewritten1 = QuotientSES(a1, wit1.middle, zero, wit1.incl, wit1.proj)
    assert verify_strict_ses(rewritten1, SPEC1)


def fourier_mv(names, polys):
    spec = ProblemSpec(names, polys)
    family = family_for_mv(spec.n, spec.polys, spec.presentations)
    return fourier_complex(mv_complex(family, len(spec.polys)))


@pytest.mark.parametrize("names,polys,digest", PINNED_STRICT,
                         ids=[" ".join(p) for _, p, _ in PINNED_STRICT])
def test_strict_complex_is_pinned(names, polys, digest):
    res = strictify_complex(fourier_mv(names, polys))
    payload = {
        "total": res.total.to_json(),
        "double": res.double.to_json(),
        "comparison": {str(m): [[format_operator(c) for c in row.components]
                                for row in mat.rows]
                       for m, mat in sorted(res.comparison.items())},
    }
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_strictify_builds_one_solver_per_generating_set(monkeypatch):
    c = fourier_mv(["x", "y"], ["x", "y"])
    builds = 0
    init = SubmoduleSolver.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleSolver, "__init__", counting_init)
    strictify_complex(c)
    # one solver per distinct submodule; 78 when each target had its own,
    # 54 with one solver per generating set and loop but no shared cache
    assert builds <= 33


def _record_solver_keys(monkeypatch):
    """Normalized keys of every SubmoduleSolver built from now on."""
    keys = []
    init = SubmoduleSolver.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        keys.append((self.spec, self.rank, tuple(self.gens), self.ambient_shift,
                     self.cofactor_shift))

    monkeypatch.setattr(SubmoduleSolver, "__init__", recording_init)
    return keys


@pytest.mark.parametrize("names,polys,support", [
    (["x", "y"], ["x", "y"], None),
    (["x", "y"], ["x*y*(x + y)"], None),
    (["x", "y"], ["x*y"], ["x - y"]),
], ids=["x y", "x*y*(x + y)", "x*y | x - y"])
def test_each_stage_solves_each_submodule_once(monkeypatch, names, polys, support):
    keys = _record_solver_keys(monkeypatch)
    per_stage = {}
    for name in ("strictify_complex", "b_function_of_complex"):
        def recorded(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
            start = len(keys)
            out = _fn(*args, **kwargs)
            per_stage[_name] = keys[start:]
            return out
        monkeypatch.setattr(pipeline, name, recorded)
    run = compute_derham_support if support else compute_derham
    run(ProblemSpec(names, polys, support_polys=support))
    assert set(per_stage) == {"strictify_complex", "b_function_of_complex"}
    for name, stage_keys in per_stage.items():
        assert stage_keys and len(set(stage_keys)) == len(stage_keys), name


def test_stages_log_their_cache_counts(caplog):
    caplog.set_level(logging.DEBUG, logger="derham")
    compute_derham(ProblemSpec(["x", "y"], ["x", "y"]))
    lines = {r.name: r.getMessage() for r in caplog.records
             if "solver builds" in r.getMessage()}
    assert lines == {"derham.strictify": "strictify: 33 solver builds, 21 cache hits",
                     "derham.restriction": "b-function: 2 solver builds, 1 cache hits"}


def test_boundary_basis_comes_from_the_spot_below():
    # D -x-> D -> 0 -> D -x-> D.  Spot 0 has nothing to resolve, so the
    # boundary resolution at spot 1 starts from the boundary basis there:
    # the relations of B^1 = D x, which are none.  Spot 1's own C-basis
    # (all of D, since d_1 = 0) in its place gives the total complex
    # cohomology at position 0, where the input has none.
    x = me(1, "x1")
    free = [DModPresentation.free(1, 1), DModPresentation.free(1, 1),
            DModPresentation.free(1, 0), DModPresentation.free(1, 1),
            DModPresentation.free(1, 1)]
    c = ChainComplexPres(1, 0, free, [
        OperatorMatrix(1, 1, [x]), OperatorMatrix.zero(1, 1, 0),
        OperatorMatrix.zero(1, 0, 1), OperatorMatrix(1, 1, [x])])
    res = strictify_complex(c)

    def vanishes(cx, k):
        h = cohomology_presentation(cx, k).homology
        return all(h.contains_relation(ModuleElement.unit(1, h.rank, j))
                   for j in range(h.rank))

    assert [vanishes(c, k) for k in c.degrees()] == [True, False, True, True, False]
    assert [vanishes(res.total, k) for k in range(res.edge + 1, res.hi + 1)] == \
        [True, True, True, False, True, True, False]
    assert [[lv.ranks for lv in res.double.spots[i].levels] for i in (0, 1)] == \
        [[(0, 0, 1)], [(1, 1, 1), (0, 1, 1)]]


def _free_complex(lo, shifts, matrices):
    """A free complex from shift vectors and differentials given as lists
    of rows of operator strings, all over D_1."""
    modules = [DModPresentation.free(1, len(sh), sh) for sh in shifts]
    diffs = [OperatorMatrix(1, len(shifts[k + 1]), [me(1, *row) for row in rows],
                            source_shift=shifts[k], target_shift=shifts[k + 1])
             for k, rows in enumerate(matrices)]
    return ChainComplexPres(1, lo, modules, diffs)


def _entries(c):
    return [[[format_operator(e) for e in row.components] for row in d.rows]
            for d in c.differentials]


def test_minimize_cancels_a_unit_between_equal_shifts():
    out = minimize_complex(_free_complex(0, [(2,), (2,)], [[["1"]]]))
    assert [m.rank for m in out.modules] == [0, 0]
    assert out.differentials[0].rows == ()


@pytest.mark.parametrize("shifts,entry", [([(1,), (0,)], "1"),
                                          ([(0,), (0,)], "x1")],
                         ids=["unequal shifts", "non-constant"])
def test_minimize_keeps_entries_that_are_not_filtered_units(shifts, entry):
    c = _free_complex(0, shifts, [[[entry]]])
    assert minimize_complex(c).to_json() == c.to_json()


def test_minimize_row_update_multiplies_on_the_left():
    # r - (r_b / u) . row_a with r = (d1, 0), row_a = (1, x1): d1 . x1 is
    # x1*d1 + 1, while x1 . d1 would be x1*d1
    c = _free_complex(0, [(0, 0), (0, 0)], [[["1", "x1"], ["d1", "0"]]])
    out = minimize_complex(c)
    assert [m.rank for m in out.modules] == [1, 1]
    assert _entries(out) == [[["-x1*d1 - 1"]]]


def test_minimize_drops_the_pivot_column_and_row_of_the_neighbours():
    # D -(d1, -x1*d1 - 1)-> D^2 -(x1; 1)-> D: the unit sits in d_1, so d_0
    # loses its second column and the target of d_1 goes away
    c = _free_complex(0, [(0,), (0, 0), (0,)],
                      [[["d1", "-x1*d1 - 1"]], [["x1"], ["1"]]])
    c.check_chain()
    out = minimize_complex(c)
    out.check_chain()
    assert [m.rank for m in out.modules] == [1, 1, 0]
    assert _entries(out) == [[["d1"]], [[]]]


@pytest.mark.parametrize("names,polys,digest", PINNED_MINIMAL,
                         ids=[" ".join(p) for _, p, _ in PINNED_MINIMAL])
def test_minimal_complex_is_pinned(names, polys, digest):
    total = strictify_complex(fourier_mv(names, polys)).total
    first = json.dumps(minimize_complex(total).to_json(), sort_keys=True)
    second = json.dumps(minimize_complex(total).to_json(), sort_keys=True)
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest() == digest


def test_minimize_logs_its_ranks(caplog):
    caplog.set_level(logging.DEBUG, logger="derham")
    compute_derham(ProblemSpec(["x", "y"], ["x", "y"]))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("minimize:")]
    assert lines == ["minimize: ranks [0, 0, 3, 12, 12, 3] -> "
                     "[0, 0, 1, 2, 2, 1], 12 cancellations"]
