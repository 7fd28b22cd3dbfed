import hashlib
import json
import logging

import pytest

from conftest import cohomology_vanishes, relations_contain
from derham import (ChainComplexPres, DModPresentation, FiltrationSpec,
                    InconsistencyError, ModuleElement, OperatorMatrix,
                    ProblemSpec, SubmoduleSolver, WeylElement,
                    compute_derham, compute_derham_support, family_for_mv,
                    format_operator, fourier_complex, minimize_complex,
                    mv_complex, obvious_shift, parse_operator,
                    strictify_complex, verify_strict_ses, verify_v_strict)
from derham import pipeline
from derham.groebner import SolverCache
from derham.presentations import _heads, cycle_generators
from derham.strictify import (QuotientSES, ResolutionStep, _phase_one,
                              free_cover_ses)

SPEC1 = FiltrationSpec(1)

# sha256 of the strict total complex, the double complex and the comparison
# maps of Fourier-transformed Mayer-Vietoris complexes, recorded before the
# solver sharing in strictify; any output change of strictify shows here
PINNED_STRICT = [
    (["x"], ["x"],
     "a3695c5f79151ec279399a72ebb09a2175f42687dda5dc57b02beb6bc0766fc7"),
    (["x", "y"], ["x*y"],
     "ff6c0ab739037bf3231f0e2d426932255e6238e7ba59458505039bbb1ed7281b"),
    (["x", "y"], ["x", "y"],
     "a8dff6baf7873005e40ab0c439a0d0180b6fa75bcc399a84032a0d96a72a1f94"),
    (["x", "y"], ["x*y*(x + y)"],
     "6f8ec9320880df741652fc532731ddb1703d1bf3382283c31953ebfca8e7034a"),
    (["x", "y", "z"], ["x", "y", "z"],
     "2eb8df0d58913f6837dc42275684d7717ca3c2e76265708fa05615df7cc3bcbc"),
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


def _block_ses(a, b, c):
    """0 -> A -> B -> C -> 0 with A in the leading components of B and
    B -> C keeping the trailing ones, as phase one lays its spots out."""
    n, ra, rc = b.n, a.rank, c.rank
    incl = OperatorMatrix(n, b.rank, [ModuleElement.unit(n, b.rank, j)
                                      for j in range(ra)])
    proj = OperatorMatrix(n, rc, [ModuleElement.unit(n, rc, j - ra) if j >= ra
                                  else ModuleElement.zero(n, rc)
                                  for j in range(b.rank)])
    return QuotientSES(a, b, c, incl, proj)


def phase_one_sequences(c):
    """{spot: (0 -> B -> Z~ -> H -> 0, 0 -> Z~ -> C -> B_next -> 0)} as
    phase one of strictify_complex rewrites them, with its shifts.

    B's relations are the B_next-basis of the spot below, which phase one
    computed under this spot's B-shift.  The relations of Z~ and of C^i are
    those of the realization rows of P_B + P_H and of all of P_B + P_H +
    P_Bnext in C^i, which phase one itself never needs.
    """
    n = c.n
    solvers = SolverCache(FiltrationSpec(n))
    spots = _phase_one(c, solvers)
    out = {}
    for i, sp in spots.items():
        rank_b, rank_h, rank_bn = sp.ranks
        sb, sh, sbn = sp.shift_b, sp.shift_h, sp.shift_bn
        orig = c.module(i)

        def relations(rows):
            return _heads(solvers.syzygies(orig.rank, rows + list(orig.relations),
                                           orig.shift_or_zero()), len(rows))

        b = DModPresentation(n, rank_b, spots[i - 1].basis_bn if i > c.lo else (), sb)
        z = DModPresentation(n, rank_b + rank_h,
                             relations(sp.realization[:rank_b + rank_h]), sb + sh)
        h = DModPresentation(n, rank_h, sp.basis_h, sh)
        mid = DModPresentation(n, rank_b + rank_h + rank_bn, relations(sp.realization),
                               sb + sh + sbn)
        bn = DModPresentation(n, rank_bn, sp.basis_bn, sbn)
        out[i] = (_block_ses(b, z, h), _block_ses(z, mid, bn))
    return out


def test_strictify_ses_degenerate_c_zero():
    # the top spot has no next boundary: 0 -> Z~ -> C -> 0 -> 0
    c = ChainComplexPres(1, 0, [DModPresentation.cyclic(
        1, [parse_operator("d1", 1)])], [])
    _, seq = phase_one_sequences(c)[0]
    assert seq.c.rank == 0
    assert seq.b.rank == seq.a.rank and seq.b.shift == seq.a.shift
    assert verify_strict_ses(seq)


def test_strictify_ses_degenerate_a_zero():
    # the bottom spot has no boundary: 0 -> 0 -> Z~ -> H -> 0
    c = ChainComplexPres(1, 0, [DModPresentation.cyclic(
        1, [parse_operator("d1", 1)])], [])
    seq, _ = phase_one_sequences(c)[0]
    assert seq.a.rank == 0
    assert seq.b.rank == seq.c.rank == 1 and seq.b.shift == seq.c.shift
    assert verify_strict_ses(seq)


def test_strictify_ses_passes_checker():
    # both sequences of every spot of every pinned input are V-strict
    spots = 0
    for names, polys, _ in PINNED_STRICT:
        for i, (seq1, seq2) in phase_one_sequences(fourier_mv(names, polys)).items():
            assert verify_strict_ses(seq1), (polys, i)
            assert verify_strict_ses(seq2), (polys, i)
            spots += 1
    assert spots == 8


def test_phase_one_lifts_generators_to_unit_vectors():
    # Z~ -> H and C^i -> B_next are identities on generators: each P_H
    # generator is realized by its own cycle generator, and each P_Bnext
    # generator by its own unit vector of C^i
    for names, polys, _ in PINNED_STRICT:
        c = fourier_mv(names, polys)
        solvers = SolverCache(FiltrationSpec(c.n))
        for i, sp in _phase_one(c, solvers).items():
            rank_b, rank_h, rank_bn = sp.ranks
            rank = c.module(i).rank
            assert sp.realization[rank_b:rank_b + rank_h] == \
                cycle_generators(c, i, solvers), (polys, i)
            assert sp.realization[rank_b + rank_h:] == \
                [ModuleElement.unit(c.n, rank, j) for j in range(rank_bn)], (polys, i)


def test_raised_boundary_shift_fails_the_ses_check():
    # negative control: one B-shift above phase one's choice breaks
    # strictness at spot 1 of x, y
    seq, _ = phase_one_sequences(fourier_mv(["x", "y"], ["x", "y"]))[1]
    d = seq.a
    raised = DModPresentation(d.n, d.rank, d.relations,
                              (d.shift[0] + 1,) + d.shift[1:])
    assert verify_strict_ses(seq)
    assert not verify_strict_ses(QuotientSES(raised, seq.b, seq.c, seq.a_to_b,
                                             seq.b_to_c))


def test_strictify_ses_detects_non_exactness():
    # D -x-> D -x-> D is no complex: the boundary row x of degree 1 is not
    # a cycle, since x . x != 0
    x = me(1, "x1")
    free = DModPresentation.free(1, 1)
    c = ChainComplexPres(1, 0, [free] * 3, [OperatorMatrix(1, 1, [x])] * 2)
    with pytest.raises(InconsistencyError, match="boundary row is not a cycle"):
        strictify_complex(c)


def test_strictify_two_ses_trivial_outer():
    # a single module D/(xd): both sequences of its one spot
    c = ChainComplexPres(1, 0, [DModPresentation.cyclic(
        1, [parse_operator("x1*d1", 1)])], [])
    seq1, seq2 = phase_one_sequences(c)[0]
    assert seq1.b.rank == 1 and seq2.b.rank == 1
    assert verify_strict_ses(seq1) and verify_strict_ses(seq2)


def test_strictify_two_ses_genuine_instance():
    # 0 -> D -(xd)-> D -> 0: at the top spot B = D . xd is free and
    # H = D/(xd); every spot's two sequences are V-strict
    free = DModPresentation.free(1, 1, None)
    c = ChainComplexPres(1, 0, [free, free],
                         [OperatorMatrix(1, 1, [me(1, "x1*d1")])])
    spots = phase_one_sequences(c)
    seq_top, _ = spots[1]
    assert (seq_top.a.rank, seq_top.a.relations) == (1, ())
    assert seq_top.c.rank == 1 and len(seq_top.c.relations) == 1
    for seq1, seq2 in spots.values():
        assert verify_strict_ses(seq1) and verify_strict_ses(seq2)


def test_free_cover_ses_collapse():
    # A = 0: the diagram collapses to a free cover of B = C
    gens = [me(1, "x1*d1")]
    cover_b, cover_c, lifts = free_cover_ses(ResolutionStep((), [], []), gens, (0,),
                                             gens, (0,), SolverCache(SPEC1))
    assert cover_b.rank == cover_c.rank == 1
    assert cover_b.rows[0] == gens[0]
    assert lifts == []


def _horseshoe_instance(rows_a):
    """A in the first component of D^2 covered by rows_a, C = <d, x d> in
    the second, and lifts (1, d), (0, x d) of the C-basis: its syzygy
    (x, -1) makes the A-target x . (1, d) - (0, x d) = (x, 0)."""
    solvers = SolverCache(SPEC1)
    shift_a = obvious_shift(rows_a, (0,))
    cover_a = ResolutionStep(shift_a, rows_a,
                             solvers.syzygies(1, rows_a, (0,), shift_a))
    lifts = [me(1, "1", "d1"), me(1, "0", "x1*d1")]
    basis_c = [me(1, "d1"), me(1, "x1*d1")]
    return (cover_a, lifts, (0, 0), basis_c, (0,), solvers)


def test_free_cover_ses_small_instance():
    cover_b, cover_c, lifts = free_cover_ses(*_horseshoe_instance([me(1, "x1")]))
    assert cover_c.rows == [me(1, "d1"), me(1, "x1*d1")]
    assert cover_b.rows == [me(1, "x1", "0"), me(1, "1", "d1"), me(1, "0", "x1*d1")]
    # the lift of each C-syzygy s is (-t | s) with t . x = the A-target
    assert cover_c.kernel and len(lifts) == len(cover_c.kernel)
    rows = OperatorMatrix(1, 2, cover_b.rows)
    for lift, s in zip(lifts, cover_c.kernel):
        assert lift.components[1:] == s.components
        assert lift.components[0] != WeylElement.zero(1)
        assert rows.apply(lift).is_zero()


def test_free_cover_two_ses_pass_through():
    # F = 0: P_A = P_D
    gens_d = [me(1, "x1*d1")]
    step = ResolutionStep((0,), gens_d, [])
    solvers = SolverCache(SPEC1)
    cover_a, _, lifts_a = free_cover_ses(step, [], (0,), [], (), solvers)
    cover_b, _, lifts_b = free_cover_ses(cover_a, [], (0,), [], (), solvers)
    assert cover_a.rows == cover_b.rows == gens_d
    assert lifts_a == lifts_b == []


def test_free_cover_ses_rejects_a_target_outside_the_a_cover():
    # the same lifts over A = <d>: the A-target x is not a multiple of d
    with pytest.raises(InconsistencyError, match="outside the A-cover"):
        free_cover_ses(*_horseshoe_instance([me(1, "d1")]))


def test_v_strict_complex_free_input():
    free = DModPresentation.free(1, 1, None)
    c = ChainComplexPres(1, 0, [free], [])
    out = strictify_complex(c).total
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
    solvers = SolverCache(SPEC1)
    for m in range(max(tot.lo, c.lo), c.hi):
        lhs = res.comparison[m].compose(c.differential(m))
        rhs = tot.differential(m).compose(res.comparison[m + 1])
        for r1, r2 in zip(lhs.rows, rhs.rows):
            diff = r1 - r2
            assert diff.is_zero() or relations_contain(c.module(m + 1), diff, solvers)


def test_counterexample_total_complex_fails():
    d1 = WeylElement.d(0, 1)
    mods = [DModPresentation.free(1, 2, (1, 1)), DModPresentation.free(1, 1, (0,))]
    mat = OperatorMatrix(1, 1, [ModuleElement(1, [d1]),
                                ModuleElement(1, [d1 - 1])])
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
    # the total complex resolves D/(x d^2 + d) V-strictly
    pres = DModPresentation.cyclic(1, [parse_operator("x1*d1^2 + d1", 1)])
    total = strictify_complex(ChainComplexPres(1, 0, [pres], [])).total
    assert verify_v_strict(total).passed


@pytest.mark.slow
def test_unminimized_two_point_total_is_v_strict():
    # the r = 4 case: its differential from rank 60 to rank 28 needs
    # cofactor divisions that only a floor ends
    total = strictify_complex(fourier_mv(
        ["x", "y"], ["x*(x - 1)", "x*(y - 1)", "y*(x - 1)", "y*(y - 1)"])).total
    assert verify_v_strict(total).passed


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
    # 54 with one solver per generating set and loop but no shared cache,
    # 33 while free_cover_ses still solved the bases it was handed, 32
    # while it searched for minimal preimages
    assert builds <= 17


def test_phase_two_lifts_are_horseshoe_lifts(monkeypatch):
    # every free_cover_ses call gets a V-adapted C-basis and one lift per
    # entry: an element of the B-module that projects onto the entry at no
    # higher V-degree.  At level 1 the B-module is the relation module of
    # the cover of Z~ or of C^i; below that it is the kernel of the same
    # sequence's B-cover one level up.
    calls = []

    def recording(*args):
        out = free_cover_ses(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr("derham.strictify.free_cover_ses", recording)
    deep = 0
    for names, polys in [(n, p) for n, p, _ in PINNED_STRICT] + [(["x"], ["x", "x"])]:
        c = fourier_mv(names, polys)
        start = len(calls)
        res = strictify_complex(c)
        sequences = phase_one_sequences(c)
        solvers = SolverCache(FiltrationSpec(c.n))
        pos = start
        # phase two walks the spots upwards and makes two calls per level
        for i in sorted(res.double.spots):
            above = [None, None]
            for k in range(1, len(res.double.spots[i].levels)):
                for ses in (0, 1):
                    (_, lifts, shift_b, basis_c, shift_c, _), (cover_b, _, _) = calls[pos]
                    pos += 1
                    rank_b = len(shift_b)
                    a = rank_b - len(shift_c)
                    assert set(solvers.basis(len(shift_c), basis_c, shift_c)) == \
                        set(basis_c), polys
                    assert len(lifts) == len(basis_c)
                    for lift, entry in zip(lifts, basis_c):
                        assert lift.components[a:] == entry.components
                        assert lift.v_degree(shift_b) <= entry.v_degree(shift_c)
                        if k == 1:
                            rels = sequences[i][ses].b.relations
                            assert solvers.get(rank_b, rels, shift_b).contains(lift)
                        else:
                            assert above[ses].apply(lift).is_zero(), (polys, i, k)
                            deep += not ModuleElement(c.n, lift.components[:a]).is_zero()
                    above[ses] = OperatorMatrix(c.n, rank_b, cover_b.rows)
        assert pos == len(calls), polys
    assert len(calls) == 40
    assert deep > 0
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
    assert lines == {"derham.strictify": "strictify: 11 solver builds, 4 cache hits",
                     "derham.restriction": "b-function: 2 solver builds, 1 cache hits"}


# (solver builds, cache hits, S-pairs reduced, S-pairs skipped by the chain
# criterion) of strictify_complex on each PINNED_STRICT input
PINNED_WORK = [(2, 1, 1, 0), (3, 1, 4, 1), (11, 4, 30, 13), (3, 1, 7, 5),
               (24, 7, 317, 143)]


@pytest.mark.parametrize("names,polys,work",
                         [(n, p, w) for (n, p, _), w in zip(PINNED_STRICT, PINNED_WORK)],
                         ids=[" ".join(p) for _, p, _ in PINNED_STRICT])
def test_strictify_work_is_pinned(caplog, names, polys, work):
    c = fourier_mv(names, polys)
    caplog.set_level(logging.DEBUG, logger="derham.strictify")
    strictify_complex(c)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "derham.strictify" and r.levelno == logging.DEBUG]
    builds, hits, reduced, skipped = work
    assert lines == [
        f"strictify: {builds} solver builds, {hits} cache hits",
        f"strictify: {reduced} S-pairs reduced, {skipped} skipped by the chain criterion"]


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
    assert [cohomology_vanishes(c, k) for k in c.degrees()] == \
        [True, False, True, True, False]
    assert [cohomology_vanishes(res.total, k)
            for k in range(res.edge + 1, res.hi + 1)] == \
        [True, True, True, False, True, True, False]
    assert [[lv.ranks for lv in res.double.spots[i].levels] for i in (0, 1)] == \
        [[(0, 0, 1)], [(1, 1, 1), (0, 1, 1)]]


def _free_complex(lo, shifts, matrices):
    """A free complex from shift vectors and differentials given as lists
    of rows of operator strings, all over D_1."""
    modules = [DModPresentation.free(1, len(sh), sh) for sh in shifts]
    diffs = [OperatorMatrix(1, len(shifts[k + 1]), [me(1, *row) for row in rows])
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
