import random

from conftest import random_module_element
from derham import (FiltrationSpec, ModuleElement, OperatorMatrix, WeylElement,
                    obvious_shift, parse_operator, v_strict_resolution, weyl_mul)
from derham.groebner import SolverCache, SubmoduleSolver
from derham.presentations import DModPresentation

SPEC1 = FiltrationSpec(1)


def me(n, *ops):
    return ModuleElement(n, [parse_operator(o, n) if isinstance(o, str) else o
                             for o in ops])


def test_single_generator_basis():
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "d1")])
    assert [e.components[0] for e in solver.basis] == [WeylElement.d(0, 1)]


def test_whole_ring():
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "x1"), me(1, "d1")])
    assert len(solver.basis) == 1 and solver.basis[0] == me(1, "1")
    assert solver.contains(me(1, "1"))


def test_empty_input():
    solver = SubmoduleSolver(SPEC1, 1, [])
    assert len(solver.basis) == 0


def test_cofactors_multiply_out():
    gens = [me(1, "x1"), me(1, "d1")]
    solver = SubmoduleSolver(SPEC1, 1, gens)
    for elem, cof in solver.basis_with_cofactors():
        acc = ModuleElement.zero(1, 1)
        for ci, gi in zip(cof.components, gens):
            acc = acc + gi.left_mul(ci)
        assert acc == elem


def test_ideal_preservation():
    rng = random.Random(11)
    for _ in range(10):
        gens = [random_module_element(rng, 1, 1) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        solver = SubmoduleSolver(SPEC1, 1, gens)
        for g in gens:
            assert solver.contains(g)


def test_buchberger_criterion_recheck():
    # every S-pair of the output reduces to zero under the output
    gens = [me(1, "x1^2*d1"), me(1, "x1*d1^2 + 1")]
    solver = SubmoduleSolver(SPEC1, 1, gens)
    basis = solver.basis
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            for p in (a.left_mul(WeylElement.d(0, 1)),
                      a.left_mul(WeylElement.x(0, 1)),
                      b.left_mul(WeylElement.d(0, 1))):
                red = solver.normal_form(p)
                assert solver.contains(p) == red.is_zero()


def test_normal_form_examples():
    solver_d = SubmoduleSolver(SPEC1, 1, [me(1, "d1")])
    assert solver_d.normal_form(me(1, "x1*d1")).is_zero()
    assert solver_d.normal_form(me(1, "x1")) == me(1, "x1")
    solver_ring = SubmoduleSolver(SPEC1, 1, [me(1, "x1"), me(1, "d1")])
    assert solver_ring.normal_form(me(1, "1")).is_zero()


def test_normal_form_degree_monotone():
    rng = random.Random(5)
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "x1*d1 + 1")])
    for _ in range(30):
        e = random_module_element(rng, 1, 1)
        r = solver.normal_form(e)
        if not e.is_zero() and not r.is_zero():
            assert r.v_degree((0,)) <= e.v_degree((0,))


def test_membership_examples():
    solver_d = SubmoduleSolver(SPEC1, 1, [me(1, "d1")])
    assert solver_d.contains(me(1, "x1*d1"))
    assert not solver_d.contains(me(1, "x1"))


def test_syzygies_contract():
    assert SubmoduleSolver(SPEC1, 1, [me(1, "d1")]).syzygy_basis == []

    gens = [me(1, "x1"), me(1, "d1"), me(1, "1")]
    solver = SubmoduleSolver(SPEC1, 1, gens, ambient_shift=(0,))
    for s in solver.syzygy_basis:
        acc = ModuleElement.zero(1, 1)
        for ci, gi in zip(s.components, gens):
            acc = acc + gi.left_mul(ci)
        assert acc.is_zero()
    assert solver.syzygy_basis  # the relation module is nonzero here


def test_kernel_of_map():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    # right multiplication by d on D_1 is injective
    assert SubmoduleSolver(SPEC1, 1, [me(1, "d1")]).syzygy_basis == []
    # the column (x; d): kernel contains (d^2, -(x d + 2))
    phi = OperatorMatrix(1, 1, [me(1, "x1"), me(1, "d1")])
    ker = SubmoduleSolver(SPEC1, 1, phi.rows).syzygy_basis
    for k in ker:
        assert phi.apply(k).is_zero()
    target = ModuleElement(1, [d * d, -(x * d + 2)])
    assert SubmoduleSolver(SPEC1, 2, ker, ambient_shift=(0, 0)).contains(target)
    # hand check of the frozen kernel element itself
    assert weyl_mul(d * d, x) - weyl_mul(x * d + 2, d) == WeylElement.zero(1)
    # zero matrix: the whole module
    ker0 = SubmoduleSolver(SPEC1, 1, OperatorMatrix.zero(1, 2, 1).rows).syzygy_basis
    assert sorted(str(k.components[i]) for k in ker0 for i in range(2)) == \
        ["0", "0", "1", "1"]


def test_obvious_shift_examples():
    assert obvious_shift(OperatorMatrix(1, 1, [me(1, "x1*d1")]).rows, (0,)) == (0,)
    assert obvious_shift(OperatorMatrix(1, 1, [me(1, "x1")]).rows, (0,)) == (-1,)
    assert obvious_shift(OperatorMatrix(1, 1, [me(1, "d1")]).rows, (2,)) == (3,)
    # zero column falls back to 0
    assert obvious_shift(OperatorMatrix.zero(1, 1, 1).rows, (0,)) == (0,)


def test_v_strict_resolution_examples():
    pres = DModPresentation.cyclic(1, [WeylElement.x(0, 1)])
    res = v_strict_resolution(pres, (0,), 2)
    assert res.lo == -1 and res.hi == 0
    assert res.modules[0].shift == (-1,)
    assert res.differentials[0].rows[0] == me(1, "x1")

    free = v_strict_resolution(DModPresentation.free(1, 1, (0,)), (0,), 2)
    assert free.lo == 0 == free.hi

    euler = v_strict_resolution(DModPresentation.cyclic(1, [parse_operator("x1*d1", 1)]),
                                (0,), 2)
    assert euler.modules[0].shift == (0,)
    assert euler.lo == -1


def test_determinism_bit_identical():
    gens = [me(1, "x1^2*d1 - 1"), me(1, "x1*d1^2 + d1")]
    a = SubmoduleSolver(SPEC1, 1, gens).basis
    b = SubmoduleSolver(SPEC1, 1, gens).basis
    assert [str(e.components[0]) for e in a] == [str(e.components[0]) for e in b]


def test_module_order_with_shifts():
    # shifted orders change which generator leads
    spec = FiltrationSpec(1)
    gens = [ModuleElement(1, [WeylElement.d(0, 1), WeylElement.x(0, 1)])]
    sol_a = SubmoduleSolver(spec, 2, gens, ambient_shift=(0, 0))
    sol_b = SubmoduleSolver(spec, 2, gens, ambient_shift=(0, 10))
    assert sol_a.basis and sol_b.basis


def test_normal_form_minimal_coset_degree():
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "x1*d1")])
    # 1 mod <x d>: every coset member keeps a constant term, degree 0 minimal
    nf = solver.normal_form(me(1, "1"))
    assert nf == me(1, "1")
    # x d + x^2 reduces to x^2, the V-minimal representative
    nf = solver.normal_form(me(1, "x1*d1 + x1^2"))
    assert nf == me(1, "x1^2")
    assert nf.v_degree((0,)) == -2


def test_reduction_limit_is_honest():
    import derham.groebner as G
    from derham import ReductionLimitError
    import pytest
    # D/<1 - x>: the coset of 1 has no V-minimal member; the normal form
    # must fail loudly instead of hanging
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "1 - x1")])
    old = solver.divider.limit
    solver.divider.limit = 2000
    try:
        with pytest.raises(ReductionLimitError):
            solver.normal_form(me(1, "1"))
    finally:
        solver.divider.limit = old


def test_non_rational_coefficients_rejected():
    import pytest
    from derham import InvalidInputError, WeylElement
    with pytest.raises(InvalidInputError):
        WeylElement(1, {(0, 0): 0.5})


# ---------------------------------------------------------------------------
# the division kernel against rational division with a rescan per step
# ---------------------------------------------------------------------------

def _reference_reduce(engine, vec, reducers, mode="full", pred=None):
    """Rational division as the kernel's contract states it: the lead is
    max(work, key=key) at every step and arithmetic is in Fraction."""
    import derham.groebner as G
    from fractions import Fraction
    from derham import ReductionLimitError
    work = {m: Fraction(c) for m, c in vec.items()}
    remainder = {}
    steps = 0
    while work:
        m = max(work, key=engine.key)
        c = work[m]
        if pred is not None and not pred(m):
            del work[m]
            remainder[m] = c
            continue
        hit = next((r for r in reducers if G._mono_divides(r[0], m)), None)
        if hit is None:
            del work[m]
            remainder[m] = c
            if mode == "top":
                G.flat_add_into(remainder, work)
                return remainder
            continue
        lead, lc, rvec = hit
        q = tuple(a - b for a, b in zip(m[1], lead[1]))
        prod = G.mono_mul_flat(engine.n, c / lc, q, m[2] - lead[2], rvec, engine.h_step)
        G.flat_add_into(work, prod, -1)
        steps += 1
        if steps > engine.limit:
            raise ReductionLimitError("reference budget exhausted")
    return remainder


def _assert_same_division(engine, vec, reducers, **kw):
    from fractions import Fraction
    from derham import ReductionLimitError
    try:
        want = _reference_reduce(engine, vec, reducers, **kw)
    except ReductionLimitError:
        import pytest
        with pytest.raises(ReductionLimitError):
            engine.reduce(vec, reducers, **kw)
        return "limit"
    got = engine.reduce(vec, reducers, **kw)
    # booleans first: pytest's diff of two long term lists can take minutes
    same_terms = got == want
    same_order = list(got) == list(want)
    assert same_terms, "remainders differ"
    assert same_order, "remainder terms come out in another order"
    assert all(type(c) is Fraction for c in got.values())
    return "remainder"


def _random_flat(rng, n, rank, homogeneous, **kw):
    import derham.groebner as G
    flat = G.me_to_flat(random_module_element(rng, n, rank, **kw))
    return G.homogenize_flat(flat) if homogeneous else flat


def _check_random_divisions(seed, n, rank, key, h_step, limit, count):
    """Seeded random reducers and dividends, not built by Buchberger, so a
    faulty kernel fails here rather than in the construction of a basis."""
    import derham.groebner as G
    rng = random.Random(seed)
    engine = G.GBEngine(n, key, h_step=h_step)
    engine.limit = limit
    outcomes = []
    while len(outcomes) < count:
        reducers = [G.primitive_entry(r, key)
                    for r in (_random_flat(rng, n, rank, h_step, max_deg=1)
                              for _ in range(rng.randint(1, 3))) if r]
        vec = _random_flat(rng, n, rank, h_step, max_deg=3, max_terms=5)
        if not reducers or not vec:
            continue
        for mode in ("full", "top"):
            for pred in (None, lambda m: m[0] == 0):
                outcomes.append(_assert_same_division(engine, vec, reducers,
                                                      mode=mode, pred=pred))
    return outcomes


def test_reduce_matches_reference_v_order_homogenized():
    import derham.groebner as G
    for seed, n, rank in ((101, 1, 2), (102, 2, 1)):
        key = G.v_order_key(n, (0, 1)[:rank], 1)
        outcomes = _check_random_divisions(seed, n, rank, key, 2, 200, 200)
        assert set(outcomes) == {"remainder"}


def test_reduce_matches_reference_v_order_plain():
    import derham.groebner as G
    for seed, n, rank in ((103, 1, 2), (104, 2, 1)):
        key = G.v_order_key(n, (0, -1)[:rank], 1)
        outcomes = _check_random_divisions(seed, n, rank, key, 0, 60, 200)
        assert set(outcomes) == {"remainder", "limit"}


def test_reduce_matches_reference_block_elim():
    import derham.groebner as G
    key = G.block_elim_key((0, 2))
    outcomes = _check_random_divisions(105, 2, 1, key, 0, 200, 200)
    assert set(outcomes) == {"remainder"}


def test_reduce_step_budget_matches_reference():
    import derham.groebner as G
    import pytest
    from derham import ReductionLimitError
    key = G.v_order_key(1, (0,), 1)
    # 1 - x under the V-order: its lead is 1, so dividing 1 + d by it never
    # ends; both versions must stop at the same budget
    reducers = [G.primitive_entry(G.me_to_flat(me(1, "1 - x1")), key)]
    flat = G.me_to_flat(me(1, "1 + d1"))
    for limit in (1, 5, 40):
        engine = G.GBEngine(1, key, h_step=0)
        engine.limit = limit
        assert _assert_same_division(engine, flat, reducers) == "limit"
    # a budget of exactly the steps a terminating division takes suffices,
    # and one step less raises in both versions
    reducers = [G.primitive_entry(G.homogenize_flat(G.me_to_flat(me(1, g))), key)
                for g in ("2*x1*d1 + 1", "3*d1^2 - x1")]
    flat = G.homogenize_flat(G.me_to_flat(me(1, "x1^2*d1^3 + 3*x1*d1^2 - d1")))
    engine = G.GBEngine(1, key, h_step=2)

    def outcome(limit):
        engine.limit = limit
        return _assert_same_division(engine, flat, reducers)

    steps = next(k for k in range(200) if outcome(k) == "remainder")
    assert steps > 1
    engine.limit = steps - 1
    with pytest.raises(ReductionLimitError):
        engine.reduce(flat, reducers)


def test_h_saturation_failure_raises_internal_error(monkeypatch):
    import derham.groebner as G
    import pytest
    from fractions import Fraction
    from derham import InternalError

    def with_h_content(self, gens, *args, **kwargs):
        vec = {(0, (0, 0), 1): Fraction(1)}
        return [((0, (0, 0), 1), Fraction(1), vec)]

    monkeypatch.setattr(G.GBEngine, "buchberger", with_h_content)
    with pytest.raises(InternalError, match="h-saturation"):
        SubmoduleSolver(SPEC1, 1, [me(1, "d1")])


def test_solver_cache_normalizes_defaults_into_one_key():
    cache = SolverCache(SPEC1)
    gens = [me(1, "x1*d1"), me(1, "x1^2")]
    first = cache.get(1, gens)
    # a missing ambient shift is zero, a missing cofactor shift is obvious
    assert cache.get(1, gens, (0,)) is first
    assert cache.get(1, tuple(gens), (0,), obvious_shift(gens, (0,))) is first
    assert (cache.builds, cache.hits) == (1, 2)
    assert first.cofactor_shift == SubmoduleSolver(SPEC1, 1, gens).cofactor_shift


def test_solver_cache_keeps_distinct_submodules_apart():
    cache = SolverCache(SPEC1)
    gens = [me(1, "x1*d1"), me(1, "x1^2")]
    base = cache.get(1, gens)
    other_cofactor = cache.get(1, gens, None, (5, 5))
    reordered = cache.get(1, gens[::-1])
    other_ambient = cache.get(1, gens, (1,))
    assert len({id(base), id(other_cofactor), id(reordered), id(other_ambient)}) == 4
    assert other_cofactor.cofactor_shift == (5, 5)
    assert reordered.gens == gens[::-1]
    assert (cache.builds, cache.hits) == (4, 0)
    assert cache.get(1, gens[::-1]) is reordered
    assert (cache.builds, cache.hits) == (4, 1)


def test_solver_cache_basis_and_syzygies_share_one_solver():
    cache = SolverCache(SPEC1)
    gens = [me(1, "x1*d1"), me(1, "x1^2")]
    fresh = SubmoduleSolver(SPEC1, 1, gens, ambient_shift=(0,))
    assert cache.basis(1, gens, (0,)) == fresh.basis
    assert cache.syzygies(1, gens, (0,)) == fresh.syzygy_basis
    assert (cache.builds, cache.hits) == (1, 1)
    # nothing to solve: no build, no hit
    assert cache.basis(0, [], ()) == [] and cache.syzygies(1, [], (0,)) == []
    assert (cache.builds, cache.hits) == (1, 1)


def _reference_reduce_cofactor(solver, w, limit):
    """Cofactor reduction on its own engine: an order over the cofactor
    shift alone, the syzygy entries moved down to position 0, and a
    given step budget."""
    import derham.groebner as G
    p = len(solver.gens)
    key = G.v_order_key(solver.n, solver.cofactor_shift, p)
    eng = G.GBEngine(solver.n, key, h_step=0)
    eng.limit = limit
    entries = []
    for _, _, vec in solver._syz_entries:
        shifted = {(k[0] - solver.rank, k[1], k[2]): c for k, c in vec.items()}
        lead = G._lead(shifted, key)
        entries.append((lead, shifted[lead], shifted))
    rem = eng.reduce(G.me_to_flat(w), entries, mode="full")
    return G.flat_to_me(rem, solver.n, p)


def test_reduce_cofactor_matches_reference():
    from derham import ReductionLimitError
    rng = random.Random(31)
    spec2 = FiltrationSpec(2)
    outcomes = []
    for n, spec, rank in ((1, SPEC1, 1), (1, SPEC1, 2), (2, spec2, 1)):
        for _ in range(6):
            gens = [random_module_element(rng, n, rank, max_deg=1, max_terms=2)
                    for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            cofactor = None if rng.random() < 0.5 else \
                tuple(rng.randint(-1, 1) for _ in gens)
            solver = SubmoduleSolver(spec, rank, gens, cofactor_shift=cofactor)
            for _ in range(4):
                w = random_module_element(rng, n, len(gens), max_deg=2, max_terms=3)
                # V-orders are not well-orders: skip the cosets whose
                # division does not end within a small budget
                try:
                    want = _reference_reduce_cofactor(solver, w, 200)
                except ReductionLimitError:
                    outcomes.append("limit")
                    continue
                assert solver.reduce_cofactor(w) == want
                outcomes.append("moved" if want != w else "kept")
    assert outcomes.count("moved") >= 10


# ---------------------------------------------------------------------------
# Buchberger's shortcuts against the computations they stand for
# ---------------------------------------------------------------------------

def _reference_interreduce(engine, entries):
    """All-pairs interreduction: every minimal entry divided by all the
    others, unreduced, then sorted by lead."""
    import derham.groebner as G
    key = engine.key
    kept = sorted(G._minimalize_entries(entries), key=lambda t: key(t[0]))
    final = [G.primitive_entry(engine.reduce(vec, kept[:i] + kept[i + 1:]), key)
             for i, (_, _, vec) in enumerate(kept)]
    return sorted(final, key=lambda t: key(t[0]))


def _unreduced_basis(engine, gens):
    """Buchberger's entries before interreduction: a Groebner basis."""
    engine._interreduce = list
    try:
        return engine.buchberger(gens)
    finally:
        del engine._interreduce


def _same_entries(got, want):
    assert got == want, "entries differ"
    assert [list(v) for _, _, v in got] == [list(v) for _, _, v in want], \
        "terms come out in another order"


def test_interreduce_matches_all_pairs_reference():
    import derham.groebner as G
    cases = (
        (201, 1, 2, G.v_order_key(1, (0, 1), 2), 2, 2),
        (202, 2, 1, G.v_order_key(2, (0,), 1), 2, 1),
        (203, 2, 1, G.block_elim_key((0, 2)), 0, 1),
    )
    passed = reduced = 0
    for seed, n, rank, key, h_step, deg in cases:
        rng = random.Random(seed)
        for _ in range(8):
            engine = G.GBEngine(n, key, h_step=h_step)
            gens = [_random_flat(rng, n, rank, h_step, max_deg=deg, max_terms=2)
                    for _ in range(3)]
            raw = _unreduced_basis(engine, [g for g in gens if g])
            want = _reference_interreduce(engine, raw)
            _same_entries(engine._interreduce(raw), want)
            before = {lead: vec for lead, _, vec in raw}
            for lead, _, vec in want:
                if before[lead] == vec:
                    passed += 1
                else:
                    reduced += 1
    # both branches ran: entries that pass through and entries that reduce
    assert passed >= 10 and reduced >= 10


def _saturate_from_scratch(solver):
    """The h-saturation of the solver's augmented module with every round
    restarted from scratch.  Returns the basis and, per saturation round,
    whether it needed S-pairs: whether its basis differs from the
    interreduced stripped list."""
    import derham.groebner as G
    from fractions import Fraction
    engine = G.GBEngine(solver.n, solver.key, h_step=2)
    aug = []
    for i, g in enumerate(solver.gens):
        flat = G.me_to_flat(g)
        flat[(solver.rank + i, (0,) * (2 * solver.n), 0)] = Fraction(1)
        aug.append(flat)
    reduced, rounds = engine.buchberger(aug), []
    while True:
        stripped = []
        for _, _, vec in reduced:
            content = min(h for (_, _, h) in vec)
            stripped.append({(p, e, h - content): c for (p, e, h), c in vec.items()})
        if stripped == [vec for _, _, vec in reduced]:
            return reduced, rounds
        reduced = engine.buchberger(stripped)
        rounds.append(reduced != engine.buchberger(stripped, changed=()))


def test_saturation_rounds_resume_as_from_scratch():
    rng = random.Random(47)
    rounds = []
    for n, rank, deg, count in ((1, 1, 2, 3), (1, 2, 2, 4), (2, 1, 1, 3)) * 2:
        for _ in range(4):
            gens = [random_module_element(rng, n, rank, max_deg=deg, max_terms=2)
                    for _ in range(count)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            solver = SubmoduleSolver(FiltrationSpec(n), rank, gens)
            want, needed_pairs = _saturate_from_scratch(solver)
            _same_entries(solver._h_entries, want)
            rounds.append(needed_pairs)
    # generating sets with a second round, some of whose S-pairs add entries
    assert sum(bool(r) for r in rounds) >= 5
    assert sum(any(r) for r in rounds) >= 2


def test_solver_cache_sums_the_spair_counts_of_its_builds():
    cache = SolverCache(SPEC1)
    first = cache.get(1, [me(1, "x1*d1"), me(1, "x1^2")])
    second = cache.get(1, [me(1, "x1^2*d1"), me(1, "x1*d1^2 + 1")])
    cache.get(1, [me(1, "x1*d1"), me(1, "x1^2")])  # a hit adds nothing
    engines = (first.engine, second.engine)
    assert cache.spairs_reduced == sum(e.spairs_reduced for e in engines) > 0
    assert cache.spairs_skipped == sum(e.spairs_skipped for e in engines)
