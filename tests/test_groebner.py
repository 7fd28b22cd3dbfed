import random
from fractions import Fraction

import pytest

from conftest import random_module_element
from derham import (DimensionMismatchError, FiltrationSpec, ModuleElement,
                    OperatorMatrix, WeylElement, obvious_shift, parse_operator,
                    weyl_mul)
from derham.groebner import SubmoduleSolver

SPEC1 = FiltrationSpec(1)


def me(n, *ops):
    return ModuleElement(n, [parse_operator(o, n) if isinstance(o, str) else o
                             for o in ops])


def test_module_elements_of_different_ranks_do_not_combine():
    e0 = ModuleElement.unit(1, 2, 0)
    e2 = ModuleElement.unit(1, 3, 2)
    with pytest.raises(DimensionMismatchError):
        e0 + e2
    with pytest.raises(DimensionMismatchError):
        e0 - e2
    assert e0 + ModuleElement.unit(1, 2, 1) == me(1, "1", "1")


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
    for elem in solver.basis:
        cof = solver.cofactor(elem)
        acc = ModuleElement.zero(1, 1)
        for ci, gi in zip(cof.components, gens):
            acc = acc + gi.left_mul(ci)
        assert acc == elem


def test_basis_entries_carry_their_cofactors():
    # cofactors[i] is read off the entry whose main part is basis[i]
    rng = random.Random(37)
    spec2 = FiltrationSpec(2)
    solvers = [SubmoduleSolver(SPEC1, 1, [me(1, "d1")])]  # the README's d1 solver
    for n, spec, rank in ((1, SPEC1, 1), (1, SPEC1, 2), (2, spec2, 1)):
        for _ in range(6):
            gens = [random_module_element(rng, n, rank, max_deg=1, max_terms=2)
                    for _ in range(3)]
            solvers.append(SubmoduleSolver(spec, rank, [g for g in gens if not g.is_zero()]))
    checked = 0
    for solver in solvers:
        cofactors = solver.cofactors
        assert len(cofactors) == len(solver.basis)
        gens = OperatorMatrix(solver.n, solver.rank, solver.gens)
        for cof, elem in zip(cofactors, solver.basis):
            assert gens.apply(cof) == elem
            checked += 1
    assert checked >= 20


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
                # floored far below every coset's minimal degree
                red = solver.normal_form(p, -10)
                assert solver.contains(p) == red.is_zero()


def test_normal_form_examples():
    solver_d = SubmoduleSolver(SPEC1, 1, [me(1, "d1")])
    assert solver_d.normal_form(me(1, "x1*d1"), 0).is_zero()
    assert solver_d.normal_form(me(1, "x1"), -1) == me(1, "x1")
    assert solver_d.normal_form(me(1, "x1"), 0).is_zero()  # below the floor
    solver_ring = SubmoduleSolver(SPEC1, 1, [me(1, "x1"), me(1, "d1")])
    assert solver_ring.normal_form(me(1, "1"), 0).is_zero()


def test_normal_form_degree_monotone():
    rng = random.Random(5)
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "x1*d1 + 1")])
    for _ in range(30):
        e = random_module_element(rng, 1, 1)
        r = solver.normal_form(e, -4)
        if not e.is_zero() and not r.is_zero():
            assert -4 <= r.v_degree((0,)) <= e.v_degree((0,))


def test_membership_examples():
    solver_d = SubmoduleSolver(SPEC1, 1, [me(1, "d1")])
    assert solver_d.contains(me(1, "x1*d1"))
    assert not solver_d.contains(me(1, "x1"))


def test_membership_needs_more_than_the_homogenized_remainder():
    # <x^2, 3/4 x^2 - x d> is all of D (d . x^2 - x . (x d) = 2x), but the
    # h-saturated basis entry 8 carries h^2 on its lead, so the
    # homogenized remainder of -1 keeps a main block at N = 0; h^2 times
    # it reduces to zero, and the cofactor dehomogenizes to one of -1
    gens = [me(1, "x1^2"), me(1, "3/4*x1^2 - x1*d1")]
    solver = SubmoduleSolver(SPEC1, 1, gens)
    assert [str(b.components[0]) for b in solver.basis] == ["8"]

    def main_block(power):
        flat = {solver.codec.pack(0, (0, 0), power): Fraction(-1)}
        rem = solver.engine.reduce(flat, solver._h_entries, floor=solver.floor)
        return [m for m in rem if m >= solver.floor]

    assert main_block(0) and not main_block(2)
    cof = solver.cofactor(me(1, "-1"))
    assert OperatorMatrix(1, 1, gens).apply(cof) == me(1, "-1")
    assert solver.contains(me(1, "-1"))


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
    nf = solver.normal_form(me(1, "1"), -5)
    assert nf == me(1, "1")
    # x d + x^2 reduces to x^2, the V-minimal representative
    nf = solver.normal_form(me(1, "x1*d1 + x1^2"), -5)
    assert nf == me(1, "x1^2")
    assert nf.v_degree((0,)) == -2


def test_normal_form_does_not_depend_on_the_cofactor_shift():
    # the remainder above the floor is unique, so the solver of d_k, built
    # under the shift of C^k, reduces modulo the boundaries at k + 1 as the
    # solver under the obvious shift does
    rng = random.Random(61)
    nonzero = 0
    for n, rank, deg, count in ((1, 1, 2, 3), (1, 2, 2, 3), (2, 1, 1, 3)) * 2:
        spec = FiltrationSpec(n)
        gens = [g for g in (random_module_element(rng, n, rank, max_deg=deg, max_terms=2)
                            for _ in range(count)) if not g.is_zero()]
        if not gens:
            continue
        ambient = tuple(rng.randint(-1, 1) for _ in range(rank))
        obvious = SubmoduleSolver(spec, rank, gens, ambient)
        other = SubmoduleSolver(spec, rank, gens, ambient, tuple(
            s + rng.choice((-2, -1, 1, 2)) for s in obvious.cofactor_shift))
        assert other.cofactor_shift != obvious.cofactor_shift
        for _ in range(4):
            e = random_module_element(rng, n, rank, max_deg=deg, max_terms=3)
            for degree in range(-3, 2):
                nf = obvious.normal_form(e, degree)
                assert other.normal_form(e, degree) == nf, (gens, e, degree)
                nonzero += not nf.is_zero()
    assert nonzero >= 20


def test_non_member_without_a_minimal_coset_member():
    # D/<1 - x> is the delta module at x = 1, so 1 is not a member, yet
    # 1 = x^k mod 1 - x for every k: the coset of 1 has no V-minimal
    # member, and unfloored division by the lead 1 would never end
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "1 - x1")])
    assert not solver.contains(me(1, "1"))
    assert solver.cofactor(me(1, "1")) is None
    assert solver.min_degree_witness(me(1, "1")) is None


def test_floored_normal_form_ends():
    solver = SubmoduleSolver(SPEC1, 1, [me(1, "1 - x1")])
    # every term pushed below the floor leaves nothing at or above it
    for degree in (0, -5, -40):
        assert solver.normal_form(me(1, "1 + d1"), degree).is_zero()
    # a member's floored remainder vanishes at every floor
    member = me(1, "d1 - x1*d1 - 1")  # d (1 - x)
    assert solver.contains(member) and solver.normal_form(member, -3).is_zero()


def test_member_clearing_one_past_the_top_power_needs_no_term_order(monkeypatch):
    import derham.groebner as G
    # the largest h-power on a main-block lead is 1, so the tried powers
    # are 0 and 2; 1 = x . d - (x d - 1) clears only at N = 2
    gens = [me(1, "d1"), me(1, "-d1"), me(1, "x1*d1 - 1")]
    solver = SubmoduleSolver(SPEC1, 1, gens)
    assert list(solver._powers) == [0, 2]
    flat = G.homogenize_flat(G.me_to_flat(me(1, "-1"), solver.codec), solver.codec)
    assert solver._homogeneous_remainder(flat, [0]) is None
    built = []
    buchberger = G.GBEngine.buchberger
    monkeypatch.setattr(G.GBEngine, "buchberger",
                        lambda self, *args: built.append(self) or buchberger(self, *args))
    cof = solver.cofactor(me(1, "-1"))
    assert OperatorMatrix(1, 1, gens).apply(cof) == me(1, "-1")
    assert built == [] and solver._term_basis is None


def test_term_order_settles_what_the_tried_powers_leave_open():
    # with N = 0 the only power tried, -1 over <x^2, 3/4 x^2 - x d> = D
    # stays open; the term order finds it a member, and N = 2 clears it
    gens = [me(1, "x1^2"), me(1, "3/4*x1^2 - x1*d1")]
    solver = SubmoduleSolver(SPEC1, 1, gens)
    solver._powers = range(0, 1)
    cof = solver.cofactor(me(1, "-1"))
    assert solver._term_basis is not None
    assert OperatorMatrix(1, 1, gens).apply(cof) == me(1, "-1")


def test_non_rational_coefficients_rejected():
    import pytest
    from derham import InvalidInputError, WeylElement
    with pytest.raises(InvalidInputError):
        WeylElement(1, {(0, 0): 0.5})


# ---------------------------------------------------------------------------
# tuple-keyed references: monomials as (position, exponents, h-power)
# ---------------------------------------------------------------------------

def _tuple_v_order_key(n, shifts, block_start):
    """The V-order as a tuple key, larger is higher."""
    def key(mono):
        pos, e, h = mono
        blk = 1 if pos < block_start else 0
        vd = sum(e[n:]) - sum(e[:n]) + shifts[pos]
        return (blk, vd, sum(e), tuple(-a for a in reversed(e)), -h, -pos)
    return key


def _tuple_block_elim_key(block):
    """The elimination order as a tuple key; it ignores h, so it is an
    order only on monomials without h."""
    def key(mono):
        pos, e, h = mono
        bd = sum(e[i] for i in block)
        return (bd, sum(e) - bd, tuple(-a for a in reversed(e)), -pos)
    return key


def _tuple_product_terms(n, coeff, qe, qh, vec, h_step):
    """The terms of coeff * q * vec on tuple keys, one (key, value) per
    choice of contractions, in the order the kernel meets them: vec's
    order, then the earlier variable slowest, fewer contractions first."""
    from itertools import product
    from math import comb, factorial

    def contractions(b, c):
        return [(k, comb(b, k) * comb(c, k) * factorial(k))
                for k in range(min(b, c) + 1)]

    dvars = [i for i in range(n) if qe[n + i]]
    for (pos, e, h), c in vec.items():
        hits = [i for i in dvars if e[i]]
        base = coeff * c
        summed = [a + b for a, b in zip(qe, e)]
        for combo in product(*[contractions(qe[n + i], e[i]) for i in hits]):
            exps = summed[:]
            mult, ks = 1, 0
            for i, (k, mk) in zip(hits, combo):
                if k:
                    exps[i] -= k
                    exps[n + i] -= k
                    mult *= mk
                    ks += k
            yield (pos, tuple(exps), qh + h + h_step * ks), base * mult


def _merge_into(acc, terms, inserted=None):
    """Add (key, value) terms into acc one by one, deleting a key whose sum
    cancels; every key added while absent goes onto `inserted`."""
    for key, c in terms:
        old = acc.get(key)
        if old is None:
            acc[key] = c
            if inserted is not None:
                inserted.append(key)
        elif old + c:
            acc[key] = old + c
        else:
            del acc[key]
    return acc


def _tuple_mono_mul_flat(n, coeff, qe, qh, vec, h_step):
    """The multiplication kernel on tuple keys, into a fresh vector."""
    return _merge_into({}, _tuple_product_terms(n, coeff, qe, qh, vec, h_step))


def _tuple_divides(m1, m2):
    return m1[0] == m2[0] and m1[2] <= m2[2] and \
        all(a <= b for a, b in zip(m1[1], m2[1]))


def _tuple_flat(v, offset=0):
    return {(offset + j, e, 0): c for j, comp in enumerate(v.components)
            for e, c in comp.terms.items()}


def _tuple_homogenize(vec):
    deg = max((sum(e) + h for (_, e, h) in vec), default=0)
    out = {}
    for (pos, e, _), c in vec.items():
        key = (pos, e, deg - sum(e))
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def _pack(codec, vec):
    return {codec.pack(*m): c for m, c in vec.items()}


def _unpack(codec, vec):
    return {codec.unpack(m): c for m, c in vec.items()}


def _v_order(n, shifts, block_start, degree=4):
    import derham.groebner as G
    return (G.v_order_codec(n, shifts, block_start, degree),
            _tuple_v_order_key(n, shifts, block_start))


def _block_elim(n, block, degree=4):
    import derham.groebner as G
    return G.block_elim_codec(n, block, degree), _tuple_block_elim_key(block)


def _random_mono(rng, n, positions, max_exp=4, max_h=4):
    return (rng.randrange(positions),
            tuple(rng.randint(0, max_exp) for _ in range(2 * n)),
            rng.randint(0, max_h))


# ---------------------------------------------------------------------------
# the packed codec against the tuple keys
# ---------------------------------------------------------------------------

def test_packed_order_is_the_tuple_key_order():
    rng = random.Random(7)
    orders = 0
    for n in range(1, 7):
        for rank in (1, 2, 3):
            shifts = tuple(rng.randint(-5, 5) for _ in range(rank))
            block_start = rng.randint(1, rank)  # two blocks when rank > 1
            block = tuple(sorted(rng.sample(range(2 * n), rng.randint(1, 2 * n))))
            # an elimination order has one position and no h
            for (codec, key), positions, max_h in (
                    (_v_order(n, shifts, block_start), rank, 4),
                    (_block_elim(n, block), 1, 0)):
                monos = list({_random_mono(rng, n, positions, max_h=max_h)
                              for _ in range(60)})
                packed = {m: codec.pack(*m) for m in monos}
                assert all(codec.unpack(p) == m for m, p in packed.items())
                assert sorted(monos, key=packed.get) == sorted(monos, key=key)
                orders += 1
    assert orders == 36


def test_packed_divides_lcm_and_degree_match_tuples():
    rng = random.Random(8)
    divisible = 0
    for n in (1, 2, 3):
        for (codec, _), positions in ((_v_order(n, (2, -3), 1), 2),
                                      (_block_elim(n, (0, n)), 1)):
            for _ in range(150):
                a = _random_mono(rng, n, positions, max_exp=2, max_h=2)
                b = _random_mono(rng, n, positions, max_exp=2, max_h=2)
                pa, pb = codec.pack(*a), codec.pack(*b)
                assert codec.divides(pa, pb) == _tuple_divides(a, b)
                divisible += _tuple_divides(a, b)
                assert codec.degree(pa) == sum(a[1]) + a[2]
                if a[0] == b[0]:
                    want = (a[0], tuple(map(max, a[1], b[1])), max(a[2], b[2]))
                    assert codec.lcm(pa, pb) == codec.pack(*want)
                    # the lcm key: same degree, divisors and equalities
                    key = codec.lcm_key(pa, pb)
                    assert codec.degree(key) == sum(want[1]) + want[2]
                    assert codec.divides(pa, key) and codec.divides(pb, key)
                    c = _random_mono(rng, n, positions, max_exp=3, max_h=3)
                    pc = codec.pack(*c)
                    assert codec.divides(pc, key) == _tuple_divides(c, want)
                    if c[0] == a[0]:
                        other = codec.lcm_key(pa, pc)
                        assert codec.divides(other, key) == \
                            _tuple_divides((c[0], tuple(map(max, a[1], c[1])),
                                            max(a[2], c[2])), want)
                        assert (other == key) == (codec.lcm(pa, pc) == codec.lcm(pa, pb))
    assert divisible >= 20


def test_packed_kernel_matches_tuple_kernel():
    import derham.groebner as G
    from fractions import Fraction
    rng = random.Random(9)
    contracted = 0
    for n, rank in ((1, 1), (1, 3), (2, 2), (3, 1)):
        orders = [_v_order(n, (1, -1, 0)[:rank], 1)]
        if rank == 1:
            orders.append(_block_elim(n, (0, n)))
        for codec, _ in orders:
            for h_step in (0, 2):
                for _ in range(40):
                    vec = {}
                    for _ in range(rng.randint(1, 6)):
                        vec[_random_mono(rng, n, rank, max_exp=3, max_h=2)] = \
                            Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                    _, qe, qh = _random_mono(rng, n, 1, max_exp=3, max_h=2)
                    coeff = rng.choice([1, -2, Fraction(3, 4)])
                    want = _tuple_mono_mul_flat(n, coeff, qe, qh, vec, h_step)
                    q = codec.pack(0, qe, qh) - codec.one
                    got = _unpack(codec, G.mono_mul_flat(codec, coeff, q,
                                                         _pack(codec, vec), h_step, {}))
                    assert got == want
                    assert list(got) == list(want)
                    contracted += len(want) > len(vec)
    assert contracted >= 50


def test_kernel_accumulates_into_the_given_vector():
    """Adding into a nonempty vector equals merging a fresh product into
    it, term for term in expansion order, and the heap gets -key for
    exactly the keys the call inserted."""
    import derham.groebner as G
    rng = random.Random(10)
    cancelled = 0
    for n, rank in ((1, 1), (2, 2), (3, 1)):
        codec, _ = _v_order(n, (1, -1)[:rank], 1)
        for h_step in (0, 2):
            for _ in range(60):
                vec = {_random_mono(rng, n, rank, max_exp=2, max_h=2):
                       Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                       for _ in range(rng.randint(1, 5))}
                _, qe, qh = _random_mono(rng, n, 1, max_exp=2, max_h=2)
                coeff = rng.choice([1, -2, Fraction(3, 4)])
                terms = list(_tuple_product_terms(n, coeff, qe, qh, vec, h_step))
                # the vector to add into shares some keys with the product,
                # with values that cancel some of them
                start = {_random_mono(rng, n, rank, max_exp=2, max_h=2): Fraction(1)
                         for _ in range(rng.randint(1, 4))}
                for key, c in rng.sample(terms, min(3, len(terms))):
                    start[key] = rng.choice([-c, Fraction(rng.randint(1, 5))])
                inserted = []
                want = _merge_into(dict(start), terms, inserted)
                out, heap = _pack(codec, start), []
                got = G.mono_mul_flat(codec, coeff, codec.pack(0, qe, qh) - codec.one,
                                      _pack(codec, vec), h_step, out, heap)
                assert got is out
                assert _unpack(codec, got) == want
                assert list(_unpack(codec, got)) == list(want)
                fresh = _tuple_mono_mul_flat(n, coeff, qe, qh, vec, h_step)
                assert want == _merge_into(dict(start), fresh.items())
                assert sorted(heap) == sorted(-codec.pack(*m) for m in inserted)
                cancelled += any(m not in want for m in start)
    assert cancelled >= 100


@pytest.mark.parametrize("h_step", [0, 2])
def test_kernel_cancels_and_recreates_a_key_within_one_call(h_step):
    """d1 times (x1 d1 + h^h_step) into {h^h_step d1: -1}: the first
    term's contraction h^h_step d1 cancels the key and the second term
    inserts it again, at the end of the vector and pushed onto the heap."""
    import derham.groebner as G
    codec, _ = _v_order(1, (0,), 1)
    key = codec.pack(0, (0, 1), h_step)
    vec = {codec.pack(0, (1, 1), 0): 1, codec.pack(0, (0, 0), h_step): 1}
    out, heap = {key: -1}, []
    G.mono_mul_flat(codec, 1, codec.pack(0, (0, 1), 0) - codec.one, vec, h_step,
                    out, heap)
    top = codec.pack(0, (1, 2), 0)
    assert out == {top: 1, key: 1}
    assert list(out) == [top, key]  # the re-created key went to the end
    assert sorted(heap) == sorted([-top, -key])
    # merging the fresh product instead keeps the key in its place
    fresh = G.mono_mul_flat(codec, 1, codec.pack(0, (0, 1), 0) - codec.one, vec,
                            h_step, {})
    assert fresh == {top: 1, key: 2}
    assert list(_merge_into({key: -1}, fresh.items())) == [key, top]


def test_planned_kernel_on_one_codec_matches_tuple_kernel():
    """One codec serves many seeded calls under both h_steps, as a
    solver's engine (h_step = 2) and its divider (h_step = 0) share one,
    so later calls meet d-exponents and x-patterns the codec has planned
    before.  Each call still equals the tuple kernel term for term, in
    insertion order, with -key pushed for exactly each inserted key."""
    import derham.groebner as G
    rng = random.Random(11)
    for n, rank in ((1, 2), (2, 1), (3, 2)):
        codec, _ = _v_order(n, (1, -1)[:rank], 1)
        met, steps = set(), {}  # (d-exponents, h_step, x-pattern); h_steps per d-exponents
        repeats = dfree = 0
        for _ in range(250):
            h_step = rng.choice((0, 2))
            vec = {_random_mono(rng, n, rank, max_exp=2, max_h=2):
                   Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                   for _ in range(rng.randint(1, 5))}
            _, qe, qh = _random_mono(rng, n, 1, max_exp=2, max_h=2)
            if rng.random() < 0.3:
                qe = qe[:n] + (0,) * n
            coeff = rng.choice([1, -2, Fraction(3, 4)])
            terms = list(_tuple_product_terms(n, coeff, qe, qh, vec, h_step))
            start = {_random_mono(rng, n, rank, max_exp=2, max_h=2): Fraction(1)
                     for _ in range(rng.randint(0, 3))}
            for key, c in rng.sample(terms, min(2, len(terms))):
                start[key] = rng.choice([-c, Fraction(rng.randint(1, 5))])
            inserted = []
            want = _merge_into(dict(start), terms, inserted)
            out, heap = _pack(codec, start), rng.choice([[], None])
            got = G.mono_mul_flat(codec, coeff, codec.pack(0, qe, qh) - codec.one,
                                  _pack(codec, vec), h_step, out, heap)
            assert got is out
            assert list(_unpack(codec, got).items()) == list(want.items())
            if heap is not None:
                assert sorted(heap) == sorted(-codec.pack(*m) for m in inserted)
            dq = qe[n:]
            if not any(dq):
                dfree += 1
                continue
            steps.setdefault(dq, set()).add(h_step)
            for _, e, _ in vec:
                pattern = tuple(e[i] for i in range(n) if dq[i])
                if any(pattern):
                    repeats += (dq, h_step, pattern) in met
                    met.add((dq, h_step, pattern))
        assert dfree >= 40 and repeats >= 50
        assert sum(len(s) == 2 for s in steps.values()) >= 2


def test_planned_kernel_overflow_raises_internal_error():
    """The d-free loop and the contraction path name the field a product
    leaves, also when the codec already holds the quotient's plan and the
    term's expansion: d1 times x1 h^(wmax - 1) gains h^2 there."""
    import derham.groebner as G
    from derham import InternalError
    codec, _ = _v_order(1, (0,), 1)
    top = codec.wmax

    def mul(qe, qh, e, h, h_step):
        return _unpack(codec, G.mono_mul_flat(codec, 1, codec.pack(0, qe, qh) - codec.one,
                                              {codec.pack(0, e, h): 1}, h_step, {}))

    with pytest.raises(InternalError, match="packed x1 field"):
        mul((1, 0), 0, (top, 0), 0, 0)
    with pytest.raises(InternalError, match="packed h field"):
        mul((0, 0), 1, (0, 0), top, 2)
    assert mul((0, 1), 0, (1, 0), 0, 2) == {(0, (1, 1), 0): 1, (0, (0, 0), 2): 1}
    assert mul((0, 1), 0, (1, 0), top - 2, 2) == {(0, (1, 1), top - 2): 1,
                                                  (0, (0, 0), top): 1}
    with pytest.raises(InternalError, match="packed h field"):
        mul((0, 1), 0, (1, 0), top - 1, 2)
    # the same expansion, but the term with no contraction, x1 d1^wmax,
    # leaves the total degree's weight field first
    with pytest.raises(InternalError, match="packed degree field"):
        mul((0, 1), 0, (1, top - 1), 0, 2)


def test_packing_overflow_raises_internal_error():
    import derham.groebner as G
    from derham import InternalError
    codec, _ = _v_order(1, (0,), 1)
    top = codec.wmax
    codec.pack(0, (top, 0), 0)
    with pytest.raises(InternalError, match="packed x1 field"):
        codec.pack(0, (top + 1, 0), 0)
    with pytest.raises(InternalError, match="packed h field"):
        codec.pack(0, (0, 0), top + 1)
    # a product that crosses the width: x1^wmax times x1
    vec = {codec.pack(0, (top, 0), 0): 1}
    with pytest.raises(InternalError, match="packed x1 field"):
        G.mono_mul_flat(codec, 1, codec.pack(0, (1, 0), 0) - codec.one, vec, 0, {})
    # a contraction that crosses it: d1 x1 h^(wmax - 1) gains h^2
    vec = {codec.pack(0, (1, 0), top - 1): 1}
    with pytest.raises(InternalError, match="packed h field"):
        G.mono_mul_flat(codec, 1, codec.pack(0, (0, 1), 0) - codec.one, vec, 2, {})


def test_flat_to_me_rejects_a_leftover_h_as_internal():
    import derham.groebner as G
    from derham import InternalError
    codec, _ = _v_order(1, (0,), 1)
    with pytest.raises(InternalError, match="dehomogenized"):
        G.flat_to_me({codec.pack(0, (1, 0), 2): 1}, codec, 1)


# ---------------------------------------------------------------------------
# the division kernel against rational division with a rescan per step
# ---------------------------------------------------------------------------

def _reference_reduce(n, key, h_step, vec, reducers, mode="full", pred=None):
    """Rational division as the kernel's contract states it, on tuple
    keys: the lead is max(work, key=key) at every step and arithmetic is
    in Fraction."""
    from fractions import Fraction
    work = {m: Fraction(c) for m, c in vec.items()}
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        if pred is not None and not pred(m):
            del work[m]
            remainder[m] = c
            continue
        hit = next((r for r in reducers if _tuple_divides(r[0], m)), None)
        if hit is None:
            del work[m]
            remainder[m] = c
            if mode == "top":
                _merge_into(remainder, work.items())
                return remainder
            continue
        lead, lc, rvec = hit
        q = tuple(a - b for a, b in zip(m[1], lead[1]))
        prod = _tuple_mono_mul_flat(n, -c / lc, q, m[2] - lead[2], rvec, h_step)
        _merge_into(work, prod.items())
    return remainder


def _assert_same_division(engine, key, vec, reducers, mode="full", floor=0, pred=None):
    """engine.reduce on packed vec and reducers against the tuple
    reference on their unpacked copies; pred is floor on tuples.  The
    integer exit must give the exact remainder times one positive int, its
    scale, which is returned (None for a zero remainder)."""
    from fractions import Fraction
    codec = engine.codec
    tuple_reducers = [(codec.unpack(lead), lc, _unpack(codec, rvec))
                      for lead, lc, rvec in reducers]
    want = _reference_reduce(engine.n, key, engine.h_step, _unpack(codec, vec),
                             tuple_reducers, mode, pred)
    packed = engine.reduce(vec, reducers, mode, floor)
    got = _unpack(codec, packed)
    # booleans first: pytest's diff of two long term lists can take minutes
    same_terms = got == want
    same_order = list(got) == list(want)
    assert same_terms, "remainders differ"
    assert same_order, "remainder terms come out in another order"
    assert all(type(c) is Fraction for c in packed.values())
    ints = engine.reduce(vec, reducers, mode, floor, integral=True)
    assert type(ints) is dict and all(type(c) is int for c in ints.values())
    if not packed:
        assert ints == {}
        return None
    scale = Fraction(next(iter(ints.values()))) / next(iter(packed.values()))
    assert scale.denominator == 1 and scale > 0
    exact = [(m, c / scale) for m, c in ints.items()]
    assert exact == list(packed.items()), "the integer exit is not scale * remainder"
    return scale


# seeded draws per test in which "full" rescales after emitting a term
MIN_LATE_RESCALES = 5


def _random_flat(rng, n, rank, homogeneous, codec, **kw):
    flat = _tuple_flat(random_module_element(rng, n, rank, **kw))
    return _pack(codec, _tuple_homogenize(flat) if homogeneous else flat)


def _check_random_divisions(seed, n, rank, order, h_step, count, floors):
    """Seeded random reducers and dividends, not built by Buchberger, so a
    faulty kernel fails here rather than in the construction of a basis.
    order is (codec, tuple key); position 0 is the codec's first block.
    Each division runs once per prefix in floors, floored at
    codec.weight_floor(*prefix), the reference passing every term whose
    key starts below the prefix through.  Returns how many "full"
    divisions rescaled after emitting a remainder term."""
    import derham.groebner as G
    codec, key = order
    rng = random.Random(seed)
    engine = G.GBEngine(codec, h_step=h_step)
    divisions = late_rescales = 0
    while divisions < count:
        reducers = [G.primitive_entry(r)
                    for r in (_random_flat(rng, n, rank, h_step, codec, max_deg=1)
                              for _ in range(rng.randint(1, 3))) if r]
        vec = _random_flat(rng, n, rank, h_step, codec, max_deg=3, max_terms=5)
        if not reducers or not vec:
            continue
        for prefix in floors:
            scales = {mode: _assert_same_division(
                engine, key, vec, reducers, mode, codec.weight_floor(*prefix),
                lambda m: key(m)[:len(prefix)] >= prefix) for mode in ("full", "top")}
            divisions += 2
            # both modes agree up to the first remainder term, where "top"
            # stops: a larger "full" scale is a rescale after that term
            late_rescales += scales["full"] != scales["top"]
    return late_rescales


def test_reduce_matches_reference_v_order_homogenized():
    late = 0
    for seed, n, rank in ((101, 1, 2), (102, 2, 1)):
        order = _v_order(n, (0, 1)[:rank], 1)
        # no floor, and the first block
        late += _check_random_divisions(seed, n, rank, order, 2, 200, ((), (1,)))
    # the integer exit must rescale the remainder terms already emitted
    assert late >= MIN_LATE_RESCALES


def test_reduce_matches_reference_v_order_plain():
    # not a well-order on D_n: every division is floored at a V-degree of
    # the first block, which holds position 0
    late = 0
    for seed, n, rank in ((103, 1, 2), (104, 2, 1)):
        order = _v_order(n, (0, -1)[:rank], 1)
        late += _check_random_divisions(seed, n, rank, order, 0, 200, ((1, 0), (1, -2)))
    assert late >= MIN_LATE_RESCALES


def test_reduce_matches_reference_block_elim():
    late = _check_random_divisions(105, 2, 1, _block_elim(2, (0, 2)), 0, 200, ((),))
    assert late >= MIN_LATE_RESCALES


def test_top_reduction_to_zero_is_an_empty_dict():
    import derham.groebner as G
    codec, _ = _v_order(1, (0,), 1)
    engine = G.GBEngine(codec, h_step=2)
    entry = G.primitive_entry({codec.pack(0, (1, 1), 0): Fraction(2),
                               codec.pack(0, (0, 0), 2): Fraction(-3)})
    q = codec.pack(0, (2, 0), 0) - codec.one
    vec = G.mono_mul_flat(codec, Fraction(5, 7), q, entry[2], 2, {})
    for integral in (False, True):
        out = engine.reduce(vec, [entry], mode="top", integral=integral)
        assert type(out) is dict and out == {}


# ---------------------------------------------------------------------------
# the divisor index and the minimal leads against searches over every lead
# ---------------------------------------------------------------------------

def _degree_order(n, rank, degree=4):
    import derham.groebner as G
    return G.MonomialCodec(n, rank, degree, (("degree", (1,) * (2 * n), (0,) * rank),))


# (seed, n, rank, codec, h_step)
INDEX_CASES = (
    (231, 1, 2, _v_order(1, (0, 1), 2)[0], 2),
    (232, 2, 1, _v_order(2, (0,), 1)[0], 2),
    (233, 2, 1, _block_elim(2, (0, 2))[0], 0),
    (234, 1, 3, _degree_order(1, 3), 0),
)


def test_shared_index_divides_as_a_fresh_search(monkeypatch):
    # one index kept across reduce calls on a reducer list that grows in
    # between, as in a Buchberger run, against an index built per call:
    # the same remainders, and the same kernel calls in the same order
    import derham.groebner as G
    kernel, calls = G.mono_mul_flat, []

    def recording(codec, coeff, q, vec, *rest):
        calls.append((coeff, q, max(vec)))
        return kernel(codec, coeff, q, vec, *rest)

    monkeypatch.setattr(G, "mono_mul_flat", recording)
    changed = 0
    for seed, n, rank, codec, h_step in INDEX_CASES:
        rng = random.Random(seed)
        engine = G.GBEngine(codec, h_step=h_step)
        reducers = []
        # index serves reduce, probe the bare search
        index, probe = G._DivisorIndex(reducers, codec), G._DivisorIndex(reducers, codec)
        dividends, last = [], {}
        for _ in range(10):
            r = _random_flat(rng, n, rank, h_step, codec, max_deg=2, max_terms=2)
            if r:
                reducers.append(G.primitive_entry(r))
                index.append(reducers[-1])
                probe.append(reducers[-1])
            dividends.append(_random_flat(rng, n, rank, h_step, codec,
                                          max_deg=3, max_terms=4))
            # the earlier dividends again: their monomials resume their search
            for k, vec in enumerate(dividends):
                for m in vec:
                    first = next((e for e in reducers if codec.divides(e[0], m)), None)
                    assert probe.find(m) == first, "find skips or misses a reducer"
                for mode in ("full", "top"):
                    del calls[:]
                    shared = engine.reduce(vec, reducers, mode, integral=True,
                                           index=index)
                    shared_calls = calls[:]
                    del calls[:]
                    fresh = engine.reduce(vec, reducers, mode, integral=True)
                    assert list(shared.items()) == list(fresh.items()), "remainders differ"
                    assert shared_calls == calls, "another sequence of kernel calls"
                    changed += last.get((k, mode), shared) != shared
                    last[k, mode] = shared
    # appended reducers divided monomials that earlier searches had met
    assert changed >= 20


def test_reduce_of_ints_is_reduce_of_their_fractions():
    # reduce skips the scale pass on an all-int vector
    import derham.groebner as G
    for seed, n, rank, codec, h_step in INDEX_CASES:
        rng = random.Random(seed)
        engine = G.GBEngine(codec, h_step=h_step)
        for _ in range(30):
            reducers = [G.primitive_entry(r) for r in
                        (_random_flat(rng, n, rank, h_step, codec, max_deg=1)
                         for _ in range(3)) if r]
            vec = _random_flat(rng, n, rank, h_step, codec, max_deg=3, max_terms=4)
            ints = G.primitive_entry(vec)[2] if vec else {}
            # an int first, then halves: not all ints
            mixed = {m: c if k == 0 else Fraction(c, 2) for k, (m, c) in enumerate(ints.items())}
            for given in (ints, mixed):
                fractions = {m: Fraction(c) for m, c in given.items()}
                for mode in ("full", "top"):
                    for integral in (False, True):
                        got = engine.reduce(given, reducers, mode, integral=integral)
                        want = engine.reduce(fractions, reducers, mode, integral=integral)
                        assert list(got.items()) == list(want.items())
                        assert [type(c) for c in got.values()] == \
                            [type(c) for c in want.values()]


def _reference_minimalize(entries, codec):
    """All pairs: drop every entry whose lead another lead divides
    properly, and every copy of a lead but the first."""
    out = []
    for i, entry in enumerate(entries):
        lead = entry[0]
        if any(other == lead for other, _, _ in entries[:i]):
            continue
        if any(other != lead and _tuple_divides(codec.unpack(other), codec.unpack(lead))
               for other, _, _ in entries):
            continue
        out.append(entry)
    return out


def test_minimalize_entries_matches_all_pairs_reference():
    import derham.groebner as G
    dropped = duplicated = 0
    for seed, n, rank, codec, _ in INDEX_CASES:
        rng = random.Random(seed)
        for _ in range(60):
            pool = [codec.pack(*_random_mono(rng, n, rank, max_exp=2, max_h=2))
                    for _ in range(5)]
            leads = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
            entries = [(lead, k, None) for k, lead in enumerate(leads)]
            # Buchberger's F and M take lcm keys, which have no weight fields
            new = rng.choice(pool)
            keys = [(codec.lcm_key(lead, new), k, None) for k, lead in enumerate(pool)
                    if not (lead ^ new) & codec.pmax]
            for cand in (entries, keys):
                want = _reference_minimalize(cand, codec)
                assert G._minimalize_entries(cand, codec) == want
                dropped += len({lead for lead, _, _ in cand}) > len(want)
                duplicated += len({lead for lead, _, _ in cand}) < len(cand)
    assert dropped >= 100 and duplicated >= 100


def test_weight_floor_splits_the_v_order_at_a_degree():
    codec, key = _v_order(1, (0, 2), 1)
    rng = random.Random(7)
    monos = [_random_mono(rng, 1, 2, max_h=0) for _ in range(300)]
    for prefix in ((1,), (0, 1), (1, -3), (1, 0), (0, -10), (1, float("-inf"))):
        floor = codec.weight_floor(*prefix)
        for m in monos:
            assert (codec.pack(*m) >= floor) == (key(m)[:len(prefix)] >= prefix)


def test_h_saturation_failure_raises_internal_error(monkeypatch):
    import derham.groebner as G
    from fractions import Fraction
    from derham import InternalError

    def with_h_content(self, gens, *args, **kwargs):
        lead = self.codec.pack(0, (0, 0), 1)
        return [(lead, Fraction(1), {lead: Fraction(1)})]

    monkeypatch.setattr(G.GBEngine, "buchberger", with_h_content)
    with pytest.raises(InternalError, match="h-saturation"):
        SubmoduleSolver(SPEC1, 1, [me(1, "d1")])


def _reference_reduce_cofactor(solver, w, degree):
    """Cofactor reduction on its own engine: an order over the cofactor
    shift alone, the syzygy entries moved down to position 0, and a floor
    at the given V-degree of its one block."""
    import derham.groebner as G
    p = len(solver.gens)
    codec = G.v_order_codec(solver.n, solver.cofactor_shift, p,
                            G.elements_degree(solver.gens))
    eng = G.GBEngine(codec, h_step=0)
    entries = []
    for _, _, vec in solver._syz_entries:
        shifted = {}
        for m, c in vec.items():
            pos, e, h = solver.codec.unpack(m)
            shifted[codec.pack(pos - solver.rank, e, h)] = c
        lead = max(shifted)
        entries.append((lead, shifted[lead], shifted))
    rem = eng.reduce(G.me_to_flat(w, codec), entries, mode="full",
                     floor=codec.weight_floor(1, degree))
    return G.flat_to_me(rem, codec, p)


def test_reduce_cofactor_matches_reference():
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
                # V-orders are not well-orders: a floor ends the division
                degree = w.v_degree(solver.cofactor_shift) - 2
                want = _reference_reduce_cofactor(solver, w, degree)
                assert solver.reduce_cofactor(w, degree) == want
                outcomes.append("moved" if want != w else "kept")
    assert outcomes.count("moved") >= 10


# ---------------------------------------------------------------------------
# Buchberger's shortcuts against the computations they stand for
# ---------------------------------------------------------------------------

def _reference_interreduce(engine, entries):
    """All-pairs interreduction: every minimal entry divided by all the
    others, unreduced, then sorted by lead."""
    import derham.groebner as G
    kept = sorted(G._minimalize_entries(entries, engine.codec), key=lambda t: t[0])
    final = [G.primitive_entry(engine.reduce(vec, kept[:i] + kept[i + 1:]))
             for i, (_, _, vec) in enumerate(kept)]
    return sorted(final, key=lambda t: t[0])


def _unreduced_basis(engine, gens):
    """Buchberger's entries before interreduction, a Groebner basis, and
    the run's divisor index over them."""
    indexes = []
    engine._interreduce = lambda entries, index: indexes.append(index) or list(entries)
    try:
        return engine.buchberger(gens), indexes[0]
    finally:
        del engine._interreduce


def _same_entries(got, want):
    assert got == want, "entries differ"
    assert [list(v) for _, _, v in got] == [list(v) for _, _, v in want], \
        "terms come out in another order"


def test_interreduce_matches_all_pairs_reference():
    import derham.groebner as G
    cases = (
        (201, 1, 2, _v_order(1, (0, 1), 2)[0], 2, 2),
        (202, 2, 1, _v_order(2, (0,), 1)[0], 2, 1),
        (203, 2, 1, _block_elim(2, (0, 2))[0], 0, 1),
    )
    passed = reduced = 0
    for seed, n, rank, codec, h_step, deg in cases:
        rng = random.Random(seed)
        for _ in range(8):
            engine = G.GBEngine(codec, h_step=h_step)
            gens = [_random_flat(rng, n, rank, h_step, codec, max_deg=deg, max_terms=2)
                    for _ in range(3)]
            raw, index = _unreduced_basis(engine, [g for g in gens if g])
            want = _reference_interreduce(engine, raw)
            # the run's index, and one built over the entries alone
            _same_entries(engine._interreduce(raw, index), want)
            _same_entries(engine._interreduce(raw, G._DivisorIndex(raw, engine.codec)), want)
            before = {lead: vec for lead, _, vec in raw}
            for lead, _, vec in want:
                if before[lead] == vec:
                    passed += 1
                else:
                    reduced += 1
    # both branches ran: entries that pass through and entries that reduce
    assert passed >= 10 and reduced >= 10


def _top_only_basis(engine, gens):
    """Buchberger as it ran before new entries were tail-reduced, on a
    fresh engine: every same-position pair, in order of lcm degree, the
    chain criterion left out, each S-polynomial top-reduced only; then
    all-pairs interreduction."""
    import heapq
    import derham.groebner as G
    codec, h_step = engine.codec, engine.h_step
    engine = G.GBEngine(codec, h_step)
    entries = [G.primitive_entry(G.homogenize_flat(g, codec) if h_step else g)
               for g in gens]
    pending = []

    def push(i, j):
        li, lj = entries[i][0], entries[j][0]
        if not (li ^ lj) & codec.pmax:
            heapq.heappush(pending, (codec.degree(codec.lcm_key(li, lj)), i, j))

    for j in range(len(entries)):
        for i in range(j):
            push(i, j)
    while pending:
        _, i, j = heapq.heappop(pending)
        (li, lci, vi), (lj, lcj, vj) = entries[i], entries[j]
        lcm = codec.lcm(li, lj)
        s = G.mono_mul_flat(codec, lcj, lcm - li, vi, h_step, {})
        G.mono_mul_flat(codec, -lci, lcm - lj, vj, h_step, s)
        r = engine.reduce(s, entries, mode="top")
        if r:
            entries.append(G.primitive_entry(r))
            for k in range(len(entries) - 1):
                push(k, len(entries) - 1)
    return _reference_interreduce(engine, entries)


def _seeded_gens(rng, n, rank, codec, h_step, deg):
    gens = [_random_flat(rng, n, rank, h_step, codec, max_deg=deg, max_terms=2)
            for _ in range(3)]
    return [g for g in gens if g]


# (seed, n, rank, codec, h_step, degree of the generators)
TAIL_CASES = (
    (211, 1, 2, _v_order(1, (0, 1), 2)[0], 2, 2),
    (212, 2, 1, _v_order(2, (0,), 1)[0], 2, 1),
    (213, 2, 1, _block_elim(2, (0, 2))[0], 0, 1),
)


def test_buchberger_matches_the_top_only_loop():
    import derham.groebner as G
    for seed, n, rank, codec, h_step, deg in TAIL_CASES:
        rng = random.Random(seed)
        for _ in range(6):
            gens = _seeded_gens(rng, n, rank, codec, h_step, deg)
            if gens:
                engine = G.GBEngine(codec, h_step=h_step)
                _same_entries(engine.buchberger(gens), _top_only_basis(engine, gens))


# leads x1*x2, x2*x3, x1*x3: the three lcms are all x1*x2*x3, so the third
# lead divides the lcm of the first pair.  B_k must keep that pair, as its
# lcm equals those of the new pairs, of which F keeps the first.  A B_k that
# drops it reduces only S(g0, g2), which is zero, and never
# S(g0, g1) = x2*x3 - x1*d1, which is no combination of the gens
TRIANGLE = ("x1*x2 + x2", "x2*x3 + d1", "x1*x3 + x3")
# the triangle at both positions, with a tail at position 0 in the second
TRIANGLE_MODULE = tuple((t, "0") for t in TRIANGLE) + tuple(("x1", t) for t in TRIANGLE)


# every monomial of degree 2 in x1, x2, x3: its own reduced basis
QUADRICS = ("x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2")


def _flats_in_d3(rows, h_step):
    """The rows over D_3 and a codec for them: a V-order for h_step = 2, a
    degree order for h_step = 0."""
    import derham.groebner as G
    rank = len(rows[0])
    codec = _v_order(3, (0,) * rank, rank)[0] if h_step else \
        G.MonomialCodec(3, rank, 4, (("degree", (1,) * 6, (0,) * rank),))
    return [G.me_to_flat(me(3, *r), codec) for r in rows], codec


@pytest.mark.parametrize("h_step", [0, 2])
def test_buchberger_criteria_keep_the_triangle(h_step):
    import derham.groebner as G
    for rows in ([(t,) for t in TRIANGLE], TRIANGLE_MODULE):
        gens, codec = _flats_in_d3(rows, h_step)
        engine = G.GBEngine(codec, h_step=h_step)
        _same_entries(engine.buchberger(gens), _top_only_basis(engine, gens))
        assert engine.spairs_skipped > 0


def _nonzero_flats(rng, count, n, rank, h_step, codec, deg):
    gens = []
    while len(gens) < count:
        g = _random_flat(rng, n, rank, h_step, codec, max_deg=deg, max_terms=2)
        if g:
            gens.append(g)
    return gens


@pytest.mark.parametrize("h_step", [0, 2])
def test_buchberger_criteria_match_the_loop_without_them(h_step):
    # four and five generators, so that M, F and B_k get pairs to drop
    import derham.groebner as G
    cases = ((221, 1, 2, _v_order(1, (0, 1), 2)[0], 2),
             (222, 2, 1, _v_order(2, (0,), 1)[0], 1)) if h_step else \
        ((223, 2, 1, _block_elim(2, (0, 2))[0], 1),
         (224, 1, 2, G.MonomialCodec(1, 2, 4, (("degree", (1, 1), (0, 0)),)), 2))
    skipped = 0
    for seed, n, rank, codec, deg in cases:
        rng = random.Random(seed)
        for count in (4, 5) * 3:
            gens = _nonzero_flats(rng, count, n, rank, h_step, codec, deg)
            engine = G.GBEngine(codec, h_step=h_step)
            _same_entries(engine.buchberger(gens), _top_only_basis(engine, gens))
            skipped += engine.spairs_skipped > 0
    assert skipped >= 8


def _same_position_pairs(codec, entries):
    positions = [lead & codec.pmax for lead, _, _ in entries]
    return sum(a == b for i, a in enumerate(positions) for b in positions[i + 1:])


@pytest.mark.parametrize("h_step", [0, 2])
def test_buchberger_treats_or_skips_every_pair_once(h_step):
    # on a reduced basis no S-pair adds an entry, so every same-position
    # pair is formed once and either reduced or skipped; changed=() forms none
    import derham.groebner as G
    inputs = [_flats_in_d3(rows, h_step) for rows in
              ([(t,) for t in TRIANGLE], TRIANGLE_MODULE, [(q,) for q in QUADRICS])]
    if h_step:
        codec = _v_order(2, (0, 1), 2)[0]
        rng = random.Random(225)
        inputs += [(_nonzero_flats(rng, 4, 2, 2, h_step, codec, 1), codec)
                   for _ in range(3)]
    skipped = 0
    for gens, codec in inputs:
        basis = G.GBEngine(codec, h_step=h_step).buchberger(gens)
        vecs = [vec for _, _, vec in basis]
        engine = G.GBEngine(codec, h_step=h_step)
        _same_entries(engine.buchberger(vecs), basis)
        assert engine.spairs_reduced + engine.spairs_skipped == \
            _same_position_pairs(codec, basis)
        untouched = G.GBEngine(codec, h_step=h_step)
        _same_entries(untouched.buchberger(vecs, changed=()), basis)
        assert untouched.spairs_reduced == untouched.spairs_skipped == 0
        skipped += engine.spairs_skipped > 0
    assert skipped, "no criterion dropped a pair"


def test_new_buchberger_entries_have_reduced_tails():
    # the gens enter as given; every entry Buchberger adds has no tail
    # term divisible by the lead of an entry before it
    import derham.groebner as G
    checked = 0
    for seed, n, rank, codec, h_step, deg in TAIL_CASES:
        rng = random.Random(seed)
        for _ in range(6):
            gens = _seeded_gens(rng, n, rank, codec, h_step, deg)
            raw, _ = _unreduced_basis(G.GBEngine(codec, h_step=h_step), gens)
            for k in range(len(gens), len(raw)):
                lead, _, vec = raw[k]
                tail = [codec.unpack(m) for m in vec if m != lead]
                for earlier, _, _ in raw[:k]:
                    divisor = codec.unpack(earlier)
                    assert not any(_tuple_divides(divisor, m) for m in tail), \
                        "a new entry keeps a reducible tail term"
                checked += bool(tail)
    assert checked >= 20


def _saturate_from_scratch(solver):
    """The h-saturation of the solver's augmented module with every round
    restarted from scratch.  Returns the basis and, per saturation round,
    whether it needed S-pairs: whether its basis differs from the
    interreduced stripped list."""
    import derham.groebner as G
    from fractions import Fraction
    codec = solver.codec
    engine = G.GBEngine(codec, h_step=2)
    aug = []
    for i, g in enumerate(solver.gens):
        flat = G.me_to_flat(g, codec)
        flat[codec.pack(solver.rank + i, (0,) * (2 * solver.n), 0)] = Fraction(1)
        aug.append(flat)
    reduced, rounds = engine.buchberger(aug), []
    while True:
        stripped = []
        for _, _, vec in reduced:
            content = min(codec.h(m) for m in vec)
            stripped.append({_strip_h(codec, m, content): c for m, c in vec.items()})
        if stripped == [vec for _, _, vec in reduced]:
            return reduced, rounds
        reduced = engine.buchberger(stripped)
        rounds.append(reduced != engine.buchberger(stripped, changed=()))


def _strip_h(codec, m, content):
    pos, e, h = codec.unpack(m)
    return codec.pack(pos, e, h - content)


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
