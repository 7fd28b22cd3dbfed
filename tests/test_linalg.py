import random
from fractions import Fraction

from derham import linalg


def F(a, b=1):
    return Fraction(a, b)


def test_rank_basic():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(0), F(0)]]) == 0


def test_rank_rectangular():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
    assert linalg.rank(m) == 2


def test_solve():
    a = [[F(2), F(0)], [F(0), F(3)]]
    assert linalg.solve(a, [F(4), F(9)]) == [F(2), F(3)]
    # inconsistent
    assert linalg.solve([[F(1)], [F(1)]], [F(0), F(1)]) is None
    # underdetermined: free variables pinned to zero
    sol = linalg.solve([[F(1), F(1)]], [F(5)])
    assert sol == [F(5), F(0)]
    # no equations
    assert linalg.solve([], []) == []


def test_exactness_of_arithmetic():
    # Hilbert-like fragile matrix: exact rank must be full
    m = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    assert linalg.rank(m) == 5


# ---------------------------------------------------------------------------
# the fraction-free elimination against rational Gauss-Jordan elimination
# ---------------------------------------------------------------------------

def reference_rref(m):
    """Gauss-Jordan elimination in Fractions: (matrix, pivot columns)."""
    a = [[Fraction(v) for v in row] for row in m]
    if not a or not a[0]:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots, r = [], 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def reference_solve(a, b):
    """A solution with free variables zero, or None, off reference_rref."""
    cols = len(a[0]) if a else 0
    if not a:
        return [Fraction(0)] * cols
    red, pivots = reference_rref([list(row) + [v] for row, v in zip(a, b)])
    if any(row[-1] and not any(row[:-1]) for row in red):
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


def random_rational(rng, bound=6, den=9):
    if rng.random() < 0.3:
        return 0
    v = Fraction(rng.randint(-bound, bound), rng.randint(1, den))
    # the contract's mix: integral values as ints, the rest as Fractions
    return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v


def random_matrices(rng):
    """Seeded rational matrices of every shape the elimination meets."""
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        yield [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
    for _ in range(15):  # singular: later rows combine earlier ones
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        base = [[random_rational(rng) for _ in range(cols)]
                for _ in range(rng.randint(1, rows - 1))]
        m = list(base)
        while len(m) < rows:
            coefs = [random_rational(rng) for _ in base]
            m.append([sum(c * row[j] for c, row in zip(coefs, base)) for j in range(cols)])
        rng.shuffle(m)
        yield m
    for rows, cols in ((1, 1), (3, 4), (4, 1)):
        yield [[0] * cols for _ in range(rows)]
    for _ in range(8):  # wide and tall
        short, long = rng.randint(1, 3), rng.randint(7, 10)
        yield [[random_rational(rng) for _ in range(long)] for _ in range(short)]
        yield [[random_rational(rng) for _ in range(short)] for _ in range(long)]
    for size in range(1, 8):  # Hilbert-like, scaled rows and a unit shift
        yield [[Fraction(rng.randint(1, 3), i + j + 1 + rng.randint(0, 1)) for j in range(size)]
               for i in range(size)]


def test_rref_rank_and_solve_match_rational_elimination():
    rng = random.Random(17)
    inconsistent = dependent = 0
    for m in random_matrices(rng):
        want, want_pivots = reference_rref(m)
        got, pivots = linalg.rref(m)
        assert pivots == want_pivots and got == want
        assert all(type(v) is Fraction for row in got for v in row)
        assert linalg.rank(m) == len(want_pivots)
        dependent += len(want_pivots) < len(m)
        cols = len(m[0])
        # a consistent right-hand side (an image), then an arbitrary one
        x = [random_rational(rng) for _ in range(cols)]
        for b in ([sum(c * v for c, v in zip(row, x)) for row in m],
                  [random_rational(rng) for _ in m]):
            want_x = reference_solve(m, b)
            assert linalg.solve(m, b) == want_x
            inconsistent += want_x is None
    assert dependent >= 30 and inconsistent >= 25


def test_elimination_runs_in_ints():
    rng = random.Random(3)
    for m in random_matrices(rng):
        rows, pivots = linalg._eliminate(m)
        assert all(type(v) is int for row in rows for v in row)
        assert len(rows) == len(m) and not any(any(row) for row in rows[len(pivots):])


class ReferenceFirstDependence:
    """FirstDependence over Fractions: rows scaled to 1 at their pivots."""

    def __init__(self):
        self.vectors, self.rows = [], []

    def add(self, vec):
        work = {k: Fraction(v) for k, v in vec.items() if v}
        for key, row in self.rows:
            f = work.get(key)
            if f:
                for k, v in row.items():
                    s = work.get(k, 0) - f * v
                    if s:
                        work[k] = s
                    else:
                        work.pop(k, None)
        if work:
            key = next(iter(work))
            self.rows.append((key, {k: v / work[key] for k, v in work.items()}))
            self.vectors.append(vec)
            return None
        pivots = [key for key, _ in self.rows]
        return reference_solve([[v.get(k, 0) for v in self.vectors] for k in pivots],
                               [-vec.get(k, 0) for k in pivots]) + [Fraction(1)]


def random_sparse(rng, keys):
    return {k: v for k in rng.sample(keys, rng.randint(1, len(keys)))
            if (v := random_rational(rng))}


def test_first_dependence_matches_rational_search():
    rng = random.Random(29)
    found = scaled = 0
    keys = [(i, j) for i in range(3) for j in range(3)]
    for _ in range(60):
        got, want = linalg.FirstDependence(), ReferenceFirstDependence()
        seq = []
        for step in range(len(keys) + 1):
            if step and rng.random() < 0.35:
                # dependent on purpose: a combination of the earlier vectors,
                # or an earlier vector scaled by a large rational
                if rng.random() < 0.5:
                    vec = {}
                    for v in rng.sample(seq, rng.randint(1, len(seq))):
                        c = random_rational(rng) or 1
                        for k, x in v.items():
                            vec[k] = vec.get(k, 0) + c * x
                    vec = {k: x for k, x in vec.items() if x}
                else:
                    c = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
                    vec = {k: c * x for k, x in rng.choice(seq).items()}
                    scaled += 1
            else:
                vec = random_sparse(rng, keys)
            seq.append(vec)
            coeffs = got.add(vec)
            assert coeffs == want.add(vec)
            assert all(type(p) is int and all(type(v) is int for v in row.values())
                       for _, p, row in got.rows)
            if coeffs is not None:
                total = {}
                for c, v in zip(coeffs, got.vectors + [vec]):
                    for k, x in v.items():
                        total[k] = total.get(k, 0) + c * x
                assert not any(total.values())
                found += 1
                break
    # ten vectors in nine coordinates: every sequence ends in a dependence
    assert found == 60 and scaled >= 20
    # a zero value is no pivot: {b: 2} depends on {a: 0, b: 1/3}
    deps = linalg.FirstDependence()
    assert deps.add({"a": 0, "b": Fraction(1, 3)}) is None
    assert deps.add({"b": 2}) == [-6, 1]
