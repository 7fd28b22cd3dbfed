"""Exact linear algebra over the rationals.

Matrices are lists of rows of rationals, ints or Fractions.  Elimination
runs fraction-free on integer rows, in the manner of Bareiss (Math. Comp.
22, 1968): each row is first scaled to primitive ints by clearing its
denominators, a pivot entry p eliminates an entry f of another row by the
cross-multiplication (p/g) row - (f/g) pivot row with g = gcd(f, p), and
the new row is divided by the gcd of its entries, where Bareiss divides by
the previous pivot.  No Fraction is built before the exit, which divides
each pivot row by its pivot.  Scaling rows by nonzero rationals
keeps their span, and a reduced row echelon form is unique, so the result
is the one rational Gauss-Jordan elimination gives: the same matrix, the
same pivots, and from solve the same solution with its free variables
zero.

FirstDependence finds the first linear dependence in a sequence of sparse
vectors, for the searches of a minimal polynomial by increasing degree:
b_f in localization and the restriction b-functions.  Its echelon rows are
primitive int vectors, reduced by the same cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional


def _denominator_lcm(values) -> int:
    den = 1
    for c in values:
        d = c.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    return den


def _primitive_row(row) -> list:
    """row times a positive rational, in coprime ints; a zero row stays
    zero."""
    den = _denominator_lcm(row)
    ints = [c.numerator * (den // c.denominator) for c in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _eliminate(m):
    """(rows, pivot columns): m with every row scaled to primitive ints,
    eliminated fraction-free (module docstring) to a reduced echelon form
    whose pivots are not yet 1; the rows past the pivots are zero."""
    a = [_primitive_row(row) for row in m]
    if not a or not a[0]:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                g = gcd(f, p)
                u, v = p // g, f // g
                new = [u * x - v * y for x, y in zip(a[i], prow)]
                g = gcd(*new)
                a[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m) -> int:
    """Rank of a rectangular rational matrix."""
    return len(_eliminate(m)[1])


def rref(m):
    """Reduced row echelon form, in Fractions; returns (matrix, pivot
    column list)."""
    a, pivots = _eliminate(m)
    out = [[Fraction(x, a[r][c]) for x in a[r]] for r, c in enumerate(pivots)]
    out += [[Fraction(0)] * len(row) for row in a[len(pivots):]]
    return out, pivots


def solve(a, b) -> Optional[list]:
    """One exact solution x of a x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [Fraction(0)] * cols
    red, pivots = rref([list(a[i]) + [b[i]] for i in range(rows)])
    if pivots and pivots[-1] == cols:  # pivot in the rhs column: inconsistent
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


class FirstDependence:
    """The first linear dependence in a sequence of sparse vectors, found
    by an echelon form that grows one vector at a time.

    Vectors are dicts from keys to rationals; a zero value is an absent
    key.  A row of the echelon form is an earlier vector, scaled to ints,
    minus multiples of the rows before it, kept primitive, with a pivot key
    that no later row holds; so reducing a vector by the rows in turn
    leaves zero iff it lies in their span.  The vectors before the first
    dependent one are independent, so the dependence is unique, and solve
    finds it from the pivot coordinates alone, whose matrix is invertible
    (the rows are triangular there).
    """

    __slots__ = ("vectors", "rows")

    def __init__(self):
        self.vectors = []
        self.rows = []  # (pivot key, pivot value, primitive int row)

    def add(self, vec: dict) -> Optional[list]:
        """None while vec is independent of the vectors added before it;
        else the coefficients c_0, ..., c_(t-1), 1 of the dependence
        c_0 v_0 + ... + c_(t-1) v_(t-1) + vec = 0."""
        den = _denominator_lcm(vec.values())
        work = {k: c.numerator * (den // c.denominator) for k, c in vec.items() if c}
        for key, p, row in self.rows:
            f = work.get(key)
            if not f:
                continue
            g = gcd(f, p)
            u, v = p // g, f // g
            if u != 1:
                for k in work:
                    work[k] *= u
            for k, c in row.items():
                s = work.get(k, 0) - v * c
                if s:
                    work[k] = s
                else:
                    del work[k]
        if work:
            g = gcd(*work.values())
            if g > 1:
                work = {k: c // g for k, c in work.items()}
            key = next(iter(work))
            self.rows.append((key, work[key], work))
            self.vectors.append(vec)
            return None
        pivots = [key for key, _, _ in self.rows]
        sol = solve([[v.get(key, 0) for v in self.vectors] for key in pivots],
                    [-vec.get(key, 0) for key in pivots])
        return sol + [Fraction(1)]
