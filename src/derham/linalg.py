"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Plain Gaussian elimination with
exact arithmetic; sizes in this package stay small enough that fraction
growth is not a concern.  FirstDependence finds the first linear
dependence in a sequence of sparse vectors, for the searches of a minimal
polynomial by increasing degree: b_f in localization and the restriction
b-functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


def _copy(m):
    return [list(map(Fraction, row)) for row in m]


def rank(m) -> int:
    """Rank of a rectangular rational matrix."""
    return len(rref(m)[1])


def rref(m):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    a = _copy(m)
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
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def solve(a, b) -> Optional[list]:
    """One exact solution x of a x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(rows)]
    if rows == 0:
        return [Fraction(0)] * cols
    red, pivots = rref(aug)
    for row in red:
        if row[-1] and not any(row[:-1]):
            return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        if c == cols:  # pivot in the rhs column: inconsistent
            return None
        x[c] = red[r][-1]
    return x


class FirstDependence:
    """The first linear dependence in a sequence of sparse vectors, found
    by an echelon form that grows one vector at a time.

    Vectors are dicts from keys to rationals.  A row of the echelon form is
    an earlier vector minus multiples of the rows before it, scaled to 1 at
    its pivot key, a key that no later row holds; so reducing a vector by
    the rows in turn leaves zero iff it lies in their span.  The vectors
    before the first dependent one are independent, so the dependence is
    unique, and solve finds it from the pivot coordinates alone, whose
    matrix is invertible (the rows are triangular there).
    """

    __slots__ = ("vectors", "rows")

    def __init__(self):
        self.vectors = []
        self.rows = []  # (pivot key, reduced vector)

    def add(self, vec: dict) -> Optional[list]:
        """None while vec is independent of the vectors added before it;
        else the coefficients c_0, ..., c_(t-1), 1 of the dependence
        c_0 v_0 + ... + c_(t-1) v_(t-1) + vec = 0."""
        work = dict(vec)
        for key, row in self.rows:
            f = work.get(key)
            if not f:
                continue
            for k, v in row.items():
                s = work.get(k, 0) - f * v
                if s:
                    work[k] = s
                else:
                    del work[k]
        if work:
            key = next(iter(work))
            inv = 1 / Fraction(work[key])
            self.rows.append((key, {k: v * inv for k, v in work.items()}))
            self.vectors.append(vec)
            return None
        pivots = [key for key, _ in self.rows]
        sol = solve([[v.get(key, 0) for v in self.vectors] for key in pivots],
                    [-vec.get(key, 0) for key in pivots])
        return sol + [Fraction(1)]
