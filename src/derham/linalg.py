"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Plain Gaussian elimination with
exact arithmetic; sizes in this package stay small enough that fraction
growth is not a concern.
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
