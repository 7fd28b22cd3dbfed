"""Seeded line arrangements in C^2 against Orlik-Solomon.

For the complement of an affine arrangement of distinct lines in C^2,
b1 is the number of lines and b2 = sum over intersection points p of
(m_p - 1), where m_p is the number of lines through p (Orlik-Solomon,
Invent. Math. 56, 1980).  The oracle below computes that from the line
coefficients alone, so it shares nothing with the pipeline.
"""

import itertools
import random
from fractions import Fraction

import pytest

from derham import ProblemSpec, compute_derham

SEED = 2024


def orlik_solomon_dims(lines):
    through = {}
    for (i, (a1, b1, c1)), (j, (a2, b2, c2)) in itertools.combinations(
            enumerate(lines), 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue  # parallel lines never meet
        point = (Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det))
        through.setdefault(point, set()).update((i, j))
    return [1, len(lines), sum(len(s) - 1 for s in through.values()), 0, 0]


def _same_line(l1, l2):
    """Proportional coefficient triples cut out the same line."""
    return all(p * s == q * r for (p, q), (r, s) in itertools.combinations(
        zip(l1, l2), 2))


def _kind(lines):
    """(some two lines are parallel, some three lines meet in a point)."""
    pairs = list(itertools.combinations(lines, 2))
    crossing = sum(1 for l1, l2 in pairs if l1[0] * l2[1] != l2[0] * l1[1])
    # sum (m_p - 1) falls short of sum C(m_p, 2) exactly when some m_p >= 3
    return crossing < len(pairs), orlik_solomon_dims(lines)[2] < crossing


def _draw_line(rng):
    while True:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        if a or b:
            return (a, b, rng.randint(-2, 2))


def _add_distinct(lines, line):
    if all(not _same_line(line, old) for old in lines):
        lines.append(line)


def draw_arrangement(rng, parallel, concurrent):
    """Three or four distinct lines of the requested kind."""
    while True:
        lines = []
        if concurrent:
            px, py = rng.randint(-1, 1), rng.randint(-1, 1)
            for a, b in rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)], 3):
                lines.append((a, b, -a * px - b * py))
        if parallel:
            a, b, c = lines[0] if lines else _draw_line(rng)
            _add_distinct(lines, (a, b, c))
            lines.append((a, b, c + rng.choice((-2, -1, 1, 2))))
        while len(lines) < 3:
            _add_distinct(lines, _draw_line(rng))
        if _kind(lines) == (parallel, concurrent):
            return lines


def _factor(line):
    a, b, c = line
    return f"({a}*x + {b}*y + {c})"


_RNG = random.Random(SEED)
ARRANGEMENTS = [draw_arrangement(_RNG, parallel, concurrent)
                for parallel in (False, True) for concurrent in (False, True)
                for _ in range(2)]


def test_oracle_examples():
    assert orlik_solomon_dims([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == [1, 3, 2, 0, 0]
    assert orlik_solomon_dims([(1, 0, 0), (1, 0, 1), (0, 1, 0)]) == [1, 3, 2, 0, 0]
    assert orlik_solomon_dims([(1, 0, 0), (1, 0, 1)]) == [1, 2, 0, 0, 0]
    assert _same_line((1, 2, -1), (-2, -4, 2)) and not _same_line((1, 2, 1), (1, 2, 2))
    assert _kind([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == (False, True)
    assert _kind([(1, 0, 0), (1, 0, 1), (0, 1, 0)]) == (True, False)


def test_draws_cover_every_kind():
    assert {_kind(lines) for lines in ARRANGEMENTS} == {
        (False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("lines", ARRANGEMENTS,
                         ids=["*".join(map(_factor, a)) for a in ARRANGEMENTS])
def test_arrangement_matches_orlik_solomon(lines):
    report = compute_derham(ProblemSpec(["x", "y"], ["*".join(map(_factor, lines))]))
    assert report.dims == orlik_solomon_dims(lines)
