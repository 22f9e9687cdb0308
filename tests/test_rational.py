"""Rational determinant, rank and inverse against references that share no code.

The references are the Leibniz permutation sum for determinants, the largest
nonzero minor for ranks, and a plain triple loop for products.
"""

import itertools
import random
from fractions import Fraction

import pytest

from superweil.rational import rat_det, rat_inv, rat_rank

ENTRIES = [Fraction(0)] * 4 + [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 5)]


def leibniz_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions & 1 else 1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def minor_rank(a):
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                if leibniz_det([[a[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def table(rng, n_rows, n_cols):
    return [[rng.choice(ENTRIES) for _ in range(n_cols)] for _ in range(n_rows)]


def low_rank(rng, n_rows, n_cols, rank):
    """n_rows x n_cols product of random n_rows x rank and rank x n_cols tables."""
    if rank == 0:
        return [[Fraction(0)] * n_cols for _ in range(n_rows)]
    return product(table(rng, n_rows, rank), table(rng, rank, n_cols))


def test_det_matches_leibniz():
    rng = random.Random(601)
    for _ in range(120):
        n = rng.randint(1, 5)
        a = table(rng, n, n)
        assert rat_det(a) == leibniz_det(a)
    for _ in range(30):
        n = rng.randint(2, 5)
        a = low_rank(rng, n, n, rng.randint(0, n - 1))
        assert rat_det(a) == leibniz_det(a) == 0


def test_det_edge_cases():
    assert rat_det([]) == 1
    assert rat_det([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert rat_det([[2, 0, 0], [0, 0, 0], [0, 0, 3]]) == 0
    assert isinstance(rat_det([[1, 2], [3, 4]]), Fraction)
    with pytest.raises(ValueError):
        rat_det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        rat_det([[1, 2], [3]])


def test_rank_matches_largest_minor():
    rng = random.Random(602)
    for _ in range(150):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            a = table(rng, n_rows, n_cols)
        else:
            a = low_rank(rng, n_rows, n_cols, rng.randint(0, min(n_rows, n_cols)))
        assert rat_rank(a) == minor_rank(a)


def test_rank_edge_cases():
    assert rat_rank([]) == 0
    assert rat_rank([[], []]) == 0
    assert rat_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rat_rank([[0, 0], [0, 5], [0, 0]]) == 1
    assert rat_rank([[1, 2, 3], [0, 0, 0], [2, 4, 7]]) == 2
    assert rat_rank([[1, 2, 3, 4]]) == 1
    assert rat_rank([[1], [2], [3]]) == 1


def test_inverse_is_two_sided():
    rng = random.Random(603)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 5)
        a = table(rng, n, n)
        if not leibniz_det(a):
            continue
        ai = rat_inv(a)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert product(a, ai) == ident and product(ai, a) == ident
        checked += 1
    assert rat_inv([]) == []
    assert rat_inv([[0, 2], [4, 0]]) == [[0, Fraction(1, 4)], [Fraction(1, 2), 0]]


def test_singular_inverse_raises():
    rng = random.Random(604)
    singular = [[[0]], [[1, 2], [2, 4]], [[0, 0], [0, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]]
    singular += [low_rank(rng, n, n, n - 1) for n in (2, 3, 4, 5) for _ in range(5)]
    for a in singular:
        with pytest.raises(ZeroDivisionError):
            rat_inv(a)
