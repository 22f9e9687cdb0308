"""Small exact linear algebra over Fraction, used for body checks and ranks.

Rows are lists of Fractions.  Determinant, rank and inverse all come from one
Gauss-Jordan elimination, _eliminate; sizes stay tiny (at most 17 columns), so
no pivoting strategy beyond "first nonzero" is needed.
"""

from fractions import Fraction


def _eliminate(a):
    """Reduce a (rows of Fractions, changed in place) to reduced row echelon form.

    Returns the pivot columns and the signed product of the pivots; for a
    square table with a pivot in every column that product is the determinant.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots = []
    det = Fraction(1)
    for col in range(n_cols):
        row = len(pivots)
        if row == n_rows:
            break
        pivot = next((r for r in range(row, n_rows) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            a[row], a[pivot] = a[pivot], a[row]
            det = -det
        det *= a[row][col]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(n_rows):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return pivots, det


def rat_det(rows) -> Fraction:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square table")
    pivots, det = _eliminate([[Fraction(x) for x in r] for r in rows])
    return det if len(pivots) == n else Fraction(0)


def rat_rank(rows) -> int:
    return len(_eliminate([[Fraction(x) for x in r] for r in rows])[0])


def rat_inv(rows):
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    pivots, _ = _eliminate(a)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular rational matrix")
    return [r[n:] for r in a]


def rat_matmul(a, b):
    if not a or not b:
        return [[] for _ in a]
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0))
         for j in range(len(b[0]))]
        for row in a
    ]


def rat_transpose(a):
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]
