"""Seeded random generators for elements, matrices, morphisms, and flag data.

Everything is driven by a caller-supplied random.Random so suites are
reproducible from a single seed.  Bodies are kept in small exact pools
(shears, unit diagonals, Pythagorean rotations) so group constraints hold
exactly over the rationals, and souls are kept sparse so products over
Lambda(p, q) stay fast.
"""

from fractions import Fraction

from .algebra import Parity, Signature
from .errors import OutsideBigCell
from .matrix import SuperMatrix, from_blocks
from .rational import rat_inv, rat_matmul, rat_transpose

UNITS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
COEFFS = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2, 3)]

# Pythagorean (cos, sin) pairs, exactly orthogonal
ROTATIONS = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
]


def coeff(rng) -> Fraction:
    return rng.choice(COEFFS)


def soul_element(sig: Signature, rng, parity: Parity, terms: int = 2):
    """Sparse nilpotent element of the requested homogeneous parity."""
    out = sig.zero()
    for _ in range(terms):
        if parity is Parity.ODD:
            if sig.odd == 0:
                return out
            k = rng.choice([1, 3]) if sig.odd >= 3 else 1
            odds = tuple(sorted(rng.sample(range(1, sig.odd + 1), k)))
            evens = tuple(
                i for i in range(1, sig.even + 1) if rng.random() < 0.25
            )
        else:
            pool = []
            if sig.odd >= 2:
                pool.append(2)
            if sig.odd >= 4 and rng.random() < 0.3:
                pool.append(4)
            k = rng.choice(pool) if pool else 0
            odds = tuple(sorted(rng.sample(range(1, sig.odd + 1), k))) if k else ()
            evens = tuple(
                i for i in range(1, sig.even + 1) if rng.random() < 0.4
            )
            if not odds and not evens:
                continue
        out = out + sig.monomial(evens, odds, coeff(rng))
    return out


def even_invertible(sig: Signature, rng):
    return sig.scalar(rng.choice(UNITS)) + soul_element(sig, rng, Parity.EVEN)


def mixed_element(sig: Signature, rng):
    x = sig.scalar(rng.choice(UNITS + [Fraction(0)]))
    x = x + soul_element(sig, rng, Parity.EVEN, terms=1)
    return x + soul_element(sig, rng, Parity.ODD, terms=1)


def graded_matrix(sig, row_shape, col_shape, rng, soul_terms: int = 1):
    """Grading-valid matrix with random bodies; may be singular."""
    m, n = row_shape
    mc, nc = col_shape
    rows = []
    for i in range(m + n):
        row = []
        for j in range(mc + nc):
            even_pos = (i < m) == (j < mc)
            if even_pos:
                e = sig.scalar(rng.choice([Fraction(0)] + UNITS))
                e = e + soul_element(sig, rng, Parity.EVEN, soul_terms)
            else:
                e = soul_element(sig, rng, Parity.ODD, soul_terms)
            row.append(e)
        rows.append(row)
    return SuperMatrix(sig, row_shape, col_shape, rows)


def graded_soul_matrix(sig, shape, rng, soul_terms: int = 1):
    """Square grading-valid matrix, all entries nilpotent."""
    m, n = shape
    rows = []
    for i in range(m + n):
        row = []
        for j in range(m + n):
            par = Parity.EVEN if (i < m) == (j < m) else Parity.ODD
            row.append(soul_element(sig, rng, par, soul_terms))
        rows.append(row)
    return SuperMatrix(sig, shape, shape, rows)


# exact rational bodies

def unimodular(n: int, rng, steps: int = 0):
    """Determinant-one rational matrix built from random shears."""
    a = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n < 2:
        return a
    for _ in range(steps or 3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([Fraction(-2), Fraction(-1), Fraction(1), Fraction(2),
                        Fraction(1, 2)])
        for col in range(n):
            a[i][col] += c * a[j][col]
    return a


def invertible_body(n: int, rng):
    """Invertible rational matrix: unimodular times a unit diagonal."""
    a = unimodular(n, rng)
    units = [rng.choice(UNITS) for _ in range(n)]
    return [[units[i] * x for x in row] for i, row in enumerate(a)]


def orthogonal_body(m: int, rng):
    """Exact orthogonal matrix from Pythagorean rotations, swaps, and signs."""
    a = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    if m >= 2:
        for _ in range(2 * m):
            i, j = rng.sample(range(m), 2)
            c, s = rng.choice(ROTATIONS)
            for col in range(m):
                x, y = a[i][col], a[j][col]
                a[i][col] = c * x - s * y
                a[j][col] = s * x + c * y
    for i in range(m):
        if rng.random() < 0.5:
            a[i] = [-x for x in a[i]]
    return a


def symplectic_body(two_n: int, rng):
    """Exact symplectic matrix for the form [[0, I], [-I, 0]]."""
    n = two_n // 2
    out = [[Fraction(int(i == j)) for j in range(two_n)] for i in range(two_n)]
    for _ in range(3):
        kind = rng.randrange(3)
        g = [[Fraction(int(i == j)) for j in range(two_n)] for i in range(two_n)]
        if kind == 0:
            A = invertible_body(n, rng)
            Ait = rat_transpose(rat_inv(A))
            for i in range(n):
                for j in range(n):
                    g[i][j] = A[i][j]
                    g[n + i][n + j] = Ait[i][j]
        else:
            B = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    B[i][j] = B[j][i] = rng.choice([Fraction(0)] + COEFFS)
            for i in range(n):
                for j in range(n):
                    if kind == 1:
                        g[i][n + j] = B[i][j]
                    else:
                        g[n + i][j] = B[i][j]
        out = rat_matmul(out, g)
    return out


def embed_body(sig, shape, even_body, odd_body) -> SuperMatrix:
    """Block-diagonal supermatrix from two rational grids."""
    m, n = shape
    rows = []
    for i in range(m):
        rows.append(
            [sig.scalar(even_body[i][j]) for j in range(m)]
            + [sig.zero()] * n
        )
    for i in range(n):
        rows.append(
            [sig.zero()] * m
            + [sig.scalar(odd_body[i][j]) for j in range(n)]
        )
    return SuperMatrix(sig, shape, shape, rows)


# morphisms

def random_morphism(source: Signature, target: Signature, rng):
    """Valid generator images: even ones get c*m*(1 + w) with m a soul monomial."""
    from .algebra import AlgebraMorphism

    even_images = []
    for _ in range(source.even):
        if rng.random() < 0.2 or (target.even == 0 and target.odd < 2):
            even_images.append(target.zero())
            continue
        if target.even and rng.random() < 0.5:
            base = target.eps(rng.randrange(1, target.even + 1))
        else:
            a, b = sorted(rng.sample(range(1, target.odd + 1), 2))
            base = target.monomial((), (a, b))
        img = base * coeff(rng)
        if rng.random() < 0.5:
            # second term shares the base monomial, keeping the square zero
            img = img + base * soul_element(target, rng, Parity.EVEN, terms=1)
        even_images.append(img)
    odd_images = []
    for _ in range(source.odd):
        if rng.random() < 0.1 or target.odd == 0:
            odd_images.append(target.zero())
        else:
            odd_images.append(soul_element(target, rng, Parity.ODD, terms=2))
    return AlgebraMorphism(source, target, even_images, odd_images)


# flag-side samplers

def random_column(sig, shape, rng) -> SuperMatrix:
    m, n = shape
    rows = []
    for i in range(m + n):
        par = Parity.EVEN if i < m else Parity.ODD
        if par is Parity.EVEN:
            e = sig.scalar(rng.choice([Fraction(0)] + UNITS))
            e = e + soul_element(sig, rng, Parity.EVEN, 1)
        else:
            e = soul_element(sig, rng, Parity.ODD, 1)
        rows.append([e])
    return SuperMatrix(sig, shape, (1, 0), rows)


def random_point(sig: Signature, rng):
    """Random big-cell point (A, alpha, beta)."""
    from .flag import BigCellPoint

    A = graded_matrix(sig, (2, 0), (2, 0), rng)
    alpha = SuperMatrix(
        sig, (0, 1), (2, 0),
        [[soul_element(sig, rng, Parity.ODD, 1) for _ in range(2)]],
    )
    beta = SuperMatrix(
        sig, (2, 0), (0, 1),
        [[soul_element(sig, rng, Parity.ODD, 1)] for _ in range(2)],
    )
    return BigCellPoint(A, alpha, beta)


def random_poincare(sig: Signature, rng):
    from .flag import PoincareElement

    def even2x2_invertible():
        body = invertible_body(2, rng)
        soul = graded_soul_matrix(sig, (2, 0), rng)
        return SuperMatrix.from_rational(sig, (2, 0), (2, 0), body) + soul

    L = even2x2_invertible()
    R = even2x2_invertible()
    N = graded_matrix(sig, (2, 0), (2, 0), rng)
    chi = SuperMatrix(
        sig, (2, 0), (0, 1),
        [[soul_element(sig, rng, Parity.ODD, 1)] for _ in range(2)],
    )
    phi = SuperMatrix(
        sig, (0, 1), (2, 0),
        [[soul_element(sig, rng, Parity.ODD, 1) for _ in range(2)]],
    )
    d = even_invertible(sig, rng)
    return PoincareElement(L=L, N=N, R=R, chi=chi, phi=phi, d=d)


def random_group_matrix(sig: Signature, shape, rng) -> SuperMatrix:
    """Invertible grading-valid matrix: exact invertible body times exp(soul)."""
    from .matrix import exp_nilpotent

    m, n = shape
    body = embed_body(sig, shape, invertible_body(m, rng), invertible_body(n, rng))
    return body @ exp_nilpotent(graded_soul_matrix(sig, shape, rng))


def random_big_cell_matrix(sig: Signature, rng, attempts: int = 64) -> SuperMatrix:
    """Invertible (4|1) matrix that lies in the big cell; retries draws."""
    from .flag import flag_pi

    for _ in range(attempts):
        g = random_group_matrix(sig, (4, 1), rng)
        try:
            flag_pi(g)
        except OutsideBigCell:
            continue
        return g
    raise RuntimeError("failed to sample a big-cell matrix; widen attempts")


def random_stabilizer_matrix(sig: Signature, rng) -> SuperMatrix:
    """Random element of the origin's stabilizer pattern, invertible."""
    z = sig.zero()

    def even2x2(invertible: bool):
        body = invertible_body(2, rng) if invertible else [
            [rng.choice([Fraction(0)] + UNITS) for _ in range(2)] for _ in range(2)
        ]
        soul = graded_soul_matrix(sig, (2, 0), rng)
        return SuperMatrix.from_rational(sig, (2, 0), (2, 0), body) + soul

    L = even2x2(True)
    M = even2x2(False)
    Rl = even2x2(True)
    d = even_invertible(sig, rng)
    odd = lambda: soul_element(sig, rng, Parity.ODD, 1)
    rows = [
        [L[0, 0], L[0, 1], M[0, 0], M[0, 1], odd()],
        [L[1, 0], L[1, 1], M[1, 0], M[1, 1], odd()],
        [z, z, Rl[0, 0], Rl[0, 1], z],
        [z, z, Rl[1, 0], Rl[1, 1], z],
        [z, z, odd(), odd(), d],
    ]
    return SuperMatrix(sig, (4, 1), (4, 1), rows)
