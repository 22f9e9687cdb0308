"""Supermatrices over Lambda(p, q) with graded shapes (m|n) x (m'|n').

Rows and columns are split into an even group followed by an odd group.  A
grading-valid matrix has even entries where row and column parity agree and
odd entries where they differ, so it maps graded columns to graded columns.
Core operations: block decomposition, product, supertranspose, supertrace,
determinant of all-even matrices, full inverse via the Schur complement of
the odd-odd block, Berezinian, and exponential of body-free matrices.

The Berezinian ber(g) = det(p - q s^-1 r) * det(s)^-1 is defined exactly when
the scalar parts of the diagonal blocks p and s are invertible; it is
multiplicative, which the test suites exercise heavily.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, Parity, Signature, sum_of_products
from .errors import (
    BodyNotZero,
    GradingError,
    NotEven,
    NotInvertible,
    NotSquare,
    ShapeMismatch,
    SignatureMismatch,
)
from .rational import rat_det


def _coerce_entry(sig: Signature, x):
    if isinstance(x, AlgebraElement):
        if x.signature != sig:
            raise SignatureMismatch("entry over a different signature")
        return x
    if isinstance(x, (int, Fraction)):
        return sig.scalar(x)
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


class SuperMatrix:
    """Dense graded matrix; entries are AlgebraElements over one signature.

    SuperMatrix(...) checks grading; SuperMatrix.unchecked(...) skips only
    that check and exists for internal intermediates such as odd standard
    forms, which are not grading-valid but still multiply sensibly.
    """

    __slots__ = ("signature", "row_shape", "col_shape", "entries")

    def __init__(self, signature, row_shape, col_shape, rows):
        built = _build(signature, row_shape, col_shape, rows)
        bad = _grading_violation(built, row_shape, col_shape)
        if bad is not None:
            i, j = bad
            raise GradingError(
                f"entry ({i},{j}) has parity incompatible with its block position"
            )
        self.signature = signature
        self.row_shape = row_shape
        self.col_shape = col_shape
        self.entries = built

    @classmethod
    def unchecked(cls, signature, row_shape, col_shape, rows) -> "SuperMatrix":
        m = cls.__new__(cls)
        m.signature = signature
        m.row_shape = row_shape
        m.col_shape = col_shape
        m.entries = _build(signature, row_shape, col_shape, rows)
        return m

    @classmethod
    def zeros(cls, signature, row_shape, col_shape) -> "SuperMatrix":
        z = signature.zero()
        nr = row_shape[0] + row_shape[1]
        nc = col_shape[0] + col_shape[1]
        return cls.unchecked(
            signature, row_shape, col_shape, [[z] * nc for _ in range(nr)]
        )

    @classmethod
    def identity(cls, signature, shape) -> "SuperMatrix":
        n = shape[0] + shape[1]
        one, zero = signature.one(), signature.zero()
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls.unchecked(signature, shape, shape, rows)

    @classmethod
    def from_rational(cls, signature, row_shape, col_shape, rows) -> "SuperMatrix":
        """Grid of rationals; off-diagonal-block positions must hold zeros."""
        wrapped = [[signature.scalar(x) for x in row] for row in rows]
        return cls(signature, row_shape, col_shape, wrapped)

    # inspection

    @property
    def total_rows(self) -> int:
        return self.row_shape[0] + self.row_shape[1]

    @property
    def total_cols(self) -> int:
        return self.col_shape[0] + self.col_shape[1]

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.row_shape == other.row_shape
            and self.col_shape == other.col_shape
            and self.entries == other.entries
        )

    __hash__ = None

    def is_zero_matrix(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_grading_valid(self) -> bool:
        return _grading_violation(self.entries, self.row_shape, self.col_shape) is None

    def grading_violation(self):
        """(i, j) of the first bad entry, or None."""
        return _grading_violation(self.entries, self.row_shape, self.col_shape)

    def __repr__(self):
        rs, cs, s = self.row_shape, self.col_shape, self.signature
        return (
            f"SuperMatrix(({rs[0]}|{rs[1]})x({cs[0]}|{cs[1]}) over "
            f"Lambda({s.even},{s.odd}))"
        )

    # arithmetic

    def _check_same_frame(self, other):
        if self.signature != other.signature:
            raise SignatureMismatch("matrices over different signatures")
        if self.row_shape != other.row_shape or self.col_shape != other.col_shape:
            raise ShapeMismatch(
                f"shapes {self.row_shape}x{self.col_shape} and "
                f"{other.row_shape}x{other.col_shape} differ"
            )

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_same_frame(other)
        rows = [[a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)]
        return SuperMatrix.unchecked(self.signature, self.row_shape, self.col_shape, rows)

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_same_frame(other)
        rows = [[a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)]
        return SuperMatrix.unchecked(self.signature, self.row_shape, self.col_shape, rows)

    def __neg__(self):
        rows = [[-a for a in ra] for ra in self.entries]
        return SuperMatrix.unchecked(self.signature, self.row_shape, self.col_shape, rows)

    def __matmul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if self.signature != other.signature:
            raise SignatureMismatch("matrices over different signatures")
        if self.col_shape != other.row_shape:
            raise ShapeMismatch(
                f"inner shapes {self.col_shape} and {other.row_shape} differ"
            )
        sig = self.signature
        b = other.entries
        cols = [[row[j] for row in b] for j in range(other.total_cols)]
        rows = [
            [sum_of_products(sig, [(1, x, y) for x, y in zip(ra, col)
                                   if not (x.is_zero() or y.is_zero())])
             for col in cols]
            for ra in self.entries
        ]
        return SuperMatrix.unchecked(sig, self.row_shape, other.col_shape, rows)

    def scale(self, c) -> "SuperMatrix":
        """Entrywise product with a rational or even element (grading-safe)."""
        c = _coerce_entry(self.signature, c)
        if c.parity() is not Parity.EVEN:
            raise GradingError(
                "scaling by a non-even element; use a scalar matrix product"
            )
        sig = self.signature
        rows = [[sum_of_products(sig, [(1, c, a)]) for a in ra] for ra in self.entries]
        return SuperMatrix.unchecked(self.signature, self.row_shape, self.col_shape, rows)

    # graded structure

    def blocks(self):
        """(p, q, r, s) with p even x even, q even x odd, r odd x even, s odd x odd."""
        m, n = self.row_shape
        mc, nc = self.col_shape
        e = self.entries
        p = [[e[i][j] for j in range(mc)] for i in range(m)]
        q = [[e[i][mc + j] for j in range(nc)] for i in range(m)]
        r = [[e[m + i][j] for j in range(mc)] for i in range(n)]
        s = [[e[m + i][mc + j] for j in range(nc)] for i in range(n)]
        U = SuperMatrix.unchecked
        sig = self.signature
        return (
            U(sig, (m, 0), (mc, 0), p),
            U(sig, (m, 0), (0, nc), q),
            U(sig, (0, n), (mc, 0), r),
            U(sig, (0, n), (0, nc), s),
        )

    def st(self) -> "SuperMatrix":
        return supertranspose(self)


def _build(sig, row_shape, col_shape, rows):
    nr = row_shape[0] + row_shape[1]
    nc = col_shape[0] + col_shape[1]
    if min(row_shape) < 0 or min(col_shape) < 0:
        raise ShapeMismatch("negative block dimension")
    rows = [list(r) for r in rows]
    if len(rows) != nr or any(len(r) != nc for r in rows):
        raise ShapeMismatch(
            f"grid is not {nr}x{nc} for shape {row_shape}x{col_shape}"
        )
    return tuple(
        tuple(_coerce_entry(sig, x) for x in r) for r in rows
    )


def _grading_violation(entries, row_shape, col_shape):
    m = row_shape[0]
    mc = col_shape[0]
    for i, row in enumerate(entries):
        rp = 0 if i < m else 1
        for j, e in enumerate(row):
            if e.is_zero():
                continue
            want = Parity.EVEN if rp == (0 if j < mc else 1) else Parity.ODD
            if e.parity() is not want:
                return (i, j)
    return None


def from_blocks(p, q, r, s) -> SuperMatrix:
    """Reassemble a matrix from its four blocks (inverse of .blocks())."""
    sig = p.signature
    for b in (q, r, s):
        if b.signature != sig:
            raise SignatureMismatch("blocks over different signatures")
    m, n = p.row_shape[0], s.row_shape[1]
    mc, nc = p.col_shape[0], s.col_shape[1]
    if (p.row_shape != (m, 0) or q.row_shape != (m, 0) or r.row_shape != (0, n)
            or s.row_shape != (0, n) or p.col_shape != (mc, 0)
            or r.col_shape != (mc, 0) or q.col_shape != (0, nc)
            or s.col_shape != (0, nc)):
        raise ShapeMismatch("block shapes do not fit a graded square layout")
    rows = []
    for i in range(m):
        rows.append(list(p.entries[i]) + list(q.entries[i]))
    for i in range(n):
        rows.append(list(r.entries[i]) + list(s.entries[i]))
    return SuperMatrix.unchecked(sig, (m, n), (mc, nc), rows)


def supertranspose(g: SuperMatrix) -> SuperMatrix:
    """Graded transpose: blocks (p, q, r, s) |-> (p^T, r^T, -q^T, s^T).

    Entrywise st(g)[a][b] is -g[b][a] when b is an even row and a an odd
    column of g, and g[b][a] otherwise.  Reverses products:
    (g h)^st = h^st g^st.
    """
    m, mc = g.row_shape[0], g.col_shape[0]
    e = g.entries
    rows = [
        [-e[b][a] if b < m and a >= mc else e[b][a] for b in range(g.total_rows)]
        for a in range(g.total_cols)
    ]
    return SuperMatrix.unchecked(g.signature, g.col_shape, g.row_shape, rows)


def supertrace(g: SuperMatrix) -> AlgebraElement:
    """tr(p) - tr(s); requires a square graded shape."""
    if g.row_shape != g.col_shape:
        raise NotSquare(f"shape {g.row_shape}x{g.col_shape} is not square")
    m, n = g.row_shape
    acc = g.signature.zero()
    for i in range(m):
        acc = acc + g.entries[i][i]
    for i in range(n):
        acc = acc - g.entries[m + i][m + i]
    return acc


def det_even(g: SuperMatrix) -> AlgebraElement:
    """Determinant of a matrix all of whose entries are even.

    Even entries commute, so the usual Laplace expansion is well defined;
    it is memoized over column subsets and uses no division.
    """
    if g.total_rows != g.total_cols:
        raise NotSquare(f"shape {g.row_shape}x{g.col_shape} is not square")
    for i, row in enumerate(g.entries):
        for j, e in enumerate(row):
            if e.parity() is not Parity.EVEN:
                raise NotEven(f"entry ({i},{j}) is not even")
    return _grid_det(g.signature, g.entries)


def _grid_det(sig: Signature, rows) -> AlgebraElement:
    n = len(rows)
    if n == 0:
        return sig.one()
    memo = {0: sig.one()}

    def rec(colmask: int) -> AlgebraElement:
        val = memo.get(colmask)
        if val is not None:
            return val
        r = n - colmask.bit_count()
        row = rows[r]
        triples = []
        pos = 0
        rest = colmask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            e = row[j]
            if not e.is_zero():
                sub = rec(colmask ^ low)
                if not sub.is_zero():
                    triples.append((-1 if pos & 1 else 1, e, sub))
            pos += 1
            rest ^= low
        out = sum_of_products(sig, triples)
        memo[colmask] = out
        return out

    return rec((1 << n) - 1)


def _adjugate(g: SuperMatrix) -> SuperMatrix:
    """Transposed cofactor matrix of an all-even square matrix: g adj(g) = det(g) 1."""
    n = g.total_rows
    sig = g.signature
    grid = g.entries
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [grid[a][b] for b in range(n) if b != i]
                for a in range(n) if a != j
            ]
            cof = _grid_det(sig, minor)
            out[i][j] = -cof if (i + j) & 1 else cof
    return SuperMatrix.unchecked(sig, g.row_shape, g.col_shape, out)


def inv_even(g: SuperMatrix) -> SuperMatrix:
    """Inverse of an all-even square matrix via adjugate over determinant."""
    d = det_even(g)
    if not d.body():
        raise NotInvertible("even matrix has a singular scalar part")
    return _adjugate(g).scale(d.inv())


def _invertible_blocks(g: SuperMatrix):
    """Blocks (p, q, r, s) of g after checking that g is invertible.

    Over a Weil superalgebra g is invertible exactly when it is square and
    the bodies of its diagonal blocks p and s are invertible.
    """
    if g.row_shape != g.col_shape:
        raise NotSquare(f"shape {g.row_shape}x{g.col_shape} is not square")
    blocks = g.blocks()
    for block, name in ((blocks[0], "even-even"), (blocks[3], "odd-odd")):
        if rat_det(body_matrix(block)) == 0:
            raise NotInvertible(f"{name} block has a singular scalar part")
    return blocks


def smat_inv(g: SuperMatrix) -> SuperMatrix:
    """Two-sided inverse; exists iff the scalar parts of p and s are invertible."""
    p, q, r, s = _invertible_blocks(g)
    sinv = inv_even(s)
    x = p - q @ sinv @ r
    xinv = inv_even(x)
    q2 = -(xinv @ q @ sinv)
    r2 = -(sinv @ r @ xinv)
    s2 = sinv + sinv @ r @ xinv @ q @ sinv
    return from_blocks(xinv, q2, r2, s2)


def is_invertible(g: SuperMatrix) -> bool:
    try:
        _invertible_blocks(g)
    except (NotSquare, NotInvertible):
        return False
    return True


def berezinian(g: SuperMatrix) -> AlgebraElement:
    """ber(g) = det(p - q s^-1 r) * det(s)^-1 for invertible g."""
    p, q, r, s = _invertible_blocks(g)
    if g.row_shape[1] == 0:
        return det_even(p)
    dsinv = det_even(s).inv()
    sinv = _adjugate(s).scale(dsinv)
    return det_even(p - q @ sinv @ r) * dsinv


def exp_nilpotent(X: SuperMatrix) -> SuperMatrix:
    """Matrix exponential of a body-free matrix; the series terminates."""
    if X.row_shape != X.col_shape:
        raise NotSquare(f"shape {X.row_shape}x{X.col_shape} is not square")
    for i, row in enumerate(X.entries):
        for j, e in enumerate(row):
            if e.body():
                raise BodyNotZero(f"entry ({i},{j}) has nonzero scalar part")
    acc = SuperMatrix.identity(X.signature, X.row_shape)
    term = acc
    k = 1
    while True:
        term = (term @ X).scale(Fraction(1, k))
        if term.is_zero_matrix():
            return acc
        acc = acc + term
        k += 1


def body_matrix(g: SuperMatrix):
    """Grid of the entries' scalar parts, as Fractions."""
    return [[e.body() for e in row] for row in g.entries]


def morphism_map(phi, g: SuperMatrix) -> SuperMatrix:
    """Apply an algebra morphism entrywise; parities survive, so this re-checks grading."""
    rows = [[phi(e) for e in row] for row in g.entries]
    return SuperMatrix(phi.target, g.row_shape, g.col_shape, rows)
