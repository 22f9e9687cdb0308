"""The (4|1) superflag around its big cell, and the super-Poincaré action.

Points of the big cell are triples (A, alpha, beta): a 2x2 even matrix, an
odd row, and an odd column.  The chart map flag_pi sends an invertible
(4|1)x(4|1) matrix g, written in the blocks

    [ Z    *    tau1 ]        Z = g[0:2, 0:2]   tau1 = g[0:2, 4]
    [ W    *    tau2 ]        W = g[2:4, 0:2]   tau2 = g[2:4, 4]
    [ rho1 *    g55  ]        rho1 = g[4, 0:2]

to (W Z^-1, rho1 Z^-1, (tau2 - W Z^-1 tau1) d) with d = (g55 - rho1 Z^-1 tau1)^-1.
It collapses right multiplication by upper-triangular-pattern matrices, so it
is constant on the fibers of the quotient; the identity maps to the origin
(0, 0, 0).  The second chart produces B = (W - g55^-1 tau2 rho1) Y^-1 with
Y = Z - g55^-1 tau1 rho1, and the two charts are glued by the twistor
relation A = B + beta alpha, checked exactly by twistor_residual.

The super-Poincaré group acts through matrices [[L,0,0],[NL,R,R chi],[d phi,0,d]];
its action on chart coordinates is A |-> R(A + chi alpha)L^-1 + N,
alpha |-> d (alpha + phi) L^-1, beta |-> d^-1 R (beta + chi).  Setting the odd
parameters to zero recovers the classical affine action A |-> R A L^-1 + N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, Parity, Signature
from .errors import (
    BodyZero,
    KernelError,
    NotInvertible,
    OutsideBigCell,
    ShapeMismatch,
    SignatureMismatch,
)
from .matrix import (
    SuperMatrix,
    body_matrix,
    inv_even,
    is_invertible,
)
from .rational import rat_det, rat_rank

FLAG_SHAPE = (4, 1)


def _sub(g: SuperMatrix, row_idx, col_idx, row_shape, col_shape) -> SuperMatrix:
    rows = [[g.entries[i][j] for j in col_idx] for i in row_idx]
    return SuperMatrix(g.signature, row_shape, col_shape, rows)


def _flag_blocks(g: SuperMatrix):
    if g.row_shape != FLAG_SHAPE or g.col_shape != FLAG_SHAPE:
        raise ShapeMismatch(f"expected shape (4|1)x(4|1), got {g.row_shape}x{g.col_shape}")
    Z = _sub(g, (0, 1), (0, 1), (2, 0), (2, 0))
    W = _sub(g, (2, 3), (0, 1), (2, 0), (2, 0))
    rho1 = _sub(g, (4,), (0, 1), (0, 1), (2, 0))
    tau1 = _sub(g, (0, 1), (4,), (2, 0), (0, 1))
    tau2 = _sub(g, (2, 3), (4,), (2, 0), (0, 1))
    g55 = g.entries[4][4]
    return Z, W, rho1, tau1, tau2, g55


@dataclass(frozen=True)
class BigCellPoint:
    """Chart coordinates (A, alpha, beta) of a point in the big cell."""

    A: SuperMatrix
    alpha: SuperMatrix
    beta: SuperMatrix

    def __post_init__(self):
        sig = self.A.signature
        if self.alpha.signature != sig or self.beta.signature != sig:
            raise SignatureMismatch("point coordinates over different signatures")
        if self.A.row_shape != (2, 0) or self.A.col_shape != (2, 0):
            raise ShapeMismatch("A must be (2|0)x(2|0)")
        if self.alpha.row_shape != (0, 1) or self.alpha.col_shape != (2, 0):
            raise ShapeMismatch("alpha must be (0|1)x(2|0)")
        if self.beta.row_shape != (2, 0) or self.beta.col_shape != (0, 1):
            raise ShapeMismatch("beta must be (2|0)x(0|1)")
        for name, part in (("A", self.A), ("alpha", self.alpha), ("beta", self.beta)):
            if not part.is_grading_valid():
                raise ShapeMismatch(f"{name} has entries of the wrong parity")

    @property
    def signature(self) -> Signature:
        return self.A.signature

    @classmethod
    def origin(cls, sig: Signature) -> "BigCellPoint":
        return cls(
            SuperMatrix.zeros(sig, (2, 0), (2, 0)),
            SuperMatrix.zeros(sig, (0, 1), (2, 0)),
            SuperMatrix.zeros(sig, (2, 0), (0, 1)),
        )

    def __sub__(self, other: "BigCellPoint") -> "BigCellPoint":
        return BigCellPoint(
            self.A - other.A, self.alpha - other.alpha, self.beta - other.beta
        )

    def is_zero(self) -> bool:
        return (
            self.A.is_zero_matrix()
            and self.alpha.is_zero_matrix()
            and self.beta.is_zero_matrix()
        )

    def companion_B(self) -> SuperMatrix:
        """The second-chart coordinate A - beta alpha glued by the twistor relation."""
        return self.A - self.beta @ self.alpha


def flag_pi(g: SuperMatrix) -> BigCellPoint:
    """Chart coordinates of the flag represented by g; raises OutsideBigCell."""
    Z, W, rho1, tau1, tau2, g55 = _flag_blocks(g)
    if rat_det(body_matrix(Z)) == 0:
        raise OutsideBigCell("upper-left block has a singular scalar part")
    if not g55.body():
        raise OutsideBigCell("corner entry has zero scalar part")
    # rho1 and tau1 are odd, so rho1 Z^-1 tau1 and tau1 rho1 are body-free:
    # the normalizer below has the body of g55, and the second-chart block
    # Z - g55^-1 tau1 rho1 the body of Z; both are checked above.
    Zi = inv_even(Z)
    d = (g55 - (rho1 @ Zi @ tau1).entries[0][0]).inv()
    A = W @ Zi
    alpha = rho1 @ Zi
    beta = (tau2 - W @ Zi @ tau1).scale(d)
    return BigCellPoint(A, alpha, beta)


def twistor_residual(g: SuperMatrix) -> SuperMatrix:
    """A - (B + beta alpha) across the two charts; zero on the whole big cell."""
    pt = flag_pi(g)
    Z, W, rho1, tau1, tau2, g55 = _flag_blocks(g)
    g55i = g55.inv()
    Y = Z - (tau1 @ rho1).scale(g55i)
    V = W - (tau2 @ rho1).scale(g55i)
    B = V @ inv_even(Y)
    return pt.A - (B + pt.beta @ pt.alpha)


def big_cell_lift(pt: BigCellPoint) -> SuperMatrix:
    """Standard section: flag_pi(big_cell_lift(pt)) == pt exactly."""
    sig = pt.signature
    one, z = sig.one(), sig.zero()
    A, al, be = pt.A, pt.alpha, pt.beta
    rows = [
        [one, z, z, z, z],
        [z, one, z, z, z],
        [A[0, 0], A[0, 1], one, z, be[0, 0]],
        [A[1, 0], A[1, 1], z, one, be[1, 0]],
        [al[0, 0], al[0, 1], z, z, one],
    ]
    return SuperMatrix(sig, FLAG_SHAPE, FLAG_SHAPE, rows)


def flag_act(g: SuperMatrix, pt: BigCellPoint) -> BigCellPoint:
    """Action of an invertible (4|1) matrix on a big-cell point."""
    return flag_pi(g @ big_cell_lift(pt))


def action_axioms_check(g1: SuperMatrix, g2: SuperMatrix, x) -> bool:
    """Identity acts trivially and composition matches; x picks the action.

    A graded column is acted on by matrix product; a BigCellPoint through the
    chart map.
    """
    ident = SuperMatrix.identity(g1.signature, g1.row_shape)
    if isinstance(x, BigCellPoint):
        if flag_act(ident, x) != x:
            return False
        return flag_act(g1 @ g2, x) == flag_act(g1, flag_act(g2, x))
    if ident @ x != x:
        return False
    return (g1 @ g2) @ x == g1 @ (g2 @ x)


@dataclass(frozen=True)
class PoincareElement:
    """Parameters (L, N, R, chi, phi, d) of a super-Poincaré group element.

    L, R are invertible even 2x2, N is even 2x2, chi is an odd column, phi an
    odd row, d an invertible even scalar.
    """

    L: SuperMatrix
    N: SuperMatrix
    R: SuperMatrix
    chi: SuperMatrix
    phi: SuperMatrix
    d: AlgebraElement

    def __post_init__(self):
        sig = self.L.signature
        for name, part, rs, cs in (
            ("L", self.L, (2, 0), (2, 0)),
            ("N", self.N, (2, 0), (2, 0)),
            ("R", self.R, (2, 0), (2, 0)),
            ("chi", self.chi, (2, 0), (0, 1)),
            ("phi", self.phi, (0, 1), (2, 0)),
        ):
            if part.signature != sig:
                raise SignatureMismatch("parameters over different signatures")
            if part.row_shape != rs or part.col_shape != cs:
                raise ShapeMismatch(f"{name} must be {rs}x{cs}")
            if not part.is_grading_valid():
                raise ShapeMismatch(f"{name} has entries of the wrong parity")
        if not isinstance(self.d, AlgebraElement) or self.d.signature != sig:
            raise SignatureMismatch("d over a different signature")
        if self.d.parity() is not Parity.EVEN:
            raise ShapeMismatch("d must be even")
        if not self.d.body():
            raise NotInvertible("d has zero scalar part")
        for name, part in (("L", self.L), ("R", self.R)):
            if rat_det(body_matrix(part)) == 0:
                raise NotInvertible(f"{name} has a singular scalar part")

    @property
    def signature(self) -> Signature:
        return self.L.signature

    @classmethod
    def identity(cls, sig: Signature) -> "PoincareElement":
        I2 = SuperMatrix.identity(sig, (2, 0))
        return cls(
            L=I2,
            N=SuperMatrix.zeros(sig, (2, 0), (2, 0)),
            R=I2,
            chi=SuperMatrix.zeros(sig, (2, 0), (0, 1)),
            phi=SuperMatrix.zeros(sig, (0, 1), (2, 0)),
            d=sig.one(),
        )


def poincare_matrix(P: PoincareElement) -> SuperMatrix:
    """The (4|1) matrix [[L,0,0],[NL,R,R chi],[d phi,0,d]]."""
    sig = P.signature
    z = sig.zero()
    NL = P.N @ P.L
    Rchi = P.R @ P.chi
    dphi = P.phi.scale(P.d)
    rows = [
        [P.L[0, 0], P.L[0, 1], z, z, z],
        [P.L[1, 0], P.L[1, 1], z, z, z],
        [NL[0, 0], NL[0, 1], P.R[0, 0], P.R[0, 1], Rchi[0, 0]],
        [NL[1, 0], NL[1, 1], P.R[1, 0], P.R[1, 1], Rchi[1, 0]],
        [dphi[0, 0], dphi[0, 1], z, z, P.d],
    ]
    return SuperMatrix(sig, FLAG_SHAPE, FLAG_SHAPE, rows)


def poincare_act(P: PoincareElement, pt: BigCellPoint) -> BigCellPoint:
    """Closed-form action on chart coordinates; matches flag_act exactly."""
    if P.signature != pt.signature:
        raise SignatureMismatch("group element and point over different signatures")
    Li = inv_even(P.L)
    A2 = P.R @ (pt.A + P.chi @ pt.alpha) @ Li + P.N
    alpha2 = ((pt.alpha + P.phi) @ Li).scale(P.d)
    beta2 = (P.R @ (pt.beta + P.chi)).scale(P.d.inv())
    return BigCellPoint(A2, alpha2, beta2)


def poincare_decompose(h: SuperMatrix) -> PoincareElement:
    """Recover (L, N, R, chi, phi, d) from a matrix in the Poincaré pattern."""
    if h.row_shape != FLAG_SHAPE or h.col_shape != FLAG_SHAPE:
        raise ShapeMismatch(f"expected shape (4|1)x(4|1), got {h.row_shape}x{h.col_shape}")
    for i, j in ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (4, 2), (4, 3)):
        if not h.entries[i][j].is_zero():
            raise KernelError(f"entry ({i},{j}) breaks the Poincaré zero pattern")
    L = _sub(h, (0, 1), (0, 1), (2, 0), (2, 0))
    R = _sub(h, (2, 3), (2, 3), (2, 0), (2, 0))
    d = h.entries[4][4]
    # the inverses decide invertibility, raising NotInvertible on a bad body
    N = _sub(h, (2, 3), (0, 1), (2, 0), (2, 0)) @ inv_even(L)
    chi = inv_even(R) @ _sub(h, (2, 3), (4,), (2, 0), (0, 1))
    try:
        dinv = d.inv()
    except BodyZero:
        raise NotInvertible("d has zero scalar part") from None
    phi = _sub(h, (4,), (0, 1), (0, 1), (2, 0)).scale(dinv)
    return PoincareElement(L=L, N=N, R=R, chi=chi, phi=phi, d=d)


def poincare_compose(P1: PoincareElement, P2: PoincareElement) -> PoincareElement:
    """Group law, computed through the matrix picture."""
    return poincare_decompose(poincare_matrix(P1) @ poincare_matrix(P2))


def equivariance_residual(P: PoincareElement, g: SuperMatrix) -> BigCellPoint:
    """flag_pi(matrix(P) @ g) - poincare_act(P, flag_pi(g)); zero everywhere."""
    left = flag_pi(poincare_matrix(P) @ g)
    right = poincare_act(P, flag_pi(g))
    return left - right


STABILIZER_ZEROS = ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (2, 4), (3, 4))


def stabilizer_contains(h: SuperMatrix) -> bool:
    """Membership in the stabilizer of the origin: zero pattern + invertibility."""
    if h.row_shape != FLAG_SHAPE or h.col_shape != FLAG_SHAPE:
        raise ShapeMismatch(f"expected shape (4|1)x(4|1), got {h.row_shape}x{h.col_shape}")
    if any(not h.entries[i][j].is_zero() for i, j in STABILIZER_ZEROS):
        return False
    return is_invertible(h)


# differential at the identity

_EVEN_DIRECTIONS = {
    "gl": [[(i, j)] for i in range(4) for j in range(4)] + [[(4, 4)]],
    "sl": [[(i, j)] for i in range(4) for j in range(4) if i != j]
    + [[(i, i), (4, 4)] for i in range(4)],
    "stabilizer": [[(i, j)] for i in range(2) for j in range(4)]
    + [[(i, j)] for i in range(2, 4) for j in range(2, 4)]
    + [[(4, 4)]],
}

_ODD_DIRECTIONS = {
    "gl": [(i, 4) for i in range(4)] + [(4, j) for j in range(4)],
    "sl": [(i, 4) for i in range(4)] + [(4, j) for j in range(4)],
    "stabilizer": [(0, 4), (1, 4), (4, 2), (4, 3)],
}


@dataclass(frozen=True)
class JacobianReport:
    """Exact first-order data of flag_pi at the identity along a basis."""

    basis_label: str
    even_rank: int
    odd_rank: int
    even_matrix: tuple  # 4 coordinate rows, one column per even direction
    odd_matrix: tuple   # 4 coordinate rows, one column per odd direction


def _coeff(x: AlgebraElement, monomial) -> Fraction:
    """Coefficient of monomial, an (evens, odds) pair, in x."""
    return dict(x.items()).get(monomial, Fraction(0))


def _first_order_point(direction, sig: Signature, gen: AlgebraElement):
    rows = [
        [sig.one() if i == j else sig.zero() for j in range(5)] for i in range(5)
    ]
    for (i, j) in direction:
        rows[i][j] = rows[i][j] + gen
    g = SuperMatrix.unchecked(sig, FLAG_SHAPE, FLAG_SHAPE, rows)
    return flag_pi(g)


def jacobian_at_identity(basis: str) -> JacobianReport:
    """Columns of the differential of flag_pi at 1 along lie-algebra directions.

    Even directions are probed over Lambda(1, 0) (dual-number style), odd
    directions over Lambda(0, 1); the coefficient of the probe generator in
    each chart coordinate is exact, and ranks come from rational elimination.
    """
    if basis not in _EVEN_DIRECTIONS:
        raise ValueError(f"unknown basis {basis!r}; use gl, sl, or stabilizer")

    sig_e = Signature(1, 0)
    e1 = ((1,), ())
    even_cols = []
    for direction in _EVEN_DIRECTIONS[basis]:
        pt = _first_order_point(direction, sig_e, sig_e.eps(1))
        even_cols.append([
            _coeff(pt.A[0, 0], e1),
            _coeff(pt.A[0, 1], e1),
            _coeff(pt.A[1, 0], e1),
            _coeff(pt.A[1, 1], e1),
        ])

    sig_o = Signature(0, 1)
    t1 = ((), (1,))
    odd_cols = []
    for pos in _ODD_DIRECTIONS[basis]:
        pt = _first_order_point([pos], sig_o, sig_o.theta(1))
        odd_cols.append([
            _coeff(pt.alpha[0, 0], t1),
            _coeff(pt.alpha[0, 1], t1),
            _coeff(pt.beta[0, 0], t1),
            _coeff(pt.beta[1, 0], t1),
        ])

    even_matrix = tuple(
        tuple(col[r] for col in even_cols) for r in range(4)
    )
    odd_matrix = tuple(
        tuple(col[r] for col in odd_cols) for r in range(4)
    )
    return JacobianReport(
        basis_label=basis,
        even_rank=rat_rank([list(r) for r in even_matrix]),
        odd_rank=rat_rank([list(r) for r in odd_matrix]),
        even_matrix=even_matrix,
        odd_matrix=odd_matrix,
    )
