"""Big-cell chart, twistor gluing, super-Poincaré action, ranks at identity."""

import random
from fractions import Fraction

import pytest

from superweil.algebra import Signature
from superweil.errors import KernelError, NotInvertible, OutsideBigCell, ShapeMismatch
from superweil.flag import (
    STABILIZER_ZEROS,
    BigCellPoint,
    PoincareElement,
    big_cell_lift,
    equivariance_residual,
    flag_act,
    flag_pi,
    jacobian_at_identity,
    poincare_act,
    poincare_compose,
    poincare_decompose,
    poincare_matrix,
    stabilizer_contains,
    twistor_residual,
)
from superweil.matrix import SuperMatrix, smat_inv
from superweil import sampling

SIG = Signature(0, 4)


def test_identity_maps_to_origin():
    I = SuperMatrix.identity(SIG, (4, 1))
    assert flag_pi(I) == BigCellPoint.origin(SIG)


def test_pi_needs_flag_shape():
    with pytest.raises(ShapeMismatch):
        flag_pi(SuperMatrix.identity(SIG, (2, 2)))


def test_outside_big_cell():
    rows = [[SIG.zero()] * 5 for _ in range(5)]
    # permutation matrix swapping the two 2-blocks: Z block is singular
    rows[0][2] = rows[1][3] = rows[2][0] = rows[3][1] = rows[4][4] = SIG.one()
    g = SuperMatrix(SIG, (4, 1), (4, 1), rows)
    with pytest.raises(OutsideBigCell):
        flag_pi(g)


def test_big_cell_is_decided_by_bodies():
    # draws with zero bodies allowed: flag_pi leaves the big cell exactly when
    # body(Z) is singular or body(g55) is zero; inside it the second chart is
    # defined too, so the twistor residual can be taken
    sig = Signature(1, 4)
    rng = random.Random(505)
    seen = {True: 0, False: 0}
    for _ in range(60):
        g = sampling.graded_matrix(sig, (4, 1), (4, 1), rng, soul_terms=2)
        (a, b), (c, d) = [[g[i, j].body() for j in range(2)] for i in range(2)]
        inside = a * d - b * c != 0 and g[4, 4].body() != 0
        seen[inside] += 1
        if inside:
            flag_pi(g)
            assert twistor_residual(g).is_zero_matrix()
        else:
            with pytest.raises(OutsideBigCell):
                flag_pi(g)
    assert min(seen.values()) >= 10


def test_lift_is_section():
    rng = random.Random(501)
    for _ in range(15):
        pt = sampling.random_point(SIG, rng)
        assert flag_pi(big_cell_lift(pt)) == pt


def test_pi_constant_on_fibers():
    # right multiplication by a stabilizer-pattern matrix fixes the chart image
    rng = random.Random(502)
    for _ in range(15):
        g = sampling.random_big_cell_matrix(SIG, rng)
        h = sampling.random_stabilizer_matrix(SIG, rng)
        assert flag_pi(g @ h) == flag_pi(g)


def test_twistor_residual_zero():
    rng = random.Random(503)
    for _ in range(20):
        g = sampling.random_big_cell_matrix(SIG, rng)
        assert twistor_residual(g).is_zero_matrix()


def test_companion_chart():
    rng = random.Random(504)
    for _ in range(10):
        pt = sampling.random_point(SIG, rng)
        assert pt.companion_B() == pt.A - pt.beta @ pt.alpha


def test_poincare_matrix_pattern():
    rng = random.Random(505)
    for _ in range(10):
        P = sampling.random_poincare(SIG, rng)
        h = poincare_matrix(P)
        for i, j in ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (4, 2), (4, 3)):
            assert h[i, j].is_zero()
        assert stabilizer_contains(h) == (
            P.N.is_zero_matrix() and P.chi.is_zero_matrix()
        )


def test_poincare_decompose_roundtrip():
    rng = random.Random(506)
    for _ in range(15):
        P = sampling.random_poincare(SIG, rng)
        Q = poincare_decompose(poincare_matrix(P))
        assert Q == P


def test_poincare_decompose_rejects_pattern_break():
    h = SuperMatrix.identity(SIG, (4, 1))
    rows = [list(r) for r in h.entries]
    rows[0][2] = SIG.one()
    bad = SuperMatrix(SIG, (4, 1), (4, 1), rows)
    with pytest.raises(KernelError):
        poincare_decompose(bad)


@pytest.mark.parametrize("pos", [(1, 1), (3, 3), (4, 4)], ids=["L", "R", "d"])
def test_poincare_decompose_rejects_singular_body(pos):
    # a Poincaré-pattern matrix whose L, R or d has a singular body; the
    # soul added on the diagonal keeps the entry itself nonzero
    rows = [list(r) for r in SuperMatrix.identity(SIG, (4, 1)).entries]
    rows[2][0] = SIG.one()
    i, j = pos
    rows[i][j] = SIG.theta(1) * SIG.theta(2)
    h = SuperMatrix(SIG, (4, 1), (4, 1), rows)
    with pytest.raises(NotInvertible):
        poincare_decompose(h)


def test_poincare_act_matches_matrix_action():
    rng = random.Random(507)
    for _ in range(20):
        P = sampling.random_poincare(SIG, rng)
        pt = sampling.random_point(SIG, rng)
        assert poincare_act(P, pt) == flag_act(poincare_matrix(P), pt)


def test_poincare_equivariance():
    rng = random.Random(508)
    for _ in range(20):
        P = sampling.random_poincare(SIG, rng)
        g = sampling.random_big_cell_matrix(SIG, rng)
        assert equivariance_residual(P, g).is_zero()


def test_poincare_group_laws():
    rng = random.Random(509)
    E = PoincareElement.identity(SIG)
    pt0 = BigCellPoint.origin(SIG)
    for _ in range(10):
        P1 = sampling.random_poincare(SIG, rng)
        P2 = sampling.random_poincare(SIG, rng)
        pt = sampling.random_point(SIG, rng)
        assert poincare_act(E, pt) == pt
        assert poincare_act(poincare_compose(P1, P2), pt) == poincare_act(
            P1, poincare_act(P2, pt)
        )
        # inverse through the matrix picture
        Pinv = poincare_decompose(smat_inv(poincare_matrix(P1)))
        assert poincare_act(Pinv, poincare_act(P1, pt)) == pt
    del pt0


def test_classical_affine_limit():
    # with all odd parameters zero the action is A |-> R A L^-1 + N on bodies
    from superweil.rational import rat_inv, rat_matmul
    from superweil.matrix import body_matrix

    rng = random.Random(510)
    for _ in range(10):
        P = sampling.random_poincare(SIG, rng)
        pt = sampling.random_point(SIG, rng)
        moved = poincare_act(P, pt)
        Rb = body_matrix(P.R)
        Lb = body_matrix(P.L)
        Ab = body_matrix(pt.A)
        Nb = body_matrix(P.N)
        want = rat_matmul(rat_matmul(Rb, Ab), rat_inv(Lb))
        want = [[want[i][j] + Nb[i][j] for j in range(2)] for i in range(2)]
        assert body_matrix(moved.A) == want


def test_stabilizer_zero_pattern_fixes_origin():
    rng = random.Random(511)
    pt0 = BigCellPoint.origin(SIG)
    for _ in range(15):
        h = sampling.random_stabilizer_matrix(SIG, rng)
        assert stabilizer_contains(h)
        assert flag_act(h, pt0) == pt0
    assert len(STABILIZER_ZEROS) == 8


def test_moving_origin_means_outside_stabilizer():
    rng = random.Random(512)
    pt0 = BigCellPoint.origin(SIG)
    hits = 0
    for _ in range(30):
        g = sampling.random_big_cell_matrix(SIG, rng)
        if stabilizer_contains(g):
            continue
        hits += 1
        try:
            moved = flag_act(g, pt0)
        except OutsideBigCell:
            continue
        assert not moved.is_zero()
    assert hits > 0


def test_jacobian_ranks():
    gl = jacobian_at_identity("gl")
    sl = jacobian_at_identity("sl")
    st = jacobian_at_identity("stabilizer")
    assert (gl.even_rank, gl.odd_rank) == (4, 4)
    assert (sl.even_rank, sl.odd_rank) == (4, 4)
    assert (st.even_rank, st.odd_rank) == (0, 0)
    assert gl.basis_label == "gl"


def test_jacobian_column_counts():
    gl = jacobian_at_identity("gl")
    sl = jacobian_at_identity("sl")
    st = jacobian_at_identity("stabilizer")
    assert len(gl.even_matrix) == 4 and len(gl.even_matrix[0]) == 17
    assert len(gl.odd_matrix[0]) == 8
    assert len(sl.even_matrix[0]) == 16 and len(sl.odd_matrix[0]) == 8
    assert len(st.even_matrix[0]) == 13 and len(st.odd_matrix[0]) == 4


def test_jacobian_stabilizer_columns_vanish():
    st = jacobian_at_identity("stabilizer")
    assert all(c == 0 for row in st.even_matrix for c in row)
    assert all(c == 0 for row in st.odd_matrix for c in row)


def test_jacobian_entries_are_fractions():
    rep = jacobian_at_identity("sl")
    for row in rep.even_matrix + rep.odd_matrix:
        for c in row:
            assert isinstance(c, Fraction)


def test_jacobian_unknown_basis():
    with pytest.raises(ValueError):
        jacobian_at_identity("so")
