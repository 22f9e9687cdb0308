"""Supergroup membership, closure under product and inverse, Lie conditions."""

import random

import pytest

from superweil.algebra import AlgebraMorphism, Signature
from superweil.errors import ShapeMismatch, UnsupportedLabel
from superweil.flag import action_axioms_check
from superweil.groups import (
    GL,
    OSp,
    P,
    PiSp,
    Q,
    SL,
    group_contains,
    lie_algebra_contains,
    naturality_check,
    random_group_element,
    random_lie_soul,
    standard_form,
)
from superweil.matrix import (
    SuperMatrix,
    berezinian,
    exp_nilpotent,
    smat_inv,
    supertranspose,
    supertrace,
)
from superweil import sampling

SIG = Signature(0, 4)
LABELS = (GL(2, 2), SL(2, 2), OSp(2, 2), PiSp(2), P(2))


def test_label_shapes_and_repr():
    assert GL(3, 1).shape == (3, 1)
    assert repr(SL(2, 2)) == "SL(2|2)"
    assert PiSp(2).shape == (2, 2)
    with pytest.raises(ValueError):
        OSp(2, 3)


def test_identity_in_every_family():
    for label in LABELS:
        I = SuperMatrix.identity(SIG, label.shape)
        assert group_contains(label, I)


def test_membership_closure():
    for idx, label in enumerate(LABELS):
        for trial in range(12):
            g = random_group_element(label, SIG, 300 + 17 * idx + trial)
            h = random_group_element(label, SIG, 900 + 17 * idx + trial)
            assert group_contains(label, g), group_contains(label, g).reason
            assert group_contains(label, g @ h)
            assert group_contains(label, smat_inv(g))


def test_form_preservation_is_exact():
    for label in (OSp(2, 2), PiSp(2), P(2)):
        form = standard_form(label).matrix(SIG)
        for trial in range(8):
            g = random_group_element(label, SIG, 40 + trial)
            assert supertranspose(g) @ form @ g == form


def test_subset_relations():
    # P sits inside PiSp and inside SL; OSp sits inside GL
    for trial in range(8):
        g = random_group_element(P(2), SIG, 50 + trial)
        assert group_contains(PiSp(2), g)
        assert group_contains(SL(2, 2), g)
        assert berezinian(g) == SIG.one()
        h = random_group_element(OSp(2, 2), SIG, 60 + trial)
        assert group_contains(GL(2, 2), h)


def test_sl_berezinian_one():
    for trial in range(10):
        g = random_group_element(SL(2, 2), SIG, 70 + trial)
        assert berezinian(g) == SIG.one()


def test_nonmembers_rejected():
    rng = random.Random(401)
    two = SuperMatrix.from_rational(
        SIG, (2, 2), (2, 2),
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    verdict = group_contains(SL(2, 2), two)
    assert not verdict and "berezinian" in verdict.reason
    assert not group_contains(OSp(2, 2), two)
    z = SuperMatrix.zeros(SIG, (2, 2), (2, 2))
    assert not group_contains(GL(2, 2), z)
    bad = SuperMatrix.unchecked(
        SIG, (2, 2), (2, 2),
        [[SIG.theta(1) if (i, j) == (0, 1) else
          (SIG.one() if i == j else SIG.zero()) for j in range(4)]
         for i in range(4)],
    )
    assert not group_contains(GL(2, 2), bad)
    del rng


def test_shape_checked():
    I = SuperMatrix.identity(SIG, (3, 1))
    with pytest.raises(ShapeMismatch):
        group_contains(GL(2, 2), I)


def test_q_family_unsupported():
    I = SuperMatrix.identity(SIG, (2, 2))
    with pytest.raises(UnsupportedLabel):
        group_contains(Q(2), I)
    with pytest.raises(UnsupportedLabel):
        lie_algebra_contains(Q(2), I)
    with pytest.raises(UnsupportedLabel):
        random_group_element(Q(2), SIG, 0)


def test_lie_membership_and_exp():
    rng = random.Random(402)
    for label in LABELS:
        for _ in range(10):
            X = random_lie_soul(label, SIG, rng)
            assert lie_algebra_contains(label, X), lie_algebra_contains(label, X).reason
            assert group_contains(label, exp_nilpotent(X))


def test_lie_sl_supertrace():
    rng = random.Random(403)
    for _ in range(10):
        X = random_lie_soul(SL(2, 2), SIG, rng)
        assert supertrace(X).is_zero()


def test_lie_rejects():
    I = SuperMatrix.identity(SIG, (2, 2))
    # str(I) = 2 - 2 = 0 here, so I lies in sl(2|2); E00 does not
    assert lie_algebra_contains(SL(2, 2), I)
    E00 = SuperMatrix.from_rational(
        SIG, (2, 2), (2, 2),
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    )
    assert lie_algebra_contains(GL(2, 2), E00)
    verdict = lie_algebra_contains(SL(2, 2), E00)
    assert not verdict and "supertrace" in verdict.reason
    assert not lie_algebra_contains(OSp(2, 2), I)


def test_bodies_land_in_classical_groups():
    # the classical limit of a random member solves the defining equations
    # over plain rationals
    from superweil.matrix import body_matrix
    from superweil.rational import rat_det, rat_matmul, rat_transpose

    for trial in range(10):
        g = random_group_element(SL(2, 2), SIG, 80 + trial)
        p, _, _, s = g.blocks()
        assert rat_det(body_matrix(p)) == rat_det(body_matrix(s))
        h = random_group_element(OSp(2, 2), SIG, 90 + trial)
        hb = body_matrix(h)
        form = body_matrix(standard_form(OSp(2, 2)).matrix(SIG))
        # body of g^st equals plain transpose up to the q-block sign, and the
        # even form has no odd-odd mixing with the even block, so the
        # classical equation is A^T F A = F on bodies
        assert rat_matmul(rat_transpose(hb), rat_matmul(form, hb)) == form


def test_naturality():
    rng = random.Random(404)
    for trial in range(10):
        g = random_group_element(GL(2, 2), SIG, 100 + trial)
        phi = sampling.random_morphism(SIG, SIG, rng)
        assert naturality_check(phi, g)
        assert naturality_check(AlgebraMorphism.identity(SIG), g)


def test_action_axioms_linear():
    rng = random.Random(405)
    for trial in range(10):
        g1 = random_group_element(GL(2, 2), SIG, 110 + trial)
        g2 = random_group_element(GL(2, 2), SIG, 120 + trial)
        col = sampling.random_column(SIG, (2, 2), rng)
        assert action_axioms_check(g1, g2, col)
