"""Classical supergroup membership over Lambda(p, q).

Families are labels, membership is an exact predicate on matrices:

  GL(m|n)    invertible grading-valid matrices
  SL(m|n)    berezinian equal to 1
  OSp(m|2n)  g^st F g = F for the even form F = diag(I, [[0,I],[-I,0]])
  PiSp(n|n)  g^st F g = F for the odd form F = [[0,I],[I,0]]
  P(n|n)     PiSp condition together with berezinian 1
  Q(n|n)     deliberately unsupported (its theory runs through an odd
             determinant, a different computational story)

The parallel lie_algebra_contains predicates use X^st F + F X = 0 and the
supertrace; exp_nilpotent maps body-free solutions into the group, which is
how random_group_element builds soul parts on top of exact rational bodies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Signature
from .errors import ShapeMismatch, UnsupportedLabel
from .matrix import (
    SuperMatrix,
    berezinian,
    exp_nilpotent,
    from_blocks,
    is_invertible,
    morphism_map,
    supertrace,
    supertranspose,
)
from .rational import rat_inv, rat_transpose
from . import sampling


@dataclass(frozen=True)
class GroupLabel:
    kind: str
    even: int
    odd: int

    @property
    def shape(self):
        return (self.even, self.odd)

    def __repr__(self):
        return f"{self.kind}({self.even}|{self.odd})"


def GL(m: int, n: int) -> GroupLabel:
    return GroupLabel("GL", m, n)


def SL(m: int, n: int) -> GroupLabel:
    return GroupLabel("SL", m, n)


def OSp(m: int, two_n: int) -> GroupLabel:
    if two_n % 2:
        raise ValueError("OSp needs an even number of odd dimensions")
    return GroupLabel("OSp", m, two_n)


def PiSp(n: int) -> GroupLabel:
    return GroupLabel("PiSp", n, n)


def P(n: int) -> GroupLabel:
    return GroupLabel("P", n, n)


def Q(n: int) -> GroupLabel:
    return GroupLabel("Q", n, n)


@dataclass(frozen=True)
class StandardForm:
    """The bilinear form a family preserves; parity 'even' or 'odd'."""

    parity: str
    even: int
    odd: int

    def matrix(self, sig: Signature) -> SuperMatrix:
        m, n = self.even, self.odd
        if self.parity == "even":
            # diag(I_m, J) with J the standard symplectic form
            half = n // 2
            rows = []
            for i in range(m + n):
                rows.append([sig.zero()] * (m + n))
            for i in range(m):
                rows[i][i] = sig.one()
            for i in range(half):
                rows[m + i][m + half + i] = sig.one()
                rows[m + half + i][m + i] = -sig.one()
            return SuperMatrix(sig, (m, n), (m, n), rows)
        # odd form [[0, I], [I, 0]]; not grading-valid, so built unchecked
        rows = []
        for i in range(m + n):
            rows.append([sig.zero()] * (m + n))
        for i in range(m):
            rows[i][m + i] = sig.one()
            rows[m + i][i] = sig.one()
        return SuperMatrix.unchecked(sig, (m, n), (m, n), rows)


def standard_form(label: GroupLabel):
    if label.kind == "OSp":
        return StandardForm("even", label.even, label.odd)
    if label.kind in ("PiSp", "P"):
        return StandardForm("odd", label.even, label.odd)
    return None


@dataclass(frozen=True)
class Membership:
    ok: bool
    reason: str

    def __bool__(self):
        return self.ok


def _check_frame(label: GroupLabel, g: SuperMatrix):
    if g.row_shape != label.shape or g.col_shape != label.shape:
        raise ShapeMismatch(
            f"{label} expects shape {label.shape}x{label.shape}, "
            f"got {g.row_shape}x{g.col_shape}"
        )
    if label.kind == "Q":
        raise UnsupportedLabel(
            "Q-family membership runs through an odd determinant and is not implemented"
        )


def group_contains(label: GroupLabel, g: SuperMatrix) -> Membership:
    """Exact membership test; returns a falsy Membership with the failing reason."""
    _check_frame(label, g)
    if not g.is_grading_valid():
        return Membership(False, "matrix is not grading-valid")
    if not is_invertible(g):
        return Membership(False, "diagonal blocks have singular scalar parts")
    if label.kind == "GL":
        return Membership(True, "")
    if label.kind == "SL":
        if berezinian(g) == 1:
            return Membership(True, "")
        return Membership(False, "berezinian differs from 1")
    form = standard_form(label).matrix(g.signature)
    if supertranspose(g) @ form @ g != form:
        return Membership(False, "matrix does not preserve the standard form")
    if label.kind == "P" and berezinian(g) != 1:
        return Membership(False, "berezinian differs from 1")
    return Membership(True, "")


def lie_algebra_contains(label: GroupLabel, X: SuperMatrix) -> Membership:
    """Exact infinitesimal membership: form condition and supertrace."""
    _check_frame(label, X)
    if not X.is_grading_valid():
        return Membership(False, "matrix is not grading-valid")
    if label.kind == "GL":
        return Membership(True, "")
    if label.kind == "SL":
        if supertrace(X).is_zero():
            return Membership(True, "")
        return Membership(False, "supertrace differs from 0")
    form = standard_form(label).matrix(X.signature)
    if not (supertranspose(X) @ form + form @ X).is_zero_matrix():
        return Membership(False, "matrix does not annihilate the standard form")
    if label.kind == "P" and not supertrace(X).is_zero():
        return Membership(False, "supertrace differs from 0")
    return Membership(True, "")


# random elements: exact body times exponential of a lie-algebra soul

def _body_pair(label: GroupLabel, rng):
    m, n = label.shape
    if label.kind == "GL":
        return sampling.invertible_body(m, rng), sampling.invertible_body(n, rng)
    if label.kind == "SL":
        return sampling.unimodular(m, rng), sampling.unimodular(n, rng)
    if label.kind == "OSp":
        return sampling.orthogonal_body(m, rng), sampling.symplectic_body(n, rng)
    if label.kind == "PiSp":
        A = sampling.invertible_body(m, rng)
        return A, rat_transpose(rat_inv(A))
    if label.kind == "P":
        A = sampling.unimodular(m, rng)
        return A, rat_transpose(rat_inv(A))
    raise UnsupportedLabel(f"no sampler for {label}")


def random_lie_soul(label: GroupLabel, sig: Signature, rng) -> SuperMatrix:
    from .algebra import Parity

    m, n = label.shape
    kind = label.kind
    if kind in ("GL", "SL"):
        X = sampling.graded_soul_matrix(sig, label.shape, rng)
        if kind == "SL":
            tr = supertrace(X)
            rows = [list(r) for r in X.entries]
            rows[0][0] = rows[0][0] - tr
            X = SuperMatrix(sig, label.shape, label.shape, rows)
        return X

    def even_soul():
        return sampling.soul_element(sig, rng, Parity.EVEN, 1)

    def odd_soul():
        return sampling.soul_element(sig, rng, Parity.ODD, 1)

    z = sig.zero()
    U = SuperMatrix.unchecked
    if kind == "OSp":
        a = [[z] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                x = even_soul()
                a[i][j] = x
                a[j][i] = -x
        S = [[z] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = even_soul()
                S[i][j] = x
                S[j][i] = x
        Smat = U(sig, (0, n), (0, n), S)
        J = standard_form(label).matrix(sig).blocks()[3]
        d = J @ Smat
        c = [[odd_soul() for _ in range(m)] for _ in range(n)]
        cmat = U(sig, (0, n), (m, 0), c)
        cT = [[c[j][i] for j in range(n)] for i in range(m)]
        b = -(U(sig, (m, 0), (0, n), cT) @ J)
        return from_blocks(U(sig, (m, 0), (m, 0), a), b, cmat, d)
    if kind in ("PiSp", "P"):
        a = [[even_soul() for _ in range(m)] for _ in range(m)]
        if kind == "P":
            tr = sig.zero()
            for i in range(m):
                tr = tr + a[i][i]
            a[0][0] = a[0][0] - tr
        d = [[-a[j][i] for j in range(m)] for i in range(m)]
        b = [[z] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                x = odd_soul()
                b[i][j] = x
                b[j][i] = x
        c = [[z] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                x = odd_soul()
                c[i][j] = x
                c[j][i] = -x
        return from_blocks(
            U(sig, (m, 0), (m, 0), a),
            U(sig, (m, 0), (0, m), b),
            U(sig, (0, m), (m, 0), c),
            U(sig, (0, m), (0, m), d),
        )
    raise UnsupportedLabel(f"no sampler for {label}")


def random_group_element(label: GroupLabel, sig: Signature, seed) -> SuperMatrix:
    """Seeded random member: exact rational body times exp of a lie soul."""
    if label.kind == "Q":
        raise UnsupportedLabel(
            "Q-family sampling runs through an odd determinant and is not implemented"
        )
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    even_body, odd_body = _body_pair(label, rng)
    body = sampling.embed_body(sig, label.shape, even_body, odd_body)
    return body @ exp_nilpotent(random_lie_soul(label, sig, rng))


def naturality_check(phi, g: SuperMatrix) -> bool:
    """Morphisms commute with the berezinian and with products."""
    mg = morphism_map(phi, g)
    if phi(berezinian(g)) != berezinian(mg):
        return False
    h = supertranspose(g)
    return morphism_map(phi, g @ h) == mg @ morphism_map(phi, h)
