"""Randomized verification suites behind the command line.

Five suites (algebra, matrix, groups, flag, jacobian) each hold properties
that must hold exactly; there are no tolerances anywhere.  Every randomized
property runs `trials` independent trials, trial t drawing from
random.Random(master_seed + t), so any failure is reproducible in isolation
with --only-trial.  Draws that land outside an operation's domain (a singular
body, a flag outside the big cell) count as resampled, never as failures:
pass + fail + resampled = trials.  Failures carry fully serialized witnesses.
The jacobian suite is deterministic and runs each check once.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .algebra import Parity, Signature
from .errors import ConfigError, NotInvertible, OutsideBigCell
from .matrix import (
    SuperMatrix,
    berezinian,
    det_even,
    exp_nilpotent,
    inv_even,
    is_invertible,
    smat_inv,
    supertrace,
    supertranspose,
)
from .flag import (
    BigCellPoint,
    PoincareElement,
    action_axioms_check,
    big_cell_lift,
    equivariance_residual,
    flag_pi,
    jacobian_at_identity,
    poincare_act,
    poincare_compose,
    poincare_decompose,
    poincare_matrix,
    stabilizer_contains,
    twistor_residual,
)
from .groups import (
    GL,
    OSp,
    P,
    PiSp,
    SL,
    group_contains,
    lie_algebra_contains,
    naturality_check,
    random_group_element,
    random_lie_soul,
)
from .rational import rat_inv, rat_matmul
from . import sampling
from . import serialize

SUITE_NAMES = ("algebra", "matrix", "groups", "flag", "jacobian")


@dataclass(frozen=True)
class SuiteConfig:
    master_seed: int
    trials: int
    odd: int = 6
    even: int = 1
    suites: tuple = SUITE_NAMES
    only_trial: int = None

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 0:
            raise ConfigError("trials must be a nonnegative integer")
        if not isinstance(self.master_seed, int):
            raise ConfigError("seed must be an integer")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown suites {unknown}; valid names: {', '.join(SUITE_NAMES)}"
            )
        try:
            Signature(self.even, self.odd)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.only_trial is not None and not 0 <= self.only_trial < self.trials:
            raise ConfigError(
                f"--only-trial must lie in 0..{self.trials - 1}"
            )

    @property
    def signature(self) -> Signature:
        return Signature(self.even, self.odd)

    def to_obj(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "trials": self.trials,
            "odd": self.odd,
            "even": self.even,
            "suites": list(self.suites),
            "only_trial": self.only_trial,
        }


class Resample(Exception):
    """Draw landed outside the property's domain; try the next trial."""


class Failure(Exception):
    def __init__(self, witness: dict):
        super().__init__("property failed")
        self.witness = witness


@dataclass
class PropertyResult:
    suite: str
    name: str
    kind: str  # random | fixed
    passed: int = 0
    failed: int = 0
    resampled: int = 0
    witnesses: list = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "property": self.name,
            "kind": self.kind,
            "passed": self.passed,
            "failed": self.failed,
            "resampled": self.resampled,
            "witnesses": self.witnesses,
        }


@dataclass
class SuiteReport:
    config: SuiteConfig
    results: list
    wall_time: float

    @property
    def total_failed(self) -> int:
        return sum(r.failed for r in self.results)

    def to_obj(self) -> dict:
        return {
            "config": self.config.to_obj(),
            "results": [r.to_obj() for r in self.results],
            "wall_time": round(self.wall_time, 6),
        }

    def text(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.failed == 0 else "FAIL"
            lines.append(
                f"{status:4s} {r.suite}/{r.name}: "
                f"passed={r.passed} failed={r.failed} resampled={r.resampled}"
            )
        lines.append(
            f"total: {sum(r.passed for r in self.results)} passed, "
            f"{self.total_failed} failed "
            f"({self.wall_time:.2f}s)"
        )
        return "\n".join(lines)


# ---- algebra properties ----

def _p_ring_laws(rng, sig):
    x = sampling.mixed_element(sig, rng)
    y = sampling.mixed_element(sig, rng)
    z = sampling.mixed_element(sig, rng)
    ok = (
        (x + y) + z == x + (y + z)
        and x + y == y + x
        and (x * y) * z == x * (y * z)
        and x * (y + z) == x * y + x * z
        and (x - x).is_zero()
        and sig.one() * x == x
    )
    if not ok:
        raise Failure({"x": serialize.element_to_obj(x),
                       "y": serialize.element_to_obj(y),
                       "z": serialize.element_to_obj(z)})


def _p_supercommutativity(rng, sig):
    for pa in (Parity.EVEN, Parity.ODD):
        for pb in (Parity.EVEN, Parity.ODD):
            a = sampling.soul_element(sig, rng, pa)
            if pa is Parity.EVEN:
                a = a + sig.scalar(sampling.coeff(rng))
            b = sampling.soul_element(sig, rng, pb)
            if pb is Parity.EVEN:
                b = b + sig.scalar(sampling.coeff(rng))
            sign = -1 if (pa is Parity.ODD and pb is Parity.ODD) else 1
            if a * b != (b * a) * sign:
                raise Failure({"a": serialize.element_to_obj(a),
                               "b": serialize.element_to_obj(b)})


def _p_nilpotency(rng, sig):
    odd = sampling.soul_element(sig, rng, Parity.ODD)
    soul = sampling.mixed_element(sig, rng).soul()
    if not (odd * odd).is_zero():
        raise Failure({"odd": serialize.element_to_obj(odd)})
    if not (soul ** (sig.even + sig.odd + 1)).is_zero():
        raise Failure({"soul": serialize.element_to_obj(soul)})


def _p_body_soul(rng, sig):
    x = sampling.mixed_element(sig, rng)
    y = sampling.mixed_element(sig, rng)
    body, soul, _ = x.body_soul_parity()
    ok = (
        sig.scalar(body) + soul == x
        and soul.body() == 0
        and (x * y).body() == x.body() * y.body()
        and sig.zero().parity() is Parity.EVEN
    )
    if not ok:
        raise Failure({"x": serialize.element_to_obj(x),
                       "y": serialize.element_to_obj(y)})


def _p_inverse(rng, sig):
    x = sampling.even_invertible(sig, rng) + sampling.soul_element(sig, rng, Parity.ODD, 1)
    y = sampling.even_invertible(sig, rng)
    one = sig.one()
    ok = (
        x * x.inv() == one
        and x.inv() * x == one
        and x.inv().inv() == x
        and (x * y).inv() == y.inv() * x.inv()
    )
    if not ok:
        raise Failure({"x": serialize.element_to_obj(x),
                       "y": serialize.element_to_obj(y)})


def _p_morphism_laws(rng, sig):
    phi = sampling.random_morphism(sig, sig, rng)
    x = sampling.mixed_element(sig, rng)
    y = sampling.mixed_element(sig, rng)
    ok = (
        phi(sig.one()) == sig.one()
        and phi(x * y) == phi(x) * phi(y)
        and phi(x + y) == phi(x) + phi(y)
        and phi(x).body() == x.body()
    )
    if not ok:
        raise Failure({"x": serialize.element_to_obj(x),
                       "y": serialize.element_to_obj(y)})


# ---- matrix properties ----

def _p_matrix_rings(rng, sig):
    shape = (2, 2)
    a = sampling.graded_matrix(sig, shape, shape, rng)
    b = sampling.graded_matrix(sig, shape, shape, rng)
    c = sampling.graded_matrix(sig, shape, shape, rng)
    ok = (
        (a @ b) @ c == a @ (b @ c)
        and a @ (b + c) == a @ b + a @ c
        and (a @ b).is_grading_valid()
        and (a + b).is_grading_valid()
    )
    if not ok:
        raise Failure({"a": serialize.matrix_to_obj(a),
                       "b": serialize.matrix_to_obj(b),
                       "c": serialize.matrix_to_obj(c)})


def _p_supertranspose(rng, sig):
    shape = (2, 2)
    a = sampling.graded_matrix(sig, shape, shape, rng)
    b = sampling.graded_matrix(sig, shape, shape, rng)
    st = supertranspose
    ok = (
        st(a @ b) == st(b) @ st(a)
        and st(st(st(st(a)))) == a
        and supertrace(a @ b) == supertrace(b @ a)
        and supertrace(st(a)) == supertrace(a)
    )
    if not ok:
        raise Failure({"a": serialize.matrix_to_obj(a),
                       "b": serialize.matrix_to_obj(b)})


def _p_det_even(rng, sig):
    E = sampling.graded_matrix(sig, (3, 0), (3, 0), rng)
    F = sampling.graded_matrix(sig, (3, 0), (3, 0), rng)
    ok = (
        det_even(E @ F) == det_even(E) * det_even(F)
        and det_even(supertranspose(E)) == det_even(E)
        and det_even(SuperMatrix.identity(sig, (3, 0))) == 1
    )
    if not ok:
        raise Failure({"E": serialize.matrix_to_obj(E),
                       "F": serialize.matrix_to_obj(F)})


def _p_inverse_iff_bodies(rng, sig):
    g = sampling.graded_matrix(sig, (2, 2), (2, 2), rng)
    expected = is_invertible(g)
    try:
        gi = smat_inv(g)
    except NotInvertible:
        if expected:
            raise Failure({"g": serialize.matrix_to_obj(g)})
        return
    ident = SuperMatrix.identity(sig, (2, 2))
    if not expected or g @ gi != ident or gi @ g != ident:
        raise Failure({"g": serialize.matrix_to_obj(g)})


def _p_berezinian(rng, sig):
    g = sampling.random_group_matrix(sig, (2, 2), rng)
    h = sampling.random_group_matrix(sig, (2, 2), rng)
    ok = (
        berezinian(g @ h) == berezinian(g) * berezinian(h)
        and berezinian(SuperMatrix.identity(sig, (2, 2))) == 1
        and berezinian(smat_inv(g)) == berezinian(g).inv()
    )
    if not ok:
        raise Failure({"g": serialize.matrix_to_obj(g),
                       "h": serialize.matrix_to_obj(h)})


def _p_berezinian_alt(rng, sig):
    g = sampling.random_group_matrix(sig, (2, 2), rng)
    p, q, r, s = g.blocks()
    pinv = inv_even(p)
    alt = det_even(p) * det_even(s - r @ pinv @ q).inv()
    if alt != berezinian(g):
        raise Failure({"g": serialize.matrix_to_obj(g)})


def _p_exp(rng, sig):
    X = sampling.graded_soul_matrix(sig, (2, 2), rng)
    E = exp_nilpotent(X)
    ok = (
        E @ exp_nilpotent(-X) == SuperMatrix.identity(sig, (2, 2))
        and E.is_grading_valid()
    )
    if not ok:
        raise Failure({"X": serialize.matrix_to_obj(X)})


# ---- group properties ----

_LABELS = (GL(2, 2), SL(2, 2), OSp(2, 2), PiSp(2), P(2))


def _p_group_closure(rng, sig):
    for label in _LABELS:
        g = random_group_element(label, sig, rng)
        h = random_group_element(label, sig, rng)
        for name, m in (("g", g), ("h", h), ("g@h", g @ h), ("inv", smat_inv(g))):
            verdict = group_contains(label, m)
            if not verdict:
                raise Failure({"label": repr(label), "which": name,
                               "reason": verdict.reason,
                               "matrix": serialize.matrix_to_obj(m)})


def _p_group_subsets(rng, sig):
    g = random_group_element(SL(2, 2), sig, rng)
    h = random_group_element(P(2), sig, rng)
    ok = (
        group_contains(GL(2, 2), g)
        and group_contains(PiSp(2), h)
        and group_contains(GL(2, 2), h)
    )
    if not ok:
        raise Failure({"sl": serialize.matrix_to_obj(g),
                       "p": serialize.matrix_to_obj(h)})


def _p_lie_exp(rng, sig):
    for label in _LABELS:
        X = random_lie_soul(label, sig, rng)
        if not lie_algebra_contains(label, X):
            raise Failure({"label": repr(label), "case": "lie",
                           "X": serialize.matrix_to_obj(X)})
        if not group_contains(label, exp_nilpotent(X)):
            raise Failure({"label": repr(label), "case": "exp",
                           "X": serialize.matrix_to_obj(X)})


def _p_naturality(rng, sig):
    phi = sampling.random_morphism(sig, sig, rng)
    g = random_group_element(GL(2, 2), sig, rng)
    if not naturality_check(phi, g):
        raise Failure({"g": serialize.matrix_to_obj(g)})


def _p_action_linear(rng, sig):
    g1 = random_group_element(GL(2, 2), sig, rng)
    g2 = random_group_element(GL(2, 2), sig, rng)
    x = sampling.random_column(sig, (2, 2), rng)
    if not action_axioms_check(g1, g2, x):
        raise Failure({"g1": serialize.matrix_to_obj(g1),
                       "g2": serialize.matrix_to_obj(g2),
                       "x": serialize.matrix_to_obj(x)})


def _p_action_flag(rng, sig):
    g1 = sampling.random_group_matrix(sig, (4, 1), rng)
    g2 = sampling.random_group_matrix(sig, (4, 1), rng)
    x = sampling.random_point(sig, rng)
    try:
        ok = action_axioms_check(g1, g2, x)
    except OutsideBigCell:
        raise Resample from None
    if not ok:
        raise Failure({"g1": serialize.matrix_to_obj(g1),
                       "g2": serialize.matrix_to_obj(g2),
                       "x": serialize.point_to_obj(x)})


# ---- flag properties ----

def _draw_big_cell(rng, sig):
    g = sampling.random_group_matrix(sig, (4, 1), rng)
    try:
        flag_pi(g)
    except OutsideBigCell:
        raise Resample from None
    return g


def _p_twistor(rng, sig):
    g = _draw_big_cell(rng, sig)
    if not twistor_residual(g).is_zero_matrix():
        raise Failure({"g": serialize.matrix_to_obj(g)})


def _p_lift_section(rng, sig):
    pt = sampling.random_point(sig, rng)
    got = flag_pi(big_cell_lift(pt))
    if got != pt:
        raise Failure({"point": serialize.point_to_obj(pt)})


def _p_fiber_invariance(rng, sig):
    g = _draw_big_cell(rng, sig)
    h = sampling.random_stabilizer_matrix(sig, rng)
    ok = (
        stabilizer_contains(h)
        and flag_pi(h) == BigCellPoint.origin(sig)
        and flag_pi(g @ h) == flag_pi(g)
    )
    if not ok:
        raise Failure({"g": serialize.matrix_to_obj(g),
                       "h": serialize.matrix_to_obj(h)})


def _p_equivariance(rng, sig):
    g = _draw_big_cell(rng, sig)
    P_ = sampling.random_poincare(sig, rng)
    # the subgroup preserves the big cell, so no resample is allowed here
    if not equivariance_residual(P_, g).is_zero():
        raise Failure({"poincare": serialize.poincare_to_obj(P_),
                       "g": serialize.matrix_to_obj(g)})


def _p_poincare_axioms(rng, sig):
    P1 = sampling.random_poincare(sig, rng)
    P2 = sampling.random_poincare(sig, rng)
    pt = sampling.random_point(sig, rng)
    ident = PoincareElement.identity(sig)
    prod = poincare_compose(P1, P2)  # raises if the pattern is not closed
    ok = (
        poincare_act(ident, pt) == pt
        and poincare_act(prod, pt) == poincare_act(P1, poincare_act(P2, pt))
        and poincare_decompose(poincare_matrix(P1)) == P1
    )
    if not ok:
        raise Failure({"P1": serialize.poincare_to_obj(P1),
                       "P2": serialize.poincare_to_obj(P2),
                       "point": serialize.point_to_obj(pt)})


def _p_classical_limit(rng, sig):
    L = sampling.invertible_body(2, rng)
    R = sampling.invertible_body(2, rng)
    N = [[sampling.coeff(rng) for _ in range(2)] for _ in range(2)]
    A = [[sampling.coeff(rng) for _ in range(2)] for _ in range(2)]
    P_ = PoincareElement(
        L=SuperMatrix.from_rational(sig, (2, 0), (2, 0), L),
        N=SuperMatrix.from_rational(sig, (2, 0), (2, 0), N),
        R=SuperMatrix.from_rational(sig, (2, 0), (2, 0), R),
        chi=SuperMatrix.zeros(sig, (2, 0), (0, 1)),
        phi=SuperMatrix.zeros(sig, (0, 1), (2, 0)),
        d=sig.one(),
    )
    pt = BigCellPoint(
        SuperMatrix.from_rational(sig, (2, 0), (2, 0), A),
        SuperMatrix.zeros(sig, (0, 1), (2, 0)),
        SuperMatrix.zeros(sig, (2, 0), (0, 1)),
    )
    got = poincare_act(P_, pt)
    # independent rational path
    expected = rat_matmul(rat_matmul(R, A), rat_inv(L))
    expected = [[expected[i][j] + N[i][j] for j in range(2)] for i in range(2)]
    ok = (
        got.alpha.is_zero_matrix()
        and got.beta.is_zero_matrix()
        and all(
            got.A[i, j] == sig.scalar(expected[i][j])
            for i in range(2) for j in range(2)
        )
    )
    if not ok:
        raise Failure({"A": [[str(x) for x in r] for r in A],
                       "L": [[str(x) for x in r] for r in L],
                       "R": [[str(x) for x in r] for r in R],
                       "N": [[str(x) for x in r] for r in N]})


# ---- jacobian checks (deterministic) ----

def _jacobian_check(basis, even_rank, odd_rank, even_cols, odd_cols):
    def run(rng, sig):
        rep = jacobian_at_identity(basis)
        ok = (
            rep.even_rank == even_rank
            and rep.odd_rank == odd_rank
            and len(rep.even_matrix) == 4
            and len(rep.odd_matrix) == 4
            and len(rep.even_matrix[0]) == even_cols
            and len(rep.odd_matrix[0]) == odd_cols
        )
        if not ok:
            raise Failure({"report": serialize.jacobian_to_obj(rep)})
    return run


SUITES = {
    "algebra": [
        ("ring_laws", _p_ring_laws),
        ("supercommutativity", _p_supercommutativity),
        ("nilpotency", _p_nilpotency),
        ("body_soul", _p_body_soul),
        ("inverse", _p_inverse),
        ("morphism_laws", _p_morphism_laws),
    ],
    "matrix": [
        ("ring_laws", _p_matrix_rings),
        ("supertranspose", _p_supertranspose),
        ("det_even", _p_det_even),
        ("inverse_iff_bodies", _p_inverse_iff_bodies),
        ("berezinian", _p_berezinian),
        ("berezinian_alt", _p_berezinian_alt),
        ("exp_nilpotent", _p_exp),
    ],
    "groups": [
        ("closure", _p_group_closure),
        ("subsets", _p_group_subsets),
        ("lie_exp", _p_lie_exp),
        ("naturality", _p_naturality),
        ("action_linear", _p_action_linear),
        ("action_flag", _p_action_flag),
    ],
    "flag": [
        ("twistor", _p_twistor),
        ("lift_section", _p_lift_section),
        ("fiber_invariance", _p_fiber_invariance),
        ("equivariance", _p_equivariance),
        ("poincare_axioms", _p_poincare_axioms),
        ("classical_limit", _p_classical_limit),
    ],
}

FIXED_SUITES = {
    "jacobian": [
        ("rank_gl", _jacobian_check("gl", 4, 4, 17, 8)),
        ("rank_sl", _jacobian_check("sl", 4, 4, 16, 8)),
        ("rank_stabilizer", _jacobian_check("stabilizer", 0, 0, 13, 4)),
    ],
}


def run_suites(cfg: SuiteConfig) -> SuiteReport:
    start = time.perf_counter()
    sig = cfg.signature
    results = []
    for suite in cfg.suites:
        for name, fn in SUITES.get(suite, []):
            res = PropertyResult(suite=suite, name=name, kind="random")
            for t in range(cfg.trials):
                if cfg.only_trial is not None and t != cfg.only_trial:
                    continue
                rng = random.Random(cfg.master_seed + t)
                try:
                    fn(rng, sig)
                except Resample:
                    res.resampled += 1
                except Failure as f:
                    res.failed += 1
                    res.witnesses.append(
                        {"trial": t, "seed": cfg.master_seed + t, "data": f.witness}
                    )
                else:
                    res.passed += 1
            results.append(res)
        for name, fn in FIXED_SUITES.get(suite, []):
            res = PropertyResult(suite=suite, name=name, kind="fixed")
            try:
                fn(None, sig)
            except Failure as f:
                res.failed += 1
                res.witnesses.append({"trial": 0, "seed": None, "data": f.witness})
            else:
                res.passed += 1
            results.append(res)
    return SuiteReport(
        config=cfg, results=results, wall_time=time.perf_counter() - start
    )
