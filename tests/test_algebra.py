"""Ring laws, supercommutativity, nilpotency, inverses, morphisms."""

import random
from fractions import Fraction
from math import gcd

import pytest
from test_kernel import ref_add, ref_mul

from superweil.algebra import (
    MAX_GENERATORS,
    AlgebraMorphism,
    Parity,
    Signature,
    morphism_violations,
)
from superweil.errors import BodyZero, MorphismError, SignatureMismatch
from superweil import sampling

SIG = Signature(2, 4)


def test_signature_cap():
    Signature(8, 8)
    with pytest.raises(ValueError):
        Signature(9, 8)
    with pytest.raises(ValueError):
        Signature(-1, 0)
    assert MAX_GENERATORS == 16


def test_scalar_and_zero():
    assert SIG.zero().is_zero()
    assert SIG.one().body() == 1
    assert SIG.scalar(Fraction(3, 7)).body() == Fraction(3, 7)
    assert SIG.scalar(0) == SIG.zero()


def test_generator_squares():
    for i in range(1, SIG.even + 1):
        assert (SIG.eps(i) * SIG.eps(i)).is_zero()
    for j in range(1, SIG.odd + 1):
        assert (SIG.theta(j) * SIG.theta(j)).is_zero()


def test_odd_anticommute():
    t1, t2 = SIG.theta(1), SIG.theta(2)
    assert t1 * t2 == -(t2 * t1)
    assert not (t1 * t2).is_zero()


def test_even_generators_commute():
    e1, e2 = SIG.eps(1), SIG.eps(2)
    assert e1 * e2 == e2 * e1
    t1 = SIG.theta(1)
    assert e1 * t1 == t1 * e1


def test_product_matches_monomial():
    assert SIG.theta(1) * SIG.theta(2) == SIG.monomial((), (1, 2))
    assert SIG.theta(2) * SIG.theta(1) == -SIG.monomial((), (1, 2))
    assert SIG.eps(1) * SIG.theta(3) == SIG.monomial((1,), (3,))


def test_monomial_bad_indices_rejected():
    with pytest.raises(ValueError):
        SIG.monomial((1, 1), ())
    with pytest.raises(ValueError):
        SIG.monomial((), (3, 3))
    with pytest.raises(ValueError):
        SIG.monomial((), (9,))
    with pytest.raises(ValueError):
        SIG.eps(0)
    with pytest.raises(ValueError):
        SIG.theta(5)


def test_ring_laws_random():
    rng = random.Random(101)
    for _ in range(40):
        x = sampling.mixed_element(SIG, rng)
        y = sampling.mixed_element(SIG, rng)
        z = sampling.mixed_element(SIG, rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x + SIG.zero() == x
        assert x * SIG.one() == x
        assert x - x == SIG.zero()


def test_supercommutativity_random():
    rng = random.Random(102)
    for _ in range(40):
        pa = rng.choice((Parity.EVEN, Parity.ODD))
        pb = rng.choice((Parity.EVEN, Parity.ODD))
        a = sampling.soul_element(SIG, rng, pa)
        b = sampling.soul_element(SIG, rng, pb)
        sign = -1 if (pa is Parity.ODD and pb is Parity.ODD) else 1
        assert a * b == sign * (b * a)


def test_soul_nilpotency():
    rng = random.Random(103)
    n = SIG.even + SIG.odd
    for _ in range(20):
        s = sampling.mixed_element(SIG, rng).soul()
        assert (s ** (n + 1)).is_zero()


def test_body_soul_split():
    rng = random.Random(104)
    for _ in range(20):
        x = sampling.mixed_element(SIG, rng)
        assert SIG.scalar(x.body()) + x.soul() == x
        assert x.soul().body() == 0


def test_parity_classification():
    assert SIG.one().parity() is Parity.EVEN
    assert SIG.theta(1).parity() is Parity.ODD
    assert SIG.eps(1).parity() is Parity.EVEN
    assert (SIG.theta(1) * SIG.theta(2)).parity() is Parity.EVEN
    assert (SIG.one() + SIG.theta(1)).parity() is Parity.MIXED
    assert SIG.zero().parity() is Parity.EVEN


def test_inverse_random():
    rng = random.Random(105)
    for _ in range(30):
        x = sampling.even_invertible(SIG, rng)
        assert x * x.inv() == SIG.one()
        assert x.inv() * x == SIG.one()


def test_inverse_hand_value():
    # (1 + t1 t2)^-1 = 1 - t1 t2 since (t1 t2)^2 = 0
    x = SIG.one() + SIG.theta(1) * SIG.theta(2)
    assert x.inv() == SIG.one() - SIG.theta(1) * SIG.theta(2)


def test_inverse_mixed_parity_still_works():
    x = SIG.one() + SIG.theta(1)
    assert x.inv() == SIG.one() - SIG.theta(1)
    assert x * x.inv() == SIG.one()


def test_inverse_body_zero():
    with pytest.raises(BodyZero):
        SIG.theta(1).inv()
    with pytest.raises(BodyZero):
        (SIG.eps(1) * 5).inv()


def test_division():
    rng = random.Random(106)
    for _ in range(10):
        x = sampling.mixed_element(SIG, rng)
        d = sampling.even_invertible(SIG, rng)
        assert (x / d) * d == x
    assert SIG.one() / 2 == SIG.scalar(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        SIG.one() / 0


def test_scalar_over_element():
    x = 2 + SIG.theta(1) * SIG.theta(2)
    assert 1 / x == Fraction(1, 2) - Fraction(1, 4) * SIG.theta(1) * SIG.theta(2)
    assert Fraction(3, 2) / x == Fraction(3, 2) * x.inv()
    assert (3 / x) * x == SIG.scalar(3)
    with pytest.raises(BodyZero):
        1 / SIG.theta(1)
    with pytest.raises(TypeError):
        1.5 / x


def test_pow():
    x = SIG.scalar(2) + SIG.theta(1) * SIG.theta(2)
    assert x ** 0 == SIG.one()
    assert x ** 1 == x
    assert x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1


def test_scalar_coercion_mixing():
    x = SIG.theta(1)
    assert 2 * x == x + x
    assert x + 0 == x
    assert (x * Fraction(1, 2)) * 2 == x
    assert SIG.scalar(5) == 5


def test_signature_mismatch():
    other = Signature(0, 3)
    with pytest.raises(SignatureMismatch):
        SIG.one() + other.one()
    with pytest.raises(SignatureMismatch):
        SIG.theta(1) * other.theta(1)


def test_items_sorted_and_exact():
    rng = random.Random(107)
    for _ in range(10):
        x = sampling.mixed_element(SIG, rng)
        keys = [(evens, odds) for (evens, odds), _ in x.items()]
        assert keys == sorted(keys)
        for _, c in x.items():
            assert isinstance(c, Fraction) and c != 0


# Exactness against the bubble-sort Fraction product of test_kernel, which
# works on {(evens, odds): Fraction} maps and shares no code with the
# numerator-over-denominator layout.

ONE = {((), ()): Fraction(1)}


def random_ref(sig, rng):
    """A term map with mixed denominators; most draws get a body."""
    out = {}
    if rng.random() < 0.7:
        out[((), ())] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
    for _ in range(rng.randint(0, 6)):
        evens = tuple(i for i in range(1, sig.even + 1) if rng.random() < 0.4)
        odds = tuple(j for j in range(1, sig.odd + 1) if rng.random() < 0.4)
        c = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 35)))
        if (evens or odds) and c:
            out[(evens, odds)] = c
    return out


def assert_canonical(x):
    """Int numerators, none zero, over a positive den they share no factor
    with; zero is ({}, 1)."""
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int and v for v in x.terms.values())
    assert gcd(x.den, *x.terms.values()) == 1


def assert_equals_ref(x, ref):
    assert_canonical(x)
    assert x.items() == sorted(ref.items())
    assert all(type(c) is Fraction for _, c in x.items())


@pytest.mark.parametrize("sig", [Signature(2, 4), Signature(1, 6)],
                         ids=["L24", "L16"])
def test_arithmetic_matches_reference(sig):
    rng = random.Random(110)
    for _ in range(60):
        a, b = random_ref(sig, rng), random_ref(sig, rng)
        x, y = sig.from_terms(a), sig.from_terms(b)
        n = rng.choice((-3, 2, 7))
        q = Fraction(rng.choice((-5, 2, 7)), rng.choice((3, 4, 9)))
        assert_equals_ref(x, a)
        assert_equals_ref(x + y, ref_add(a, b))
        assert_equals_ref(x - y, ref_add(a, b, -1))
        assert_equals_ref(-x, ref_add({}, a, -1))
        assert_equals_ref(x * y, ref_mul(a, b))
        assert_equals_ref(x * q, ref_add({}, a, q))
        assert_equals_ref(n * x, ref_add({}, a, n))
        assert_equals_ref(x / n, ref_add({}, a, Fraction(1, n)))
        assert_equals_ref(x / q, ref_add({}, a, 1 / q))
        assert_equals_ref(x + q, ref_add(a, {((), ()): q}))
        if ((), ()) in b:
            inv = y.inv()
            assert_canonical(inv)
            assert ref_mul(b, dict(inv.items())) == ONE
            assert ref_mul(dict(inv.items()), b) == ONE
            quot = x / y
            assert_canonical(quot)
            assert ref_mul(dict(quot.items()), b) == a
            assert_equals_ref(q / y, ref_add({}, dict(inv.items()), q))


def test_cancellation_is_canonical():
    rng = random.Random(111)
    zero = SIG.zero()
    assert_canonical(zero)
    for _ in range(40):
        x = SIG.from_terms(random_ref(SIG, rng))
        for got in (x - x, x + (-x), x * 0, (x - x) / 3):
            assert_canonical(got)
            assert got == zero and got.den == 1
        for got in ((x * 3) / 3, (x / 3) * 3, (x / Fraction(2, 7)) * Fraction(2, 7),
                    (x + Fraction(1, 3)) - Fraction(1, 3)):
            assert_canonical(got)
            assert got == x
    half = SIG.theta(1) / 2
    assert half + half == SIG.theta(1)
    assert (half + half).den == 1
    assert SIG.scalar(Fraction(6, 4)) == Fraction(3, 2)
    assert (SIG.scalar(Fraction(1, 3)) * 3).items() == [(((), ()), Fraction(1))]


def test_from_terms_merges():
    x = SIG.from_terms({((), (1, 2)): Fraction(1, 2)})
    y = SIG.monomial((), (1, 2), Fraction(1, 2))
    assert x == y
    cancel = SIG.from_terms({((), ()): 3}) - SIG.scalar(3)
    assert cancel.is_zero()


def test_repr_names():
    x = SIG.one() + SIG.eps(1) * SIG.theta(1) * SIG.theta(2) * 3
    s = repr(x)
    assert "e1" in s and "t1" in s and "t2" in s
    assert repr(SIG.zero()) == "0"


def test_morphism_identity_and_homomorphism():
    rng = random.Random(108)
    ident = AlgebraMorphism.identity(SIG)
    for _ in range(15):
        x = sampling.mixed_element(SIG, rng)
        y = sampling.mixed_element(SIG, rng)
        assert ident(x) == x
        phi = sampling.random_morphism(SIG, SIG, rng)
        assert phi(x + y) == phi(x) + phi(y)
        assert phi(x * y) == phi(x) * phi(y)
        assert phi(SIG.one()) == SIG.one()


def test_body_map_kills_soul():
    rng = random.Random(109)
    target = Signature(0, 0)
    bm = AlgebraMorphism.body_map(SIG, target)
    for _ in range(10):
        x = sampling.mixed_element(SIG, rng)
        assert bm(x) == target.scalar(x.body())


def test_morphism_rejects_bad_images():
    # odd generator must map to an odd zero-body element
    bad = [SIG.one()] * SIG.odd
    zeros = [SIG.zero()] * SIG.even
    assert morphism_violations(SIG, SIG, zeros, bad)
    with pytest.raises(MorphismError):
        AlgebraMorphism(SIG, SIG, zeros, bad)
    # even image with nonzero body is not square-zero
    thetas = [SIG.theta(j) for j in range(1, SIG.odd + 1)]
    with pytest.raises(MorphismError):
        AlgebraMorphism(SIG, SIG, [SIG.one(), SIG.zero()], thetas)


def test_morphism_wrong_count():
    thetas = [SIG.theta(j) for j in range(1, SIG.odd + 1)]
    with pytest.raises(MorphismError):
        AlgebraMorphism(SIG, SIG, [], thetas)


def test_hash_disabled():
    with pytest.raises(TypeError):
        hash(SIG.one())
