"""The term-map kernel agrees with naive oracles.

The product oracle below multiplies monomials as explicit index lists,
counting transpositions one swap at a time.  It shares no code with the
packed-mask kernel, so agreement pins down the Koszul sign convention.
"""

import random
from fractions import Fraction

import pytest

from superweil import _backend, _kernel_py as kern, sampling
from superweil.algebra import Signature
from superweil.matrix import berezinian

P, Q = 3, 5


def unpack(key):
    evens = tuple(i for i in range(P) if key & (1 << i))
    odds = tuple(j for j in range(Q) if key & (1 << (16 + j)))
    return evens, odds


def ref_mul(a, b):
    """Multiply term maps keyed by (evens_tuple, odds_tuple)."""
    out = {}
    for (ea, oa), ca in a.items():
        for (eb, ob), cb in b.items():
            if set(ea) & set(eb) or set(oa) & set(ob):
                continue
            odds = list(oa) + list(ob)
            sign = 1
            # bubble sort, one transposition per swap
            for i in range(len(odds)):
                for j in range(len(odds) - 1 - i):
                    if odds[j] > odds[j + 1]:
                        odds[j], odds[j + 1] = odds[j + 1], odds[j]
                        sign = -sign
            key = (tuple(sorted(ea + eb)), tuple(odds))
            tot = out.get(key, Fraction(0)) + sign * ca * cb
            if tot:
                out[key] = tot
            else:
                out.pop(key, None)
    return out


def as_tuple_map(terms):
    return {unpack(k): c for k, c in terms.items()}


def random_terms(rng, nterms=4):
    out = {}
    for _ in range(nterms):
        emask = rng.getrandbits(P)
        omask = rng.getrandbits(Q)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if c:
            out[emask | (omask << 16)] = c
    return out


def ref_add(a, b, factor=1):
    """Per-key sum of a and factor*b, dropping zero coefficients."""
    out = {}
    for k in set(a) | set(b):
        tot = a.get(k, Fraction(0)) + factor * b.get(k, Fraction(0))
        if tot:
            out[k] = tot
    return out


def test_pack_unpack():
    key = kern.pack(0b101, 0b11)
    assert kern.even_bits(key) == 0b101
    assert kern.odd_bits(key) == 0b11
    assert kern.key_parity(key) == 0
    assert kern.key_parity(kern.pack(0, 0b111)) == 1


def test_koszul_sign_against_bubble_sort():
    rng = random.Random(1)
    for _ in range(300):
        oa = rng.getrandbits(Q)
        ob = rng.getrandbits(Q)
        if oa & ob:
            continue
        ia = [j for j in range(Q) if oa & (1 << j)]
        ib = [j for j in range(Q) if ob & (1 << j)]
        odds = ia + ib
        sign = 1
        for i in range(len(odds)):
            for j in range(len(odds) - 1 - i):
                if odds[j] > odds[j + 1]:
                    odds[j], odds[j + 1] = odds[j + 1], odds[j]
                    sign = -sign
        assert kern.koszul_sign(oa, ob) == sign


def test_mul_matches_oracle():
    rng = random.Random(2)
    for _ in range(200):
        a = random_terms(rng)
        b = random_terms(rng)
        got = kern.mul_terms(a, b)
        assert as_tuple_map(got) == ref_mul(as_tuple_map(a), as_tuple_map(b))


def test_linear_ops_agree():
    rng = random.Random(3)
    for _ in range(100):
        a = random_terms(rng)
        b = random_terms(rng)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert kern.add_terms(a, b) == ref_add(a, b)
        assert kern.sub_terms(a, b) == ref_add(a, b, -1)
        assert kern.neg_terms(a) == ref_add({}, a, -1)
        assert kern.scale_terms(a, c) == ref_add({}, a, c)


def test_no_zero_coefficients_survive():
    rng = random.Random(4)
    for _ in range(50):
        a = random_terms(rng)
        na = kern.neg_terms(a)
        assert kern.add_terms(a, na) == {}
        assert kern.scale_terms(a, Fraction(0)) == {}
        prod = kern.mul_terms(a, a)
        assert all(c != 0 for c in prod.values())


def test_mul_into_accumulates():
    acc = {0: Fraction(1)}
    kern.mul_into(acc, {0: Fraction(2)}, {1 << 16: Fraction(3)})
    assert acc == {0: Fraction(1), 1 << 16: Fraction(6)}
    # accumulating the negation cancels the new term exactly
    kern.mul_into(acc, {0: Fraction(-2)}, {1 << 16: Fraction(3)})
    assert acc == {0: Fraction(1)}


def test_backend_names():
    assert kern.BACKEND_NAME == "pure"
    assert _backend.kernel is kern
    assert _backend.BACKEND == "pure"


@pytest.fixture
def kernel_work(monkeypatch):
    """[mul_into calls, monomial pairs], counted through both kernel bindings."""
    work = [0, 0]
    inner = kern.mul_into

    def counted(acc, a, b):
        work[0] += 1
        work[1] += len(a) * len(b)
        inner(acc, a, b)

    monkeypatch.setattr(kern, "mul_into", counted)  # mul_terms calls this one
    monkeypatch.setattr(_backend, "mul_into", counted)
    return work


def test_work_counts_pinned(kernel_work):
    """The monomial products of two fixed computations do not change with the
    coefficient layout; a different count means a different algorithm."""
    g = sampling.random_group_matrix(Signature(1, 6), (4, 1), random.Random(11))
    kernel_work[:] = [0, 0]
    berezinian(g)
    assert kernel_work == [58, 5455]

    rng = random.Random(12)
    terms = {((), ()): Fraction(3, 2)}
    for _ in range(30):
        evens = tuple(i for i in (1, 2) if rng.random() < 0.3)
        odds = tuple(j for j in range(1, 9) if rng.random() < 0.35)
        if evens or odds:
            terms[(evens, odds)] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
    x = Signature(2, 8).from_terms(terms)
    kernel_work[:] = [0, 0]
    x.inv()
    assert kernel_work == [6, 6237]
