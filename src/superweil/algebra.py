"""Exact arithmetic in the supercommutative algebras Lambda(p, q).

Lambda(p, q) is generated over the rationals by p even generators e1..ep
with ei*ei = 0 and q odd generators t1..tq with ti*tj = -tj*ti (so ti*ti = 0).
Distinct even generators commute with everything.  Every element splits as
body + soul: the body is the rational coefficient of the empty monomial, the
soul is the nilpotent rest.  An element is invertible exactly when its body
is nonzero, and the inverse is computed by a finite geometric series because
soul**(p+q+1) = 0.

Elements are immutable; all coefficients are fractions.Fraction, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from . import _backend as K
from .errors import BodyZero, MorphismError, SignatureMismatch

# Generator indices pack into two 16-bit lanes of one int key, and the
# combined count is capped so a monomial key always fits the lanes.
MAX_GENERATORS = 16

Scalar = Union[int, Fraction]


class Parity(Enum):
    EVEN = 0
    ODD = 1
    MIXED = 2


def _indices(mask: int) -> tuple:
    """Set bits of mask as ascending 1-based generator indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _mask_of(indices, count: int, lane: str) -> int:
    mask = 0
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= count:
            raise ValueError(f"{lane} generator index {i!r} out of range 1..{count}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated {lane} generator index {i}")
        mask |= bit
    return mask


def _sort_token(key: int):
    return (_indices(K.even_bits(key)), _indices(K.odd_bits(key)))


@dataclass(frozen=True)
class Signature:
    """Generator counts (even, odd) of a Lambda(p, q) algebra."""

    even: int
    odd: int

    def __post_init__(self):
        if not (isinstance(self.even, int) and isinstance(self.odd, int)):
            raise ValueError("generator counts must be ints")
        if self.even < 0 or self.odd < 0:
            raise ValueError("generator counts must be nonnegative")
        if self.even + self.odd > MAX_GENERATORS:
            raise ValueError(
                f"at most {MAX_GENERATORS} generators in total, "
                f"got {self.even}+{self.odd}"
            )

    def zero(self) -> "AlgebraElement":
        return _make(self, {})

    def one(self) -> "AlgebraElement":
        return _make(self, {0: Fraction(1)})

    def scalar(self, c: Scalar) -> "AlgebraElement":
        c = Fraction(c)
        return _make(self, {0: c} if c else {})

    def eps(self, i: int) -> "AlgebraElement":
        """The i-th even generator, 1-based."""
        if not 1 <= i <= self.even:
            raise ValueError(f"even generator index {i} out of range 1..{self.even}")
        return _make(self, {K.pack(1 << (i - 1), 0): Fraction(1)})

    def theta(self, j: int) -> "AlgebraElement":
        """The j-th odd generator, 1-based."""
        if not 1 <= j <= self.odd:
            raise ValueError(f"odd generator index {j} out of range 1..{self.odd}")
        return _make(self, {K.pack(0, 1 << (j - 1)): Fraction(1)})

    def monomial(self, evens, odds, coeff: Scalar = 1) -> "AlgebraElement":
        """coeff * (product of eps at ascending evens) * (product of theta at odds)."""
        key = K.pack(
            _mask_of(evens, self.even, "even"), _mask_of(odds, self.odd, "odd")
        )
        c = Fraction(coeff)
        return _make(self, {key: c} if c else {})

    def from_terms(self, mapping) -> "AlgebraElement":
        """Element from {(evens_tuple, odds_tuple): coeff}; terms may repeat."""
        terms: dict = {}
        for (evens, odds), coeff in mapping.items():
            key = K.pack(
                _mask_of(evens, self.even, "even"), _mask_of(odds, self.odd, "odd")
            )
            tot = terms.get(key, Fraction(0)) + Fraction(coeff)
            if tot:
                terms[key] = tot
            else:
                terms.pop(key, None)
        return _make(self, terms)


def _make(sig: Signature, terms: dict) -> "AlgebraElement":
    e = AlgebraElement.__new__(AlgebraElement)
    e.signature = sig
    e.terms = terms
    return e


class AlgebraElement:
    """One element of Lambda(p, q), stored as a sparse monomial-to-coefficient map.

    The terms dict is owned by the element and must not be mutated.  Construct
    through Signature (zero, one, scalar, eps, theta, monomial, from_terms)
    rather than directly.
    """

    __slots__ = ("signature", "terms")

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            if other.signature != self.signature:
                raise SignatureMismatch(
                    f"operands over Lambda{self.signature.even, self.signature.odd} "
                    f"and Lambda{other.signature.even, other.signature.odd}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.signature.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.signature, K.add_terms(self.terms, o.terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.signature, K.sub_terms(self.terms, o.terms))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.signature, K.sub_terms(o.terms, self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.signature, K.scale_terms(self.terms, Fraction(other)))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.signature, K.mul_terms(self.terms, o.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.signature, K.scale_terms(self.terms, Fraction(other)))
        return NotImplemented

    def __neg__(self):
        return _make(self.signature, K.neg_terms(self.terms))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        acc = self.signature.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return _make(self.signature, K.scale_terms(self.terms, 1 / c))
        if isinstance(other, AlgebraElement):
            return self * other.inv()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Fraction(other) * self.inv()
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.signature.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    __hash__ = None  # mutable-by-convention container inside; not hashable

    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def soul(self) -> "AlgebraElement":
        if 0 not in self.terms:
            return self
        rest = dict(self.terms)
        del rest[0]
        return _make(self.signature, rest)

    def parity(self) -> Parity:
        """EVEN for 0 and purely even elements, ODD for purely odd, else MIXED."""
        seen_even = seen_odd = False
        for key in self.terms:
            if K.key_parity(key):
                seen_odd = True
            else:
                seen_even = True
            if seen_even and seen_odd:
                return Parity.MIXED
        return Parity.ODD if seen_odd else Parity.EVEN

    def body_soul_parity(self):
        return (self.body(), self.soul(), self.parity())

    def inv(self) -> "AlgebraElement":
        """Multiplicative inverse via the terminating geometric series.

        (b + s)^-1 = (1/b) * sum_k (-s/b)^k, zero after k = p + q since any
        (p+q+1)-fold product of soul terms repeats a generator.
        """
        b = self.body()
        if not b:
            raise BodyZero("element has zero body, not invertible")
        sig = self.signature
        step = _make(sig, K.scale_terms(self.soul().terms, Fraction(-1) / b))
        acc = sig.one()
        power = sig.one()
        for _ in range(sig.even + sig.odd):
            power = power * step
            if power.is_zero():
                break
            acc = acc + power
        return _make(sig, K.scale_terms(acc.terms, Fraction(1) / b))

    def items(self):
        """Terms as ((evens, odds), coeff) in canonical ascending monomial order."""
        return [
            (_sort_token(key), self.terms[key])
            for key in sorted(self.terms, key=_sort_token)
        ]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (evens, odds), coeff in self.items():
            names = [f"e{i}" for i in evens] + [f"t{j}" for j in odds]
            if not names:
                text = str(coeff)
            elif coeff == 1:
                text = "*".join(names)
            elif coeff == -1:
                text = "-" + "*".join(names)
            else:
                text = str(coeff) + "*" + "*".join(names)
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


class AlgebraMorphism:
    """Algebra morphism Lambda(p, q) -> Lambda(p', q') fixed on generators.

    Sends 1 to 1, each even generator to an even square-zero element with zero
    body, each odd generator to an odd element with zero body; a zero image is
    always allowed.  Those constraints make the extension to products
    well defined, which morphism_violations checks up front.
    """

    __slots__ = ("source", "target", "even_images", "odd_images", "_cache")

    def __init__(self, source: Signature, target: Signature, even_images, odd_images):
        problems = morphism_violations(source, target, even_images, odd_images)
        if problems:
            raise MorphismError("; ".join(problems))
        self.source = source
        self.target = target
        self.even_images = tuple(even_images)
        self.odd_images = tuple(odd_images)
        self._cache = {0: target.one()}

    @classmethod
    def identity(cls, sig: Signature) -> "AlgebraMorphism":
        return cls(
            sig,
            sig,
            [sig.eps(i) for i in range(1, sig.even + 1)],
            [sig.theta(j) for j in range(1, sig.odd + 1)],
        )

    @classmethod
    def body_map(cls, source: Signature, target: Signature) -> "AlgebraMorphism":
        """Kill every generator; applies the body character into target."""
        z = target.zero()
        return cls(source, target, [z] * source.even, [z] * source.odd)

    def _image(self, key: int) -> AlgebraElement:
        img = self._cache.get(key)
        if img is None:
            img = self.target.one()
            for i in _indices(K.even_bits(key)):
                img = img * self.even_images[i - 1]
            for j in _indices(K.odd_bits(key)):
                img = img * self.odd_images[j - 1]
            self._cache[key] = img
        return img

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if not isinstance(x, AlgebraElement) or x.signature != self.source:
            raise SignatureMismatch("argument does not live over the source signature")
        acc: dict = {}
        for key, coeff in x.terms.items():
            K.mul_into(acc, {0: coeff}, self._image(key).terms)
        return _make(self.target, acc)

    def __repr__(self):
        s, t = self.source, self.target
        return f"AlgebraMorphism(Lambda({s.even},{s.odd}) -> Lambda({t.even},{t.odd}))"


def morphism_violations(source, target, even_images, odd_images) -> list:
    """Why the generator images fail to define a morphism; empty list if valid."""
    problems = []
    even_images = list(even_images)
    odd_images = list(odd_images)
    if len(even_images) != source.even:
        problems.append(
            f"expected {source.even} even images, got {len(even_images)}"
        )
    if len(odd_images) != source.odd:
        problems.append(f"expected {source.odd} odd images, got {len(odd_images)}")
    for label, images, want in (("even", even_images, Parity.EVEN),
                                ("odd", odd_images, Parity.ODD)):
        for pos, img in enumerate(images, start=1):
            if not isinstance(img, AlgebraElement) or img.signature != target:
                problems.append(f"{label} image {pos} not over the target signature")
                continue
            if img.body():
                problems.append(f"{label} image {pos} has nonzero body")
            if not img.is_zero() and img.parity() is not want:
                problems.append(f"{label} image {pos} is not purely {label}")
            if want is Parity.EVEN and not (img * img).is_zero():
                problems.append(f"even image {pos} has nonzero square")
    return problems
