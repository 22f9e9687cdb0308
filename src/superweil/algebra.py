"""Exact arithmetic in the supercommutative algebras Lambda(p, q).

Lambda(p, q) is generated over the rationals by p even generators e1..ep
with ei*ei = 0 and q odd generators t1..tq with ti*tj = -tj*ti (so ti*ti = 0).
Distinct even generators commute with everything.  Every element splits as
body + soul: the body is the rational coefficient of the empty monomial, the
soul is the nilpotent rest.  An element is invertible exactly when its body
is nonzero, and the inverse is computed by a finite geometric series because
soul**(p+q+1) = 0.

Elements are immutable and exact, never floats.  An element stores integer
numerators {key: int} over one common denominator den, in canonical form:
den > 0, no zero numerator, gcd(den, every numerator) = 1, and zero is
({}, 1); so equal elements have equal numerators and denominators.  Only this
module knows that layout.  Coefficients cross the API as fractions.Fraction:
constructors take int or Fraction, and body() and items() return Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
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


def _ratio(c) -> tuple:
    """(numerator, denominator > 0) of a rational scalar."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator


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
        return _make(self, {}, 1)

    def one(self) -> "AlgebraElement":
        return _make(self, {0: 1}, 1)

    def scalar(self, c: Scalar) -> "AlgebraElement":
        n, d = _ratio(c)
        return _make(self, {0: n} if n else {}, d)

    def eps(self, i: int) -> "AlgebraElement":
        """The i-th even generator, 1-based."""
        if not 1 <= i <= self.even:
            raise ValueError(f"even generator index {i} out of range 1..{self.even}")
        return _make(self, {K.pack(1 << (i - 1), 0): 1}, 1)

    def theta(self, j: int) -> "AlgebraElement":
        """The j-th odd generator, 1-based."""
        if not 1 <= j <= self.odd:
            raise ValueError(f"odd generator index {j} out of range 1..{self.odd}")
        return _make(self, {K.pack(0, 1 << (j - 1)): 1}, 1)

    def monomial(self, evens, odds, coeff: Scalar = 1) -> "AlgebraElement":
        """coeff * (product of eps at ascending evens) * (product of theta at odds)."""
        key = K.pack(
            _mask_of(evens, self.even, "even"), _mask_of(odds, self.odd, "odd")
        )
        n, d = _ratio(coeff)
        return _make(self, {key: n} if n else {}, d)

    def from_terms(self, mapping) -> "AlgebraElement":
        """Element from {(evens_tuple, odds_tuple): coeff}; terms may repeat."""
        coeffs = []
        for (evens, odds), coeff in mapping.items():
            key = K.pack(
                _mask_of(evens, self.even, "even"), _mask_of(odds, self.odd, "odd")
            )
            coeffs.append((key, *_ratio(coeff)))
        den = lcm(*(d for _, _, d in coeffs))
        terms: dict = {}
        for key, n, d in coeffs:
            terms[key] = terms.get(key, 0) + n * (den // d)
        return _make(self, {k: v for k, v in terms.items() if v}, den)


def _make(sig: Signature, terms: dict, den: int) -> "AlgebraElement":
    """Element with numerators terms (no zeros) over den > 0, put in canonical
    form by one gcd pass."""
    if den != 1:
        if not terms:
            den = 1
        else:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: v // g for k, v in terms.items()}
                den //= g
    e = AlgebraElement.__new__(AlgebraElement)
    e.signature = sig
    e.terms = terms
    e.den = den
    return e


def _scaled(x: "AlgebraElement", n: int, d: int) -> "AlgebraElement":
    """x * n / d for ints n != 0 and d > 0."""
    return _make(x.signature, x.terms if n == 1 else K.scale_terms(x.terms, n),
                 x.den * d)


def _on_common_den(a: "AlgebraElement", b: "AlgebraElement"):
    """(numerators of a, numerators of b, den) over den = lcm(a.den, b.den)."""
    da, db = a.den, b.den
    if da == db:
        return a.terms, b.terms, da
    den = lcm(da, db)
    fa, fb = den // da, den // db
    ta = a.terms if fa == 1 else K.scale_terms(a.terms, fa)
    tb = b.terms if fb == 1 else K.scale_terms(b.terms, fb)
    return ta, tb, den


def sum_of_products(sig: Signature, triples: list) -> "AlgebraElement":
    """Sum of c * a * b over the (c, a, b) in triples: int c, elements a, b.

    Each product is one kernel mul_into, also when an operand is zero.  The
    products land on one common denominator, the lcm of the operands'
    denominator products, by scaling the left factor's numerators.
    """
    den = 1
    for _, a, b in triples:
        d = a.den * b.den
        if den % d:
            den = lcm(den, d)
    acc: dict = {}
    for c, a, b in triples:
        f = c * den // (a.den * b.den)
        K.mul_into(acc, a.terms if f == 1 else K.scale_terms(a.terms, f), b.terms)
    return _make(sig, acc, den)


class AlgebraElement:
    """One element of Lambda(p, q): integer numerators over one denominator.

    The terms dict maps packed monomial keys to nonzero int numerators and den
    is their positive common denominator, in the canonical form described in
    the module docstring.  Both are owned by the element and must not be
    mutated.  Construct through Signature (zero, one, scalar, eps, theta,
    monomial, from_terms) rather than directly.
    """

    __slots__ = ("signature", "terms", "den")

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
        ta, tb, den = _on_common_den(self, o)
        return _make(self.signature, K.add_terms(ta, tb), den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ta, tb, den = _on_common_den(self, o)
        return _make(self.signature, K.sub_terms(ta, tb), den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ta, tb, den = _on_common_den(o, self)
        return _make(self.signature, K.sub_terms(ta, tb), den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.signature, K.mul_terms(self.terms, o.terms),
                     self.den * o.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        return NotImplemented

    def _times(self, c: Scalar) -> "AlgebraElement":
        n, d = _ratio(c)
        if not n:
            return self.signature.zero()
        return _scaled(self, n, d)

    def __neg__(self):
        return _make(self.signature, K.neg_terms(self.terms), self.den)

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
            n, d = _ratio(other)
            if not n:
                raise ZeroDivisionError("division by zero scalar")
            return _scaled(self, d if n > 0 else -d, abs(n))
        if isinstance(other, AlgebraElement):
            return self * other.inv()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inv()._times(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.signature.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.signature == other.signature and self.den == other.den
                and self.terms == other.terms)

    __hash__ = None  # mutable-by-convention container inside; not hashable

    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def soul(self) -> "AlgebraElement":
        if 0 not in self.terms:
            return self
        rest = dict(self.terms)
        del rest[0]
        return _make(self.signature, rest, self.den)

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

        With b the body numerator and s the soul numerators over den,
        ((b + s) / den)^-1 = (den / b) * sum_k (-s/b)^k, zero after k = p + q
        since any (p+q+1)-fold product of soul terms repeats a generator.
        """
        b = self.terms.get(0)
        if b is None:
            raise BodyZero("element has zero body, not invertible")
        sig = self.signature
        sign = 1 if b > 0 else -1
        step = _make(sig, {k: -sign * v for k, v in self.terms.items() if k},
                     abs(b))
        acc = sig.one()
        power = sig.one()
        for _ in range(sig.even + sig.odd):
            power = power * step
            if power.is_zero():
                break
            acc = acc + power
        return _scaled(acc, sign * self.den, abs(b))

    def items(self):
        """Terms as ((evens, odds), coeff) in canonical ascending monomial order."""
        den = self.den
        return [
            (_sort_token(key), Fraction(self.terms[key], den))
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
        images = [(c, self._image(key)) for key, c in x.terms.items()]
        den = lcm(*(img.den for _, img in images))
        acc: dict = {}
        for c, img in images:
            K.mul_into(acc, {0: c * (den // img.den)}, img.terms)
        return _make(self.target, acc, den * x.den)

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
            if 0 in img.terms:
                problems.append(f"{label} image {pos} has nonzero body")
            if not img.is_zero() and img.parity() is not want:
                problems.append(f"{label} image {pos} is not purely {label}")
            if want is Parity.EVEN and not (img * img).is_zero():
                problems.append(f"even image {pos} has nonzero square")
    return problems
