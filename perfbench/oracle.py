"""Reference arithmetic that checks benchmark outputs independently of superweil.

The Grassmann product here works on canonical terms {(evens, odds): Fraction}
as returned by AlgebraElement.items(): two monomials multiply to zero when
they share a generator, and the sign comes from bubble-sorting the
concatenated odd indices, counting swaps.  It shares no code with the
packed-key kernel.

The determinant and inverse over even entries use Gaussian elimination that
pivots on an entry with nonzero body; even entries commute and such an entry
is invertible, so this is exact.  It is a different algorithm from the memoized
Laplace expansion and cofactor inverse in superweil.matrix.
"""

from fractions import Fraction


def bubble_sign(seq) -> int:
    """(-1)**(number of swaps bubble sort makes to sort seq)."""
    s = list(seq)
    swaps = 0
    for end in range(len(s) - 1, 0, -1):
        for i in range(end):
            if s[i] > s[i + 1]:
                s[i], s[i + 1] = s[i + 1], s[i]
                swaps += 1
    return -1 if swaps & 1 else 1


_MISS = object()


class _Lane:
    """Index tuples of one generator lane, numbered on first sight, with the
    product of each pair memoized as (sign, index) or None."""

    def __init__(self, signed):
        self.signed = signed
        self.ids = {}
        self.tuples = []
        self.rows = []

    def id(self, t) -> int:
        i = self.ids.get(t)
        if i is None:
            i = self.ids[t] = len(self.tuples)
            self.tuples.append(t)
            self.rows.append({})
        return i

    def product(self, ia, ib):
        """Compute and memoize; callers look in rows[ia] first."""
        a, b = self.tuples[ia], self.tuples[ib]
        hit = None
        if not set(a) & set(b):
            sign = bubble_sign(a + b) if self.signed else 1
            hit = (sign, self.id(tuple(sorted(a + b))))
        self.rows[ia][ib] = hit
        return hit


class GrassmannRef:
    """Reference product on canonical terms.

    Even and odd index tuples are memoized separately, so the memo stays
    bounded by the square of the number of index sets in each lane.
    """

    def __init__(self):
        self._even = _Lane(signed=False)
        self._odd = _Lane(signed=True)

    def mul(self, a: dict, b: dict) -> dict:
        even, odd = self._even, self._odd
        bs = [(even.id(e), odd.id(o), c) for (e, o), c in b.items()]
        out = {}
        for (e, o), ca in a.items():
            ea, oa = even.id(e), odd.id(o)
            erow, orow = even.rows[ea], odd.rows[oa]
            for eb, ob, cb in bs:
                he = erow.get(eb, _MISS)
                if he is _MISS:
                    he = even.product(ea, eb)
                if he is None:
                    continue
                ho = orow.get(ob, _MISS)
                if ho is _MISS:
                    ho = odd.product(oa, ob)
                if ho is None:
                    continue
                c = ca * cb if ho[0] > 0 else -(ca * cb)
                key = (he[1], ho[1])
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return {(even.tuples[e], odd.tuples[o]): c
                for (e, o), c in out.items() if c}


def terms(x) -> dict:
    """Canonical terms of an AlgebraElement."""
    return dict(x.items())


ONE = {((), ()): Fraction(1)}


def morphism_image(ref: GrassmannRef, even_images, odd_images, x: dict) -> dict:
    """Image of x under the morphism fixed on generators, term by term."""
    out = {}
    for (evens, odds), c in x.items():
        img = ONE
        for i in evens:
            img = ref.mul(img, terms(even_images[i - 1]))
        for j in odds:
            img = ref.mul(img, terms(odd_images[j - 1]))
        for key, v in img.items():
            out[key] = out.get(key, 0) + c * v
    return {k: c for k, c in out.items() if c}


# grids of even AlgebraElements with a nonzero body determinant

def elim_det(rows):
    a = [list(r) for r in rows]
    n = len(a)
    sig = a[0][0].signature
    det = sig.one()
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col].body())
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        p = a[col][col]
        det = det * p
        pinv = p.inv()
        for r in range(col + 1, n):
            f = a[r][col] * pinv
            if not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def elim_inv(rows):
    n = len(rows)
    sig = rows[0][0].signature
    one, zero = sig.one(), sig.zero()
    a = [list(r) + [one if i == j else zero for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col].body())
        a[col], a[pivot] = a[pivot], a[col]
        pinv = a[col][col].inv()
        a[col] = [x * pinv for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [r[n:] for r in a]


def grid_mul(a, b):
    """Ordered entrywise product sum; odd entries keep their order."""
    sig = a[0][0].signature
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = sig.zero()
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def berezinian_alt(g):
    """det(p) * det(s - r p^-1 q)^-1, the other Schur complement."""
    m = g.row_shape[0]
    e = g.entries
    p = [list(r[:m]) for r in e[:m]]
    q = [list(r[m:]) for r in e[:m]]
    r = [list(row[:m]) for row in e[m:]]
    s = [list(row[m:]) for row in e[m:]]
    rpq = grid_mul(grid_mul(r, elim_inv(p)), q)
    schur = [[x - y for x, y in zip(rs, rr)] for rs, rr in zip(s, rpq)]
    return elim_det(p) * elim_det(schur).inv()
