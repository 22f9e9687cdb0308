"""Pure-Python term-map kernel.

A monomial in the generators e1..ep (even, square zero) and t1..tq (odd,
anticommuting) is packed into one int key: bits 0..15 hold the even index
set, bits 16..31 the odd index set.  A term map is a dict {key: coefficient}
holding no zero coefficients.  The functions only add, negate and multiply
coefficients, so they work for any exact number type; algebra passes int
numerators that share one denominator, which it keeps outside the map.  The
rest of the package binds these functions through _backend.
"""

MASK = 0xFFFF
ODD_SHIFT = 16

BACKEND_NAME = "pure"


def pack(even_mask, odd_mask):
    return even_mask | (odd_mask << ODD_SHIFT)


def even_bits(key):
    return key & MASK


def odd_bits(key):
    return key >> ODD_SHIFT


def key_parity(key):
    return (key >> ODD_SHIFT).bit_count() & 1


def koszul_sign(oa, ob):
    """Sign from moving the odd set ob past the odd set oa into sorted order.

    Counts inversions: pairs (i in oa, j in ob) with i > j.
    """
    inv = 0
    b = ob
    while b:
        low = b & -b
        inv += (oa >> low.bit_length()).bit_count()
        b ^= low
    return -1 if inv & 1 else 1


def mul_into(acc, a, b):
    """acc += a*b.  Zero coefficients are pruned from acc."""
    for ka, ca in a.items():
        oa = ka >> ODD_SHIFT
        for kb, cb in b.items():
            if ka & kb:
                # shared generator in either lane squares to zero
                continue
            c = ca * cb
            if koszul_sign(oa, kb >> ODD_SHIFT) < 0:
                c = -c
            key = ka | kb
            prev = acc.get(key)
            if prev is None:
                acc[key] = c
            else:
                tot = prev + c
                if tot:
                    acc[key] = tot
                else:
                    del acc[key]


def mul_terms(a, b):
    acc = {}
    mul_into(acc, a, b)
    return acc


def add_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        if prev is None:
            out[k] = c
        else:
            tot = prev + c
            if tot:
                out[k] = tot
            else:
                del out[k]
    return out


def sub_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        if prev is None:
            out[k] = -c
        else:
            tot = prev - c
            if tot:
                out[k] = tot
            else:
                del out[k]
    return out


def neg_terms(a):
    return {k: -c for k, c in a.items()}


def scale_terms(a, c):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}
