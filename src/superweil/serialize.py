"""Canonical JSON forms for elements, matrices, points, and group data.

One canonical byte string per value: terms are sorted by monomial, indices
ascend, coefficients are reduced fraction strings ("3", "-1/2"), and JSON is
emitted compactly with a fixed key order.  Parsing rejects anything off that
form (wrong or duplicate keys, unsorted terms, zero or unreduced coefficients,
grading violations) with a ParseError naming the offending path, so
round-tripping is byte-stable.
"""

import json
import re
from fractions import Fraction

from .algebra import AlgebraElement, Signature
from .errors import KernelError, ParseError
from .flag import BigCellPoint, JacobianReport, PoincareElement
from .matrix import SuperMatrix

_COEFF_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        dup = next(k for k in keys if keys.count(k) > 1)
        raise ParseError(f"invalid JSON: duplicate key {dup!r}")
    return obj


def loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


# emitters

def element_to_obj(x: AlgebraElement) -> dict:
    terms = [
        {"e": list(evens), "o": list(odds), "c": str(coeff)}
        for (evens, odds), coeff in x.items()
    ]
    return {
        "sig": {"even": x.signature.even, "odd": x.signature.odd},
        "terms": terms,
    }


def matrix_to_obj(g: SuperMatrix) -> dict:
    return {
        "rows": {"even": g.row_shape[0], "odd": g.row_shape[1]},
        "cols": {"even": g.col_shape[0], "odd": g.col_shape[1]},
        "entries": [[element_to_obj(e) for e in row] for row in g.entries],
    }


def point_to_obj(pt: BigCellPoint) -> dict:
    return {
        "A": matrix_to_obj(pt.A),
        "alpha": matrix_to_obj(pt.alpha),
        "beta": matrix_to_obj(pt.beta),
    }


def poincare_to_obj(P: PoincareElement) -> dict:
    return {
        "L": matrix_to_obj(P.L),
        "R": matrix_to_obj(P.R),
        "N": matrix_to_obj(P.N),
        "chi": matrix_to_obj(P.chi),
        "phi": matrix_to_obj(P.phi),
        "d": element_to_obj(P.d),
    }


def jacobian_to_obj(rep: JacobianReport) -> dict:
    return {
        "basis_label": rep.basis_label,
        "even_rank": rep.even_rank,
        "odd_rank": rep.odd_rank,
        "even_matrix": [[str(x) for x in row] for row in rep.even_matrix],
        "odd_matrix": [[str(x) for x in row] for row in rep.odd_matrix],
    }


# parsers

def _expect_dict(obj, keys, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    got = set(obj)
    if got != set(keys):
        missing = sorted(set(keys) - got)
        extra = sorted(got - set(keys))
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        raise ParseError(f"{path}: {', '.join(detail)}")
    return obj


def _expect_count(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(f"{path}: expected a nonnegative integer")
    return v


def _expect_indices(v, count: int, path: str) -> tuple:
    if not isinstance(v, list):
        raise ParseError(f"{path}: expected a list of indices")
    prev = 0
    for i in v:
        if not isinstance(i, int) or isinstance(i, bool):
            raise ParseError(f"{path}: index {i!r} is not an integer")
        if not 1 <= i <= count:
            raise ParseError(f"{path}: index {i} out of range 1..{count}")
        if i <= prev:
            raise ParseError(f"{path}: indices not strictly increasing")
        prev = i
    return tuple(v)


def _expect_coeff(v, path: str) -> Fraction:
    if not isinstance(v, str) or not _COEFF_RE.match(v):
        raise ParseError(f"{path}: coefficient must be a fraction string")
    try:
        c = Fraction(v)
    except ValueError as exc:  # beyond the interpreter's int string limit
        raise ParseError(f"{path}: {exc}") from None
    if str(c) != v:
        raise ParseError(f"{path}: coefficient {v!r} is not in canonical form")
    if not c:
        raise ParseError(f"{path}: zero terms must be omitted")
    return c


def signature_from_obj(obj, path: str = "sig") -> Signature:
    _expect_dict(obj, ("even", "odd"), path)
    p = _expect_count(obj["even"], f"{path}.even")
    q = _expect_count(obj["odd"], f"{path}.odd")
    try:
        return Signature(p, q)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def element_from_obj(obj, path: str = "element") -> AlgebraElement:
    _expect_dict(obj, ("sig", "terms"), path)
    sig = signature_from_obj(obj["sig"], f"{path}.sig")
    terms = obj["terms"]
    if not isinstance(terms, list):
        raise ParseError(f"{path}.terms: expected a list")
    mapping = {}
    prev = None
    for idx, t in enumerate(terms):
        tpath = f"{path}.terms[{idx}]"
        _expect_dict(t, ("e", "o", "c"), tpath)
        evens = _expect_indices(t["e"], sig.even, f"{tpath}.e")
        odds = _expect_indices(t["o"], sig.odd, f"{tpath}.o")
        c = _expect_coeff(t["c"], f"{tpath}.c")
        token = (evens, odds)
        if prev is not None and token <= prev:
            raise ParseError(f"{tpath}: monomials out of canonical order")
        prev = token
        mapping[token] = c
    return sig.from_terms(mapping)


def matrix_from_obj(obj, path: str = "matrix") -> SuperMatrix:
    _expect_dict(obj, ("rows", "cols", "entries"), path)
    rs = _expect_dict(obj["rows"], ("even", "odd"), f"{path}.rows")
    cs = _expect_dict(obj["cols"], ("even", "odd"), f"{path}.cols")
    row_shape = (
        _expect_count(rs["even"], f"{path}.rows.even"),
        _expect_count(rs["odd"], f"{path}.rows.odd"),
    )
    col_shape = (
        _expect_count(cs["even"], f"{path}.cols.even"),
        _expect_count(cs["odd"], f"{path}.cols.odd"),
    )
    grid = obj["entries"]
    nr = row_shape[0] + row_shape[1]
    nc = col_shape[0] + col_shape[1]
    if not isinstance(grid, list) or len(grid) != nr or any(
        not isinstance(r, list) or len(r) != nc for r in grid
    ):
        raise ParseError(f"{path}.entries: expected a {nr}x{nc} grid")
    sig = None
    rows = []
    for i, r in enumerate(grid):
        row = []
        for j, cell in enumerate(r):
            e = element_from_obj(cell, f"{path}.entries[{i}][{j}]")
            if sig is None:
                sig = e.signature
            elif e.signature != sig:
                raise ParseError(
                    f"{path}.entries[{i}][{j}]: signature differs from the first entry"
                )
            row.append(e)
        rows.append(row)
    if sig is None:
        raise ParseError(f"{path}.entries: empty matrices need at least a signature carrier")
    try:
        return SuperMatrix(sig, row_shape, col_shape, rows)
    except KernelError as exc:
        raise ParseError(f"{path}: {exc}") from None


def point_from_obj(obj, path: str = "point") -> BigCellPoint:
    _expect_dict(obj, ("A", "alpha", "beta"), path)
    A = matrix_from_obj(obj["A"], f"{path}.A")
    alpha = matrix_from_obj(obj["alpha"], f"{path}.alpha")
    beta = matrix_from_obj(obj["beta"], f"{path}.beta")
    try:
        return BigCellPoint(A, alpha, beta)
    except KernelError as exc:
        raise ParseError(f"{path}: {exc}") from None


def poincare_from_obj(obj, path: str = "poincare") -> PoincareElement:
    _expect_dict(obj, ("L", "R", "N", "chi", "phi", "d"), path)
    parts = {
        name: matrix_from_obj(obj[name], f"{path}.{name}")
        for name in ("L", "R", "N", "chi", "phi")
    }
    d = element_from_obj(obj["d"], f"{path}.d")
    try:
        return PoincareElement(
            L=parts["L"], N=parts["N"], R=parts["R"],
            chi=parts["chi"], phi=parts["phi"], d=d,
        )
    except KernelError as exc:
        raise ParseError(f"{path}: {exc}") from None


_KINDS = {
    "element": (element_from_obj, element_to_obj),
    "matrix": (matrix_from_obj, matrix_to_obj),
    "point": (point_from_obj, point_to_obj),
    "poincare": (poincare_from_obj, poincare_to_obj),
}


def parse_serialize_roundtrip(text: str, kind: str) -> str:
    """Parse a payload of the given kind and re-emit its canonical bytes.

    Canonical input comes back byte-identical; anything off the canonical
    form raises ParseError during the parse step.
    """
    if kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}; valid: {', '.join(_KINDS)}")
    parse, emit = _KINDS[kind]
    return dumps(emit(parse(loads(text), kind)))
