"""Canonical JSON round-trips byte for byte; off-form input is rejected."""

import random

import pytest

from superweil.algebra import Signature
from superweil.errors import ParseError
from superweil.serialize import (
    dumps,
    element_from_obj,
    element_to_obj,
    loads,
    matrix_from_obj,
    matrix_to_obj,
    parse_serialize_roundtrip,
    point_from_obj,
    point_to_obj,
    poincare_from_obj,
    poincare_to_obj,
)
from superweil import sampling

SIG = Signature(2, 4)


def test_element_bytes_stable():
    rng = random.Random(601)
    for _ in range(25):
        x = sampling.mixed_element(SIG, rng)
        text = dumps(element_to_obj(x))
        assert element_from_obj(loads(text)) == x
        assert parse_serialize_roundtrip(text, "element") == text


def test_element_known_bytes():
    x = SIG.monomial((1,), (1, 2), 1) + SIG.scalar(-2)
    text = dumps(element_to_obj(x))
    assert text == (
        '{"sig":{"even":2,"odd":4},"terms":'
        '[{"e":[],"o":[],"c":"-2"},{"e":[1],"o":[1,2],"c":"1"}]}'
    )


def test_matrix_bytes_stable():
    rng = random.Random(602)
    for _ in range(10):
        g = sampling.graded_matrix(SIG, (2, 1), (1, 2), rng)
        text = dumps(matrix_to_obj(g))
        assert matrix_from_obj(loads(text)) == g
        assert parse_serialize_roundtrip(text, "matrix") == text


def test_point_and_poincare_bytes_stable():
    rng = random.Random(603)
    sig = Signature(0, 4)
    for _ in range(8):
        pt = sampling.random_point(sig, rng)
        text = dumps(point_to_obj(pt))
        assert point_from_obj(loads(text)) == pt
        assert parse_serialize_roundtrip(text, "point") == text
        P = sampling.random_poincare(sig, rng)
        ptext = dumps(poincare_to_obj(P))
        assert poincare_from_obj(loads(ptext)) == P
        assert parse_serialize_roundtrip(ptext, "poincare") == ptext


def reject(obj, parser=element_from_obj, needle=None):
    with pytest.raises(ParseError) as err:
        parser(obj)
    if needle:
        assert needle in str(err.value)


def test_rejects_bad_shapes():
    reject([], needle="expected an object")
    reject({"sig": {"even": 0, "odd": 1}}, needle="missing")
    reject({"sig": {"even": 0, "odd": 1}, "terms": [], "x": 1}, needle="unexpected")
    reject({"sig": {"even": -1, "odd": 1}, "terms": []}, needle="nonnegative")
    reject({"sig": {"even": 0, "odd": 99}, "terms": []})


def test_rejects_bad_terms():
    sig = {"even": 1, "odd": 2}
    reject({"sig": sig, "terms": [{"e": [], "o": [2, 1], "c": "1"}]},
           needle="strictly increasing")
    reject({"sig": sig, "terms": [{"e": [], "o": [1, 1], "c": "1"}]},
           needle="strictly increasing")
    reject({"sig": sig, "terms": [{"e": [], "o": [3], "c": "1"}]},
           needle="out of range")
    reject({"sig": sig, "terms": [{"e": [], "o": [], "c": "0"}]},
           needle="zero terms")
    reject({"sig": sig, "terms": [{"e": [], "o": [], "c": "2/4"}]},
           needle="canonical")
    reject({"sig": sig, "terms": [{"e": [], "o": [], "c": "0.5"}]},
           needle="fraction string")
    reject({"sig": sig, "terms": [{"e": [], "o": [], "c": 1}]},
           needle="fraction string")
    reject({"sig": sig, "terms": [{"e": [], "o": [], "c": "1/-2"}]},
           needle="fraction string")


def test_rejects_out_of_order_monomials():
    sig = {"even": 0, "odd": 2}
    t1 = {"e": [], "o": [2], "c": "1"}
    t2 = {"e": [], "o": [1], "c": "1"}
    reject({"sig": sig, "terms": [t1, t2]}, needle="canonical order")
    reject({"sig": sig, "terms": [t2, t2]}, needle="canonical order")


def test_rejects_bad_matrix():
    e = {"sig": {"even": 0, "odd": 1}, "terms": []}
    t = {"sig": {"even": 0, "odd": 1},
         "terms": [{"e": [], "o": [1], "c": "1"}]}
    one = {"sig": {"even": 0, "odd": 1},
           "terms": [{"e": [], "o": [], "c": "1"}]}
    reject({"rows": {"even": 1, "odd": 0}, "cols": {"even": 2, "odd": 0},
            "entries": [[e]]}, matrix_from_obj, "grid")
    # grading violation: odd element in the even-even corner
    reject({"rows": {"even": 1, "odd": 1}, "cols": {"even": 1, "odd": 1},
            "entries": [[t, e], [e, e]]}, matrix_from_obj, "parity")
    # mixed signatures across entries
    other = {"sig": {"even": 1, "odd": 0}, "terms": []}
    reject({"rows": {"even": 1, "odd": 1}, "cols": {"even": 1, "odd": 1},
            "entries": [[e, e], [e, other]]}, matrix_from_obj, "signature")
    # empty grid carries no signature
    reject({"rows": {"even": 0, "odd": 0}, "cols": {"even": 0, "odd": 0},
            "entries": []}, matrix_from_obj, "signature carrier")
    del one


def test_rejects_bad_point():
    e = {"sig": {"even": 0, "odd": 2}, "terms": []}
    m22 = {"rows": {"even": 2, "odd": 0}, "cols": {"even": 2, "odd": 0},
           "entries": [[e, e], [e, e]]}
    reject({"A": m22, "alpha": m22}, point_from_obj, "missing")
    # alpha must be an odd row, not a 2x2 block
    reject({"A": m22, "alpha": m22, "beta": m22}, point_from_obj)


def test_rejects_invalid_json_text():
    with pytest.raises(ParseError, match="invalid JSON"):
        loads("{oops")
    # duplicate keys, at the top or nested; equal keys in sibling objects are fine
    with pytest.raises(ParseError, match="duplicate key 'rows'"):
        loads('{"rows": 1, "cols": 2, "rows": 3}')
    with pytest.raises(ParseError, match="duplicate key 'c'"):
        loads('[{"a": {"c": 1, "c": 1}}]')
    assert loads('{"a": {"c": 1}, "b": {"c": 2}}') == {"a": {"c": 1}, "b": {"c": 2}}
    with pytest.raises(ParseError, match="unknown kind"):
        parse_serialize_roundtrip("{}", "banana")


def test_diagnostics_name_the_path():
    sig = {"even": 1, "odd": 2}
    bad = {"sig": sig, "terms": [{"e": [], "o": [], "c": "1"},
                                 {"e": [9], "o": [], "c": "1"}]}
    with pytest.raises(ParseError) as err:
        element_from_obj(bad)
    assert "terms[1].e" in str(err.value)


def test_poincare_parse_enforces_invertibility():
    sig = Signature(0, 2)
    e0 = {"sig": {"even": 0, "odd": 2}, "terms": []}
    one = {"sig": {"even": 0, "odd": 2},
           "terms": [{"e": [], "o": [], "c": "1"}]}
    m_zero = {"rows": {"even": 2, "odd": 0}, "cols": {"even": 2, "odd": 0},
              "entries": [[e0, e0], [e0, e0]]}
    m_one = {"rows": {"even": 2, "odd": 0}, "cols": {"even": 2, "odd": 0},
             "entries": [[one, e0], [e0, one]]}
    col = {"rows": {"even": 2, "odd": 0}, "cols": {"even": 0, "odd": 1},
           "entries": [[e0], [e0]]}
    row = {"rows": {"even": 0, "odd": 1}, "cols": {"even": 2, "odd": 0},
           "entries": [[e0, e0]]}
    payload = {"L": m_zero, "R": m_one, "N": m_zero,
               "chi": col, "phi": row, "d": one}
    with pytest.raises(ParseError):
        poincare_from_obj(payload)
    del sig
