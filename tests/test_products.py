"""The closed-form product route (``monomial_product``, which ``multiply``
uses under the completed rules) held against its two oracles: the rewrite
engine and the cascade of generator actions."""

import json
import time
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis import algebra
from qheis.algebra import (
    A,
    B,
    C,
    COMPLETED,
    BasisWord,
    Element,
    adjoint,
    monomial_product,
    multiply,
    multiply_cascade,
    reduce_word,
)
from qheis.cli import main
from qheis.ratfun import RF_ONE, RF_ONE_MINUS_Q, RF_Q, RatFun, over_one_minus_q
from qheis.rewrite import RuleSet


def words_up_to_degree(d: int):
    """Every canonical monomial B^b C^k A^a with b + k + a <= d."""
    out = []
    for deg in range(d + 1):
        for k in range(deg + 1):
            rest = deg - k
            out.append(BasisWord(rest, k, 0))
            if rest:
                out.append(BasisWord(0, k, rest))
    return out


def single(bw: BasisWord) -> Element:
    return Element({bw: RF_ONE})


def test_formula_equals_rewrite_and_cascade_up_to_degree_6():
    words = words_up_to_degree(6)
    assert len(words) == 49
    for x in words:
        for y in words:
            z = monomial_product(x, y)
            assert z == reduce_word(x.word() + y.word()), (x, y)
            assert z == multiply_cascade(single(x), single(y)), (x, y)


def row_shape(x: BasisWord, y: BasisWord):
    """(r, n): the A's of x that meet B's of y, and the B^n ... A^n left
    over after them."""
    r = min(x.a, y.b)
    return r, min(x.b + y.b - r, x.a - r + y.a)


def test_every_product_is_one_q_binomial_row_up_to_degree_12():
    words = words_up_to_degree(12)
    for x in words:
        for y in words:
            r, n = row_shape(x, y)
            assert min(r, n) == 0, (x, y)
            assert len(monomial_product(x, y).terms) == max(r, n) + 1, (x, y)


@pytest.mark.parametrize("m", range(13))
def test_formula_equals_cascade_on_large_exponents(m):
    pairs = [(BasisWord(0, 0, m), BasisWord(m, 0, 0))]
    pairs += [(BasisWord(m, j, 0), BasisWord(0, 0, m)) for j in range(3)]
    for x, y in pairs:
        assert monomial_product(x, y) == multiply_cascade(single(x), single(y)), (x, y)


def test_fresh_completed_rule_set_multiplies_like_completed():
    fresh = RuleSet("completed", COMPLETED.rules)
    assert fresh._product_memo == {}
    x = A + RF_Q * multiply(B, C) + C
    y = multiply(A, A) - B + RF_ONE / RF_ONE_MINUS_Q * multiply(C, A)
    assert multiply(x, y, fresh) == multiply(x, y)
    assert len(fresh._product_memo) == len(x.terms) * len(y.terms)
    # the closed form never calls the rewrite engine
    assert fresh._nf_memo == {}


def q_pascal_rows(n: int):
    """[n, j]_q for j = 0..n as ascending integer lists, by the q-Pascal rule
    [i, j] = [i-1, j-1] + q^j [i-1, j]."""
    row = [[1]]
    for i in range(1, n + 1):
        nxt = [[1]]
        for j in range(1, i):
            shifted = [0] * j + row[j]
            nxt.append([u + v for u, v in zip_longest(row[j - 1], shifted, fillvalue=0)])
        nxt.append([1])
        row = nxt
    return row


def canonical_row(x: BasisWord, y: BasisWord):
    """The terms of x y as the module docstring's closed form gives them,
    each coefficient canonicalised by ``over_one_minus_q`` from a q-Pascal
    row."""
    r, n = row_shape(x, y)
    m, s, base = max(r, n), abs(x.a - y.b), x.k + y.k
    b, a = x.b + y.b - r - n, x.a - r + y.a - n
    v0 = x.k * (y.b - r) + (x.a - r) * y.k - n * base
    for t, row in enumerate(q_pascal_rows(m)):
        e = v0 + t * (t + 1) // 2 + t * s if r else v0 - t * (t - 1) // 2 - t * (n - t)
        yield BasisWord(b, base + t, a), over_one_minus_q([(-1) ** t * c for c in row], e, m)


def parts(c: RatFun):
    return c._cn, c._cd, c._v, c._w, c._n, c._d, hash(c)


def test_coefficients_are_built_as_their_canonical_parts():
    pairs = [(x, y) for x in words_up_to_degree(8) for y in words_up_to_degree(8)]
    for m in range(31):
        pairs.append((BasisWord(0, 0, m), BasisWord(m, 0, 0)))
        pairs += [(BasisWord(m, j, 0), BasisWord(0, 0, m)) for j in range(3)]
    for x, y in pairs:
        got = list(monomial_product(x, y).terms.items())
        want = list(canonical_row(x, y))
        assert [bw for bw, _ in got] == [bw for bw, _ in want], (x, y)
        assert [parts(c) for _, c in got] == [parts(c) for _, c in want], (x, y)


def test_product_over_its_entry_cap_is_refused(monkeypatch):
    # [4, t]_q for t = 0..4 hold 1 + 4 + 5 + 4 + 1 = 15 entries; the cap is
    # inclusive
    x, y = BasisWord(0, 0, 4), BasisWord(4, 0, 0)
    assert 4 + 1 + 3 * 4 * 5 // 6 == 15
    monkeypatch.setattr(algebra, "MAX_PRODUCT_ENTRIES", 15)
    assert monomial_product(x, y) == multiply_cascade(single(x), single(y))
    monkeypatch.setattr(algebra, "MAX_PRODUCT_ENTRIES", 14)
    with pytest.raises(ValueError, match="MAX_PRODUCT_ENTRIES"):
        monomial_product(x, y)
    # B^4 C A^4 is the same row, and a row of 3 entries passes
    with pytest.raises(ValueError, match="MAX_PRODUCT_ENTRIES"):
        monomial_product(BasisWord(4, 1, 0), BasisWord(0, 0, 4))
    assert len(monomial_product(BasisWord(0, 0, 2), BasisWord(2, 0, 0)).terms) == 3


def test_cli_refuses_a_product_over_its_entry_cap_quickly(capsys):
    # the row of A^2000 B^2000 holds about 1.3e9 ints
    start = time.perf_counter()
    assert main(["normalize", "A^2000*B^2000"]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_PRODUCT_ENTRIES" in err.err
    assert elapsed < 2.0
    # A^181 B^181 (988,442 entries) is the largest product of its kind
    # accepted, and A^182 B^182 (1,004,914) the first refused
    assert monomial_product(BasisWord(0, 0, 181), BasisWord(181, 0, 0)).terms
    with pytest.raises(ValueError, match="1004914 entries"):
        monomial_product(BasisWord(0, 0, 182), BasisWord(182, 0, 0))


def test_cli_normalize_matches_the_q_binomial_theorem(capsys):
    # A^m B^m = (qC; q)_m / (1-q)^m: the coefficient of C^j is
    # (-1)^j q^(j(j+1)/2) [m, j]_q / (1-q)^m, already reduced and with the
    # monic denominator (1-q)^m since m is even and [m, j]_1 != 0
    m = 12
    assert main(["normalize", f"A^{m}*B^{m}", "--json"]) == 0
    terms = json.loads(capsys.readouterr().out)["result"]["element"]["terms"]
    den = [comb(m, i) * (-1) ** i for i in range(m + 1)]
    want = [
        {
            "b": 0,
            "k": j,
            "a": 0,
            "coeff": {"num": [0] * (j * (j + 1) // 2) + [(-1) ** j * c for c in row], "den": den},
        }
        for j, row in enumerate(q_pascal_rows(m))
    ]
    assert terms == want


# -- properties under a size budget: at most 3 terms of word degree <= 3 ------

PROPERTY_BUDGET = settings(max_examples=60, deadline=5000, derandomize=True, database=None)

coefficients = st.sampled_from(
    [
        RF_ONE,
        RatFun.from_fraction(-2),
        RatFun.from_fraction(Fraction(1, 3)),
        RF_Q,
        RatFun.q_power(2) * 3,
        RF_ONE / RF_ONE_MINUS_Q,
        -RF_Q / RF_ONE_MINUS_Q,
    ]
)


@st.composite
def basis_words(draw):
    deg = draw(st.integers(0, 3))
    k = draw(st.integers(0, deg))
    if draw(st.booleans()):
        return BasisWord(deg - k, k, 0)
    return BasisWord(0, k, deg - k)


elements = st.dictionaries(basis_words(), coefficients, min_size=1, max_size=3).map(Element)


@PROPERTY_BUDGET
@given(elements, elements, elements)
def test_multiply_is_associative(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@PROPERTY_BUDGET
@given(elements, elements)
def test_adjoint_reverses_products(x, y):
    assert adjoint(multiply(x, y)) == multiply(adjoint(y), adjoint(x))
