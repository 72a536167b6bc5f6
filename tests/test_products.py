"""The closed-form product route (``monomial_product``, which ``multiply``
uses under the completed rules) held against its two oracles: the rewrite
engine and the cascade of generator actions."""

import json
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qheis.ratfun import RF_ONE, RF_ONE_MINUS_Q, RF_Q, RatFun
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


def test_formula_equals_rewrite_and_cascade_up_to_degree_4():
    words = words_up_to_degree(4)
    assert len(words) == 25
    for x in words:
        for y in words:
            z = monomial_product(x, y)
            assert z == reduce_word(x.word() + y.word()), (x, y)
            assert z == multiply_cascade(single(x), single(y)), (x, y)
            beta = x.b + max(y.b - x.a, 0)
            alpha = max(x.a - y.b, 0) + y.a
            assert len(z.terms) <= min(x.a, y.b) + min(beta, alpha) + 1, (x, y)


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
