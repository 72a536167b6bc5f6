"""Parser, printer, and round-trip properties."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, random_qpoly_pair
from qheis import expr
from qheis.algebra import A, B, C, BasisWord, Element, I, ad_power, bracket, element_power, multiply
from qheis.expr import (
    AdPower,
    Atom,
    Bracket,
    MAX_FREE_PAIRS,
    ParseError,
    Power,
    Product,
    Scalar,
    Sum,
    element_from_json,
    element_json,
    element_text,
    eval_ast_free,
    evaluate,
    parse,
    parse_ratfun,
    ratfun_from_json,
    ratfun_json,
)
from qheis.ratfun import RF_ONE_MINUS_Q, RF_Q, RatFun
from qheis.rewrite import RuleSet
from qheis.algebra import normalize as alg_normalize


def test_parse_shapes():
    node = parse("A*B - q*B*A")
    assert isinstance(node, Sum)
    (s1, p1), (s2, p2) = node.parts
    assert (s1, s2) == (1, -1)
    assert p1 == Product((Atom("A"), Atom("B")))
    assert p2 == Product((Scalar(RF_Q), Atom("B"), Atom("A")))

    node = parse("[A,B]^2 * A")
    assert node == Product((Power(Bracket(Atom("A"), Atom("B")), 2), Atom("A")))

    node = parse("ad(A)^2(B)")
    assert node == AdPower(Atom("A"), 2, Atom("B"))


def test_scalar_folding():
    assert parse("1/(1-q)") == Scalar(RatFun.one() / RF_ONE_MINUS_Q)
    assert parse("2*3") == Scalar(RatFun.from_fraction(6))
    assert parse("q^2 - q^2") == Scalar(RatFun.zero())
    assert parse("-q") == Scalar(-RF_Q)


def test_eval_examples():
    assert evaluate("[A,B]") == C
    assert evaluate("A*B - q*B*A") == I
    s = RatFun.q_power(-1) / RF_ONE_MINUS_Q
    assert evaluate("B*C*A") == Element.monomial(0, 1, 0, s) + Element.monomial(
        0, 2, 0, -s
    )
    assert evaluate("ad(A)^2(B)") == bracket(A, bracket(A, B))
    assert evaluate("I") == I
    assert evaluate("2^3") == Element.scalar(8)


def test_ambiguity_words_parse_and_normalize():
    expected = {
        "B*A*B": evaluate("B*A*B"),
        "A*B*A": multiply(multiply(A, B), A),
        "B*A*C": multiply(multiply(B, A), C),
        "C*B*A": multiply(multiply(C, B), A),
        "A*C*B": multiply(multiply(A, C), B),
    }
    for text, want in expected.items():
        got = evaluate(text)
        assert got == want
        assert not got.is_zero()


def test_format_examples():
    y = C - Element.monomial(0, 2, 0)
    assert element_text(y) == "(1)*C + (-1)*C^2"
    assert element_json(I) == {
        "terms": [{"b": 0, "k": 0, "a": 0, "coeff": {"num": [1], "den": [1]}}]
    }
    assert element_text(Element.zero()) == "0"


def test_text_round_trip_random():
    rng = random.Random(61)
    for _ in range(200):
        x = random_element(rng)
        assert evaluate(element_text(x)) == x


def test_json_round_trip_random():
    rng = random.Random(67)
    for _ in range(200):
        x = random_element(rng)
        assert element_from_json(element_json(x)) == x


# -- text round trip under a size budget: word degree <= 4 ------------------

small = st.sampled_from([-3, -2, -1, 1, 2, 3])

# the conftest.random_ratfun shapes: n, n/d, n/(1 - q) and n q^e
coefficients = st.one_of(
    small.map(RatFun.from_fraction),
    st.builds(lambda n, d: RatFun.from_fraction(Fraction(n, d)), small, st.integers(1, 3)),
    small.map(lambda n: RatFun.from_fraction(n) / RF_ONE_MINUS_Q),
    st.builds(lambda n, e: RatFun.from_fraction(n) * RatFun.q_power(e), small, st.integers(1, 2)),
)


@st.composite
def basis_words(draw):
    deg = draw(st.integers(0, 4))
    k = draw(st.integers(0, deg))
    if draw(st.booleans()):
        return BasisWord(deg - k, k, 0)
    return BasisWord(0, k, deg - k)


@settings(max_examples=100, deadline=5000, derandomize=True, database=None)
@given(st.dictionaries(basis_words(), coefficients, max_size=4).map(Element))
def test_str_is_the_reparseable_element_text(x):
    assert str(x) == element_text(x)
    assert evaluate(str(x)) == x


CORPUS = [
    "A", "B", "C", "I", "q", "2", "3/4",
    "A*B", "B*A", "A*B - q*B*A", "A*B - B*A - C",
    "A*C - q*C*A", "C*B - q*B*C",
    "[A,B]", "[B,A]", "[A,[A,B]]", "[[A,B],B]",
    "[A,B]^2", "[A,B]^3 * A^2", "B^2*[A,B]",
    "ad(A)^1(B)", "ad(A)^2(B)", "ad(B)^2(A)", "ad([A,B])^1(A)",
    "ad(A)^0(B)",
    "1/(1-q)*I", "q/(1-q)*C", "(1-q)*B*A", "(1 - q^2)/(1 - q)*A",
    "2*A + 3*B", "A - B", "-A", "-q*B*A", "A + 2*I + C^2*A^3",
    "B*C*A", "B*A*B", "A*B*A", "B*A*C", "C*B*A", "A*C*B",
    "(A + B)^2", "(A + B)*(A - B)", "C*(A + B)",
    "q^2*B^3", "1/2*A^2", "(1/(1-q))*(I - C)",
    "[A + B, A - B]", "[C, B^2]", "ad(C)^2(B)",
    "I - q^0*I", "(q)*(A)*(B)",
]


def test_corpus_round_trip():
    assert len(CORPUS) >= 50
    for text in CORPUS:
        x = evaluate(text)
        printed = element_text(x)
        assert evaluate(printed) == x, text


def test_eval_ast_free_matches_engine():
    for text in CORPUS + ["(A+B)^0", "[A+C,B]", "ad(B)^2(A*C)"]:
        free = eval_ast_free(parse(text))
        assert alg_normalize(free, RuleSet.completed()) == evaluate(text), text


def test_brackets_and_powers_evaluate_through_the_algebra(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return bracket(x, y)

    monkeypatch.setattr(expr, "bracket", counted)
    rng = random.Random(47)
    for _ in range(30):
        x = random_element(rng, max_terms=3, max_deg=2)
        y = random_element(rng, max_terms=3, max_deg=2)
        calls.clear()
        assert evaluate(f"[{x},{y}]") == bracket(x, y)
        assert calls == [(x, y)]
        n = rng.randrange(4)
        calls.clear()
        assert evaluate(f"ad({x})^{n}({y})") == ad_power(x, n, y)
        assert len(calls) == n
        m = rng.randrange(5)
        want = I
        for _ in range(m):
            want = multiply(want, x)
        assert evaluate(f"({x})^{m}") == element_power(x, m) == want


def test_a_monomial_power_is_squared():
    start = time.perf_counter()
    assert evaluate("C^20000") == Element.monomial(0, 20000, 0)
    assert evaluate("(2*B^2*C)^100") == Element.monomial(200, 100, 0, RatFun.q_power(9900) * 2**100)
    assert time.perf_counter() - start < 0.5


def test_free_powers_refuse_where_they_did():
    # a free power multiplies its factors on one at a time: (A+B)^12 forms
    # 2^11 x 2 word pairs at its last product, and (A+B)^13 twice as many
    assert len(eval_ast_free(parse("(A+B)^12")).terms) == MAX_FREE_PAIRS
    with pytest.raises(ValueError, match="8192 word pairs"):
        eval_ast_free(parse("(A+B)^13"))


# primitive denominators with leading coefficient other than 1, so the
# monic denominator has Fraction entries
NON_MONIC = ["(1-2*q)/(3-q)", "1/(2+3*q)^2", "1/(2*q^3)", "1/(1-2*q)", "0"]


def test_coefficient_text_and_json_round_trip():
    rng = random.Random(20261019)
    values = [parse_ratfun(text) for text in NON_MONIC]
    values += [RatFun(*random_qpoly_pair(rng)) for _ in range(40)]
    assert sum(any(c.denominator != 1 for c in x.den.coeffs) for x in values) > 10
    for x in values:
        doc = ratfun_json(x)
        assert parse_ratfun(str(x)) == x
        assert ratfun_from_json(doc) == x
        assert doc["den"][-1] == 1
        # the same text and JSON as formatted from the num/den view
        num, den = x.num, x.den
        assert str(x) == (f"({num})" if den.coeffs == (1,) else f"({num})/({den})")
        assert doc == {
            key: [int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in p.coeffs]
            for key, p in (("num", num), ("den", den))
        }


def test_parse_errors_carry_columns():
    with pytest.raises(ParseError) as err:
        parse("A + ")
    assert err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse("A ** B")
    assert err.value.column == 4
    with pytest.raises(ParseError) as err:
        parse("2q")
    assert err.value.column == 2
    with pytest.raises(ParseError) as err:
        parse("foo")
    assert err.value.column == 1 and err.value.token == "foo"
    with pytest.raises(ParseError) as err:
        parse("(A")
    assert err.value.expected == (")",)
    with pytest.raises(ParseError) as err:
        parse("[A B]")
    assert err.value.expected == (",",)
    with pytest.raises(ParseError) as err:
        parse("ad(A)(B)")
    assert err.value.expected == ("^",)
    with pytest.raises(ParseError) as err:
        parse("A ^ q")
    assert err.value.expected == ("nat",)
    # a superscript or circled digit is no NAT, which int() could not read
    with pytest.raises(ParseError) as err:
        parse("A^\u00b2")
    assert err.value.column == 3
    with pytest.raises(ParseError) as err:
        parse("\u2460*A")
    assert err.value.column == 1
    # every decimal digit that int() reads still makes a NAT
    assert evaluate("A^\u0661") == A


def test_division_rules():
    with pytest.raises(ParseError):
        parse("A/B")
    with pytest.raises(ZeroDivisionError):
        parse("1/(q - q)")
    assert evaluate("A/2") == A.scale(Fraction(1, 2))


def test_parse_ratfun():
    assert parse_ratfun("1/(1-q)") == RatFun.one() / RF_ONE_MINUS_Q
    assert parse_ratfun("3/2") == RatFun.from_fraction(Fraction(3, 2))
    with pytest.raises(ParseError):
        parse_ratfun("A + B")
