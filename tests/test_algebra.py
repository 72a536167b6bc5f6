"""Normal forms, products, and the independent multiplication oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis_words_up_to, random_element
from qheis import expr
from qheis.algebra import (
    A,
    B,
    COMPLETED,
    BasisWord,
    C,
    Element,
    I,
    PRINTED,
    StuckWordError,
    ad_power,
    adjoint,
    bracket,
    element_power,
    monomial_product,
    multiply,
    multiply_cascade,
    normalize,
    reduce_word,
)
from qheis.ratfun import RF_ONE_MINUS_Q, RF_Q, QPolynomial, RatFun

INV = RatFun.one() / RF_ONE_MINUS_Q
ONE = RatFun.one()


def test_defining_relations():
    assert (multiply(A, B) - RF_Q * multiply(B, A) - I).is_zero()
    assert (multiply(A, B) - multiply(B, A) - C).is_zero()
    assert (multiply(A, C) - RF_Q * multiply(C, A)).is_zero()
    assert (multiply(C, B) - RF_Q * multiply(B, C)).is_zero()


def test_reduce_examples():
    assert reduce_word("BA") == Element({BasisWord(0, 0, 0): INV, BasisWord(0, 1, 0): -INV})
    assert reduce_word("A") == A
    s = RatFun.q_power(-1) * INV
    assert reduce_word("BCA") == Element({BasisWord(0, 1, 0): s, BasisWord(0, 2, 0): -s})


def test_reduce_printed_reports_stuck_words():
    with pytest.raises(StuckWordError) as err:
        reduce_word("BCA", PRINTED)
    assert err.value.stuck_words == (("B", "C", "A"),)
    assert not err.value.free_form.is_zero()


def test_normalize_examples():
    assert normalize(multiply(A, B) - RF_Q * multiply(B, A) - I).is_zero()
    ab = multiply(A, B)
    assert ab == Element({BasisWord(0, 0, 0): INV, BasisWord(0, 1, 0): -(RF_Q * INV)})
    aba = multiply(multiply(A, B), A)
    assert aba == Element({BasisWord(0, 0, 1): INV, BasisWord(0, 1, 1): -(RF_Q * INV)})


def test_normalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(200):
        x = random_element(rng)
        assert normalize(x) == x
        assert normalize(normalize(x)) == normalize(x)


def test_multiply_examples():
    assert multiply(C, A) == Element.monomial(0, 1, 1)
    assert multiply(A, C) == Element.monomial(0, 1, 1, RF_Q)
    assert multiply(C, B) == Element.monomial(1, 1, 0, RF_Q)


def test_cascade_examples():
    assert multiply_cascade(A, B) == Element(
        {BasisWord(0, 0, 0): INV, BasisWord(0, 1, 0): -(RF_Q * INV)}
    )
    rng = random.Random(11)
    for _ in range(20):
        x = random_element(rng)
        assert multiply_cascade(I, x) == x
    assert multiply_cascade(B, multiply(C, A)) == reduce_word("BCA")


def test_engine_equals_cascade_small():
    for x in basis_words_up_to(2):
        ex = Element({x: ONE})
        for y in basis_words_up_to(2):
            ey = Element({y: ONE})
            assert multiply(ex, ey) == multiply_cascade(ex, ey), (x, y)


def test_cascade_bilinear_random():
    rng = random.Random(13)
    for _ in range(50):
        x, y = random_element(rng), random_element(rng)
        assert multiply(x, y) == multiply_cascade(x, y)


def test_bracket_examples():
    assert bracket(A, B) == C
    assert bracket(A, C) == Element.monomial(0, 1, 1, RF_Q - ONE)
    assert bracket(C, B) == Element.monomial(1, 1, 0, RF_Q - ONE)


def test_ad_power():
    assert ad_power(A, 0, B) == B
    assert ad_power(A, 1, B) == C
    assert ad_power(A, 2, B) == bracket(A, C)
    with pytest.raises(ValueError):
        ad_power(A, -1, B)


def _multi_term_element(rng):
    while True:
        x = random_element(rng)
        if len(x.terms) > 1:
            return x


def test_bracket_equals_the_cascade_commutator(monkeypatch):
    memo = {}
    monkeypatch.setattr(COMPLETED, "_bracket_memo", memo)
    rng = random.Random(31)
    cases = [(_multi_term_element(rng), random_element(rng)) for _ in range(40)]
    wants = [multiply_cascade(x, y) - multiply_cascade(y, x) for x, y in cases]
    # cold: every call meets monomial pairs the memo has not seen
    for (x, y), want in zip(cases, wants):
        pairs = {(bx, by) for bx in x.terms for by in y.terms}
        assert not pairs <= memo.keys()
        assert bracket(x, y) == want
        assert pairs <= memo.keys()
    # warm: every monomial commutator comes from the memo
    filled = dict(memo)
    for (x, y), want in zip(cases, wants):
        assert bracket(x, y) == want
    assert memo == filled


def test_ad_power_equals_the_cascade_chain():
    rng = random.Random(37)
    for g in (C, A, B):
        y = random_element(rng, max_terms=3, max_deg=2)
        want = y
        for m in range(9):
            assert ad_power(g, m, y) == want, (g, m)
            want = multiply_cascade(g, want) - multiply_cascade(want, g)


def test_adjoint():
    assert adjoint(A) == B
    for k in range(4):
        ck = Element.monomial(0, k, 0)
        assert adjoint(ck) == ck
    assert adjoint(multiply(C, A)) == multiply(B, C)
    rng = random.Random(17)
    for _ in range(100):
        x, y = random_element(rng), random_element(rng)
        assert adjoint(adjoint(x)) == x
        assert adjoint(multiply(x, y)) == multiply(adjoint(y), adjoint(x))


def test_element_power():
    assert element_power(C, 3) == Element.monomial(0, 3, 0)
    assert element_power(B + A, 0) == I
    # A^2 B reduces to (A - q^2 CA)/(1 - q); cascade is the oracle
    a2b = multiply(element_power(A, 2), B)
    assert a2b == multiply_cascade(element_power(A, 2), B)
    assert a2b == Element(
        {BasisWord(0, 0, 1): INV, BasisWord(0, 1, 1): -(RatFun.q_power(2) * INV)}
    )


def test_element_power_equals_the_left_to_right_product():
    rng = random.Random(43)
    for _ in range(40):
        x = random_element(rng, max_terms=rng.choice([1, 1, 2, 3]), max_deg=2)
        m = rng.randrange(11 if len(x.terms) == 1 else 6)
        want = I
        for _ in range(m):
            want = multiply(want, x)
        assert element_power(x, m) == want, (x, m)


def test_the_exact_product_path_builds_no_fraction(monkeypatch):
    rng = random.Random(47)
    xs = [random_element(rng) for _ in range(8)]
    xs.append(
        Element({BasisWord(0, 1, 2): RatFun.from_fraction(Fraction(-3, 7)), BasisWord(1, 0, 0): 5 / RF_ONE_MINUS_Q})
    )
    # negative, fractional and n/(1 - q) contents
    leads = [(c.num.coeffs[-1], c.den) for x in xs for c in x.terms.values()]
    assert any(n < 0 for n, _ in leads)
    assert any(n.denominator > 1 for n, _ in leads)
    assert any(d == QPolynomial((-1, 1)) for _, d in leads)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    # cold memos, so the closed-form monomial products and commutators run too
    monkeypatch.setattr(COMPLETED, "_product_memo", {})
    monkeypatch.setattr(COMPLETED, "_bracket_memo", {})
    monkeypatch.setattr(Fraction, "__new__", counting)
    for x, y in zip(xs, xs[1:]):
        multiply(x.scale(-3), y)
        bracket(x, y.scale(2))
        element_power(x, 3)
        ad_power(x, 2, y)
    # natural literals parse to int contents
    for text in ("3*A + 2/3*B", "(A+B)^3 - 5/(1-q)*C", "[2*A, q^2*B^2]", "ad(A)^2(7*B)", "12/(1-2*q)*C^2*A"):
        expr.evaluate(text)
    monkeypatch.undo()
    assert built == []


def test_power_commutation_al_ck():
    for k in range(1, 5):
        for l in range(1, 5):
            lhs = multiply(element_power(A, l), element_power(C, k))
            rhs = multiply(element_power(C, k), element_power(A, l)).scale(
                RatFun.q_power(k * l)
            )
            assert lhs == rhs, (k, l)


def test_associativity_random():
    rng = random.Random(19)
    for _ in range(100):
        x, y, z = (random_element(rng, max_terms=2) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_lie_axioms_random():
    rng = random.Random(23)
    for _ in range(100):
        x, y, z = (random_element(rng, max_terms=2, max_deg=2) for _ in range(3))
        assert bracket(x, y) == -bracket(y, x)
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jac.is_zero()


def test_basis_invariant_enforced():
    with pytest.raises(ValueError):
        BasisWord(1, 0, 1)
    with pytest.raises(ValueError):
        BasisWord(-1, 0, 0)
    rng = random.Random(29)
    for _ in range(50):
        x, y = random_element(rng), random_element(rng)
        for bw in multiply(x, y).terms:
            assert bw.b * bw.a == 0


def test_multiply_refuses_the_printed_rules():
    with pytest.raises(ValueError, match="completed rules"):
        multiply(B, A, PRINTED)


def test_printed_normal_forms_are_those_of_the_expanded_word_sum():
    # reducing products of normal forms under the printed rules depends on
    # association: (B*A)*C reduces, B*(A*C) = q B*C*A sticks
    want = multiply(multiply(B, A), C)
    assert str(want) == "(-1)/(-1 + q)*C + (1)/(-1 + q)*C^2"
    assert normalize(expr.eval_ast_free(expr.parse("B*A*C")), PRINTED) == want
    with pytest.raises(StuckWordError):
        reduce_word("BCA", PRINTED)


def test_cold_bracket_memo_holds_the_monomial_commutators(monkeypatch):
    monkeypatch.setattr(COMPLETED, "_product_memo", {})
    monkeypatch.setattr(COMPLETED, "_bracket_memo", {})
    words = [bw for bw in basis_words_up_to(3) if bw.degree <= 3]
    for bx in words:
        for by in words:
            bracket(Element.monomial(*bx), Element.monomial(*by))
    memo = COMPLETED._bracket_memo
    assert len(memo) == len(words) ** 2
    for (bx, by), z in memo.items():
        u, v = Element.monomial(*bx), Element.monomial(*by)
        assert z == multiply(u, v) - multiply(v, u), (bx, by)


def test_element_container_behavior():
    x = Element({BasisWord(0, 1, 0): ONE})
    assert x.coeff((0, 1, 0)) == ONE
    assert x.coeff((5, 0, 0)).is_zero()
    assert (x - x).is_zero()
    assert str(Element.zero()) == "0"
    assert Element({BasisWord(0, 0, 0): RatFun.zero()}).is_zero()


def test_element_operators():
    x = A + B.scale(RF_Q)
    for c in (2, Fraction(1, 3), RF_Q):
        assert x * c == c * x == x.scale(c)
    # a zero scalar folds the product to the zero element
    assert (0 * A).is_zero() and str(0 * A) == "0"
    for m in range(5):
        assert x**m == element_power(x, m)


def test_argument_checks():
    with pytest.raises(ValueError):
        element_power(A, -1)
    with pytest.raises(TypeError):
        normalize("A")


# -- the term order of products and brackets -----------------------------------
#
# multiply and bracket sum their terms into one map directly; the order of
# that map must be the one Element.collect gives over the same pair stream,
# because numeric code sums floats in term order.

ORDER_WORDS = [bw for bw in basis_words_up_to(2) if bw.degree <= 3]
#: the singleton one, two units that are not it, and coefficients that cancel
ORDER_COEFFS = [
    ONE,
    RatFun.from_fraction(1),
    RatFun(QPolynomial((1,))),
    -ONE,
    RF_Q,
    -RF_Q,
    RatFun.from_fraction(2),
    INV,
]
#: pairs with a product or commutator stream, in one order or the other,
#: that removes a key at a zero running sum and adds it back
READDING_PAIRS = [
    ("(1)*B*C + (q)*B*C^2", "(q)*B + (q)*A^2 + (-1)*C*A^2"),
    ("(2)*A^2 + (q)*C*A^2", "(-1)*B + (-q)*B*C + (2)*C*A^2"),
    ("(1)*B^2 + (1)*B^2*C", "(1)*A + (-1)*C*A + (q)*B*C"),
]


def _commutator_of(bx, by):
    return monomial_product(bx, by) - monomial_product(by, bx)


def _pair_stream(x, y, f):
    for bx, cx in x.terms.items():
        for by, cy in y.terms.items():
            for bw, w in f(bx, by).terms.items():
                yield bw, cx * cy * w


def _readds_a_key(pairs) -> bool:
    acc, gone = {}, set()
    for k, c in pairs:
        if k in acc:
            acc[k] = acc[k] + c
            if acc[k].is_zero():
                del acc[k]
                gone.add(k)
        elif k in gone:
            return True
        else:
            acc[k] = c
    return False


def _assert_collect_order(x, y):
    for got, f in ((multiply(x, y), monomial_product), (bracket(x, y), _commutator_of)):
        want = Element.collect(_pair_stream(x, y, f))
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())


elements = st.dictionaries(
    st.sampled_from(ORDER_WORDS), st.sampled_from(ORDER_COEFFS), min_size=1, max_size=4
).map(Element)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(elements, elements)
def test_pair_sum_term_order_is_that_of_collect(x, y):
    _assert_collect_order(x, y)


@pytest.mark.parametrize("left, right", READDING_PAIRS)
def test_pair_sum_term_order_with_a_key_that_comes_back(left, right):
    x, y = expr.evaluate(left), expr.evaluate(right)
    streams = [_pair_stream(u, v, f) for u, v in ((x, y), (y, x)) for f in (monomial_product, _commutator_of)]
    assert any(map(_readds_a_key, streams))
    _assert_collect_order(x, y)
    _assert_collect_order(y, x)


def test_units_that_are_not_the_singleton_give_the_same_products():
    x, y = expr.evaluate(READDING_PAIRS[0][0]), expr.evaluate(READDING_PAIRS[0][1])
    for unit in ORDER_COEFFS[1:3]:
        assert unit is not ONE and unit == ONE
        for u, v in ((x, y), (y, x), (A + B, C), (C, B)):
            uu = Element({bw: unit * c for bw, c in u.terms.items()})
            for f in (multiply, bracket):
                got, want = f(uu, v), f(u, v)
                assert list(got.terms.items()) == list(want.terms.items())
            assert list(u.scale(unit).terms.items()) == list(u.scale(ONE).terms.items())
