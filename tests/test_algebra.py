"""Normal forms, products, and the independent multiplication oracle."""

import random

import pytest

from conftest import basis_words_up_to, random_element
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
    multiply,
    multiply_cascade,
    normalize,
    reduce_word,
)
from qheis.ratfun import RF_ONE_MINUS_Q, RF_Q, RatFun

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


def test_multiply_with_printed_rules_can_stick():
    with pytest.raises(StuckWordError):
        multiply(B, multiply(C, A), PRINTED)


def test_element_container_behavior():
    x = Element({BasisWord(0, 1, 0): ONE})
    assert x.coeff((0, 1, 0)) == ONE
    assert x.coeff((5, 0, 0)).is_zero()
    assert (x - x).is_zero()
    assert str(Element.zero()) == "0"
    assert Element({BasisWord(0, 0, 0): RatFun.zero()}).is_zero()
