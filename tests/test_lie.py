"""Decomposition, compactness, Laurent images, identity suite, and exact
basis-vector application."""

import random
from fractions import Fraction

import pytest

from conftest import basis_words_up_to, random_element
from qheis.algebra import (
    A,
    B,
    BasisWord,
    C,
    Element,
    I,
    bracket,
    element_power,
    multiply,
)
from qheis.lie import (
    IdentityReport,
    KetImage,
    LaurentPoly,
    apply_symbolic,
    build_bl_ck_via_ad,
    build_ck_al_via_ad,
    calkin_image,
    decompose,
    gamma,
    gamma_closed_form_rhs,
    gamma_sum_rhs,
    is_compact,
    is_lie_polynomial,
    lie_surrogate,
    surrogate_residual,
    verify_fredholm_relations,
    verify_identity_suite,
)
from qheis.ratfun import RF_ONE_MINUS_Q, RF_Q, RatFun, qbracket

ONE = RatFun.one()
INV = ONE / RF_ONE_MINUS_Q
HALF = Fraction(1, 2)


# -- decomposition -------------------------------------------------------------


def test_decompose_examples():
    x = A + Element.scalar(2) + Element.monomial(0, 2, 3)
    d = decompose(x)
    assert d.linear_ab == (ONE, RatFun.zero())
    assert d.derived == Element.monomial(0, 2, 3)
    assert d.e_part == Element.scalar(2)

    d2 = decompose(element_power(B, 2))
    assert d2.linear_ab == (RatFun.zero(), RatFun.zero())
    assert d2.derived.is_zero()
    assert d2.e_part == Element.monomial(2, 0, 0)

    d3 = decompose(multiply(A, B))
    assert d3.linear_ab == (RatFun.zero(), RatFun.zero())
    assert d3.derived == Element.monomial(0, 1, 0, -(RF_Q * INV))
    assert d3.e_part == Element.scalar(INV)


def test_decompose_reconstruction_random():
    rng = random.Random(31)
    for _ in range(200):
        x = random_element(rng)
        d = decompose(x)
        assert d.recombine() == x
        # supports are disjoint by construction: derived has only k >= 1
        assert all(bw.k >= 1 for bw in d.derived.terms)
        assert all(bw.k == 0 for bw in d.e_part.terms)


def test_is_lie_polynomial():
    assert is_lie_polynomial(Element.monomial(0, 3, 2))
    assert not is_lie_polynomial(I)
    rng = random.Random(37)
    lie_basis = [bw for bw in basis_words_up_to(3) if bw.k >= 1] + [
        BasisWord(0, 0, 1),
        BasisWord(1, 0, 0),
    ]
    for _ in range(100):
        x = Element({rng.choice(lie_basis): ONE})
        y = Element({rng.choice(lie_basis): ONE})
        assert is_lie_polynomial(bracket(x, y))


def test_is_compact():
    assert is_compact(element_power(C, 3))
    assert not is_compact(B)
    assert not is_compact(B + element_power(B, 4).scale(Fraction(1, 2)))
    assert is_compact(Element.zero())


# -- Laurent image modulo compacts ----------------------------------------------


def test_calkin_examples():
    assert calkin_image(C).is_zero()
    assert calkin_image(element_power(B, 2)) == LaurentPoly.monomial(2)
    assert calkin_image(A) == LaurentPoly.monomial(-1, INV)
    assert calkin_image(multiply(A, B)) == LaurentPoly.monomial(0, INV)
    assert calkin_image(multiply(A, B)) == calkin_image(A) * calkin_image(B)
    assert str(calkin_image(I + B)) == "(1)*1 + (1)*D"


def test_calkin_homomorphism_random():
    rng = random.Random(41)
    for _ in range(100):
        x, y = random_element(rng), random_element(rng)
        assert calkin_image(multiply(x, y)) == calkin_image(x) * calkin_image(y)
        assert calkin_image(x + y) == calkin_image(x) + calkin_image(y)


def test_calkin_kernel_is_compactness():
    rng = random.Random(43)
    for _ in range(200):
        x = random_element(rng)
        assert calkin_image(x).is_zero() == is_compact(x)


def test_compact_iff_equals_derived_part():
    rng = random.Random(47)
    for _ in range(200):
        x = random_element(rng)
        assert is_compact(x) == (x == decompose(x).derived)


# -- Lie ideal and closure --------------------------------------------------------


def test_derived_part_is_lie_ideal():
    derived_words = [bw for bw in basis_words_up_to(3) if bw.k >= 1]
    all_words = basis_words_up_to(3)
    for x in derived_words:
        for y in all_words:
            br = bracket(Element({x: ONE}), Element({y: ONE}))
            assert all(bw.k >= 1 for bw in br.terms), (x, y)


def test_commutator_algebra_closure():
    lie_words = [bw for bw in basis_words_up_to(3) if bw.k >= 1] + [
        BasisWord(0, 0, 1),
        BasisWord(1, 0, 0),
    ]
    for x in lie_words:
        for y in lie_words:
            br = bracket(Element({x: ONE}), Element({y: ONE}))
            assert decompose(br).e_part.is_zero(), (x, y)


# -- identity suite ----------------------------------------------------------------


def test_fredholm_relations():
    left, right = verify_fredholm_relations()
    assert left.verdict and left.difference.is_zero()
    assert right.verdict and right.difference.is_zero()
    # negative control: wrong compact correction leaves (q - 1)C behind
    perturbed = IdentityReport(
        identity="control",
        params={},
        lhs=multiply(B, A).scale(RF_ONE_MINUS_Q),
        rhs=I - C.scale(RF_Q),
    )
    assert not perturbed.verdict
    assert perturbed.difference == C.scale(RF_Q - ONE)


def test_gamma_zero_exactly():
    g0 = gamma(0)
    assert g0 == Element(
        {
            BasisWord(0, 1, 0): (ONE - RF_Q) / RF_Q,
            BasisWord(0, 2, 0): (RF_Q * RF_Q - ONE) / RF_Q,
        }
    )
    # diagonal entry at the vacuum is q - 1
    diag0 = sum((c for c in g0.terms.values()), RatFun.zero())
    assert diag0 == RF_Q - ONE


def test_gamma_vs_closed_form_disagrees_beyond_vacuum():
    # the closed form matches the literal bracket value on the vacuum
    # diagonal only; at n = 1, q = 1/2 the two sides differ in sign
    g0 = gamma(0)
    rhs = gamma_closed_form_rhs(0)

    def diag(x, n):
        return sum(
            (c.evaluate(HALF) * HALF ** (bw.k * n) for bw, c in x.terms.items()),
            Fraction(0),
        )

    assert diag(g0, 0) == diag(rhs, 0) == Fraction(-1, 2)
    assert diag(g0, 1) == Fraction(1, 8)
    assert diag(rhs, 1) == Fraction(-1, 8)


def test_gamma_sum_equals_the_literal_sum_of_gammas():
    # one stepped chain and one pass over every term give the same element,
    # term for term and in the same order, as summing the separately
    # computed gamma(i) one at a time
    for k in range(13):
        total = Element.zero()
        for i in range(k + 1):
            total = total + gamma(i).scale(((RF_Q - ONE) ** (i + 1)).inverse())
        want = total.scale(RatFun.q_power(k) / qbracket(k + 1))
        got = gamma_sum_rhs(k)
        assert got == want, k
        assert list(got.terms.items()) == list(want.terms.items()), k


def test_gamma_closed_form_that_holds():
    # CB = qBC, AC = qCA and (1-q)AB = I - qC give
    # gamma(k) = q^-(k+1) (q-1)^(k+1) ({k+2}_q C^(k+2) - {k+1}_q C^(k+1)),
    # where the claimed form has {k+1}_q, {k}_q and q^-k, q^(1-k)
    for k in range(25):
        scale = (RF_Q - ONE) ** (k + 1) / RatFun.q_power(k + 1)
        want = element_power(C, k + 2).scale(qbracket(k + 2)) - element_power(C, k + 1).scale(qbracket(k + 1))
        assert gamma(k) == want.scale(scale), k


def test_gamma_sum_telescopes_to_a_power_of_c():
    # q^(i+1) (q-1)^-(i+1) gamma(i) = {i+2}_q C^(i+2) - {i+1}_q C^(i+1), so
    # C^(k+2) = (C + sum_(i<=k) q^(i+1) (q-1)^-(i+1) gamma(i)) / {k+2}_q
    total = C
    for k in range(11):
        total = total + gamma(k).scale(RatFun.q_power(k + 1) / (RF_Q - ONE) ** (k + 1))
        assert total.scale(qbracket(k + 2).inverse()) == element_power(C, k + 2), k


def test_builds_produce_monomials():
    assert build_ck_al_via_ad(0, 1) == multiply(C, A)
    assert build_ck_al_via_ad(1, 1) == Element.monomial(0, 2, 1)
    assert build_ck_al_via_ad(0, 2) == Element.monomial(0, 1, 2)
    assert build_bl_ck_via_ad(0, 1) == multiply(B, C)
    assert build_bl_ck_via_ad(0, 2) == Element.monomial(2, 1, 0)
    assert build_bl_ck_via_ad(1, 1) == Element.monomial(1, 2, 0)
    for k in range(4):
        for l in range(1, 4):
            assert build_ck_al_via_ad(k, l) == Element.monomial(0, k + 1, l)
            assert build_bl_ck_via_ad(k, l) == Element.monomial(l, k + 1, 0)


def test_identity_suite_reports():
    reports = verify_identity_suite(3, 3)
    by_id = {}
    for r in reports:
        by_id.setdefault(r.identity, []).append(r)
    assert all(r.verdict for r in by_id["ck-al-bracket-build"])
    assert all(r.verdict for r in by_id["bl-ck-bracket-build"])
    # the gamma comparisons are reported with exact nonzero differences
    for r in by_id["gamma-closed-form"] + by_id["ck-from-gamma-sum"]:
        assert not r.verdict
        assert not r.difference.is_zero()
        assert r.difference == r.lhs - r.rhs
    k0 = next(r for r in by_id["gamma-closed-form"] if r.params["k"] == 0)
    assert k0.difference == Element(
        {
            BasisWord(0, 1, 0): (ONE - RF_Q) / RF_Q,
            BasisWord(0, 2, 0): (RF_Q - ONE) / RF_Q,
        }
    )
    with pytest.raises(ValueError):
        verify_identity_suite(0, 3)


# -- exact application to basis vectors ---------------------------------------------


def test_apply_symbolic_diagonal():
    for k in range(4):
        ck = Element.monomial(0, k, 0)
        for n in range(6):
            ki = apply_symbolic(ck, n)
            assert ki.targets() == [n]
            (s,) = ki.scalars(n)
            assert s.radicand == range(1, 1)
            assert s.coeff == RatFun.q_power(k * n)


def test_apply_symbolic_shift_cases():
    assert apply_symbolic(A, 0).is_zero()
    ki = apply_symbolic(element_power(B, 2), 1)
    assert ki.targets() == [3]
    (s,) = ki.scalars(3)
    assert s.coeff == ONE and s.radicand == range(2, 4)


def test_apply_symbolic_merges_equal_radicands():
    # B^2 C and B^2 share the target and the radicand {n+1}{n+2}, so their
    # difference applied to v_n is a single merged scalar (q^n - 1)*sqrt(...)
    x = Element.monomial(2, 1, 0) - Element.monomial(2, 0, 0)
    ki = apply_symbolic(x, 3)
    assert ki.targets() == [5]
    (s,) = ki.scalars(5)
    assert s.radicand == range(4, 6)
    assert s.coeff == RatFun.q_power(3) - ONE
    # at the vacuum the merged coefficient is q^0 - 1 = 0: exact cancellation
    assert apply_symbolic(x, 0).is_zero()
    # the normal form of BA acts diagonally by the q-integer {n}_q
    val = apply_symbolic(multiply(B, A), 3).numeric(HALF)
    assert val[3] == pytest.approx(float(Fraction(7, 4)), abs=1e-15)


def test_ketimage_zero_requires_radicand_grouping():
    # two scalars with the same radicand and opposite coefficients vanish
    a_sq = element_power(A, 2)
    y = lie_surrogate(ONE, "A", 2, 5, 1)
    assert apply_symbolic(a_sq - y, 5).is_zero()
    # but the pieces individually do not
    assert not apply_symbolic(a_sq, 5).is_zero()


def test_ketimage_order_across_basis_vectors():
    # one target with runs of several lengths and first indices lists them
    # as their index lists compare: the empty run first, then by first index
    ki = apply_symbolic(I, 5) + apply_symbolic(B**2, 3) + apply_symbolic(A, 6) + apply_symbolic(B, 4)
    assert str(ki) == "((1) + (1)*sqrt({4}*{5}) + (1)*sqrt({5}) + (1)*sqrt({6}))*v_5"
    assert [s.radicand for s in ki.scalars(5)] == [range(6, 6), range(4, 6), range(5, 6), range(6, 7)]
    # of two runs from one index the shorter comes first, in either sum order
    for ki in (apply_symbolic(A, 4) + apply_symbolic(A**2, 5), apply_symbolic(A**2, 5) + apply_symbolic(A, 4)):
        assert str(ki) == "((1)*sqrt({4}) + (1)*sqrt({4}*{5}))*v_3"


def test_ketimage_numeric_drops_what_vanishes_at_q0():
    ki = apply_symbolic(B.scale(1 - 2 * RF_Q), 0)
    assert not ki.is_zero()
    assert ki.numeric(HALF) == {}
    assert str(apply_symbolic(A, 0)) == "0"


def test_surrogate_examples():
    assert lie_surrogate(ONE, "B", 2, 1, 1) == Element.monomial(2, 1, 0, RatFun.q_power(-1))
    assert lie_surrogate(ONE, "A", 2, 3, 1) == Element.monomial(0, 1, 2, RatFun.q_power(-1))
    assert lie_surrogate(RatFun.from_fraction(3), "B", 3, 0, 2) == Element.monomial(
        3, 2, 0, RatFun.from_fraction(3)
    )
    assert is_lie_polynomial(lie_surrogate(ONE, "B", 4, 2, 3))


def test_surrogate_residuals_zero():
    for side in ("A", "B"):
        for l in (2, 3, 4):
            for k in (1, 2, 3):
                for n in range(7):
                    res = surrogate_residual(ONE, side, l, n, k)
                    assert isinstance(res, KetImage)
                    assert res.is_zero(), (side, l, k, n)
    for side in ("A", "B"):
        assert surrogate_residual(RatFun.zero(), side, 2, 1, 1).is_zero()


def test_surrogate_preconditions():
    with pytest.raises(ValueError):
        apply_symbolic(A, -1)
    with pytest.raises(ValueError):
        gamma(-1)
    for k, l in ((-1, 1), (0, 0)):
        with pytest.raises(ValueError):
            build_ck_al_via_ad(k, l)
    with pytest.raises(ValueError):
        lie_surrogate(ONE, "B", 1, 0, 1)
    with pytest.raises(ValueError):
        lie_surrogate(ONE, "A", 2, 0, 0)
    with pytest.raises(ValueError):
        lie_surrogate(ONE, "X", 2, 0, 1)
