"""Canonical-form arithmetic over rational functions of q."""

import math
import random
from fractions import Fraction

import pytest
from conftest import COPIERS, poly_mul, random_qpoly_pair
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis import ratfun
from qheis.ratfun import (
    PoleError,
    QPolynomial,
    RF_ONE_MINUS_Q,
    RF_Q,
    RatFun,
    over_one_minus_q,
    qbracket,
    qbracket_value,
    scaled_root,
    signed_root,
    _divexact,
    _gcd,
    _mul,
    _prem,
    _primitive,
)

ONE = RatFun.one()
HALF = Fraction(1, 2)


def test_cancellation_and_inverse():
    assert RF_Q + (ONE - RF_Q) == ONE
    assert (ONE / RF_ONE_MINUS_Q) * RF_ONE_MINUS_Q == ONE


def test_int_minus_ratfun():
    assert 1 - RF_Q == RF_ONE_MINUS_Q
    assert (3 - RF_Q).evaluate(HALF) == Fraction(5, 2)


def test_division_matches_long_division_oracle():
    # (1 - q^2) / (1 - q) = 1 + q, checked independently by multiplying back
    num = QPolynomial((1, 0, -1))
    den = QPolynomial((1, -1))
    quot = QPolynomial((1, 1))
    assert poly_mul(den.coeffs, quot.coeffs) == num.coeffs
    assert RatFun(num) / RatFun(den) == RatFun(quot)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / RatFun.zero()
    with pytest.raises(ZeroDivisionError):
        RatFun(QPolynomial((1,)), QPolynomial(()))


def test_canonical_representative_unique():
    # 2/(2 - 2q) reduces to the same object as 1/(1 - q)
    a = RatFun(QPolynomial((2,)), QPolynomial((2, -2)))
    b = ONE / RF_ONE_MINUS_Q
    assert a == b
    assert hash(a) == hash(b)
    # canonical denominators are monic with no common factor left
    assert a.den.coeffs[-1] == 1
    assert a.num.gcd(a.den).degree == 0


def test_qbracket_values():
    assert qbracket(0) == RatFun.zero()
    assert qbracket(2) == RatFun(QPolynomial((1, 1)))
    assert qbracket(4) == RatFun(QPolynomial((1, 1, 1, 1)))
    # closed form (1 - q^n)/(1 - q)
    for n in range(8):
        closed = (ONE - RatFun.q_power(n)) / RF_ONE_MINUS_Q
        assert qbracket(n) == closed


def test_qbracket_limit_at_one_and_negative_indices():
    # the q = 1 limit is the integer itself
    for n in range(6):
        assert qbracket_value(n, 1) == n
    with pytest.raises(ValueError):
        qbracket(-1)
    with pytest.raises(ValueError):
        qbracket_value(-1, HALF)


def test_qbracket_addition_law():
    for m in range(21):
        for n in range(21):
            assert qbracket(m + n) == qbracket(m) + RatFun.q_power(m) * qbracket(n)


def test_evaluate():
    assert (ONE / RF_ONE_MINUS_Q).evaluate(HALF) == 2
    assert qbracket(3).evaluate(HALF) == Fraction(7, 4)
    assert qbracket_value(3, HALF) == Fraction(7, 4)
    with pytest.raises(PoleError):
        (RF_Q / (RF_Q - ONE)).evaluate(1)


def test_signed_root_rounds_like_the_reduced_fraction():
    rng = random.Random(17)
    for _ in range(500):
        g = rng.randrange(1, 10**30)
        cn, cd = rng.choice([-1, 1]) * rng.randrange(1, 10**40) * g, rng.randrange(1, 10**40) * g
        rn, rd = rng.randrange(1, 10**60) * g, rng.randrange(1, 10**60) * g
        mag = math.sqrt(float(Fraction(cn, cd) ** 2 * Fraction(rn, rd)))
        assert signed_root(cn, cd, rn, rd) == math.copysign(mag, cn)
        # in the normal range the scaled route gives the same double
        assert scaled_root(cn * cn * rn, cd * cd * rd) == mag


def test_signed_root_past_the_float_range():
    # c^2 r = 2^1200 * 3 overflows a float, c sqrt(r) = 2^600 sqrt(3) does not
    assert signed_root(-(2**600), 1, 3, 1) == -math.ldexp(math.sqrt(3.0), 600)
    assert signed_root(2**600 * 5, 5, 3 * 7, 7) == math.ldexp(math.sqrt(3.0), 600)
    with pytest.raises(OverflowError, match="past the float range"):
        signed_root(2**1024, 1, 1, 1)
    assert signed_root(2**1023, 1, 1, 1) == math.ldexp(1.0, 1023)


def test_signed_root_below_the_normal_range():
    # c^2 r = 2^-1200 * 3 is below the smallest normal double, c sqrt(r) is not
    assert signed_root(-1, 2**600, 3, 1) == -math.ldexp(math.sqrt(3.0), -600)
    assert signed_root(5, 5 * 2**600, 3 * 7, 7) == math.ldexp(math.sqrt(3.0), -600)
    # c sqrt(r) = 2^-1074 is the smallest subnormal; half of it rounds to 0
    assert signed_root(1, 2**1074, 1, 1) == math.ldexp(1.0, -1074)
    assert signed_root(1, 2**1076, 1, 1) == 0.0
    # the root of a zero square is +0.0, never -0.0, from any denominator
    assert scaled_root(0, 7**600).hex() == "0x0.0p+0"
    rng = random.Random(19)
    for _ in range(200):
        cn, cd = rng.choice([-1, 1]) * rng.randrange(1, 10**20), rng.randrange(1, 10**20) * 7**rng.randrange(200, 600)
        rn, rd = rng.randrange(1, 10**30), rng.randrange(1, 10**30) * 3**rng.randrange(0, 400)
        exact = Fraction(cn, cd) ** 2 * Fraction(rn, rd)
        # sqrt(c^2 r) through a scaled Fraction: 4^s exactly, then 2^-s
        s = (exact.denominator.bit_length() - exact.numerator.bit_length()) // 2
        want = math.copysign(math.ldexp(math.sqrt(float(exact * 4**s)), -s), cn)
        assert signed_root(cn, cd, rn, rd) == want


def test_over_one_minus_q_is_the_canonical_value():
    rng = random.Random(23)
    for _ in range(300):
        p = [rng.randrange(-4, 5) for _ in range(rng.randrange(0, 6))]
        v, m = rng.randrange(-4, 5), rng.randrange(0, 5)
        # multiples of (1 - q) in P must cancel against the denominator
        for _ in range(rng.randrange(0, 3)):
            p = [x - y for x, y in zip(p + [0], [0] + p)]
        want = RatFun(QPolynomial(p)) * RatFun.q_power(v) / RF_ONE_MINUS_Q**m
        got = over_one_minus_q(p, v, m)
        assert got == want, (p, v, m)
        assert hash(got) == hash(want)
        assert (got.num, got.den) == (want.num, want.den)


def test_negative_q_powers():
    assert RatFun.q_power(-2) * RatFun.q_power(2) == ONE
    assert RatFun.q_power(-1) == ONE / RF_Q


def test_valuations_are_carried_not_expanded():
    # q and 1 - q live in the valuations, so neither core grows
    x = RatFun.q_power(10**9) * RF_ONE_MINUS_Q ** (10**6)
    assert (x._v, x._w) == (10**9, 10**6)
    assert x._n == x._d == (1,)
    y = x / (RF_Q ** (10**9 + 3) * RF_ONE_MINUS_Q ** (10**6 + 2))
    assert (y._v, y._w, y._n, y._d) == (-3, -2, (1,), (1,))
    assert str(RatFun.q_power(10**9)) == "(q^1000000000)"
    assert str(y) == "(1)/(q^3 - 2*q^4 + q^5)"


def test_evaluate_at_the_carried_poles():
    x = RatFun.q_power(-2) / RF_ONE_MINUS_Q * 3
    assert x.evaluate(HALF) == 24
    for q0 in (0, 1):
        with pytest.raises(PoleError):
            x.evaluate(q0)
    # the valuations above the line vanish there instead
    assert (RatFun.q_power(2) * RF_ONE_MINUS_Q).evaluate(0) == 0
    assert (RatFun.q_power(2) * RF_ONE_MINUS_Q).evaluate(1) == 0


def test_q_integer_powers_match_the_dense_product():
    # {l}_q^e is built as (q^l - 1)^e divided by (q - 1)^e
    for l in range(1, 7):
        for e in range(6):
            got = qbracket(l) ** e
            assert got.num.coeffs == poly_mul(*[(1,) * l] * e), (l, e)
            assert got == (ONE - RF_Q**l) ** e / RF_ONE_MINUS_Q**e


def test_gcd_keeps_the_powers_of_q_and_one_minus_q():
    a = QPolynomial(poly_mul((0, 0, 1), *[(1, -1)] * 3, (2, 1)))
    b = QPolynomial(poly_mul((0, 1), *[(-1, 1)] * 5, (2, 1), (2, 1), (1, 2)))
    assert a.gcd(b) == QPolynomial(poly_mul((0, 1), *[(-1, 1)] * 3, (2, 1)))
    assert a.gcd(QPolynomial(())) == QPolynomial([x / a.coeffs[-1] for x in a.coeffs])


def test_field_axioms_random():
    rng = random.Random(20260810)
    from conftest import random_ratfun

    for _ in range(100):
        x, y, z = (random_ratfun(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if not x.is_zero():
            assert x * (ONE / x) == ONE


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    from conftest import random_ratfun

    for _ in range(100):
        x, y = random_ratfun(rng), random_ratfun(rng)
        assert (x * y).evaluate(HALF) == x.evaluate(HALF) * y.evaluate(HALF)
        assert (x + y).evaluate(HALF) == x.evaluate(HALF) + y.evaluate(HALF)


def test_polynomial_invariants():
    assert QPolynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert QPolynomial(()).degree == -1
    # the view takes exact rationals only
    with pytest.raises(TypeError):
        QPolynomial((0.5,))


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.num = QPolynomial(())
    with pytest.raises(AttributeError):
        QPolynomial((1,)).coeffs = ()


# a q-power denominator, a (1-q)^k denominator with a non-monic numerator,
# and a polynomial
PICKLE_VALUES = [
    RatFun.q_power(-3) * Fraction(5, 2),
    RatFun(QPolynomial((2, 0, -3)), QPolynomial(poly_mul(*[(1, -1)] * 4))),
    QPolynomial((Fraction(1, 3), 0, -2)),
]


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
@pytest.mark.parametrize("value", PICKLE_VALUES, ids=str)
def test_values_survive_pickle_and_copy(value, copier):
    back = copier(value)
    assert type(back) is type(value)
    assert back == value
    assert hash(back) == hash(value)
    assert str(back) == str(value)


def test_parts_are_one_slot_that_cannot_be_rebound_or_deleted():
    x = RatFun(QPolynomial((1, 2)), QPolynomial((3, 0, 1)))
    parts = x._p
    assert type(parts) is tuple
    assert parts == (x._cn, x._cd, x._v, x._w, x._n, x._d)
    for name in ("_p", "_cn", "_n"):
        with pytest.raises(AttributeError):
            setattr(x, name, parts)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x._p is parts


def test_a_value_never_equals_the_tuple_of_its_parts():
    import json

    from qheis.expr import json_default, ratfun_json

    for x in (ONE, RatFun.zero(), RF_Q, over_one_minus_q([1, 2], -1, 2)):
        assert x != x._p and x._p != x
        assert not x == x._p and not x._p == x
        assert len({x, x._p}) == 2
        assert json.loads(json.dumps(x, default=json_default)) == ratfun_json(x)


def test_equality_and_hash_agree_exactly_with_the_parts():
    rng = random.Random(35)
    values = []
    for _ in range(40):
        num, den = random_qpoly_pair(rng)
        x = RatFun(num, den)
        y = over_one_minus_q([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))], rng.randint(-2, 2), rng.randint(-2, 2))
        # the same values by other routes: the parts of the reduced fraction,
        # products, sums and quotients
        values += [x, y, RatFun(x.num, x.den), x * y, y * x, x + y, y + x, (x * y) / y if y._cn else x, x + y - y]
    values += [qbracket(2), RF_Q + 1, over_one_minus_q([1, 1], 0, 0), RatFun(QPolynomial((1, 1)))]
    equal_pairs = 0
    for x in values:
        for y in values:
            same = x._p == y._p
            assert (x == y) is same
            if same:
                assert hash(x) == hash(y)
                equal_pairs += x is not y
    assert equal_pairs > len(values)


def test_a_constant_hashes_as_its_fraction():
    for c in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(2**200 + 1, 3), Fraction(1, 2**61 - 1), Fraction(-5, 3 * (2**61 - 1))):
        for x in (RatFun.from_fraction(c), RatFun(QPolynomial((c,))), (RF_Q + c) - RF_Q, RF_Q * c / RF_Q):
            assert x == c and hash(x) == hash(c)


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
def test_copies_keep_the_parts(copier):
    for value in (*PICKLE_VALUES[:2], RatFun.zero(), ONE, over_one_minus_q([2, 0, -1], 3, -4)):
        back = copier(value)
        assert type(back._p) is tuple
        assert back._p == value._p


def test_arithmetic_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    qs = sympy.Symbol("q")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * qs**i for i, c in enumerate(p.coeffs))

    def canonical(expr):
        num, den = sympy.fraction(sympy.cancel(expr))
        num, den = (
            [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(p, qs).all_coeffs())] for p in (num, den)
        )
        lead = den[-1]
        return tuple(c / lead for c in num) if any(num) else (), tuple(c / lead for c in den)

    def ours(x):
        return x.num.coeffs, x.den.coeffs

    rng = random.Random(20261018)
    pairs = [random_qpoly_pair(rng) for _ in range(16)]
    values = [(RatFun(n, d), sympy.cancel(to_sympy(n) / to_sympy(d))) for n, d in pairs]
    for (x, sx), (y, sy) in zip(values, values[1:] + values[:1]):
        assert ours(x) == canonical(sx)
        assert ours(x + y) == canonical(sx + sy)
        assert ours(x - y) == canonical(sx - sy)
        assert ours(x * y) == canonical(sx * sy)
        assert ours(x / y) == canonical(sx / sy)
        for e in (-2, 0, 3):
            assert ours(x**e) == canonical(sx**e)
        assert ours(x - x) == canonical(sx - sx)
    # sums whose numerator shares a factor with the common part of the denominators
    x, y = RatFun(QPolynomial((1, 2))) / RF_ONE_MINUS_Q, RatFun(QPolynomial((-2, -1))) / RF_ONE_MINUS_Q
    assert ours(x + y) == canonical((1 + 2 * qs) / (1 - qs) + (-2 - qs) / (1 - qs)) == ((-1,), (1,))
    x = ONE / (RF_ONE_MINUS_Q * RatFun(QPolynomial((1, 1))))
    y = ONE / (RF_ONE_MINUS_Q * RatFun(QPolynomial((-3, 1))))
    assert ours(x + y) == canonical(1 / ((1 - qs) * (1 + qs)) + 1 / ((1 - qs) * (qs - 3)))
    assert (x + y).den.degree == 2


def _values():
    rng = random.Random(25)
    values = [RatFun.zero(), ONE, RF_Q, RF_ONE_MINUS_Q, ONE / RF_ONE_MINUS_Q, qbracket(3), -qbracket(4) / RF_Q**3]
    values += [RatFun(*random_qpoly_pair(rng)) for _ in range(30)]
    return values


def test_units_that_are_not_the_singleton_act_as_one():
    units = [RatFun.from_fraction(1), RatFun(QPolynomial((1,))), RF_Q / RF_Q]
    for unit in units:
        assert unit is not ONE and unit == ONE and hash(unit) == hash(ONE)
        for x in _values():
            for got in (x * unit, unit * x, x / unit):
                assert got == x * ONE == x
            assert x + unit == x + ONE == unit + x
            assert x - unit == x - ONE


def test_int_and_fraction_operands_still_coerce():
    for x in _values():
        assert x * 3 == 3 * x == x * RatFun.from_fraction(3)
        assert x + Fraction(2, 3) == Fraction(2, 3) + x == x + RatFun.from_fraction(Fraction(2, 3))
        assert x * 1 == x and x + 0 == x and x * 0 == RatFun.zero()
    with pytest.raises(TypeError):
        ONE * "x"
    with pytest.raises(TypeError):
        ONE + "x"
    with pytest.raises(TypeError):
        "x" * RF_Q
    with pytest.raises(TypeError):
        ONE * 0.5


# -- the q-integer kernels: {n}_q is the tuple of n ones ------------------------

KERNELS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

lengths = st.integers(1, 40)


@st.composite
def int_polys(draw):
    """A nonzero integer polynomial with zero and negative coefficients."""
    cs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=30))
    if not cs[-1]:
        cs[-1] = draw(st.sampled_from([-3, -1, 1, 2]))
    return tuple(cs)


def qint(n: int) -> tuple:
    return (1,) * n


def remainder_sequence(a: tuple, b: tuple) -> tuple:
    """The primitive remainder sequence that ``_gcd`` runs on polynomials
    that are not both q-integers."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            break
        a, b = b, _primitive(r)[1]
    return b


@KERNELS
@given(int_polys(), lengths)
def test_product_with_a_q_integer_is_the_schoolbook_product(a, n):
    want = poly_mul(a, qint(n))
    for got in (_mul(a, qint(n)), _mul(qint(n), a)):
        assert got == want
        assert type(got) is tuple and all(type(x) is int for x in got)


@KERNELS
@given(lengths, lengths)
def test_gcd_of_two_q_integers_is_the_q_integer_of_the_gcd(m, n):
    g = _gcd(qint(m), qint(n))
    assert g == qint(math.gcd(m, n)) == remainder_sequence(qint(m), qint(n))


@KERNELS
@given(lengths, st.integers(1, 12), int_polys())
def test_exact_quotients_round_trip_through_the_product(g, k, a):
    # {kg}_q / {g}_q = 1 + q^g + ... + q^((k-1)g)
    quot = _divexact(qint(k * g), qint(g))
    assert quot == tuple(1 if i % g == 0 else 0 for i in range((k - 1) * g + 1))
    assert _mul(quot, qint(g)) == qint(k * g)
    # a q-integer divided out of a product, and the product by it
    assert _divexact(_mul(a, qint(g)), qint(g)) == a
    if a[-1] > 0:
        assert _divexact(_mul(a, qint(g)), a) == qint(g)


@KERNELS
@given(int_polys())
def test_equal_operands_take_the_fast_paths(p):
    # a remainder sequence or a long division would build a new tuple
    a = _primitive(p + (1,))[1]
    assert _gcd(a, a) is a
    assert _divexact(a, a) is ratfun._ONE


def test_q_integer_gcds_take_no_remainder_sequence(monkeypatch):
    def refuse(a, b):
        raise AssertionError("a remainder-sequence step ran")

    monkeypatch.setattr(ratfun, "_prem", refuse)
    for m in range(1, 41):
        for n in range(1, 41):
            assert _gcd(qint(m), qint(n)) == qint(math.gcd(m, n))
    assert _gcd((2, 0, 1), (2, 0, 1)) == (2, 0, 1)


@st.composite
def q_integer_values(draw):
    """c q^v (1 - q)^w {n1}_q^e1 / {n2}_q^e2: a value full of q-integers."""
    c = Fraction(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(1, 5)))
    x = RatFun.from_fraction(c) * RF_Q ** draw(st.integers(-3, 3)) * RF_ONE_MINUS_Q ** draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 3))):
        x = x * qbracket(draw(st.integers(1, 25))) ** draw(st.integers(-2, 2))
    return x


@KERNELS
@given(q_integer_values(), q_integer_values())
def test_values_full_of_q_integers_evaluate_like_their_fractions(x, y):
    for q0 in (Fraction(1, 3), Fraction(5, 7), Fraction(3, 2)):
        fx, fy = x.evaluate(q0), y.evaluate(q0)
        assert (x * y).evaluate(q0) == fx * fy
        assert (x / y).evaluate(q0) == fx / fy
        assert (x + y).evaluate(q0) == fx + fy
        assert (x - y).evaluate(q0) == fx - fy
