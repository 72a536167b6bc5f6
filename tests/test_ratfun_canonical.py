"""Property tests of the canonical form of rational functions, over small
generated polynomials (degree <= 3, coefficients in [-5, 5], with shared
factors q^a and (1 - q^m)^e) so that every example stays cheap."""

from fractions import Fraction
from math import gcd

from conftest import poly_mul
from hypothesis import given, settings
from hypothesis import strategies as st

from qheis.ratfun import QPolynomial, RatFun

BUDGET = settings(max_examples=150, deadline=None, derandomize=True, database=None)

coefficient = st.integers(-5, 5)


@st.composite
def polynomials(draw, nonzero=True):
    cs = draw(st.lists(coefficient, min_size=1, max_size=4))
    if nonzero and not any(cs):
        cs[-1] = 1
    c = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 6)))
    a, m, e = draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    return QPolynomial(poly_mul([c * x for x in cs], (0,) * a + (1,), *[(1,) + (0,) * (m - 1) + (-1,)] * e))


@st.composite
def ratfuns(draw):
    return RatFun(draw(polynomials(nonzero=False)), draw(polynomials()))


def assert_six_parts(z):
    """z is stored as (cn / cd) q^v (q - 1)^w N / D with the invariant of the
    module docstring, and its ``num``/``den`` are that value, rebuilt here by
    ``poly_mul`` and made monic."""
    cn, cd, v, w, n, d = z._cn, z._cd, z._v, z._w, z._n, z._d
    assert cd > 0 and gcd(cn, cd) == 1
    if not cn:
        assert (cd, v, w, n, d) == (1, 0, 0, (), (1,))
        assert z.num.is_zero() and z.den.coeffs == (1,)
        return
    for p in (n, d):
        assert all(type(x) is int for x in p)
        assert gcd(*p) == 1 and p[-1] > 0
        assert p[0] and sum(p)  # p(0) and p(1)
    assert QPolynomial(n).gcd(QPolynomial(d)).degree == 0
    q_minus_1 = (-1, 1)
    top = poly_mul(n, (0,) * max(v, 0) + (1,), *[q_minus_1] * max(w, 0))
    bottom = poly_mul(d, (0,) * max(-v, 0) + (1,), *[q_minus_1] * max(-w, 0))
    scale = Fraction(cn, cd) / bottom[-1]
    assert z.num == QPolynomial([scale * x for x in top])
    assert z.den == QPolynomial([x / bottom[-1] for x in bottom])


@BUDGET
@given(ratfuns())
def test_canonical_form(x):
    assert_six_parts(x)
    assert x.den.coeffs[-1] == 1
    assert x.num.gcd(x.den).degree == 0
    assert RatFun(x.num, x.den) == x
    assert hash(RatFun(x.num, x.den)) == hash(x)
    if x.num.degree <= 0 and x.den.degree == 0:
        c = x.num.coeffs[-1] if x.num.coeffs else 0
        assert x == c and hash(x) == hash(c)


@BUDGET
@given(polynomials(nonzero=False), polynomials(), polynomials())
def test_common_factors_cancel(num, den, h):
    x = RatFun(poly_mul(num.coeffs, h.coeffs), poly_mul(den.coeffs, h.coeffs))
    assert x == RatFun(num, den)
    assert hash(x) == hash(RatFun(num, den))


@BUDGET
@given(ratfuns(), ratfuns(), st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6))
def test_arithmetic_round_trips(x, y, n, f):
    assert x + y - y == x
    assert hash(x + y - y) == hash(x)
    if not y.is_zero():
        assert (x * y) / y == x
        assert hash((x * y) / y) == hash(x)
    # every result is the canonical form that its num and den rebuild, so a
    # content left unreduced or with a negative denominator is caught here
    results = [x + y, x - y, x * y, -x, x**3, x * n, x * f]
    if not y.is_zero():
        results.append(x / y)
    for z in results:
        assert_six_parts(z)
        assert RatFun(z.num, z.den) == z
        assert hash(RatFun(z.num, z.den)) == hash(z)
