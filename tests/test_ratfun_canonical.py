"""Property tests of the canonical form of rational functions, over small
generated polynomials (degree <= 3, coefficients in [-5, 5], with shared
factors q^a and (1 - q^m)^e) so that every example stays cheap."""

from fractions import Fraction

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


@BUDGET
@given(ratfuns())
def test_canonical_form(x):
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
        assert RatFun(z.num, z.den) == z
        assert hash(RatFun(z.num, z.den)) == hash(z)
