"""The combination contract shared by every linear-combination type:
zero purging, the group laws, hashing, immutability, `collect`, and
pickling and copying."""

import pytest
from conftest import COPIERS, poly_mul

from qheis.algebra import BasisWord, Element
from qheis.lie import KetImage, LaurentPoly
from qheis.ratfun import RF_Q, QPolynomial, RatFun
from qheis.rewrite import FreeElement

ONE = RatFun.one()

# each type with three distinct keys
KINDS = [
    (Element, [BasisWord(0, 0, 1), BasisWord(1, 0, 0), BasisWord(0, 2, 1)]),
    (FreeElement, [("A",), ("B", "A"), ()]),
    (LaurentPoly, [0, -1, 2]),
    (KetImage, [(1, (1,)), (2, (1, 2)), (0, ())]),
]


@pytest.fixture(params=KINDS, ids=lambda kind: kind[0].__name__)
def kind(request):
    return request.param


def samples(cls, keys):
    k1, k2, k3 = keys
    x = cls({k1: ONE, k2: RF_Q})
    y = cls({k2: -RF_Q, k3: 3})
    z = cls({k1: RF_Q + 1, k3: -1})
    return x, y, z


def test_zero_coefficients_are_purged(kind):
    cls, (k1, k2, _) = kind
    x = cls({k1: 0, k2: RF_Q})
    assert list(x.terms) == [k2]
    assert cls({k1: RatFun.zero()}).is_zero()
    assert cls({k1: RatFun.zero()}) == cls.zero()


def test_group_laws(kind):
    cls, keys = kind
    x, y, z = samples(cls, keys)
    assert x - x == cls.zero()
    assert (x - x).is_zero()
    assert -(-x) == x
    assert x.scale(0) == cls.zero()
    assert x.scale(0).is_zero()
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


def test_equal_combinations_hash_equal(kind):
    cls, (k1, k2, k3) = kind
    a = cls({k1: ONE, k2: RF_Q, k3: 2})
    b = cls({k3: 2, k2: RF_Q, k1: ONE})
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a - a) == hash(cls.zero())
    assert len({a, b, cls.zero(), a - a}) == 2


def test_combinations_are_immutable(kind):
    cls, keys = kind
    x, _, _ = samples(cls, keys)
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(AttributeError):
        x.extra = 1


def test_collect_merges_keys_and_drops_cancellations(kind):
    cls, (k1, k2, k3) = kind
    got = cls.collect([(k1, 1), (k2, RF_Q), (k1, 2), (k3, 5), (k2, -RF_Q)])
    assert got == cls({k1: 3, k3: 5})
    assert list(got.terms) == [k1, k3]
    assert cls.collect([]) == cls.zero()


def test_collect_keeps_the_order_of_repeated_addition(kind):
    cls, keys = kind
    x, y, z = samples(cls, keys)
    # k2 cancels between x and y and comes back with z's negative
    parts = [x, y, z, -y]
    total = cls.zero()
    for part in parts:
        total = total + part
    collected = cls.collect(item for part in parts for item in part.terms.items())
    assert collected == total
    assert list(collected.terms.items()) == list(total.terms.items())


def test_scale_by_units_ints_and_zero(kind):
    cls, keys = kind
    x, _, _ = samples(cls, keys)
    assert x.scale(ONE) is x
    for unit in (1, RatFun.from_fraction(1), RatFun(QPolynomial((1,)))):
        assert list(x.scale(unit).terms.items()) == list(x.terms.items())
    assert x.scale(3) == x.scale(RatFun.from_fraction(3)) == x + x + x
    assert x.scale(0).is_zero() and x.scale(RatFun.zero()).is_zero()
    with pytest.raises(TypeError):
        x.scale("x")


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
def test_combinations_survive_pickle_and_copy(kind, copier):
    cls, (k1, k2, k3) = kind
    # coefficients with a q-power and a (1-q)^k denominator
    denominator = QPolynomial(poly_mul(*[(1, -1)] * 3))
    x = cls({k1: RatFun.q_power(-2) * 3, k2: RatFun(QPolynomial((1, 2)), denominator), k3: RF_Q})
    back = copier(x)
    assert type(back) is cls
    assert back == x
    assert hash(back) == hash(x)
    assert list(back.terms) == list(x.terms)


def test_combination_types_never_compare_equal():
    zeros = [cls.zero() for cls, _ in KINDS]
    for i, a in enumerate(zeros):
        for j, b in enumerate(zeros):
            assert (a == b) == (i == j)
    assert Element.zero() != FreeElement.zero()


def test_adding_different_types_is_a_type_error():
    with pytest.raises(TypeError):
        Element.zero() + FreeElement.zero()
    with pytest.raises(TypeError):
        LaurentPoly.zero() - KetImage.zero()


def test_laurent_exponents_must_be_integral():
    with pytest.raises(TypeError):
        LaurentPoly({1.5: ONE})
    with pytest.raises(TypeError):
        LaurentPoly.collect([(1.5, ONE)])
    assert LaurentPoly({2: ONE}) == LaurentPoly.monomial(2)


def test_element_coeff_coerces_keys_like_the_constructor():
    x = Element({(0, 1, 2): RF_Q})
    assert x.coeff((0, 1, 2)) == RF_Q
    assert x.coeff(BasisWord(0, 1, 2)) == RF_Q
    assert x.coeff((1, 0, 0)) == RatFun.zero()
    with pytest.raises(ValueError):
        x.coeff((1, 0, 1))
