"""Shared generators for randomized property tests.

Random elements follow the scale the engine is built for: word degrees up
to 3 and coefficients that are small integers, small integers over 1 - q,
or small multiples of q.  Everything is seeded, so failures reproduce.
"""

import copy
import pickle
import random
from fractions import Fraction

from qheis.algebra import BasisWord, Element
from qheis.ratfun import RF_ONE_MINUS_Q, QPolynomial, RatFun


#: the round trips an immutable value must survive, value -> new value
COPIERS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def poly_mul(*factors) -> tuple:
    """Product of polynomials given as ascending coefficient sequences, as a
    tuple of Fractions; it builds test inputs independently of the engine."""
    out = (Fraction(1),)
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = tuple(prod)
    return out


def random_qpoly_pair(rng: random.Random):
    """A numerator and denominator over the rationals: small integer
    polynomials times q^a and (1 - q^m)^e, split by the signs of a and e."""
    def small():
        cs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        cs[-1] = cs[-1] or 1
        return cs

    a, m, e = rng.randint(-3, 3), rng.randint(1, 4), rng.randint(-2, 2)
    cyclic = (1,) + (0,) * (m - 1) + (-1,)
    num = poly_mul(small(), (0,) * max(a, 0) + (1,), *[cyclic] * max(e, 0))
    den = poly_mul(small(), (0,) * max(-a, 0) + (1,), *[cyclic] * max(-e, 0))
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return QPolynomial(c * x for x in num), QPolynomial(den)


def random_ratfun(rng: random.Random) -> RatFun:
    n = rng.choice([-3, -2, -1, 1, 2, 3])
    kind = rng.randrange(4)
    if kind == 0:
        return RatFun.from_fraction(n)
    if kind == 1:
        return RatFun.from_fraction(Fraction(n, rng.randrange(1, 4)))
    if kind == 2:
        return RatFun.from_fraction(n) / RF_ONE_MINUS_Q
    return RatFun.from_fraction(n) * RatFun.q_power(rng.randrange(1, 3))


def random_basis_word(rng: random.Random, max_deg: int = 3) -> BasisWord:
    k = rng.randrange(max_deg + 1)
    if rng.random() < 0.5:
        return BasisWord(rng.randrange(max_deg + 1), k, 0)
    return BasisWord(0, k, rng.randrange(max_deg + 1))


def random_element(rng: random.Random, max_terms: int = 4, max_deg: int = 3) -> Element:
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        terms[random_basis_word(rng, max_deg)] = random_ratfun(rng)
    return Element(terms)


def basis_words_up_to(bound: int):
    """Every canonical monomial with b, k, a <= bound (and b*a = 0)."""
    words = []
    for k in range(bound + 1):
        for a in range(bound + 1):
            words.append(BasisWord(0, k, a))
        for b in range(1, bound + 1):
            words.append(BasisWord(b, k, 0))
    return words
