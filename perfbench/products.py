"""Workload ``random-products``: ``multiply`` on seeded pairs of
multi-term elements (word degree <= 5, coefficients as in the test suite's
random elements), plus small ``element_power`` tasks.

Many distinct words with low-degree coefficients give rewrite reduction,
term accumulation and memo fill a larger share than in
``exact-identities``; the left factors here are not single generators.
Each product reduces against a fresh copy of the completed rule set, so
its word memo starts empty, as in a fresh process: every product pays for
its own reduction and memo fill, and what a task costs does not depend on
how many tasks ran before it.  The powers use the shared rule set and its
memo, which their few short words keep warm.

Reference answers: every product must equal the closed-form cascade
(``multiply_cascade``, outside the timed call), and its action on the
leading basis vectors must match the benchmark's float realization of
x(y v_n), computed in the infinite model.  The cascade is bilinear, so the
reference sums the cascades of the pairs of basis words, each computed
once per run and kept: the same element as ``multiply_cascade(x, y)``, at
a third of its cost, which leaves more of a run for measured tasks.
"""

from __future__ import annotations

from fractions import Fraction

from qheis import algebra
from qheis.algebra import BasisWord, Element
from qheis.ratfun import RF_ONE, RF_ONE_MINUS_Q, RatFun
from qheis.rewrite import RuleSet

from realize import Realization, close
from taskdeck import Task, expect

MAX_DEG = 5
#: (terms of x, terms of y) for the product tasks of one deck
PAIR_SHAPES = [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 4), (4, 1), (2, 4), (4, 2), (3, 4), (4, 3)]
#: (terms, max word degree, exponent) for the power tasks of one deck
POWER_SHAPES = [(2, 2, 3), (2, 1, 4), (3, 1, 3)]
SPOT_Q = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
SPOT_COLUMNS = range(4)
REL = 1e-9


def random_ratfun(rng, kind: int) -> RatFun:
    """Kind 0: a small integer; 1: a small rational; 2: a small integer over
    1 - q; 3: a small multiple of q or q^2."""
    n = rng.choice([-3, -2, -1, 1, 2, 3])
    if kind == 0:
        return RatFun.from_fraction(n)
    if kind == 1:
        return RatFun.from_fraction(Fraction(n, rng.randrange(1, 4)))
    if kind == 2:
        return RatFun.from_fraction(n) / RF_ONE_MINUS_Q
    return RatFun.from_fraction(n) * RatFun.q_power(rng.randrange(1, 3))


def random_word(rng, deg: int, b_side: bool) -> BasisWord:
    k = rng.randint(0, deg)
    if b_side:
        return BasisWord(deg - k, k, 0)
    return BasisWord(0, k, deg - k)


def random_element(rng, terms: int, max_deg: int, offset: int) -> Element:
    """Word degrees, B- or A-sided words and coefficient kinds run through
    their ranges from starting points that ``offset`` sets; the C-counts and
    the coefficients themselves are drawn."""
    deg0, side0, kind0 = offset % max_deg, offset // max_deg % 2, offset % 4
    out = {}
    i = 0
    while len(out) < terms:
        word = random_word(rng, (deg0 + i) % max_deg + 1, (side0 + i) % 2 == 0)
        out[word] = random_ratfun(rng, (kind0 + i) % 4)
        i += 1
    return Element(out)


def spot_check(real: Realization, z: Element, factors, what: str) -> None:
    """z v_n must equal the factors applied right to left to v_n.  Both
    sides may cancel, so the tolerance scales with the larger of their
    summed magnitudes."""
    for n in SPOT_COLUMNS:
        want, scale = {n: 1.0}, {n: 1.0}
        for f in reversed(factors):
            want = real.apply(f, want)
            scale = real.apply(f, scale, absolute=True)
        got = real.column(z, n)
        got_scale = real.apply(z, {n: 1.0}, absolute=True)
        for i in set(got) | set(want):
            expect(
                close(got.get(i, 0.0), want.get(i, 0.0), max(scale.get(i, 0.0), got_scale.get(i, 0.0)), REL),
                f"{what}: entry ({i}, {n}) at q={real.q_exact} is {got.get(i, 0.0)!r}, "
                f"float realization {want.get(i, 0.0)!r}",
            )


class Cascade:
    """``multiply_cascade`` of two elements, summed from the cascades of
    their pairs of basis words, which are computed once and kept."""

    def __init__(self):
        self.words = {}

    def __call__(self, x: Element, y: Element) -> Element:
        out = {}
        for bx, cx in x.terms.items():
            for by, cy in y.terms.items():
                z = self.words.get((bx, by))
                if z is None:
                    z = self.words[(bx, by)] = algebra.multiply_cascade(Element({bx: RF_ONE}), Element({by: RF_ONE}))
                c = cx * cy
                for bw, v in z.terms.items():
                    s = out.get(bw)
                    out[bw] = c * v if s is None else s + c * v
        return Element(out)


def product_task(cascade: Cascade, x: Element, y: Element, q: Fraction) -> Task:
    def run():
        return algebra.multiply(x, y, RuleSet("completed", algebra.COMPLETED.rules))

    def check(z):
        expect(isinstance(z, Element), f"expected an Element, got {type(z).__name__}")
        expect(z == cascade(x, y), "multiply differs from multiply_cascade")
        spot_check(Realization(q), z, [x, y], "product")

    return Task("multiply", {"x": str(x), "y": str(y)}, run, check)


def power_task(cascade: Cascade, x: Element, m: int, q: Fraction) -> Task:
    def run():
        return algebra.element_power(x, m)

    def check(z):
        want = algebra.I
        for _ in range(m):
            want = cascade(want, x)
        expect(z == want, "element_power differs from the cascade power")
        spot_check(Realization(q), z, [x] * m, "power")

    return Task("element_power", {"x": str(x), "m": m}, run, check)


class Workload:
    def __init__(self):
        self.cascade = Cascade()

    def deck(self, rng, index: int) -> list:
        """The starting points of every element follow the deck number, not
        the seed: every run of 20 decks holds each pair of degree and
        coefficient-kind starting points once for every shape of the longest
        degree, so what a run costs depends on its length, not on its
        seed."""
        tasks = []
        for j, (nx, ny) in enumerate(PAIR_SHAPES):
            x = random_element(rng, nx, MAX_DEG, index + 2 * j)
            y = random_element(rng, ny, MAX_DEG, index + 2 * j + 1)
            tasks.append(product_task(self.cascade, x, y, rng.choice(SPOT_Q)))
        for j, (terms, deg, m) in enumerate(POWER_SHAPES):
            x = random_element(rng, terms, deg, index + j)
            tasks.append(power_task(self.cascade, x, m, rng.choice(SPOT_Q)))
        return tasks
