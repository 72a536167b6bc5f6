"""Normal forms and products in the q-deformed Heisenberg algebra.

An :class:`Element` is a finite linear combination of canonical monomials
B^b C^k A^a (with b*a = 0) over exact rational functions of q.  Products
of monomials come in closed form, by q-binomial normal ordering
(``monomial_product``); two independent routes recompute them, the
completed rewrite system (``normalize`` and ``reduce_word``, which also
reduce under any other rule set) and ``multiply_cascade``, which folds
closed-form generator actions, and the test suite holds all three equal.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

from collections import namedtuple

from .ratfun import RF_ONE, RF_ONE_MINUS_Q, LinComb, RatFun, _ONE, _ratfun
from . import rewrite
from .rewrite import FreeElement, RuleSet, Word, normalize_free, word, word_str


class BasisWord(namedtuple("BasisWord", "b k a")):
    """Canonical monomial B^b C^k A^a; (0, 0, 0) is the identity I.

    A monomial carries B-powers or A-powers, never both.  Hash and order are
    those of the tuple (b, k, a).
    """

    __slots__ = ()

    def __new__(cls, b: int, k: int, a: int):
        if b < 0 or k < 0 or a < 0:
            raise ValueError("basis word exponents must be nonnegative")
        if b and a:
            raise ValueError(f"B^{b} C^{k} A^{a} is not canonical: b*a must be 0")
        return tuple.__new__(cls, (b, k, a))

    @property
    def degree(self) -> int:
        return self.b + self.k + self.a

    def word(self) -> Word:
        return ("B",) * self.b + ("C",) * self.k + ("A",) * self.a

    def grade_key(self):
        return (self.degree, self.b, self.k, self.a)

    def __str__(self) -> str:
        parts = []
        for letter, e in (("B", self.b), ("C", self.k), ("A", self.a)):
            if e == 1:
                parts.append(letter)
            elif e > 1:
                parts.append(f"{letter}^{e}")
        return "*".join(parts) if parts else "I"


def _classify_word(w: Word) -> BasisWord:
    b = 0
    while b < len(w) and w[b] == "B":
        b += 1
    k = b
    while k < len(w) and w[k] == "C":
        k += 1
    a = k
    while a < len(w) and w[a] == "A":
        a += 1
    if a != len(w):
        raise ValueError(f"{word_str(w)} is not of the shape B^b C^k A^a")
    return BasisWord(b, k - b, a - k)


class StuckWordError(ValueError):
    """Raised when reduction halts on irreducible words outside the basis
    (possible with the printed rules only).  Carries the offending words and
    the full free normal form rather than coercing them silently."""

    def __init__(self, stuck_words, free_form: FreeElement):
        self.stuck_words = tuple(stuck_words)
        self.free_form = free_form
        names = ", ".join(word_str(w) for w in self.stuck_words)
        super().__init__(
            f"reduction produced irreducible non-basis words: {names}"
        )


class Element(LinComb):
    """Member of the algebra in normal form: a term map BasisWord -> RatFun
    with no zero coefficients stored."""

    __slots__ = ()

    @staticmethod
    def _key(bw) -> BasisWord:
        return bw if isinstance(bw, BasisWord) else BasisWord(*bw)

    @classmethod
    def monomial(cls, b: int, k: int, a: int, coeff=RF_ONE) -> "Element":
        return cls({BasisWord(b, k, a): coeff})

    @classmethod
    def scalar(cls, c) -> "Element":
        return cls({BasisWord(0, 0, 0): c})

    def coeff(self, bw) -> RatFun:
        return self.terms.get(self._key(bw), RatFun.zero())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0].grade_key())

    @staticmethod
    def _term_text(bw, c) -> str:
        return f"{c}*{bw}"

    def free(self) -> FreeElement:
        return FreeElement({bw.word(): c for bw, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __pow__(self, m: int) -> "Element":
        return element_power(self, m)


I = Element.monomial(0, 0, 0)
A = Element.monomial(0, 0, 1)
B = Element.monomial(1, 0, 0)
C = Element.monomial(0, 1, 0)

COMPLETED = RuleSet.completed()
PRINTED = RuleSet.printed()


def _free_to_element(fe: FreeElement) -> Element:
    # distinct words classify to distinct basis words: nothing to merge
    terms = {}
    stuck = []
    for w, c in fe.terms.items():
        try:
            terms[_classify_word(w)] = c
        except ValueError:
            stuck.append(w)
    if stuck:
        raise StuckWordError(sorted(stuck), fe)
    return Element._of(terms)


def reduce_word(w, rules: RuleSet = COMPLETED) -> Element:
    """Normal form of a single free word.  With the printed rules the
    result can contain irreducible words outside the basis; those raise
    :class:`StuckWordError` instead of being coerced."""
    if isinstance(w, str):
        w = word("" if w == "I" else w)
    return _free_to_element(normalize_free(FreeElement.of_word(w), rules))


def normalize(x, rules: RuleSet = COMPLETED) -> Element:
    """Normal form of an Element or a free word combination.  Idempotent:
    normal forms are fixed points of every rule."""
    fe = x.free() if isinstance(x, Element) else x
    if not isinstance(fe, FreeElement):
        raise TypeError("normalize expects an Element or FreeElement")
    return _free_to_element(normalize_free(fe, rules))


def _pair_sum(x: Element, y: Element, memo: dict, f) -> Element:
    """Sum of cx cy f(bx, by) over the term pairs of x and y, with f memoized
    in ``memo`` by (bx, by); a zero f(bx, by) is skipped.  The terms go into
    one map in the order ``Element.collect`` gives the pair stream, and no
    product with ``RF_ONE`` (the coefficient of A, B, C) is formed."""
    acc = {}
    for bx, cx in x.terms.items():
        for by, cy in y.terms.items():
            z = memo.get((bx, by))
            if z is None:
                if len(memo) >= rewrite.MAX_MEMO_ENTRIES:
                    memo.clear()
                z = memo[bx, by] = f(bx, by)
            if not z.terms:
                continue
            c = cy if cx is RF_ONE else cx if cy is RF_ONE else cx * cy
            for bw, w in z.terms.items():
                if c is not RF_ONE:
                    w = c * w
                prev = acc.get(bw)
                if prev is None:
                    acc[bw] = w
                elif (w := prev + w)._p[0]:
                    acc[bw] = w
                else:
                    del acc[bw]
    return Element._of(acc)


def multiply(x: Element, y: Element, rules: RuleSet = COMPLETED) -> Element:
    """Product in the algebra: each pair of monomials multiplies in closed
    form (:func:`monomial_product`), memoized on ``rules``, which must hold
    the completed rules.  Under the printed rules, reducing products of
    normal forms depends on association, so :func:`normalize` and
    :func:`reduce_word` reduce the expanded word sum instead."""
    if rules.rules is not COMPLETED.rules:
        raise ValueError(f"multiply needs the completed rules; normalize the {rules.name} word sum")
    return _pair_sum(x, y, rules._product_memo, monomial_product)


# -- closed-form monomial products --------------------------------------------
#
# Normal ordering for the deformed boson AB - qBA = I (Katriel & Kibler,
# J. Phys. A 25, 1992; Gasper & Rahman, Basic Hypergeometric Series, 1.3).
# With AC = qCA and CB = qBC, so that A^r P(C) = P(q^r C) A^r and
# P(C) B^s = B^s P(q^s C), and the q-binomial theorem:
#
#   A^m B^m     = (qC; q)_m / (1-q)^m
#               = sum_j (-1)^j q^(j(j+1)/2) [m, j]_q C^j / (1-q)^m
#   B^n C^L A^n = q^(-nL) (1-q)^(-n) C^L (C; 1/q)_n
#               = q^(-nL) (1-q)^(-n) sum_j (-1)^j q^(-j(j-1)/2 - j(n-j)) [n, j]_q C^(L+j)
#
# A product of canonical words meets at most one of the two.  Let
# r = min(a1, b2) A's of x meet B's of y, and let n = min(beta, alpha) for
# the B^beta ... A^alpha left over.  If r > 0 then a1 > 0 and b2 > 0, so
# b1 = a2 = 0, and beta = b2 - r, alpha = a1 - r, one of them 0: r n = 0.
# So each product is one q-binomial row, m = max(r, n), with m + 1 terms.
# [m, t]_q has constant and leading coefficient 1 and the value C(m, t) != 0
# at q = 1, so it is primitive and prime to q and to q - 1: it is already the
# canonical core N of its coefficient, with no q or q - 1 to strip.

#: Most q-binomial entries, (m+1) + (m-1)m(m+1)/6 over the row of [m, t]_q,
#: that one monomial product may build; their count grows as m^3 / 6.
#: (2-vCPU Xeon, in process): A^150*B^150 (562,626) takes 0.06 s and a
#: 13.5 MB tracemalloc peak; A^181*B^181 (988,442), the largest accepted,
#: 0.10 s and 25 MB; A^2000*B^2000 (about 1.3e9, minutes and all memory)
#: is refused.
MAX_PRODUCT_ENTRIES = 1_000_000


def _qbinomials(m: int) -> list:
    """[m, t]_q for t = 0..m as ascending integer coefficient tuples, by
    [m, t] = [m, t-1] (1 - q^(m-t+1)) / (1 - q^t), up to t = m/2, and
    [m, t] = [m, m-t] past it."""
    row = [_ONE]
    p = [1]
    for t in range(1, m // 2 + 1):
        e = m - t + 1
        p = p + [0] * e
        for i in range(len(p) - 1, e - 1, -1):
            p[i] -= p[i - e]
        for i in range(t, len(p)):
            p[i] += p[i - t]
        del p[t * (m - t) + 1 :]
        row.append(tuple(p))
    return row + row[: (m + 1) // 2][::-1]


_word = tuple.__new__


def monomial_product(x: BasisWord, y: BasisWord) -> Element:
    """Normal form of B^b1 C^k1 A^a1 * B^b2 C^k2 A^a2 in closed form, with
    no rewriting.  With r = min(a1, b2), A^a1 B^b2 orders to
    B^(b2-r) (q^(s+1) C; q)_r A^(a1-r) / (1-q)^r, s = |a1 - b2|; the C powers
    then move together, and a B^n C^L A^n left over, n = min(beta, alpha)
    for beta = b1 + b2 - r and alpha = a1 - r + a2, collapses.  As r n = 0
    (r > 0 forces b1 = a2 = 0, and then beta or alpha is 0), the product is
    one q-binomial row, m = max(r, n), of m + 1 terms

        (-1)^t q^(e_t) [m, t]_q / (1-q)^m  B^(beta-n) C^(k1+k2+t) A^(alpha-n),

    t = 0..m, with e_t = v0 + t(t+1)/2 + t s for r > 0, and
    e_t = v0 - t(t-1)/2 - t(n-t) for n > 0.  [m, t]_q is primitive and prime
    to q and to q - 1, so it is the canonical core of its coefficient as it
    stands.  m = 0 is the one term q^v0.  A row of more than
    ``MAX_PRODUCT_ENTRIES`` entries raises ``ValueError`` before any is
    built."""
    b1, k1, a1 = x
    b2, k2, a2 = y
    r = min(a1, b2)
    b_rest, a_rest = b2 - r, a1 - r
    beta, alpha, base = b1 + b_rest, a_rest + a2, k1 + k2
    n = min(beta, alpha)
    # q-exponent of the term t = 0: C^k1 past B^b_rest, A^a_rest past C^k2,
    # and q^(-nL) at L = base
    v0 = k1 * b_rest + a_rest * k2 - n * base
    b, a, m = beta - n, alpha - n, r + n
    if not m:
        return Element._of({_word(BasisWord, (b, base, a)): _ratfun(1, 1, v0, 0, _ONE, _ONE)})
    entries = m + 1 + (m - 1) * m * (m + 1) // 6
    if entries > MAX_PRODUCT_ENTRIES:
        raise ValueError(f"the product's q-binomial row has {entries} entries, over MAX_PRODUCT_ENTRIES = {MAX_PRODUCT_ENTRIES}")
    s = abs(a1 - b2)
    out = {}
    for t, core in enumerate(_qbinomials(m)):
        e = v0 + t * (t + 1) // 2 + t * s if r else v0 - t * (t - 1) // 2 - t * (n - t)
        # (1-q)^-m = (-1)^m (q-1)^-m
        out[_word(BasisWord, (b, base + t, a))] = _ratfun(-1 if (t + m) & 1 else 1, 1, e, -m, core, _ONE)
    return Element._of(out)


# -- independent multiplication oracle --------------------------------------
#
# Left action of a single generator on a canonical monomial, in closed form.
# These formulas come straight from the relations (no rewriting involved):
#
#   C . B^b C^k A^a = q^b  B^b C^(k+1) A^a
#   B . B^b C^k     = B^(b+1) C^k
#   B . C^k A^a     = q^(-k)/(1-q) (C^k A^(a-1) - C^(k+1) A^(a-1))   (a >= 1)
#   A . C^k A^a     = q^k  C^k A^(a+1)
#   A . B^b C^k     = 1/(1-q) (B^(b-1) C^k - q^b B^(b-1) C^(k+1))    (b >= 1)


def _gen_action(letter: str, bw: BasisWord) -> Element:
    b, k, a = bw.b, bw.k, bw.a
    if letter == "C":
        return Element.monomial(b, k + 1, a, RatFun.q_power(b))
    if letter == "B":
        if a == 0:
            return Element.monomial(b + 1, k, 0)
        scale = RatFun.q_power(-k) / RF_ONE_MINUS_Q
        return Element(
            {BasisWord(0, k, a - 1): scale, BasisWord(0, k + 1, a - 1): -scale}
        )
    if letter == "A":
        if b == 0:
            return Element.monomial(0, k, a + 1, RatFun.q_power(k))
        inv = RF_ONE / RF_ONE_MINUS_Q
        return Element(
            {
                BasisWord(b - 1, k, 0): inv,
                BasisWord(b - 1, k + 1, 0): -(RatFun.q_power(b) * inv),
            }
        )
    raise ValueError(f"unknown generator {letter!r}")


def _cascade_word(wx: Word, y: Element) -> Element:
    acc = y
    for letter in reversed(wx):
        acc = Element.collect(
            (bw2, c * c2)
            for bw, c in acc.terms.items()
            for bw2, c2 in _gen_action(letter, bw).terms.items()
        )
    return acc


def multiply_cascade(x: Element, y: Element) -> Element:
    """Product computed by folding x's letters onto y's normal form with the
    closed-form generator actions.  Independent of the rewrite engine; must
    agree with :func:`multiply` on everything."""
    return Element.collect(
        (bw, cx * c)
        for bx, cx in x.terms.items()
        for bw, c in _cascade_word(bx.word(), y).terms.items()
    )


def _monomial_commutator(bx: BasisWord, by: BasisWord) -> Element:
    # through the module's ``multiply``, so that a wrapper bound in its place
    # (the bench tracer) sees every product
    u, v = Element._of({bx: RF_ONE}), Element._of({by: RF_ONE})
    return multiply(u, v) - multiply(v, u)


def bracket(x: Element, y: Element) -> Element:
    """Commutator xy - yx, in one pass over the term pairs: each pair adds
    cx cy [bx, by].  The monomial commutators come from products under the
    completed rules and are memoized on that rule set; a zero one is
    skipped.  Most are a single term, [C, B^b C^k A^a] = (q^b - q^a)
    B^b C^(k+1) A^a, so a coefficient is multiplied once and not summed."""
    return _pair_sum(x, y, COMPLETED._bracket_memo, _monomial_commutator)


def ad_power(x: Element, m: int, y: Element) -> Element:
    """m-fold nested commutator [x, [x, ... [x, y]]]; m = 0 returns y."""
    if m < 0:
        raise ValueError("ad power must be nonnegative")
    out = y
    for _ in range(m):
        out = bracket(x, out)
    return out


def adjoint(x: Element) -> Element:
    """The anti-automorphism fixing coefficients with A <-> B and C -> C.

    On a canonical monomial it reverses the word:
    (B^b C^k A^a)* = B^a C^k A^b, which is again canonical.
    """
    return Element({BasisWord(bw.a, bw.k, bw.b): c for bw, c in x.terms.items()})


def element_power(x: Element, m: int) -> Element:
    """m-fold product; x^0 is the identity.  A power of one term c B^b C^k A^a
    is again one term (no A meets a B), so a one-term x is squared
    repeatedly, in O(log m) products.  Any other x is multiplied on from the
    right m times: squaring a multi-term power multiplies its large
    coefficients pairwise, and took (A+B)^24 from 0.56 to 2.1 s."""
    if m < 0:
        raise ValueError("element power must be nonnegative")
    out = I
    if len(x.terms) == 1:
        for bit in bin(m)[2:]:
            out = multiply(out, out)
            if bit == "1":
                out = multiply(out, x)
    else:
        for _ in range(m):
            out = multiply(out, x)
    return out
