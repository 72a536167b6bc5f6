"""Normal forms and products in the q-deformed Heisenberg algebra.

An :class:`Element` is a finite linear combination of canonical monomials
B^b C^k A^a (with b*a = 0) over exact rational functions of q.  Products
of monomials come in closed form, by q-binomial normal ordering
(``monomial_product``); two independent routes recompute them, the
completed rewrite system (``reduce_word``, and ``multiply`` under any other
rule set) and ``multiply_cascade``, which folds closed-form generator
actions, and the test suite holds all three equal.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

from collections import namedtuple

from .ratfun import RF_ONE, RF_ONE_MINUS_Q, LinComb, RatFun, over_one_minus_q
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


def multiply(x: Element, y: Element, rules: RuleSet = COMPLETED) -> Element:
    """Product in the algebra.  Under the completed rules each pair of
    monomials multiplies in closed form (:func:`monomial_product`, memoized
    on the rule set); any other rule set normalizes the sum of the
    concatenated word pairs, so the printed rules still report stuck words."""
    if rules.rules is not COMPLETED.rules:
        return normalize(
            FreeElement.collect(
                (bx.word() + by.word(), cx * cy)
                for bx, cx in x.terms.items()
                for by, cy in y.terms.items()
            ),
            rules,
        )
    memo = rules._product_memo

    def pairs():
        for bx, cx in x.terms.items():
            for by, cy in y.terms.items():
                z = memo.get((bx, by))
                if z is None:
                    z = memo[bx, by] = monomial_product(bx, by)
                c = cx * cy
                for bw, v in z.terms.items():
                    yield bw, c * v

    return Element.collect(pairs())


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


def _qbinomials(n: int) -> list:
    """[n, j]_q for j = 0..n as ascending integer coefficient lists, by
    [n, j] = [n, j-1] (1 - q^(n-j+1)) / (1 - q^j)."""
    row = [[1]]
    p = [1]
    for j in range(1, n + 1):
        e = n - j + 1
        p = p + [0] * e
        for i in range(len(p) - 1, e - 1, -1):
            p[i] -= p[i - e]
        for i in range(j, len(p)):
            p[i] += p[i - j]
        p = p[: j * (n - j) + 1]
        row.append(p)
    return row


def monomial_product(x: BasisWord, y: BasisWord) -> Element:
    """Normal form of B^b1 C^k1 A^a1 * B^b2 C^k2 A^a2 in closed form, with
    no rewriting.  With r = min(a1, b2) and s = |a1 - b2|, A^a1 B^b2 orders
    to B^(b2-r) (q^(s+1) C; q)_r A^(a1-r) / (1-q)^r; the C powers then move
    together, and the B^n C^L A^n left over, n = min(b1 + b2 - r, a1 - r + a2),
    collapses.  Each coefficient is q^v P(q) / (1-q)^(r+n) for an integer
    polynomial P summed from q-binomial rows, so the product has at most
    r + n + 1 terms."""
    r = min(x.a, y.b)
    b_rest, a_rest = y.b - r, x.a - r
    beta, alpha, base = x.b + b_rest, a_rest + y.a, x.k + y.k
    n = min(beta, alpha)
    # q-exponent of the term j1 = j2 = 0: C^k1 past B^b_rest, A^a_rest past
    # C^k2, and q^(-nL) at L = base
    v0 = x.k * b_rest + a_rest * y.k - n * base
    s = abs(x.a - y.b)
    rows1, rows2 = _qbinomials(r), _qbinomials(n)
    acc = {}
    for j1, p1 in enumerate(rows1):
        e1 = v0 + j1 * (j1 + 1) // 2 + j1 * s - n * j1
        for j2, p2 in enumerate(rows2):
            e = e1 - j2 * (j2 - 1) // 2 - j2 * (n - j2)
            sign = -1 if (j1 + j2) & 1 else 1
            poly = acc.setdefault(j1 + j2, {})
            for i, u in enumerate(p1, e):
                for k, w in enumerate(p2, i):
                    poly[k] = poly.get(k, 0) + sign * u * w
    out = {}
    for t, poly in acc.items():
        low = min(poly)
        dense = [0] * (max(poly) - low + 1)
        for k, c in poly.items():
            dense[k - low] = c
        c = over_one_minus_q(dense, low, r + n)
        if not c.is_zero():
            out[BasisWord(beta - n, base + t, alpha - n)] = c
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


def bracket(x: Element, y: Element) -> Element:
    """Commutator xy - yx, in one pass over the term pairs: each pair adds
    cx cy [bx, by].  The monomial commutators come from products under the
    completed rules and are memoized on that rule set; a zero one is
    skipped.  Most are a single term, [C, B^b C^k A^a] = (q^b - q^a)
    B^b C^(k+1) A^a, so a coefficient is multiplied once and not summed."""
    memo = COMPLETED._bracket_memo

    def pairs():
        for bx, cx in x.terms.items():
            for by, cy in y.terms.items():
                z = memo.get((bx, by))
                if z is None:
                    u, v = Element._of({bx: RF_ONE}), Element._of({by: RF_ONE})
                    z = memo[bx, by] = multiply(u, v) - multiply(v, u)
                if z.terms:
                    c = cx * cy
                    for bw, w in z.terms.items():
                        yield bw, c * w

    return Element.collect(pairs())


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
