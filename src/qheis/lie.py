"""Structure theory on top of the normal-form engine: the Lie/non-Lie
decomposition, compactness and Laurent-polynomial images modulo compacts,
nested-commutator identity verification, and exact application of algebra
elements to the orthonormal basis vectors of the shift representation.

The generators act on basis vectors by

    A . v_n = sqrt({n}_q)   v_(n-1)      (A . v_0 = 0)
    B . v_n = sqrt({n+1}_q) v_(n+1)
    C . v_n = q^n v_n

so a canonical monomial B^b C^k A^a sends v_n either to zero (n < a) or to
q^(k(n-a)) sqrt({m+1}_q ... {m+a+b}_q) v_(m+b), m = n-a: since b*a = 0,
the radicand is one run of consecutive q-integer indices, kept as a
``range``.  Scalars with equal runs merge exactly, which is what makes the
residual checks below exact rather than numeric.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .algebra import A, B, BasisWord, C, Element, I, ad_power, bracket, multiply
from .ratfun import RF_ONE, RF_ONE_MINUS_Q, LinComb, RatFun, as_ratfun, qbracket, qbracket_value, signed_root


# -- Lie / non-Lie decomposition ---------------------------------------------


class Decomposition(namedtuple("Decomposition", "coeff_a coeff_b derived e_part")):
    """Split of an element into its A/B-linear part, the part supported on
    monomials containing C (the derived part), and the rest (identity and
    pure generator powers of degree >= 2)."""

    __slots__ = ()

    @property
    def linear_ab(self):
        return (self.coeff_a, self.coeff_b)

    def recombine(self) -> Element:
        linear = Element(
            {BasisWord(0, 0, 1): self.coeff_a, BasisWord(1, 0, 0): self.coeff_b}
        )
        return linear + self.derived + self.e_part


def decompose(x: Element) -> Decomposition:
    coeff_a = x.coeff((0, 0, 1))
    coeff_b = x.coeff((1, 0, 0))
    derived = {}
    e_part = {}
    for bw, c in x.terms.items():
        if bw.k >= 1:
            derived[bw] = c
        elif bw not in (BasisWord(0, 0, 1), BasisWord(1, 0, 0)):
            e_part[bw] = c
    return Decomposition(coeff_a, coeff_b, Element(derived), Element(e_part))


def is_lie_polynomial(x: Element) -> bool:
    """True iff x lies in the span of A, B and the monomials containing C."""
    return decompose(x).e_part.is_zero()


def is_compact(x: Element) -> bool:
    """True iff every monomial of x contains C, i.e. the image of x modulo
    compact operators vanishes."""
    return all(bw.k >= 1 for bw in x.terms)


# -- Laurent polynomial image modulo compacts --------------------------------


class LaurentPoly(LinComb):
    """Finite linear combination of integral powers of D, the image of B
    modulo compact operators.  The image of A is (1-q)^(-1) D^(-1)."""

    __slots__ = ()

    _key = staticmethod(operator.index)

    @classmethod
    def monomial(cls, power: int, coeff=RF_ONE) -> "LaurentPoly":
        return cls({power: coeff})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly.collect(
            (e1 + e2, c1 * c2) for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()
        )

    def sorted_terms(self):
        return sorted(self.terms.items())

    @staticmethod
    def _term_text(e, c) -> str:
        if e == 0:
            return f"{c}*1"
        if e == 1:
            return f"{c}*D"
        return f"{c}*D^{e}"


def calkin_image(x: Element) -> LaurentPoly:
    """Image of x modulo compact operators, as a Laurent polynomial in D.

    Monomials containing C map to zero; B^l maps to D^l and A^l to
    (1-q)^(-l) D^(-l).  Multiplicativity of this map is checked by the
    test suite, not assumed here.
    """
    inv = RF_ONE / RF_ONE_MINUS_Q
    return LaurentPoly.collect(
        (-bw.a, c * inv**bw.a) if bw.a else (bw.b, c) for bw, c in x.terms.items() if bw.k == 0
    )


# -- identity verification ----------------------------------------------------


class IdentityReport(namedtuple("IdentityReport", "identity params lhs rhs difference verdict")):
    """One identity check: ``difference``, lhs - rhs, and ``verdict``,
    whether it is zero, are computed on construction."""

    __slots__ = ()

    def __new__(cls, identity: str, params: dict, lhs: Element, rhs: Element):
        diff = lhs - rhs
        return super().__new__(cls, identity, params, lhs, rhs, diff, diff.is_zero())

    def __getnewargs__(self):
        return self[:4]


def verify_fredholm_relations():
    """Check the two invertibility-modulo-compacts relations
    (1-q)BA = I - C and (1-q)AB = I - qC."""
    q = RatFun.q_power(1)
    left = IdentityReport(
        identity="fredholm-left",
        params={},
        lhs=multiply(B, A).scale(RF_ONE_MINUS_Q),
        rhs=I - C,
    )
    right = IdentityReport(
        identity="fredholm-right",
        params={},
        lhs=multiply(A, B).scale(RF_ONE_MINUS_Q),
        rhs=I - C.scale(q),
    )
    return left, right


def gamma(k: int) -> Element:
    """The nested commutator (ad B)((-ad C)^k([C, A])), computed literally."""
    if k < 0:
        raise ValueError("gamma index must be nonnegative")
    g = bracket(B, ad_power(C, k + 1, A))
    return -g if k & 1 else g


def build_ck_al_via_ad(k: int, l: int) -> Element:
    """C^(k+1) A^l reconstructed from nested commutators:
    -((-ad C)^k ((-ad A)^(l+1) B)) / ((1-q)^l (q^l - 1)^k)."""
    if k < 0 or l < 1:
        raise ValueError("need k >= 0 and l >= 1")
    denom = RF_ONE_MINUS_Q**l * (RatFun.q_power(l) - RF_ONE) ** k
    return ad_power(C, k, ad_power(A, l + 1, B)).scale((-1) ** (k + l) / denom)


def build_bl_ck_via_ad(k: int, l: int) -> Element:
    """B^l C^(k+1) reconstructed from nested commutators:
    ((ad B)^(l-1) ((ad C)^k [C, B])) / ((q-1)^(k+1) (1-q^(k+1))^(l-1))."""
    if k < 0 or l < 1:
        raise ValueError("need k >= 0 and l >= 1")
    t = ad_power(B, l - 1, ad_power(C, k + 1, B))
    q = RatFun.q_power(1)
    denom = (q - RF_ONE) ** (k + 1) * (RF_ONE - RatFun.q_power(k + 1)) ** (l - 1)
    return t.scale(denom.inverse())


def gamma_closed_form_rhs(k: int) -> Element:
    """The claimed closed form for gamma(k):
    q^(-k) (q-1)^(k+1) {k+1}_q C^(k+2)  -  q^(1-k) (q-1)^(k+1) {k}_q C^(k+1).

    Shipped separately from :func:`gamma` so the suite can report the exact
    difference between the literal bracket computation and this expression.
    """
    q = RatFun.q_power(1)
    sign = (q - RF_ONE) ** (k + 1)
    first = RatFun.q_power(-k) * sign * qbracket(k + 1)
    second = RatFun.q_power(1 - k) * sign * qbracket(k)
    return Element({BasisWord(0, k + 2, 0): first, BasisWord(0, k + 1, 0): -second})


def gamma_sum_rhs(k: int) -> Element:
    """(q^k / {k+1}_q) * sum_{i=0..k} (q-1)^(-(i+1)) gamma(i), which is
    claimed to rebuild C^(k+2) from the engine-computed gamma values; one
    chain t = (ad C)^(i+1) A, stepped once per i, serves every gamma(i), and
    s = (-1)^i (q-1)^(-(i+1)), the factor of [B, t], steps by 1/(1-q)."""
    step = RF_ONE / RF_ONE_MINUS_Q
    s = -RF_ONE
    pairs = []
    t = A
    for _ in range(k + 1):
        t = bracket(C, t)
        s = s * step
        pairs.extend((bw, s * c) for bw, c in bracket(B, t).terms.items())
    return Element.collect(pairs).scale(RatFun.q_power(k) / qbracket(k + 1))


def verify_identity_suite(kmax: int, lmax: int):
    """Exact reports for the nested-commutator reconstruction identities.

    The monomial rebuilds are expected to hold exactly; the two gamma
    comparisons are reported with their exact difference elements whatever
    the verdict, since this is a verification tool, not an assumption.
    """
    if kmax < 1 or lmax < 1:
        raise ValueError("kmax and lmax must be at least 1")
    reports = []
    for k in range(kmax + 1):
        for l in range(1, lmax + 1):
            reports.append(
                IdentityReport(
                    identity="ck-al-bracket-build",
                    params={"k": k, "l": l},
                    lhs=build_ck_al_via_ad(k, l),
                    rhs=Element.monomial(0, k + 1, l),
                )
            )
            reports.append(
                IdentityReport(
                    identity="bl-ck-bracket-build",
                    params={"k": k, "l": l},
                    lhs=build_bl_ck_via_ad(k, l),
                    rhs=Element.monomial(l, k + 1, 0),
                )
            )
    for k in range(kmax + 1):
        reports.append(
            IdentityReport(
                identity="gamma-closed-form",
                params={"k": k},
                lhs=gamma(k),
                rhs=gamma_closed_form_rhs(k),
            )
        )
        reports.append(
            IdentityReport(
                identity="ck-from-gamma-sum",
                params={"k": k},
                lhs=Element.monomial(0, k + 2, 0),
                rhs=gamma_sum_rhs(k),
            )
        )
    return reports


# -- exact application to basis vectors ---------------------------------------


class SqrtScalar(namedtuple("SqrtScalar", "coeff radicand")):
    """A scalar of the form coeff * sqrt(prod of q-integers {m}_q over the
    radicand indices).  A radicand is a run, a ``range`` of consecutive
    indices, so scalars that must cancel share a radicand and merge exactly."""

    __slots__ = ()

    def __str__(self) -> str:
        if not self.radicand:
            return str(self.coeff)
        prod = "*".join("{%d}" % m for m in self.radicand)
        return f"{self.coeff}*sqrt({prod})"


class KetImage(LinComb):
    """Exact image of a basis vector under an element: a combination of
    square-root scalars keyed by (target index, radicand run).  The zero
    combination is the zero vector."""

    __slots__ = ()

    def targets(self):
        return sorted({target for target, _rad in self.terms})

    def scalars(self, target: int):
        # runs in the order of their index lists, read off the first index and
        # the length: ranges cannot be compared with <
        terms = [(rad, c) for (t, rad), c in self.terms.items() if t == target]
        terms.sort(key=lambda term: (tuple(term[0][:1]), len(term[0])))
        return [SqrtScalar(c, rad) for rad, c in terms]

    def numeric(self, q0) -> dict:
        """Float value per target index at a rational q0: exact rational
        coefficient and radicand, one final rounding per scalar."""
        out = {}
        for (target, rad), c in self.terms.items():
            cval = c.evaluate(q0)
            if cval == 0:
                continue
            rval = 1
            for m in rad:
                rval *= qbracket_value(m, q0)
            value = signed_root(cval.numerator, cval.denominator, rval.numerator, rval.denominator)
            out[target] = out.get(target, 0.0) + value
        return {target: v for target, v in out.items() if v != 0.0}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for target in self.targets():
            body = " + ".join(str(s) for s in self.scalars(target))
            parts.append(f"({body})*v_{target}")
        return " + ".join(parts)


def apply_symbolic(x: Element, n: int) -> KetImage:
    """Exact image of the basis vector v_n under x."""
    if n < 0:
        raise ValueError("basis index must be nonnegative")
    pairs = []
    for bw, c in x.terms.items():
        if n < bw.a:
            continue
        m = n - bw.a
        pairs.append(((m + bw.b, range(m + 1, m + 1 + bw.a + bw.b)), c * RatFun.q_power(bw.k * m)))
    return KetImage.collect(pairs)


# -- Lie surrogates for pure generator powers ---------------------------------


def lie_surrogate(c, side: str, l: int, n: int, k: int) -> Element:
    """A monomial containing C whose action on v_n matches that of c*B^l
    (side "B") or c*A^l (side "A"): q^(-kn) B^l C^k respectively
    q^(k(l-n)) C^k A^l, scaled by c."""
    if l < 2:
        raise ValueError("surrogates are defined for generator powers l >= 2")
    if k < 1:
        raise ValueError("surrogate C-exponent k must be positive")
    if n < 0:
        raise ValueError("basis index must be nonnegative")
    c = as_ratfun(c)
    if side == "B":
        return Element.monomial(l, k, 0, c * RatFun.q_power(-k * n))
    if side == "A":
        return Element.monomial(0, k, l, c * RatFun.q_power(k * (l - n)))
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def surrogate_residual(c, side: str, l: int, n: int, k: int) -> KetImage:
    """(c*Z - surrogate) applied to v_n, where Z is the pure power; the
    contract is that this is exactly the zero image."""
    c = as_ratfun(c)
    surrogate = lie_surrogate(c, side, l, n, k)
    z = Element.monomial(l, 0, 0, c) if side == "B" else Element.monomial(0, 0, l, c)
    return apply_symbolic(z - surrogate, n)
