"""Exact coefficient arithmetic: rational functions of the deformation
parameter q over the rationals.

All values are immutable and kept in a canonical form, so structural
equality is semantic equality:

* ``QPolynomial`` stores a dense coefficient tuple in ascending degree with
  ordinary rationals (`fractions.Fraction`) as entries and no trailing zero.
* ``RatFun`` stores a reduced fraction num/den of two polynomials with
  gcd(num, den) = 1 and a *monic* denominator.
* ``LinComb`` is a finite linear combination with ``RatFun`` coefficients
  over hashable keys, stored as a term map with no zero coefficient.  The
  engine's algebra elements, free word sums, Laurent images and ket images
  are its subclasses, and ``LinComb.collect`` is the one place where terms
  are summed.

Coefficients are real rational functions throughout; complex conjugation
acts as the identity on them.  Degrees stay small in this package (tens,
not thousands), so the polynomial gcd is a plain Euclidean algorithm over
the rationals.
"""

from __future__ import annotations

from fractions import Fraction


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its
    denominator."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


class QPolynomial:
    """Polynomial in q with rational coefficients, dense ascending storage.

    Invariant: the highest stored coefficient is nonzero; the zero
    polynomial stores an empty tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def zero(cls) -> "QPolynomial":
        return _POLY_ZERO

    @classmethod
    def one(cls) -> "QPolynomial":
        return _POLY_ONE

    @classmethod
    def q(cls) -> "QPolynomial":
        return _POLY_Q

    @classmethod
    def constant(cls, c) -> "QPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c, n: int) -> "QPolynomial":
        """c * q^n."""
        if n < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls((0,) * n + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _POLY_ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPolynomial(out)

    def scale(self, c) -> "QPolynomial":
        c = _as_fraction(c)
        if c == 0:
            return _POLY_ZERO
        return QPolynomial(tuple(c * x for x in self.coeffs))

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "QPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        if len(rem) - 1 < dd:
            return _POLY_ZERO, self
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / lead
            quot[i - dd] = f
            for j in range(dd + 1):
                rem[i - dd + j] -= f * div[j]
        return QPolynomial(quot), QPolynomial(rem)

    def __floordiv__(self, other: "QPolynomial") -> "QPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "QPolynomial") -> "QPolynomial":
        return divmod(self, other)[1]

    def monic(self) -> "QPolynomial":
        if self.is_zero() or self.leading == 1:
            return self
        return self.scale(1 / self.leading)

    def gcd(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, (a % b).monic()
        return a.monic()

    def __call__(self, q0: Fraction) -> Fraction:
        q0 = _as_fraction(q0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("QPolynomial", self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                body = str(c)
            else:
                var = "q" if d == 1 else f"q^{d}"
                if c == 1:
                    body = var
                elif c == -1:
                    body = f"-{var}"
                else:
                    body = f"{c}*{var}"
            pieces.append(body)
        text = pieces[0]
        for body in pieces[1:]:
            if body.startswith("-"):
                text += f" - {body[1:]}"
            else:
                text += f" + {body}"
        return text

    def __repr__(self) -> str:
        return f"QPolynomial({self})"


_POLY_ZERO = QPolynomial.__new__(QPolynomial)
object.__setattr__(_POLY_ZERO, "coeffs", ())
_POLY_ONE = QPolynomial((1,))
_POLY_Q = QPolynomial((0, 1))


class RatFun:
    """Rational function num/den in q, reduced with a monic denominator.

    The canonical representative is unique, so ``==`` over ``RatFun`` is
    equality in the field of rational functions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_POLY_ONE):
        if not isinstance(num, QPolynomial):
            num = QPolynomial.constant(num) if not isinstance(num, (list, tuple)) else QPolynomial(num)
        if not isinstance(den, QPolynomial):
            den = QPolynomial.constant(den) if not isinstance(den, (list, tuple)) else QPolynomial(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = _POLY_ZERO, _POLY_ONE
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def zero(cls) -> "RatFun":
        return RF_ZERO

    @classmethod
    def one(cls) -> "RatFun":
        return RF_ONE

    @classmethod
    def from_fraction(cls, c) -> "RatFun":
        return cls(QPolynomial.constant(c))

    @classmethod
    def q_power(cls, e: int) -> "RatFun":
        """q^e for any integer e (negative exponents allowed)."""
        if e >= 0:
            return cls(QPolynomial.monomial(1, e))
        return cls(_POLY_ONE, QPolynomial.monomial(1, -e))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == _POLY_ONE and self.den == _POLY_ONE

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.from_fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "RatFun":
        return RF_ONE / self

    def __pow__(self, e: int) -> "RatFun":
        if e < 0:
            return self.inverse() ** (-e)
        return RatFun(self.num**e, self.den**e)

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point; raises ``PoleError`` at a
        zero of the (reduced) denominator."""
        q0 = _as_fraction(q0)
        d = self.den(q0)
        if d == 0:
            raise PoleError(f"pole of {self} at q = {q0}")
        return self.num(q0) / d

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFun", self.num.coeffs, self.den.coeffs))

    def sort_key(self):
        return (self.num.coeffs, self.den.coeffs)

    def __str__(self) -> str:
        if self.den == _POLY_ONE:
            return f"({self.num})"
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


RF_ZERO = RatFun(_POLY_ZERO)
RF_ONE = RatFun(_POLY_ONE)
RF_Q = RatFun(_POLY_Q)
#: 1 - q, the denominator that pervades the deformed relations.
RF_ONE_MINUS_Q = RatFun(QPolynomial((1, -1)))


def as_ratfun(value) -> RatFun:
    """Coerce an int, Fraction, or RatFun to a RatFun."""
    out = RatFun._coerce(value)
    if out is None:
        raise TypeError(f"cannot interpret {type(value).__name__} as a rational function")
    return out


def qbracket(n: int) -> RatFun:
    """The q-integer 1 + q + ... + q^(n-1) = (1 - q^n)/(1 - q); 0 for n = 0."""
    if n < 0:
        raise ValueError("qbracket is defined for nonnegative integers")
    return RatFun(QPolynomial((1,) * n))


def qbracket_value(n: int, q0) -> Fraction:
    """Exact value of the q-integer at a rational point q0."""
    if n < 0:
        raise ValueError("qbracket is defined for nonnegative integers")
    q0 = _as_fraction(q0)
    if q0 == 1:
        return Fraction(n)
    return (1 - q0**n) / (1 - q0)


class LinComb:
    """Immutable finite linear combination: a term map key -> RatFun with no
    zero coefficient stored, so ``==`` on term maps is equality.

    Subclasses fix the keys (``_key`` coerces each one) and the rendering
    (``sorted_terms`` and ``_term_text``).  ``collect`` sums a stream of
    (key, coefficient) pairs: a key holds its running sum and leaves the map
    whenever that sum is zero, so summing whole combinations one after
    another through it keeps the term order that adding them with ``+`` one
    at a time gives.  Numeric code sums floats in term order, so that order
    is part of the result.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", self._sum(terms.items() if terms else ()))

    @staticmethod
    def _key(k):
        return k

    @classmethod
    def _sum(cls, pairs) -> dict:
        key = cls._key
        acc = {}
        for k, c in pairs:
            k = key(k)
            prev = acc.get(k)
            c = as_ratfun(c) if prev is None else prev + c
            if c.is_zero():
                acc.pop(k, None)
            else:
                acc[k] = c
        return acc

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a term map that already has coerced keys and no zeros."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def collect(cls, pairs):
        """Sum of the (key, coefficient) pairs as a new combination."""
        return cls._of(cls._sum(pairs))

    @classmethod
    def zero(cls):
        return cls._of({})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.collect((*self.terms.items(), *other.terms.items()))

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = as_ratfun(c)
        if c.is_zero():
            return self.zero()
        return self._of({k: c * x for k, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_text(k, c) for k, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"
