"""Exact coefficient arithmetic: rational functions of the deformation
parameter q over the rationals.

All values are immutable and kept in a canonical form, so structural
equality is semantic equality:

* ``QPolynomial`` is a read-only view: a dense coefficient tuple in
  ascending degree with ordinary rationals (`fractions.Fraction`) as
  entries and no trailing zero.  It is what ``RatFun.num``/``den`` return
  and what ``RatFun(num, den)`` and JSON input take; it has no arithmetic.
* ``RatFun`` stores a value as (cn / cd) * q^v * (q - 1)^w * N / D.  The
  content cn / cd is a pair of integers in lowest terms with cd > 0 and
  cn = 0 only for zero; the valuations v and w are any integers, a negative
  one putting its factor in the denominator; ``N`` and ``D`` are primitive
  integer coefficient tuples (ascending degree, content 1, positive leading
  coefficient) with gcd(N, D) = 1 and N(0), N(1), D(0), D(1) all nonzero.
  Those six parts are unique for each rational function and are all a
  ``RatFun`` stores.  Its public face, the reduced fraction ``num``/``den``
  with a *monic* denominator, is read from them on each use, with no cache.
* ``LinComb`` is a finite linear combination with ``RatFun`` coefficients
  over hashable keys, stored as a term map with no zero coefficient.  The
  engine's algebra elements, free word sums, Laurent images and ket images
  are its subclasses, and ``LinComb.collect`` is the one place where terms
  are summed.

The deformed relations only ever divide by q and by 1 - q (AB - qBA = I,
(1 - q)BA = I - C), so carrying those two factors as valuations keeps most
coefficients at D = 1 and their dense cores short.  All arithmetic is
fraction-free and runs on the integers and integer tuples, by module-private
functions; it computes a gcd only where a common factor can appear.  A
product adds the valuations and cross-cancels gcd(N1, D2) and gcd(N2, D1),
and by Gauss's lemma nothing else can cancel; the contents cross-cancel the
same way, gcd(cn1, cd2) and gcd(cn2, cd1) (Knuth, TAOCP vol. 2, 4.5.1).
Where all four cores are 1 (c q^v (q - 1)^w, most coefficients of the
identity suite), it ends there.  A value holds its six parts as one tuple
in its one slot, ``_p``: it is built by one store through the bound slot
setter and read by one unpacking.
A sum aligns both valuations to the smaller ones, combines, and strips q and
q - 1 from the result by its constant term and its coefficient sum
(synthetic division at q = 1).  Over one denominator D it then takes one gcd
of the new numerator with D; otherwise it follows Henrici, splitting off
g = gcd(D1, D2) so that only g can share a factor with the new numerator,
and no polynomial gcd runs unless both D differ from 1; the new content then
takes one integer gcd.
Powers need no gcd.  The gcd is a primitive polynomial remainder sequence
over the integers (Collins 1967; Brown & Traub 1971); ``QPolynomial.gcd``
strips q and q - 1 first, as sums do, and runs it on what is left.

The q-integer {n}_q = 1 + q + ... + q^(n-1), the tuple of n ones, is the
core that the deformed relations make most often (every step of a bracket
chain multiplies by one), and the three kernels read it off its length.  A
product a {n}_q is the sums of n consecutive coefficients of a, each the
difference of two entries of one prefix sum (``accumulate``), so it costs
O(len a + n) steps at C level rather than len a * n multiply-adds.  Since
q^m - 1 and q^n - 1 are products of cyclotomic polynomials, gcd({m}_q,
{n}_q) = {gcd(m, n)}_q, and {m}_q / {g}_q = 1 + q^g + q^(2g) + ... +
q^(m-g) where g divides m; a gcd or quotient of equal operands is read off
at once.  None of these takes a remainder sequence.  Each result tuple is
built from a list, whose exact length the tuple takes over.

``Fraction`` appears only at the boundary, where values enter or leave as
rational numbers: the coefficients of ``QPolynomial`` (so ``num``, ``den``
and polynomial input), the value of ``evaluate``, and ``==`` against a
``Fraction``.  An int scalar enters without one, and a constant still
hashes as the number it equals.

Coefficients are real rational functions throughout; complex conjugation
acts as the identity on them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import frexp, gcd, lcm, ldexp, sqrt
from operator import sub
from sys import float_info, hash_info


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its
    denominator."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _as_pair(c) -> tuple:
    """An int or a ``Fraction`` as (numerator, denominator) in lowest terms
    with a positive denominator."""
    if isinstance(c, int):
        return int(c), 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _pair_hash(cn: int, cd: int) -> int:
    """hash(Fraction(cn, cd)) of a reduced pair, by Python's rule for the
    hash of a rational number, without building the ``Fraction``."""
    try:
        h = hash(hash(abs(cn)) * pow(cd, -1, hash_info.modulus))
    except ValueError:  # cd is a multiple of the modulus
        h = hash_info.inf
    h = h if cn >= 0 else -h
    return -2 if h == -1 else h


# -- integer polynomials: ascending int tuples with no trailing zero ----------

_ONE = (1,)


def _primitive(p: tuple):
    """(content, primitive part) of a nonzero integer polynomial; the content
    carries the sign that makes the leading coefficient positive."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    if g == 1:
        return 1, p
    return g, tuple(x // g for x in p)


def _strip(p: tuple):
    """(content, v, w, r) with p = content * q^v * (q - 1)^w * r for a
    nonzero integer polynomial p, r primitive with a positive leading
    coefficient and r(0), r(1) nonzero."""
    v = 0
    while not p[v]:
        v += 1
    if v:
        p = p[v:]
    w = 0
    while not sum(p):
        # p = (q - 1) r with r_i = -(p_0 + ... + p_i); the sign is put
        # back on the content
        p = tuple(accumulate(p[:-1]))
        w += 1
    content, p = _primitive(p)
    return (-content if w & 1 else content), v, w, p


def _q_minus_1_power(w: int) -> tuple:
    """(q - 1)^w, from one binomial row."""
    row = [0] * (w + 1)
    c = 1
    for i in range(w + 1):
        row[w - i] = -c if i & 1 else c
        c = c * (w - i) // (i + 1)
    return tuple(row)


def _mul(a: tuple, b: tuple) -> tuple:
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    if a.count(1) == len(a):
        a, b = b, a
    n = len(b)
    if b.count(1) == n:
        # a times the q-integer {n}_q: the sums of n consecutive coefficients
        # of a, each the difference of two of its prefix sums
        s = [*accumulate(a + (0,) * (n - 1))]
        return tuple([*map(sub, s, [0] * n + s[: len(a) - 1])])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _pow(p: tuple, e: int) -> tuple:
    if p == _ONE:
        return p
    n = len(p)
    if p.count(1) == n:
        # the q-integer {n}_q to the e is (q^n - 1)^e, which is sparse,
        # divided synthetically by (q - 1)^e: e prefix sums, whose signs
        # (-1)^e are folded into the binomial row
        out = [0] * (n * e + 1)
        c = 1
        for i in range(e + 1):
            out[n * i] = -c if i & 1 else c
            c = c * (e - i) // (i + 1)
        for _ in range(e):
            out = list(accumulate(out[:-1]))
        return tuple(out)
    out = _ONE
    while e:
        if e & 1:
            out = _mul(out, p)
        e >>= 1
        if e:
            p = _mul(p, p)
    return out


def _combine(x: int, a: tuple, y: int, b: tuple) -> tuple:
    """x*a + y*b, with trailing zeros removed."""
    if len(a) < len(b):
        x, a, y, b = y, b, x, a
    out = [x * c for c in a]
    for i, c in enumerate(b):
        out[i] += y * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _divexact(a: tuple, b: tuple) -> tuple:
    """a / b where the primitive polynomial b divides a; by Gauss's lemma the
    quotient has integer coefficients, so every step divides exactly."""
    if b == _ONE:
        return a
    if a == b:
        return _ONE
    n = len(b)
    if b.count(1) == n and a.count(1) == len(a):
        # {m}_q / {n}_q = 1 + q^n + q^(2n) + ... + q^(m - n), where n | m
        out = [0] * (len(a) - n + 1)
        out[::n] = [1] * (len(a) // n)
        return tuple(out)
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            f = c // lead
            quot[i - db] = f
            for j in range(db):
                rem[i - db + j] -= f * b[j]
    return tuple(quot)


def _prem(a: tuple, b: tuple) -> tuple:
    """Remainder of a nonzero integer multiple of a on division by b, with
    len(a) >= len(b) >= 2; the leading term is scaled only where the
    division does not go exactly."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) > db:
        c = r[-1]
        s = len(r) - 1 - db
        if c % lead:
            g = gcd(c, lead)
            m = lead // g
            r = [m * x for x in r]
            c //= g
        else:
            c //= lead
        for j in range(db):
            r[s + j] -= c * b[j]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd, with positive leading coefficient, of two nonzero
    primitive polynomials with positive leading coefficients."""
    if a == b:
        return a
    if a == _ONE or b == _ONE:
        return _ONE
    if a.count(1) == len(a) and b.count(1) == len(b):
        # gcd(q^m - 1, q^n - 1) = q^gcd(m, n) - 1
        return (1,) * gcd(len(a), len(b))
    if len(a) < len(b):
        a, b = b, a
    # a primitive remainder sequence; a primitive constant is (1,)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            break
        a, b = b, _primitive(r)[1]
    return b


def _exact_quotient(a: int, b: int):
    """a / b as an int where b divides a, else as a ``Fraction``."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _homogeneous(p: tuple, u: int, v: int) -> int:
    """v^deg(p) * p(u/v), as an integer."""
    acc, vp = 0, 1
    for x in reversed(p):
        acc = acc * u + x * vp
        vp *= v
    return acc


def _poly_text(coeffs, offset: int = 0) -> str:
    """q^offset times the polynomial of ascending coefficients (ints or
    Fractions, no trailing zero) as a re-parseable polynomial in q."""
    if not coeffs:
        return "0"
    pieces = []
    for d, c in enumerate(coeffs, offset):
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


class QPolynomial:
    """Read-only polynomial in q with rational coefficients, dense ascending
    storage: the ``num``/``den`` view of a ``RatFun`` and the polynomial
    input form of ``RatFun(num, den)``.  It has no arithmetic of its own.

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

    def __reduce__(self):
        return QPolynomial, (self.coeffs,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _integral(self):
        """(cn, cd, P) with self = (cn / cd) * P for a primitive integer
        polynomial P with positive leading coefficient, cn / cd in lowest
        terms and cd > 0; self is nonzero."""
        cs = self.coeffs
        den = lcm(*(x.denominator for x in cs))
        content, prim = _primitive(tuple(x.numerator * (den // x.denominator) for x in cs))
        # a coefficient whose denominator holds the full power of a prime p
        # of den scales to a numerator prime to p, so the pair is reduced
        return content, den, prim

    def gcd(self, other: "QPolynomial") -> "QPolynomial":
        """Monic gcd; the gcd with the zero polynomial is the other
        argument made monic."""
        a, b = (other, self) if self.is_zero() else (self, other)
        if a.is_zero():
            return a
        g = a._integral()[2]
        if not b.is_zero():
            _, va, wa, g = _strip(g)
            _, vb, wb, h = _strip(b._integral()[2])
            g = (0,) * min(va, vb) + _mul(_gcd(g, h), _q_minus_1_power(min(wa, wb)))
        return QPolynomial(tuple(Fraction(x, g[-1]) for x in g))

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("QPolynomial", self.coeffs))

    def __str__(self) -> str:
        return _poly_text(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({self})"


_POLY_ONE = QPolynomial((1,))


def _poly(p) -> QPolynomial:
    if isinstance(p, QPolynomial):
        return p
    return QPolynomial(p if isinstance(p, (list, tuple)) else (p,))


_new = object.__new__


def _ratfun(cn: int, cd: int, v: int, w: int, n: tuple, d: tuple) -> "RatFun":
    """Wrap the six canonical parts (see the module docstring) as the one
    tuple of the ``_p`` slot."""
    out = _new(RatFun)
    _set_p(out, (cn, cd, v, w, n, d))
    return out


def _polynomial_parts(p: QPolynomial) -> tuple:
    """The canonical parts of the nonzero polynomial p, from its dense
    coefficients."""
    cn, cd, prim = p._integral()
    # prim is primitive with a positive leading coefficient, so its stripped
    # content is 1
    _, v, w, n = _strip(prim)
    return cn, cd, v, w, n, _ONE


def _product(x: tuple, y: tuple) -> "RatFun":
    """The product of the values with the canonical parts x and y, where y
    may also be the parts of a reciprocal with the sign moved up to its
    content."""
    a, b, v1, w1, n1, d1 = x
    c, d, v, w, n2, d2 = y
    if not a or not c:
        return RF_ZERO
    if d != 1:
        g = gcd(a, d)
        if g != 1:
            a, d = a // g, d // g
    if b != 1:
        g = gcd(c, b)
        if g != 1:
            c, b = c // g, b // g
    if n1 == d1 == n2 == d2 == _ONE:
        return _ratfun(a * c, b * d, v1 + v, w1 + w, _ONE, _ONE)
    if n1 != _ONE and d2 != _ONE:
        g = _gcd(n1, d2)
        if g != _ONE:
            n1, d2 = _divexact(n1, g), _divexact(d2, g)
    if n2 != _ONE and d1 != _ONE:
        g = _gcd(n2, d1)
        if g != _ONE:
            n2, d1 = _divexact(n2, g), _divexact(d1, g)
    return _ratfun(a * c, b * d, v1 + v, w1 + w, _mul(n1, n2), _mul(d1, d2))


def _quotient(x: tuple, y: tuple) -> "RatFun":
    """The quotient of the values with the canonical parts x and y != 0: x
    times the reciprocal of y, with the sign of its content moved up."""
    c, d, v, w, n, dd = y
    if c < 0:
        c, d = -c, -d
    return _product(x, (d, c, -v, -w, dd, n))


class RatFun:
    """Rational function num/den in q, reduced with a monic denominator.

    The canonical representative is unique, so ``==`` over ``RatFun`` is
    equality in the field of rational functions.  The value is stored only
    as the six parts (cn / cd) * q^v * (q - 1)^w * N / D of the module
    docstring, all integers, held as the one tuple ``_p``; ``num``, ``den``,
    the text and the sort key are computed from them on each use, with no
    cache, and equal those of the reduced fraction whatever the split.
    ``Fraction`` appears only where a value leaves or enters as rational
    numbers: the ``QPolynomial`` coefficients of ``num``, ``den`` and
    ``RatFun(num, den)``, the value of ``evaluate``, and ``==`` against a
    ``Fraction``; a constant hashes as the number it equals.
    """

    __slots__ = ("_p",)

    def __new__(cls, num, den=_POLY_ONE):
        num, den = _poly(num), _poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RF_ZERO
        return _quotient(_polynomial_parts(num), _polynomial_parts(den))

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    def __delattr__(self, name):
        raise AttributeError("RatFun is immutable")

    def __reduce__(self):
        return _ratfun, self._p

    # the parts one at a time, for tests and cold code; the arithmetic
    # unpacks ``_p`` in one step
    _cn = property(lambda self: self._p[0])
    _cd = property(lambda self: self._p[1])
    _v = property(lambda self: self._p[2])
    _w = property(lambda self: self._p[3])
    _n = property(lambda self: self._p[4])
    _d = property(lambda self: self._p[5])

    def _cores(self):
        """N and D with (q - 1)^|w| multiplied into the side it belongs to,
        from one binomial row."""
        _, _, _, w, n, d = self._p
        if w > 0:
            n = _mul(n, _q_minus_1_power(w))
        elif w < 0:
            d = _mul(d, _q_minus_1_power(-w))
        return n, d

    def _monic(self):
        """(num, vn, den, vd): the coefficients of ``num`` and ``den`` are
        those of q^vn * num and q^vd * den, the cores times (cn / (cd lead(D)))
        and 1 / lead(D): ints where they are integral, ``Fraction`` values
        otherwise."""
        n, d = self._cores()
        sn, sd, v, _, _, _ = self._p
        lead = d[-1]
        if lead != 1:
            d = tuple(_exact_quotient(x, lead) for x in d)
            g = gcd(sn, lead)
            sn, sd = sn // g, sd * (lead // g)
        if sd == 1:
            n = tuple(sn * x for x in n)
        else:
            n = tuple(_exact_quotient(sn * x, sd) for x in n)
        return n, max(v, 0), d, max(-v, 0)

    def _monic_coeffs(self):
        """Dense coefficients of ``num`` and ``den``."""
        n, vn, d, vd = self._monic()
        return (0,) * vn + n, (0,) * vd + d

    @property
    def num(self) -> QPolynomial:
        """Reduced numerator over the monic ``den``."""
        return QPolynomial(self._monic_coeffs()[0])

    @property
    def den(self) -> QPolynomial:
        """Monic denominator, coprime to ``num``."""
        return QPolynomial(self._monic_coeffs()[1])

    @classmethod
    def zero(cls) -> "RatFun":
        return RF_ZERO

    @classmethod
    def one(cls) -> "RatFun":
        return RF_ONE

    @classmethod
    def from_fraction(cls, c) -> "RatFun":
        """The constant c, an int or a ``Fraction``."""
        cn, cd = _as_pair(c)
        return _ratfun(cn, cd, 0, 0, _ONE, _ONE) if cn else RF_ZERO

    @classmethod
    def q_power(cls, e: int) -> "RatFun":
        """q^e for any integer e (negative exponents allowed)."""
        return _ratfun(1, 1, e, 0, _ONE, _ONE)

    def is_zero(self) -> bool:
        return not self._p[0]

    def is_one(self) -> bool:
        return self._p == RF_ONE._p

    def _is_constant(self) -> bool:
        _, _, v, w, n, d = self._p
        return not v and not w and len(n) <= 1 and d == _ONE

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.from_fraction(other)
        return None

    def __add__(self, other):
        other = other if type(other) is RatFun else self._coerce(other)
        if other is None:
            return NotImplemented
        c1, r1, v1, w1, n1, d1 = self._p
        c2, r2, v2, w2, n2, d2 = other._p
        if not c1:
            return other
        if not c2:
            return self
        # c1/r1 + c2/r2 over their least common denominator: (x1 + x2) / den
        k = gcd(r1, r2)
        x1, x2, den = c1 * (r2 // k), c2 * (r1 // k), r1 // k * r2
        # both over q^v (q - 1)^w, the smaller valuations
        v, w = min(v1, v2), min(w1, w2)
        if w1 != w2:
            n1 = _mul(n1, _q_minus_1_power(w1 - w))
            n2 = _mul(n2, _q_minus_1_power(w2 - w))
        # (0,) * 0 is empty
        n1, n2 = (0,) * (v1 - v) + n1, (0,) * (v2 - v) + n2
        if d1 == d2:
            s = _combine(x1, n1, x2, n2)
            if not s:
                return RF_ZERO
            h = d = d1
        else:
            # Henrici: over h * e1 * e2 only h can share a factor with s; h
            # is 1 at once where either D is 1
            h = _gcd(d1, d2)
            e1, e2 = _divexact(d1, h), _divexact(d2, h)
            s = _combine(x1, _mul(n1, e2), x2, _mul(n2, e1))
            d = _mul(e1, d2)
        content, sv, sw, s = _strip(s)
        if h != _ONE:
            g = _gcd(s, h)
            if g != _ONE:
                s, d = _divexact(s, g), _divexact(d, g)
        k = gcd(content, den)
        return _ratfun(content // k, den // k, v + sv, w + sw, s, d)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        cn, cd, v, w, n, d = self._p
        return _ratfun(-cn, cd, v, w, n, d) if cn else self

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
        other = other if type(other) is RatFun else self._coerce(other)
        if other is None:
            return NotImplemented
        return _product(self._p, other._p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._p[0]:
            raise ZeroDivisionError("division by the zero rational function")
        return _quotient(self._p, other._p)

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
        if e == 0:
            return RF_ONE
        cn, cd, v, w, n, d = self._p
        if not cn:
            return self
        return _ratfun(cn**e, cd**e, v * e, w * e, _pow(n, e), _pow(d, e))

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point; raises ``PoleError`` at a
        zero of the (reduced) denominator."""
        q0 = _as_fraction(q0)
        u, t = q0.numerator, q0.denominator
        cn, cd, v, w, n, d = self._p
        # q0^v (q0 - 1)^w N(q0) / D(q0)
        #   = u^v (u - t)^w nv / (dv t^(v + w + deg N - deg D))
        nv = cn * _homogeneous(n, u, t)
        dv = cd * _homogeneous(d, u, t)
        if v > 0:
            nv *= u**v
        elif v < 0:
            dv *= u**-v
        if w > 0:
            nv *= (u - t) ** w
        elif w < 0:
            dv *= (u - t) ** -w
        if not dv:
            raise PoleError(f"pole of {self} at q = {q0}")
        shift = len(d) - len(n) - v - w
        if shift >= 0:
            nv *= t**shift
        else:
            dv *= t**-shift
        return Fraction(nv, dv)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFun):
            return self._p == other._p
        if isinstance(other, (int, Fraction)):
            return self._p[:2] == _as_pair(other) and self._is_constant()
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as the number it equals; otherwise the hash is
        # that of (Fraction(cn, cd), N, D) for the dense primitive numerator
        # and denominator, since a tuple hash combines the hashes of its
        # items and the hash of a rational is a fixed point
        cn, cd, v, w, n, d = self._p
        h = _pair_hash(cn, cd)
        if not v and not w and len(n) <= 1 and d == _ONE:
            return h
        n, d = self._cores()
        # (0,) * v is empty for v <= 0
        return hash((h, (0,) * v + n, (0,) * -v + d))

    def sort_key(self):
        return self._monic_coeffs()

    def __str__(self) -> str:
        num, vn, den, vd = self._monic()
        if not vd and den == _ONE:
            return f"({_poly_text(num, vn)})"
        return f"({_poly_text(num, vn)})/({_poly_text(den, vd)})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


_set_p = RatFun._p.__set__

RF_ZERO = _ratfun(0, 1, 0, 0, (), _ONE)
RF_ONE = _ratfun(1, 1, 0, 0, _ONE, _ONE)
RF_Q = RatFun.q_power(1)
#: 1 - q = -(q - 1), the denominator that pervades the deformed relations.
RF_ONE_MINUS_Q = _ratfun(-1, 1, 0, 1, _ONE, _ONE)


def over_one_minus_q(p: list, v: int, m: int) -> RatFun:
    """q^v P(q) / (1 - q)^m for integer coefficients P (ascending) and any
    integers v and m, built as its canonical parts with no gcd: stripping q
    and q - 1 from P leaves a core with no factor to share."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    if not p:
        return RF_ZERO
    content, low, k, n = _strip(tuple(p))
    # (1 - q)^-m = (-1)^m (q - 1)^-m
    return _ratfun(-content if m & 1 else content, 1, v + low, k - m, n, _ONE)


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
    return _ratfun(1, 1, 0, 0, (1,) * n, _ONE) if n else RF_ZERO


def qbracket_value(n: int, q0) -> Fraction:
    """Exact value of the q-integer at a rational point q0."""
    if n < 0:
        raise ValueError("qbracket is defined for nonnegative integers")
    q0 = _as_fraction(q0)
    if q0 == 1:
        return Fraction(n)
    return (1 - q0**n) / (1 - q0)


#: 2^-1022, the smallest normal double
_MIN_NORMAL = float_info.min


def signed_root(cn: int, cd: int, rn: int, rd: int) -> float:
    """The float c * sqrt(r) for c = cn/cd != 0 and r = rn/rd > 0, from
    integers with cd, rn, rd positive and neither fraction reduced: the
    ``scaled_root`` of c^2 r = cn^2 rn / (cd^2 rd), with the sign of c.
    """
    mag = scaled_root(cn * cn * rn, cd * cd * rd)
    return mag if cn > 0 else -mag


def scaled_root(num: int, den: int) -> float:
    """The float sqrt(num/den) for num >= 0 and den > 0, at any magnitude,
    from integers that need not be reduced: the square root of num/den
    rounded once.  Int true division rounds correctly for operands of any
    size, so where the unreduced quotient is a normal double it gives the
    double that ``float`` of the reduced ``Fraction`` gives, and its root is
    returned.  Elsewhere the quotient is taken with 4^s times the
    denominator (or 4^-s times the numerator), so that it lies near 1, and
    the root is scaled back by 2^s, all exact, so small roots keep every
    bit; scaling by a power of four commutes with both roundings where the
    quotient is normal, so the two ways agree there.  The root of 0 is +0.0,
    and ``OverflowError`` means the root is no finite float."""
    try:
        square = num / den
        if square >= _MIN_NORMAL:
            return sqrt(square)
    except OverflowError:
        pass
    s = (num.bit_length() - den.bit_length()) // 2
    root = sqrt(num / (den << 2 * s) if s >= 0 else (num << -2 * s) / den)
    exp = frexp(root)[1] + s
    if exp > 1024:
        raise OverflowError(f"value >= 2^{exp - 1} is past the float range")
    return ldexp(root, s)


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
        _set_terms(self, self._sum(terms.items() if terms else ()))

    @staticmethod
    def _key(k):
        return k

    @classmethod
    def _sum(cls, pairs) -> dict:
        """The term map of ``collect``: a key leaves when its running sum is
        zero and goes to the end if it comes back; only new keys coerce."""
        key = cls._key
        acc = {}
        for k, c in pairs:
            k = key(k)
            prev = acc.get(k)
            if prev is not None:
                c = prev + c
            elif type(c) is not RatFun:
                c = as_ratfun(c)
            if c._p[0]:
                acc[k] = c
            elif prev is not None:
                del acc[k]
        return acc

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a term map that already has coerced keys and no zeros."""
        out = _new(cls)
        _set_terms(out, terms)
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

    def __reduce__(self):
        return self._of, (self.terms,)

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
        c = c if type(c) is RatFun else as_ratfun(c)
        if c is RF_ONE:
            return self
        if not c._p[0]:
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


_set_terms = LinComb.terms.__set__
