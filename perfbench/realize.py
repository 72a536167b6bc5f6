"""The benchmark's own float realization of the shift representation.

It is written from the defining formulas, not from ``qheis.spectral`` or
``qheis.lie``, so that it can serve as an independent oracle:

    B . v_n = sqrt({n+1}_q) v_(n+1),   A . v_n = sqrt({n}_q) v_(n-1),
    C . v_n = q^n v_n,                 {m}_q = (1 - q^m) / (1 - q).

Vectors are sparse dicts from basis index to float and are kept in the
infinite model (apply-then-project), so no truncation error enters a
column.  Coefficients of an element are evaluated exactly at a rational q
from their public numerator and denominator coefficient lists and rounded
once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def qint(m: int, q: float) -> float:
    """The q-integer {m}_q as a float."""
    return (1.0 - q**m) / (1.0 - q)


def coeff_value(c, q: Fraction) -> float:
    """Exact value of a rational function of q at the rational point q,
    read from its ``num``/``den`` coefficient tuples, rounded once."""
    num = sum((a * q**i for i, a in enumerate(c.num.coeffs)), Fraction(0))
    den = sum((a * q**i for i, a in enumerate(c.den.coeffs)), Fraction(0))
    return float(num / den)


def monomial_weight(b: int, k: int, a: int, n: int, q: float):
    """Image of v_n under B^b C^k A^a as (target index, weight), or None
    when A^a annihilates v_n."""
    if n < a:
        return None
    m = n - a
    rad = 1.0
    for i in range(a):
        rad *= qint(n - i, q)
    for j in range(1, b + 1):
        rad *= qint(m + j, q)
    return m + b, q ** (k * m) * math.sqrt(rad)


class Realization:
    """Float action of qheis elements at one rational q, with a cache of
    evaluated coefficients."""

    def __init__(self, q: Fraction):
        self.q_exact = Fraction(q)
        self.q = float(self.q_exact)
        self._values = {}

    def value(self, c) -> float:
        v = self._values.get(c)
        if v is None:
            v = self._values[c] = coeff_value(c, self.q_exact)
        return v

    def apply(self, x, vec: dict, absolute: bool = False) -> dict:
        """x applied to a sparse vector.  With ``absolute`` every
        coefficient and entry enters with its magnitude, which bounds the
        size of the terms that were summed (the scale for a tolerance)."""
        out = {}
        for bw, c in x.terms.items():
            cv = self.value(c)
            if absolute:
                cv = abs(cv)
            for n, vn in vec.items():
                hit = monomial_weight(bw.b, bw.k, bw.a, n, self.q)
                if hit is None:
                    continue
                target, w = hit
                out[target] = out.get(target, 0.0) + cv * w * (abs(vn) if absolute else vn)
        return out

    def column(self, x, n: int) -> dict:
        return self.apply(x, {n: 1.0})

    def matrix(self, x, N: int) -> np.ndarray:
        """Dense N x N truncation with apply-then-project columns."""
        out = np.zeros((N, N))
        for j in range(N):
            for i, v in self.column(x, j).items():
                if i < N:
                    out[i, j] = v
        return out

    def shift_matrices(self, N: int):
        """Truncated float matrices of A, B and C = AB - BA.  Products of
        these are wrong only near the truncation corner, so callers compare
        leading entries only."""
        b = np.zeros((N, N))
        for n in range(N - 1):
            b[n + 1, n] = math.sqrt(qint(n + 1, self.q))
        a = b.T.copy()
        return a, b, a @ b - b @ a


def close(got: float, want: float, scale: float, rel: float) -> bool:
    """|got - want| within ``rel`` times the magnitude of what was summed."""
    return abs(got - want) <= rel * max(scale, abs(want), 1e-300)
