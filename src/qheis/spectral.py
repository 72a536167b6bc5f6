"""Floating-point realization of the algebra on a truncated basis.

B acts as the weighted shift with weights alpha_n = sqrt({n+1}_q), A as its
adjoint, and C^k as the diagonal operator with entries q^(kn).  Truncation
uses apply-then-project semantics: every matrix column is the exact action
on a basis vector in the infinite model, projected to rows below N.  Rows
>= N are never computed, so an entry outside the truncation costs no time
and cannot overflow.  Multiplying truncated matrices instead would corrupt
the last columns of shift powers, so products of elements are normalized
symbolically before they are materialized.

Floating-point policy: every monomial B^b C^k A^a is one band, sending v_n
to q^(k(n-a)) sqrt({n-a+1}_q ... {n-a+max(a,b)}_q) v_(n-a+b), so bands are
filled directly rather than through the symbolic ket action, one band at a
time over its own columns.  ``matrix`` stores each band as one strided
diagonal of the dense array, the decay report sums squares band by band,
and ``apply_numeric`` and the norms of a band of several terms take their
entries straight from the bands.  All exact work is on plain unreduced
Python ints and takes no gcd.  With q0 = u/v, each monomial coefficient is
evaluated at q0 once per call; the terms of a band keep integer numerators
over one integer denominator, stepped by powers of u and v from column to
column; and the q-integer radicands {m}_q = N_m / v^(m-1) come as their
numerators N_m from one table, computed as far as the columns read it.
Terms with equal (b, a) share target and radicand and merge exactly, as in
``lie.apply_symbolic``; each merged scalar c * sqrt(r) is then rounded
once, as the square root of c^2 r with the sign of c (``ratfun.signed_root``).
There is one root, ``ratfun.scaled_root``: the square root of one int/int
true division where that quotient is a normal double, else of the quotient
scaled by a power of four, and the root scaled back.
A band of one term c, which is every band of a sum of distinct monomials,
keeps c^2 r itself as running integers, formed in one place, ``_square``:
the square in column m + a is firsts[0] steps[0]^m R_m over firsts[1]
steps[1]^m, a running square times the radicand numerator R_m over the
square of the running denominator times the radicand denominator, each
stepped by one product.  Its columns are rounded in one pass at C level,
``map(truediv, ...)`` and then ``map(math.sqrt, ...)``, negated once where
c < 0: where a square is a normal double these are the doubles that
``scaled_root`` gives.  The squares rise, or rise and then fall, so those
below the normal range lie at the ends of the band, and the end-column
repair rounds those columns again, one ``scaled_root`` each.  A square past
the float range makes the one pass overflow; its entries are then all 0.0,
no column counts as normal, and the repair rounds the whole band.
Int true division rounds correctly for any operand size, so the unreduced quotient gives the double
that ``float`` of the reduced fraction gives: the values are the same exact
rationals that ``apply_symbolic(x, n).numeric(q0)`` rounds, wherever every
term coefficient is defined at q0, and the columns agree with it bit for
bit (the tests hold them to it as the exact oracle).  A term whose
coefficient has a pole at q0 raises ``PoleError``, also where
``apply_symbolic`` would merge it with another term into a coefficient
without that pole.  Weights are rounded once from the same integer
q-integers, so the 1e-12 comparisons in the test suite measure the
mathematics rather than accumulation error.

The radicand denominator of a band is a running power of v, stepped by v^h
from column to column; its numerator, the product of the h q-integer
numerators of the window, is multiplied out afresh for each column.  That
product has at most h (m + h) bit_length(v) bits in column m, and the
running numerators and denominator of a band whose largest C-power is K
have about K m bit_length(v) bits each, which enter the rounding squared:
a one-term band steps the squares, any other band squares them in each
column.  The operands of the division have the same bits either way, and a
fill whose last column would pass ``MAX_RADICAND_BITS`` in all is refused
before any power or q-integer is computed.  The running integers are
streamed, one column at a time; only the rounded entries are kept.

Past about 53 / log2(1/q) columns the compact part of the weights is below
one rounding (the Calkin image of B is (1-q)^(-1/2) times the unilateral
shift), and the exact arithmetic stops there.  {m}_q rises strictly toward
1/(1-q) = v/(v-u), and rounding to nearest is monotone, so once {m}_q
rounds to the double of v/(v-u), every later q-integer rounds to it too:
the weights, and through them the coherent vector, and the log weights of
the estimators round the exact q-integers up to that index only and repeat
the limit, with one square root or log of it, for the rest of the window
(m = 54 at q = 1/2, 131 at q = 3/4, 3700 at q = 99/100, past ``MAX_DIM``).
A band with no C is one term c B^b A^a, whose squared entries c^2 {m+1}_q
... {m+h}_q, h = a + b, rise strictly toward c^2 / (1-q)^h = c^2 v^h /
(v-u)^h.  The rounding is monotone in c^2 r: it rounds it once, takes
the square root, and, on the scaled route, scales by a power of two that is
exact or, below the normal range, rounds once more, each step monotone
whatever power of four the unreduced operands pick; so is the purge.  So
the fill of such a band, in the one pass and in the end-column repair
alike, stops at the first column whose entry equals the limit entry, which
``signed_root`` rounds from (cn, cd, v^h, (v-u)^h) and which takes the
guard of the entries (0.0 where c vanishes at q0 or the limit is purged,
never the -0.0 that ``signed_root`` gives of a zero c), and repeats it for
the remaining columns.  Where the limit itself is past the float range no
column equals it, and a column that is past it too raises as before.  The
q-integer numerators are one tee, read only as far as the columns read
them, so at q = 1/2 the 100-wide radicand window of B^100 is multiplied
out for 55 columns, not N - 100.  Bands with C decay toward 0, and near
q = 1 nothing saturates below ``MAX_DIM``: there the fill does the same
work as a fill without the stop.

The windowed geometric-mean estimators read one window each per length k.
The weights increase strictly, so the geometric mean of k consecutive
weights (Shields 1974) is largest at the last window inside the truncation,
alpha_(N-1-k) ... alpha_(N-2), and smallest at the first, alpha_0 ...
alpha_(k-1).  So each estimate is a running sum of log weights, from
alpha_(N-2) down for the radius and from alpha_0 up for the lower index,
with no search over the windows.  The radius estimate converges to
(1-q)^(-1/2) from below; the lower-index estimate equals (1-q)^(-1/2) *
prod_{i<k} (1-q^(i+1))^(1/2k), so its error decays like O(1/k).  That slow
rate is inherent to the formula, not a defect; the matching tolerance at
k = 500 is one percent.

The operator-norm default is exact, and rests on one principle: the
truncation is the direct sum of the components of its band graph, which
joins column j to row j + s for every offset s = b - a of a term.
Canonical words have min(b, a) = 0, so distinct (b, a) have distinct
offsets.  With s0 the least offset and g the gcd of the differences
s - s0, column j meets only rows congruent to j + s0 mod g, so the columns
of each residue class r mod g and the rows of class r + s0 hold whole
components, and the norm is the largest of the norms of these g blocks.
Bands with C decay like q^(kn), so far enough down the basis a block is,
to far below one rounding, only its non-compact part, and it is cut there.
With top the largest absolute entry of the truncation, which is at most
its norm, an entry is kept when it exceeds tau = 2^-64 top over the number
of bands.  The first and last kept row of each column are read off the
band diagonals.  Column p of a block starts a new piece when it keeps an
entry, an earlier column does too, and the largest row kept before p lies
above the least row kept from p on, where the rows split.  A piece that
keeps one entry gives its absolute value, any other piece the largest
singular value of its whole rectangle, dropped entries included, by one
LAPACK SVD; the norm is the largest of these.  Every entry outside that
sum of rectangles and single entries is dropped, at most tau, and the
dropped entries of one band form a partial weighted shift of norm at most
tau, so all of them together have norm at most 2^-64 top.  By Weyl's
inequality for singular values, |s_max(T) - s_max(T')| <= ||T - T'||, the
norm therefore moves by at most 2^-64 times itself, far below the 2^-53 of
one rounding, before LAPACK rounds it.  A block with no cut that keeps
more than one entry reaches LAPACK whole, so its norm is the one that SVD
gave before the cut, bit for bit.  No cut falls inside a block of A + B,
A + B + C or A + B^2 + C, and a C band at q = 99/100 stays above the cut
below MAX_DIM (q^n must pass n = 4400 to fall that far); there a block is
cut only where it already splits, at an edge of the truncation or at a
coefficient that vanishes at q0.  At q = 1/2, C + B keeps its C band only
in columns 0 ... 64, and LAPACK takes one 66 x 65 piece instead of the
whole truncation.

The cut is decided before the fill where x is a sum of one-term bands of
which one, c B^b A^a with offset s = b - a, has no C and a nonzero entry
inside.  Its entries rise toward their limit, so its largest is in its last
column inside; every other band with entries inside has C, peaks at the
column that ``_peak`` gives and falls past it: the entry of column m + a is
at most |c| q^(km) (1-q)^(-h/2), and |c| is at most the entry of column a,
so two logarithms give an m past which it is below tau.  The head is the
first H columns, H past a + 1, past each band's peak and that m by one
column, and by b - a - s more where that band's rows lie below those of the
live one.  It is filled, rows below H + s only; top is read from it at the
peaks of the bands with C and from one column of the live band, and it is
checked exactly: the live band keeps its entry in column H - 1, so in every
later one, and each other band keeps none in the last column it fills, so
in none after it.  Then no kept entry of the head lies at or below row
H + s, the first kept row of the first column past the head of each residue
class, so each such column starts a piece, and so does every later column,
which keeps one entry of the live band and nothing else: the cut rule run
on the head gives the same pieces, of the same rectangles, as on the whole
truncation, and the rest gives the live band's largest entry.  The head is
not taken where a band has several terms, where no band or two bands
without C have entries, near the end of the truncation, or where the check
fails; then the whole truncation is filled, and the result and the LAPACK
inputs are those of the whole, bit for bit.  At q = 1/2, C + B fills 67
columns of each band at any N and reads B in column N - 2 (a fill this
short meets the ``MAX_RADICAND_BITS`` check for its own columns only).

One band is the limiting case where every component is
one entry: the singular values are the absolute entries, so the norm is the
largest of them (the sup-of-weights norm of a weighted shift, Shields
1974), correctly rounded and read off the band fill, or off one entry
where the band is one term, without a dense array, numpy or an O(N^3)
decomposition.  There is no iterative estimate: the top
of the truncated shift spectrum is exponentially clustered ({n}_q -> 1/(1-q)
geometrically), which stalls a Rayleigh quotient, and both exact routes are
what the verification tolerances rely on.

One term c B^b C^k A^a needs one entry: with h = a + b, its squared
entries e(m), in column m + a, have the ratio e(m+1)/e(m) =
q^(2k) {m+h+1}_q / {m+1}_q, which falls as m grows.  So they are unimodal
and peak at the first m where the ratio is at most 1 (an exact integer
comparison; m = 0 where h = 0 and the last m where k = 0 < h, with no
search, and m = 0 where the upper bound of q^(2k) below already shows the
ratio at m = 0, q^(2k) {h+1}_q, to be at most 1), clamped to the last
column inside the truncation, m = N - h - 1.
Rounding is monotone, so the one correctly rounded entry there is the
largest of all N, bit for bit.  It is rounded with no band fill, as one
``scaled_root`` of the square that ``_square`` gives for that column,
(cn u^(km))^2 N_(m+1) ... N_(m+h) / ((cd v^(km))^2 v^(hm + h(h-1)/2)), the
integers that the fill divides there, after the same ``MAX_RADICAND_BITS``
check and with the same purge, so it is the double that the fill gives; a
coefficient that vanishes at q0 gives +0.0, the root of a zero square.
When h >= N no entry lies inside.  Such
a term, and a band with several terms, are scanned column by column through
``_bands``, with the rows >= N left out of the fill.

The eigenvalues q^(kn) of C^k are rounded without the exact power, whose
v^(kn) has kn bit_length(v) bits, past 10^8 for k = 389474 at q = 9999/10000.
Square-and-multiply steps a lower and an upper bound of q^e with
``_POWER_BITS`` bits each, the lower rounded down and the upper up after
each step.  The bounds of q itself are 2^-127 apart relative to q, and
each rounding adds as much again, doubled by every later squaring, so the
bounds of q^e stay within a relative 5e 2^-127 of each other.  Rounding to
nearest is monotone: where both bounds round to the same double, q^e
rounds to it too.  Only a power that close to a rounding boundary takes
the exact power, within ``MAX_RADICAND_BITS``.  The same upper bound of
q^(2k) lets ``_peak`` place the peak of a one-term band at column a without
the exact powers, and a band fill that reads column a alone forms no step,
so a C-power of any size read there costs no power of q.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, islice, repeat, takewhile, tee
from operator import mul, neg, truediv
from typing import TYPE_CHECKING

from .algebra import Element
from .ratfun import RF_ONE, RF_ONE_MINUS_Q, RatFun, scaled_root, signed_root

if TYPE_CHECKING:
    import numpy as np

#: magnitudes below this are purged from sparse vectors
PURGE_EPS = 1e-300
#: largest dimension of ``matrix``, whose dense array takes 8 N^2 bytes and
#: whose SVD in ``op_norm`` takes O(N^3) time where no block is cut (A + B +
#: C, say), and far less, over a head of columns only, where a compact band
#: is, and largest N of ``op_norm``,
#: ``weights``, the estimators and the decay report, whose exact q-integers
#: take O(N^2) bits
MAX_DIM = 2000
#: largest size in bits, bounded by (h (m + h) + 2 K m) bit_length(v) at
#: q = u/v, of the operands of the one division that rounds an entry of the
#: band fill: column m + a of a band B^b C^k A^a (h = a + b, K the largest k
#: among its terms) multiplies out a radicand of h q-integers, and its running
#: numerators and denominator, squared, grow by 2 K bit_length(v) bits a column;
#: it also bounds the e bit_length(v) bits of the exact power q^e that
#: ``_power_float`` falls back to
MAX_RADICAND_BITS = 2_000_000
#: bits of the bounds from which ``_power_float`` rounds a power of q
_POWER_BITS = 128
#: an entry of a truncation of several bands is dropped where it splits a
#: residue-class block when it is at most this times its largest entry over
#: its number of bands, which moves the norm by at most this relative amount
#: (see the module notes)
_DROP = 2.0**-64


def _check_dim(N: int) -> None:
    if N > MAX_DIM:
        raise ValueError(f"dimension {N} exceeds MAX_DIM = {MAX_DIM}")


class NumericQ(namedtuple("NumericQ", "value")):
    """An exact rational deformation parameter, constrained to (0, 1)."""

    __slots__ = ()

    def __new__(cls, value):
        if type(value) is not Fraction:
            value = Fraction(value)
        # the denominator of a Fraction is positive
        if not 0 < value.numerator < value.denominator:
            raise ValueError(f"q must lie strictly between 0 and 1, got {value}")
        return super().__new__(cls, value)

    @classmethod
    def coerce(cls, value) -> "NumericQ":
        return value if isinstance(value, NumericQ) else cls(value)

    def __float__(self) -> float:
        return float(self.value)


def _qintegers(q0: Fraction, lo: int):
    """Numerators N_lo, N_(lo+1), ... of the exact q-integers, for lo >= 1:
    {m}_q = N_m / v^(m-1) with q0 = u/v.  N_m = (v^m - u^m)/(v - u) obeys
    N_(m+1) = v N_m + u^m, so no entry needs a power or a gcd of its own."""
    u, v = q0.numerator, q0.denominator
    u_power = u**lo
    num = (v**lo - u_power) // (v - u)
    while True:
        yield num
        num = v * num + u_power
        u_power *= u


class WeightSequence(namedtuple("WeightSequence", "q0 values")):
    """Shift weights alpha_n = sqrt({n+1}_q) for n < N; strictly increasing
    and bounded above by (1-q)^(-1/2)."""

    __slots__ = ()


def _rounded_qintegers(q0: Fraction, lo: int, count: int) -> tuple:
    """The q-integers {lo}_q ... {lo+count-1}_q of a window, each rounded
    once from its exact integers, up to the first that rounds to the limit
    1/(1-q) = v/(v-u), which every later one rounds to, and that limit (see
    the module notes)."""
    u, v = q0.numerator, q0.denominator
    limit = v / (v - u)
    head = []
    d = v ** (lo - 1)
    for n in islice(_qintegers(q0, lo), count):
        if (r := n / d) == limit:
            break
        head.append(r)
        d *= v
    return head, limit


def weights(q0, N: int) -> WeightSequence:
    if N < 1:
        raise ValueError("need at least one weight")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    head, limit = _rounded_qintegers(q0.value, 1, N)
    return WeightSequence(q0=q0, values=(*map(math.sqrt, head), *[math.sqrt(limit)] * (N - len(head))))


def _bands(x: Element, q0: Fraction, start: int, stop: int, rows: float = math.inf):
    """Yield (b, a, m0, entries) for each band B^b C^k A^a of x in term
    order, where entries[i] is the numeric entry that v_(m0+i+a) sends to
    v_(m0+i+b), for the columns in [start, stop) and the rows below ``rows``,
    with 0.0 where it is zero or below the purge threshold.  A band of
    several terms rounds each merged scalar with ``signed_root``; a one-term
    band rounds its ``_square`` in one pass and repairs the columns at its
    ends whose squares are below the normal range, all of them where the
    pass overflows (see the module notes).  Before the first band is filled, every
    term that meets a column is evaluated, so a pole at q0 raises all the
    same, and every band is checked against ``MAX_RADICAND_BITS``."""
    u, v = q0.numerator, q0.denominator
    groups = {}
    for bw, c in x.terms.items():
        if bw.a < stop:
            groups.setdefault((bw.b, bw.a), []).append((bw.k, c.evaluate(q0)))
    # the terms c_i q0^(k_i m) of a band share the denominator L v^(K m), with
    # L the lcm of the denominators of the c_i and K the largest k_i, so the
    # numerator of term i steps by u^k_i v^(K - k_i) and the denominator by
    # v^K; the radicand {m+1}_q ... {m+h}_q of column m, h = a + b, has the
    # denominator v^(h m + h(h-1)/2), which steps by v^h
    # (b, a, the coefficient of a one-term band, K, first and end m, and the
    # running integers at m = 0 and their steps: of a one-term band its
    # ``_square``, else the term numerators, the denominator and the radicand
    # denominator)
    bands = []
    for (b, a), parts in groups.items():
        # column m + a holds the entry of v_(m+b), computed for m + b < rows
        m0, m1 = max(start - a, 0), min(stop - a, rows - b)
        if m0 >= m1:
            continue
        h, top = a + b, max(k for k, _ in parts)
        _check_column(h, top, m1 - 1, v)
        if m1 == 1:
            # the steps enter only as their m-th powers, so where column a
            # is the only one read no power of q is formed, whatever k is
            parts, top = [(0, c) for _, c in parts], 0
        if len(parts) == 1:
            ((_, c),) = parts
            firsts, steps = _square(c, top, h, u, v)
        else:
            common = math.lcm(*(c.denominator for _, c in parts))
            firsts = [c.numerator * (common // c.denominator) for _, c in parts] + [common, v ** (h * (h - 1) // 2)]
            steps = [u**k * v ** (top - k) for k, _ in parts] + [v**top, v**h]
            c = None
        bands.append((b, a, c, top, m0, m1, firsts, steps))
    # the exact q-integer numerators from the first column on, computed once,
    # as far as the columns read them, and shared by the bands through copies
    # of one tee, whose buffer holds every numerator from its start
    lo = min((m0 for *_, m0, _, _, _ in bands), default=0) + 1
    rad_nums = tee(_qintegers(q0, lo), 1)[0]
    for b, a, c, top, m0, m1, firsts, steps in bands:
        count = m1 - m0
        # the radicand numerator of each column and the running integers
        streams = (rad_nums, m0 + 1 - lo, a + b, m0, count, firsts, steps)
        if c is None:
            # several terms, whose numerators merge before the one rounding
            rads, *nums, dens, rad_dens = _column_streams(*streams)
            yield b, a, m0, [
                value if cn and abs(value := signed_root(cn, cd, rn, rd)) >= PURGE_EPS else 0.0
                for cn, cd, rn, rd in zip(map(sum, zip(*nums)), dens, rads, rad_dens)
            ]
            continue
        limit = None
        if c and not top and count > 1:
            # one term c B^b A^a over several columns, whose entries rise in
            # magnitude toward the limit entry c (1-q)^(-h/2): from the first
            # column that rounds to it every later one does too (see the
            # module notes)
            try:
                limit = signed_root(c.numerator, c.denominator, v ** (a + b), (v - u) ** (a + b))
            except OverflowError:
                # no finite entry equals it, and a column past the float range raises
                limit = math.inf
        if not c or limit is not None and abs(limit) < PURGE_EPS:
            yield b, a, m0, [0.0] * count
            continue
        # each square rounded once and its root taken, in one pass at C
        # level: where every square is a normal double, these are the entries
        # that ``scaled_root`` rounds.  The squares rise, or rise and then
        # fall, and so do the rounded ones, so the least entry lies at an
        # end; it is above 2^-511 only where its square is at least 2^-1022
        sign = 1.0 if c > 0 else -1.0
        rads, nums, dens = _column_streams(*streams)
        roots = map(math.sqrt, map(truediv, map(mul, nums, rads), dens))
        try:
            entries = _saturate(roots if sign > 0 else map(neg, roots), limit, count)
        except OverflowError:
            # some square is past the float range: no column counts as
            # normal, so the repair below rounds them all
            entries, left, right = [0.0] * count, count, count
        else:
            # the columns at or below 2^-511 at each end, read from that end
            # only as far as they reach
            below = (2.0**-511).__ge__
            left = len(list(takewhile(below, map(abs, entries))))
            right = max(left, count - len(list(takewhile(below, map(abs, reversed(entries))))))
        # the end-column repair: the squares below the normal range, at the
        # ends of the band, or all of them after an overflow, are rounded
        # again column by column, up to the limit entry, which the entries of
        # a band without C rise toward on any run of columns
        for i, j in ((0, left), (right, count)):
            if i < j:
                rads, nums, dens = _column_streams(rad_nums, m0 + 1 - lo + i, a + b, m0 + i, j - i, firsts, steps)
                roots = (sign * scaled_root(n * r, d) for n, r, d in zip(nums, rads, dens))
                entries[i:j] = _saturate((root if abs(root) >= PURGE_EPS else 0.0 for root in roots), limit, j - i)
        yield b, a, m0, entries


def _square(c: Fraction, k: int, h: int, u: int, v: int) -> tuple:
    """The running square of a one-term band c B^b C^k A^a, h = a + b, at
    q0 = u/v: (firsts, steps) such that the square c^2 q^(2km) {m+1}_q ...
    {m+h}_q of its entry in column m + a is firsts[0] steps[0]^m R_m over
    firsts[1] steps[1]^m, with R_m the product of the h q-integer numerators
    N_(m+1) ... N_(m+h).  With c = cn/cd, that is (cn u^(km))^2 R_m over
    (cd v^(km))^2 v^(hm + h(h-1)/2), none of it reduced."""
    return (c.numerator**2, c.denominator**2 * v ** (h * (h - 1) // 2)), (u ** (2 * k), v ** (2 * k + h))


def _check_column(h: int, k: int, m: int, v: int) -> None:
    """Refuse column m + a of a band B^b C^k A^a, h = a + b, k its largest
    C-power, at q = u/v, where the one int/int division that rounds its entry
    would take operands of more than ``MAX_RADICAND_BITS`` bits: a radicand
    part of h (m + h) bit_length(v) bits, and the square of a running integer
    of k m bit_length(v) bits."""
    bits = (h * (m + h) + 2 * k * m) * v.bit_length()
    if bits > MAX_RADICAND_BITS:
        raise ValueError(f"a column of up to {bits} bits exceeds MAX_RADICAND_BITS = {MAX_RADICAND_BITS}")


def _column_streams(rad_nums, i: int, h: int, m0: int, count: int, firsts: list, steps: list) -> list:
    """The radicand numerators of the columns m0 ... m0 + count - 1 of a
    band, h = a + b, each the product of the h q-integer numerators from
    m + 1 (items i + m - m0 on of the ``rad_nums`` tee), and then one stream
    of running integers first * step^m for each first and step."""
    windows = (islice(rad_nums.__copy__(), i + j, i + j + count) for j in range(h))
    rads = map(math.prod, zip(*windows)) if h else repeat(1)
    return [rads, *(accumulate(repeat(s, count - 1), mul, initial=f * s**m0) for f, s in zip(firsts, steps))]


def _saturate(entries, limit, count: int) -> list:
    """The ``count`` entries of a one-term band from a stream of them: all
    of them where ``limit`` is None, else those before the first that equals
    ``limit``, and then ``limit`` for the remaining columns."""
    if limit is None:
        return list(entries)
    head = list(takewhile(limit.__ne__, entries))
    return head + [limit] * (count - len(head))


def apply_numeric(x: Element, n: int, q0) -> dict:
    """Numeric image of basis vector v_n under x at q0, one rounding per
    merged scalar.  Entries below the purge threshold are dropped."""
    if n < 0:
        raise ValueError("basis index must be nonnegative")
    q0 = NumericQ.coerce(q0)
    # b*a = 0, so distinct (b, a) send v_n to distinct targets n - a + b
    return {n - a + b: e[0] for b, a, _, e in _bands(x, q0.value, n, n + 1) if e[0]}


class TruncatedMatrix:
    """Dense N x N truncation; column j is the action on v_j at the indices
    below N, the only ones computed.  Equal only to itself."""

    __slots__ = ("dim", "q0", "data")

    def __init__(self, dim: int, q0: NumericQ, data: np.ndarray):
        self.dim = dim
        self.q0 = q0
        self.data = data

    def max_abs(self) -> float:
        import numpy as np

        return float(np.max(np.abs(self.data))) if self.dim else 0.0


def matrix(x: Element, q0, N: int) -> TruncatedMatrix:
    """The N x N truncation of x at q0, filled band by band: the entries of a
    band lie on one diagonal, N + 1 apart in row-major order, and are stored
    with one strided slice assignment; distinct bands lie on distinct
    diagonals, so every entry is stored once."""
    if N < 1:
        raise ValueError("matrix dimension must be positive")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    return TruncatedMatrix(dim=N, q0=q0, data=_dense(x, q0.value, N, N))


def _dense(x: Element, q0: Fraction, rows: int, cols: int) -> np.ndarray:
    """The leading rows x cols corner of the truncation of x, with only the
    columns below ``cols`` and the rows below ``rows`` filled."""
    import numpy as np

    data = np.zeros((rows, cols))
    flat = data.reshape(-1)
    for b, a, m0, entries in _bands(x, q0, 0, cols, rows):
        first = (m0 + b) * cols + m0 + a
        flat[first : first + len(entries) * (cols + 1) : cols + 1] = entries
    return data


def _peak(q0: Fraction, k: int, h: int, M: int) -> int:
    """The m in [0, M] where the squared entries e(m) = c^2 q^(2km)
    {m+1}_q ... {m+h}_q of a one-term band B^b C^k A^a, h = a + b, peak.
    The ratio e(m+1)/e(m) = q^(2k) {m+h+1}_q / {m+1}_q falls as m grows, so
    the peak is the least m with q^(m+1) (1 - q^(2k+h)) <= 1 - q^(2k), or M
    when there is none; with q0 = u/v that is an integer comparison.  Where
    h = 0 the ratio is q^(2k) <= 1 for every m, so the peak is 0, and where
    k = 0 < h it is above 1 for every m, so the peak is M: neither bisects.
    The test at m = 0 is q^(2k) {h+1}_q <= 1; where it holds on the upper
    bound of q^(2k) from ``_power_bounds`` the peak is 0, with no exact
    power of q formed, however large k is."""
    if not h:
        return 0
    if not k:
        return M
    u, v = q0.numerator, q0.denominator
    # hi 2^x N_(h+1) <= v^h, where {h+1}_q = N_(h+1) / v^h: the bit lengths
    # decide it where the left side is the smaller by a factor of 2 or more,
    # and elsewhere -x is at most the bits of the left side
    _, hi, x = _power_bounds(q0, 2 * k)
    left, right = hi * next(_qintegers(q0, h + 1)), v**h
    if left.bit_length() + x < right.bit_length() or left <= right << -x:
        return 0
    left, right = v ** (2 * k + h) - u ** (2 * k + h), v**h * (v ** (2 * k) - u ** (2 * k))
    return bisect_left(range(M), True, key=lambda m: u ** (m + 1) * left <= v ** (m + 1) * right)


def _largest_entry(x: Element, q0: Fraction, N: int) -> float:
    """The largest absolute entry of the N x N truncation of x, one band:
    where x is one term with entries inside, its peak entry, rounded as one
    ``scaled_root`` of its ``_square`` with no band fill, else scanned column
    by column."""
    if len(x.terms) == 1:
        ((bw, c),) = x.terms.items()
        h, k = bw.a + bw.b, bw.k
        if h < N:
            # column m + a holds the entry of v_(m+b), inside for m < N - h;
            # its square c^2 q^(2km) {m+1}_q ... {m+h}_q is the quotient
            # that ``_bands`` divides, checked against the same bound
            c = c.evaluate(q0)
            u, v = q0.numerator, q0.denominator
            m = _peak(q0, k, h, N - h - 1)
            _check_column(h, k, m, v)
            # the steps enter as their m-th powers, so where the peak is
            # column a no power of q is formed, whatever k is
            (f, g), (s, t) = _square(c, k if m else 0, h, u, v)
            entry = scaled_root(f * s**m * math.prod(islice(_qintegers(q0, m + 1), h)), g * t**m)
            return entry if entry >= PURGE_EPS else 0.0
    return max((abs(v) for *_, entries in _bands(x, q0, 0, N, N) for v in entries), default=0.0)


def _head(x: Element, q0: Fraction, N: int, g: int):
    """(data, tau, tail) where past a head of H columns the truncation of x
    keeps entries of its one band without C only, each a piece of its own:
    data holds the head columns and the rows below H + s, with s the offset
    of that band, tau is the cut and tail that band's largest entry; None
    where there is no such head (see the module notes)."""
    bands = len({bw.b - bw.a for bw in x.terms})
    if len(x.terms) > bands:
        return None
    # every term that meets a column is evaluated before any band is filled,
    # as in ``matrix``, so a pole at q0 raises all the same
    values = {bw: c.evaluate(q0) for bw, c in x.terms.items() if bw.a < N}
    inside = {bw: c for bw, c in values.items() if c and bw.a + bw.b < N}
    live = [bw for bw in inside if not bw.k]
    if len(live) != 1:
        return None
    (band,) = live
    s = band.b - band.a
    u, v = q0.numerator, q0.denominator
    log_q, log_limit = math.log(v) - math.log(u), math.log(v) - math.log(v - u)
    log_c = {bw: math.log(abs(c.numerator)) - math.log(c.denominator) for bw, c in inside.items()}
    # column a of a band holds |c| sqrt({1}_q ... {h}_q) >= |c|, h = a + b,
    # so tau is at least this
    log_tau = math.log(_DROP / bands) + max(log_c.values())
    H, compact = band.a + 1, []
    for bw in inside:
        if bw.k:
            # |c| q^(km) (1-q)^(-h/2) bounds the entry of column m + a, at
            # most tau from m on; the band is filled one column past that and
            # its peak, and lift columns more where its rows lie below those
            # of the live band
            h, lift = bw.a + bw.b, max(bw.b - bw.a - s, 0)
            j = _peak(q0, bw.k, h, N - h - 1) + bw.a
            m = math.ceil((log_c[bw] + h / 2 * log_limit - log_tau) / (bw.k * log_q))
            H = max(H, max(j, m + 1 + bw.a) + 1 + lift)
            compact.append((bw, j, lift))
    # every residue class has a column past the head whose entry is inside
    if H + g + max(s, 0) > N:
        return None
    data = _dense(x, q0, H + s, H)
    tail = _largest_entry(Element({band: x.terms[band]}), q0, N)
    top = max([tail, *(float(abs(data[j + bw.b - bw.a, j])) for bw, j, _ in compact)])
    tau = _DROP * top / bands
    # the live band keeps its entry from column H - 1 on and each compact
    # band none from the last column it fills on, both past their peaks
    if not abs(data[H - 1 + s, H - 1]) > tau:
        return None
    if any(abs(data[H - 1 - lift + bw.b - bw.a, H - 1 - lift]) > tau for bw, _, lift in compact):
        return None
    return data, tau, tail


def op_norm(x: Element, q0, N: int) -> float:
    """Largest singular value of the N x N truncation of x, exactly, with no
    row >= N computed: the largest absolute entry when x is one band, read
    from its peak column alone when x is one term with entries inside, else
    the largest over the pieces of its residue-class blocks: the absolute
    entry of a piece that keeps one, the LAPACK SVD of any other.  Where one
    band without C is all that keeps entries past a head of columns, only the
    head is filled and the rest gives that band's largest entry (see the
    module notes)."""
    if N < 2:
        raise ValueError("norm estimation needs dimension at least 2")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    offsets = {bw.b - bw.a for bw in x.terms}
    if len(offsets) <= 1:
        # one band: at most one nonzero in each row and column
        return _largest_entry(x, q0.value, N)
    import numpy as np

    # column j has nonzeros only in rows j + s with s = s0 (mod g), so the
    # residue classes r of the columns split the truncation into blocks
    s0 = min(offsets)
    g = math.gcd(*(s - s0 for s in offsets))
    data, tau, norm = _head(x, q0.value, N, g) or (matrix(x, q0, N).data, None, 0.0)
    # band s holds the entry of row j + s in column j, for j in [max(-s, 0), ...)
    diagonals = [(s, max(-s, 0), np.abs(np.diagonal(data, -s))) for s in sorted(offsets)]
    if tau is None:
        top = max((float(d.max()) for *_, d in diagonals if d.size), default=0.0)
        tau = _DROP * top / len(offsets)
    # the first and last kept row of each column (past the last row and -1
    # where it keeps none; the offsets ascend, so the last store is the last
    # row), its count of kept entries and its largest kept entry
    height, width = data.shape
    first, last = np.full(width, height), np.full(width, -1)
    count, peak = np.zeros(width, dtype=int), np.zeros(width)
    for s, j0, d in diagonals:
        kept = np.flatnonzero(d > tau)
        cols = kept + j0
        first[cols] = np.minimum(first[cols], cols + s)
        last[cols] = cols + s
        count[cols] += 1
        peak[cols] = np.maximum(peak[cols], d[kept])
    for r in range(min(g, width)):
        r0 = (r + s0) % g
        blk, counts = data[r0::g, r::g], count[r::g]
        if not blk.size or not counts.any():
            continue
        # a cut before block column p, where p keeps an entry, an earlier
        # column does too, and every row kept before p lies above every row
        # kept from p on; the rows split at the first of the latter
        before = np.maximum.accumulate(last[r::g])[:-1]
        after = np.minimum.accumulate(first[r::g][::-1])[::-1][1:]
        cuts = np.flatnonzero((counts[1:] > 0) & (before >= 0) & (before < after))
        col_bounds = [0, *(cuts + 1).tolist(), blk.shape[1]]
        row_bounds = [0, *((after[cuts] - r0) // g).tolist(), blk.shape[0]]
        sizes = np.add.reduceat(counts, col_bounds[:-1])
        singles = np.maximum.reduceat(peak[r::g], col_bounds[:-1])[sizes == 1]
        norm = max(norm, float(singles.max(initial=0.0)))
        for i in np.flatnonzero(sizes > 1).tolist():
            piece = blk[row_bounds[i] : row_bounds[i + 1], col_bounds[i] : col_bounds[i + 1]]
            norm = max(norm, float(np.linalg.svd(piece, compute_uv=False)[0]))
    return norm


def _log_weights(q0, kmax: int, N: int, lo: int) -> list:
    """The log weights 0.5 log {m}_q, m = lo ... lo + kmax - 1, of an
    estimator's windows, once its arguments pass the checks."""
    if kmax < 1 or N <= kmax:
        raise ValueError("need kmax >= 1 and N > kmax")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    head, limit = _rounded_qintegers(q0.value, lo, kmax)
    return [0.5 * math.log(r) for r in head] + [0.5 * math.log(limit)] * (kmax - len(head))


def spectral_radius_est(q0, kmax: int, N: int):
    """For each window length k <= kmax, the geometric mean of the last k
    weights inside the truncation, alpha_(N-1-k) ... alpha_(N-2), which is
    the largest over the windows because the weights increase; its log is
    summed from the largest q-integer {N-1}_q down.  The final entry
    estimates the spectral radius of the shift."""
    logs = _log_weights(q0, kmax, N, N - kmax)
    return [math.exp(s / k) for k, s in enumerate(accumulate(reversed(logs)), 1)]


def lower_index_est(q0, kmax: int, N: int):
    """For each window length k <= kmax, the geometric mean of the first k
    weights, the smallest over the windows; monotonically increasing in k
    with O(1/k) convergence toward (1-q)^(-1/2)."""
    # window n exceeds window 0 by at least 0.5 log({k+1}_q / {1}_q) >=
    # 0.5 log(1 + q), far above the rounding of any prefix-sum difference,
    # so a scan of the rounded window sums would also pick window 0, whose
    # prefix sum it reads minus 0.0: this running sum, bit for bit
    logs = _log_weights(q0, kmax, N, 1)
    return [math.exp(s / k) for k, s in enumerate(accumulate(logs), 1)]


class CoherentWitness(namedtuple("CoherentWitness", "eigenvalue entries residual radius outside_disk")):
    """A numeric eigenvector candidate for the lowering operator A with
    eigenvalue c, plus its truncation residual."""

    __slots__ = ()


def coherent_vector(c, q0, N: int) -> CoherentWitness:
    """Build v with v_0 = 1, v_(n+1) = c v_n / alpha_n, so that A v = c v in
    the infinite model, and report the truncation residual |Av - cv|/|v|.
    (Av)_n = alpha_n v_(n+1) = c v_n for n < N-1 and the truncation makes
    (Av)_(N-1) = 0, so the residual is exactly |c v_(N-1)| / |v|.

    For |c| inside the open disk of radius (1-q)^(-1/2) the residual decays
    geometrically with N.  Larger |c| is allowed but flagged: there the
    residual witnesses boundary or exterior behavior instead of vanishing.
    """
    if N < 2:
        raise ValueError("need dimension at least 2")
    q0 = NumericQ.coerce(q0)
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"eigenvalue must be finite, got {c}")
    alphas = weights(q0, N).values
    radius = 1.0 / math.sqrt(1.0 - float(q0))
    v = [0j] * N
    v[0] = 1.0 + 0j
    for n in range(N - 1):
        v[n + 1] = c * v[n] / alphas[n]
    # abs() of a complex past the float range, and float **, raise
    # OverflowError where other float arithmetic gives inf or nan
    try:
        residual = abs(c * v[N - 1]) / math.sqrt(sum(abs(z) ** 2 for z in v))
    except OverflowError:
        residual = math.inf
    if not math.isfinite(residual):
        raise ValueError("coherent vector overflowed the truncation window")
    entries = {n: z for n, z in enumerate(v) if abs(z) >= PURGE_EPS}
    return CoherentWitness(
        eigenvalue=c,
        entries=entries,
        residual=residual,
        radius=radius,
        outside_disk=abs(c) >= radius,
    )


class SpectrumFacts(
    namedtuple(
        "SpectrumFacts",
        "operator k radius_sq point_spectrum approx_point_spectrum compression_spectrum "
        "eigenvalue_formula eigenspace radius_numeric eigenvalues",
        defaults=(None, None, None, None),
    )
):
    """Exact spectral descriptors for a generator or a diagonal power; the
    last four fields default to None."""

    __slots__ = ()


def _scaled_float(m: int, exp: int) -> float:
    """m * 2^exp for exp <= 0, correctly rounded: 0.0 when it lies below
    2^-1075, else one int/int true division by at most 2^(1075 + bl(m))."""
    if m.bit_length() + exp <= -1075:
        return 0.0
    return m / (1 << -exp)


def _power_bounds(q0: Fraction, e: int) -> tuple:
    """(lo, hi, x) with lo * 2^x <= q0^e <= hi * 2^x for q0 in (0, 1) and
    e >= 0, lo and hi of at most ``_POWER_BITS`` bits and x <= 0, by
    square-and-multiply with directed roundings (see the module notes)."""
    u, v = q0.numerator, q0.denominator
    shift = _POWER_BITS + v.bit_length() - u.bit_length()
    base_lo, base_hi = (u << shift) // v, -(-(u << shift) // v)
    lo = hi = 1
    x = 0
    for digit in bin(e)[2:]:
        lo, hi, x = lo * lo, hi * hi, 2 * x
        if digit == "1":
            lo, hi, x = lo * base_lo, hi * base_hi, x - shift
        drop = max(hi.bit_length() - _POWER_BITS, 0)
        lo, hi, x = lo >> drop, -(-hi >> drop), x + drop
    return lo, hi, x


def _power_float(q0: Fraction, e: int) -> float:
    """float(q0 ** e) for q0 in (0, 1), correctly rounded from the bounds of
    ``_power_bounds``, or from the exact power where they round apart (see
    the module notes)."""
    lo, hi, x = _power_bounds(q0, e)
    value = _scaled_float(lo, x)
    if value == _scaled_float(hi, x):
        return value
    bits = e * q0.denominator.bit_length()
    if bits > MAX_RADICAND_BITS:
        raise ValueError(f"q^{e} needs an exact power of about {bits} bits, over MAX_RADICAND_BITS = {MAX_RADICAND_BITS}")
    return float(q0**e)


#: the point, approximate point and compression spectrum of each shift
_SHIFT_SPECTRA = {"B": ("empty", "circle", "open-disk"), "A": ("open-disk", "closed-disk", "empty")}


def spectrum_facts(op: str, k: int = 1, q0=None) -> SpectrumFacts:
    """Spectral shape of B (shift), A (its adjoint), or C^k (diagonal):
    B has empty point spectrum, the circle as approximate point spectrum,
    and the open disk as compression spectrum; A has the open disk as point
    spectrum, the closed disk as approximate point spectrum, and empty
    compression spectrum; C^k has eigenvalues q^(kn) with one-dimensional
    eigenspaces and their closure as full spectrum.  Only C takes a power
    k; A or B with k != 1 raises ``ValueError``."""
    if op in _SHIFT_SPECTRA and k != 1:
        raise ValueError(f"operator {op} takes no power: k must be 1, got {k}")
    numeric = None
    if q0 is not None:
        q0 = NumericQ.coerce(q0)
        numeric = 1.0 / math.sqrt(1.0 - float(q0))
    if op in _SHIFT_SPECTRA:
        return SpectrumFacts(op, 1, RF_ONE / RF_ONE_MINUS_Q, *_SHIFT_SPECTRA[op], radius_numeric=numeric)
    if op != "C":
        raise ValueError(f"unknown operator tag {op!r} (expected 'A', 'B', or 'C')")
    if k < 1:
        raise ValueError("diagonal powers need k >= 1")
    return SpectrumFacts(
        operator="C",
        k=k,
        radius_sq=RF_ONE,
        point_spectrum="eigenvalue-list",
        approx_point_spectrum="closure-of-eigenvalues",
        compression_spectrum="eigenvalue-list",
        eigenvalue_formula=f"q^({k}*n)",
        eigenspace="one-dimensional, spanned by the basis vector of index n",
        radius_numeric=None if q0 is None else 1.0,
        eigenvalues=None if q0 is None else tuple(_power_float(q0.value, k * n) for n in range(20)),
    )


class DecayReport(namedtuple("DecayReport", "q0 tail verdict")):
    """Column-norm tail of an element: a decaying tail is consistent with
    compactness, a tail bounded away from zero witnesses the opposite.  The
    authoritative compactness answer is the symbolic one."""

    __slots__ = ()


def compact_decay_report(x: Element, q0, N: int) -> DecayReport:
    """The Euclidean norms of the images of v_0 ... v_(N-1) in the infinite
    model, from the squares of the entries collected band by band in term
    order and summed per column, without numpy."""
    if N < 1:
        raise ValueError("decay report needs at least one column")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    squares = [[] for _ in range(N)]
    for b, a, m0, entries in _bands(x, q0.value, 0, N):
        for col, value in zip(squares[m0 + a :], entries):
            col.append(value * value)
    # one sum per column, not an elementwise add of the bands: from Python
    # 3.12 on, sum of floats is compensated, so adding band by band would
    # change the tails of several bands there
    tail = [math.sqrt(sum(col)) for col in squares]
    peak = max(tail)
    if peak == 0.0 or tail[-1] < 0.5 * peak:
        verdict = "consistent-with-compact"
    else:
        verdict = "non-compact-witness"
    return DecayReport(q0=q0, tail=tuple(tail), verdict=verdict)
