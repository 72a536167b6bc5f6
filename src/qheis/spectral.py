"""Floating-point realization of the algebra on a truncated basis.

B acts as the weighted shift with weights alpha_n = sqrt({n+1}_q), A as its
adjoint, and C^k as the diagonal operator with entries q^(kn).  Truncation
uses apply-then-project semantics: every matrix column is the exact action
on a basis vector computed in the infinite model, with rows >= N dropped
afterwards.  Multiplying truncated matrices instead would corrupt the last
columns of shift powers, so products of elements are normalized symbolically
before they are materialized.

Floating-point policy: every monomial B^b C^k A^a is one band, sending v_n
to q^(k(n-a)) sqrt({n-a+1}_q ... {n-a+max(a,b)}_q) v_(n-a+b), so columns are
filled directly rather than through the symbolic ket action.  All exact work
is on plain unreduced Python ints and takes no gcd.  With q0 = u/v, each
monomial coefficient is evaluated at q0 once per call; the terms of a band
keep integer numerators over one integer denominator, stepped by powers of
u and v from column to column; and the q-integer radicands {m}_q come as
integer pairs N_m / v^(m-1) from a table over the window the requested
columns touch.  Terms with equal (b, a) share target and radicand and merge
exactly, as in ``lie.apply_symbolic``; each merged scalar c * sqrt(r) is
then rounded once, as the square root of one int/int true division for
c^2 r, with the sign of c (``ratfun.signed_root``).  Int true division rounds
correctly for any operand size, so the unreduced quotient gives the double
that ``float`` of the reduced fraction gives: the values are the same exact
rationals that ``apply_symbolic(x, n).numeric(q0)`` rounds, wherever every
term coefficient is defined at q0, and the columns agree with it bit for
bit (the tests hold them to it as the exact oracle).  A term whose
coefficient has a pole at q0 raises ``PoleError``, also where
``apply_symbolic`` would merge it with another term into a coefficient
without that pole.  Weights are rounded once from the same integer
q-integers, so the 1e-12 comparisons in the test suite measure the
mathematics rather than accumulation error.

The windowed geometric-mean estimators converge to the spectral radius from
below; the lower-index estimator attains its infimum at n = 0, where it
equals (1-q)^(-1/2) * prod_{i<k} (1-q^(i+1))^(1/2k), so its error decays
like O(1/k).  That slow rate is inherent to the formula, not a defect; the
matching tolerance at k = 500 is one percent.

The operator-norm default is exact, and rests on one principle: the
truncation is the direct sum of the components of its band graph, which
joins column j to row j + s for every offset s = b - a of a term.
Canonical words have min(b, a) = 0, so distinct (b, a) have distinct
offsets.  With s0 the least offset and g the gcd of the differences
s - s0, column j meets only rows congruent to j + s0 mod g, so the columns
of each residue class r mod g and the rows of class r + s0 hold whole
components, and the norm is the largest of the norms of these g blocks.
Several bands take one LAPACK singular value decomposition per nonempty
block, about N^3/g^2 work in all; for g = 1 the one block is the whole
truncation.  One band is the limiting case where every component is one
entry: the singular values are the absolute entries, so the norm is the
largest of them (the sup-of-weights norm of a weighted shift, Shields
1974), correctly rounded and read off the band fill without a dense array,
numpy or an O(N^3) decomposition.  There is no iterative estimate: the top
of the truncated shift spectrum is exponentially clustered ({n}_q -> 1/(1-q)
geometrically), which stalls a Rayleigh quotient, and both exact routes are
what the verification tolerances rely on.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING

from .algebra import Element
from .ratfun import RF_ONE, RF_ONE_MINUS_Q, RatFun, signed_root

if TYPE_CHECKING:
    import numpy as np

#: magnitudes below this are purged from sparse vectors
PURGE_EPS = 1e-300
#: largest dimension of ``matrix``, whose dense array takes 8 N^2 bytes and
#: whose SVD in ``op_norm`` takes O(N^3) time, and largest N of ``op_norm``,
#: ``weights``, the estimators and the decay report, whose exact q-integers
#: take O(N^2) bits
MAX_DIM = 2000


def _check_dim(N: int) -> None:
    if N > MAX_DIM:
        raise ValueError(f"dimension {N} exceeds MAX_DIM = {MAX_DIM}")


class NumericQ(namedtuple("NumericQ", "value")):
    """An exact rational deformation parameter, constrained to (0, 1)."""

    __slots__ = ()

    def __new__(cls, value):
        value = Fraction(value)
        if not 0 < value < 1:
            raise ValueError(f"q must lie strictly between 0 and 1, got {value}")
        return super().__new__(cls, value)

    @classmethod
    def coerce(cls, value) -> "NumericQ":
        if isinstance(value, NumericQ):
            return value
        return cls(Fraction(value))

    def __float__(self) -> float:
        return float(self.value)


def _qintegers(q0: Fraction, lo: int):
    """Exact q-integers {lo}_q, {lo+1}_q, ... for lo >= 1, as unreduced
    integer pairs (N_m, v^(m-1)) with {m}_q = N_m / v^(m-1) and q0 = u/v.
    N_m = (v^m - u^m)/(v - u) obeys N_(m+1) = v N_m + u^m, so no entry needs
    a power or a gcd of its own."""
    u, v = q0.numerator, q0.denominator
    u_power = u**lo
    num = (v**lo - u_power) // (v - u)
    den = v ** (lo - 1)
    while True:
        yield num, den
        num = v * num + u_power
        u_power *= u
        den *= v


class WeightSequence(namedtuple("WeightSequence", "q0 values")):
    """Shift weights alpha_n = sqrt({n+1}_q) for n < N; strictly increasing
    and bounded above by (1-q)^(-1/2)."""

    __slots__ = ()


def weights(q0, N: int) -> WeightSequence:
    if N < 1:
        raise ValueError("need at least one weight")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    vals = tuple(math.sqrt(n / d) for n, d in islice(_qintegers(q0.value, 1), N))
    return WeightSequence(q0=q0, values=vals)


def _columns(x: Element, q0: Fraction, start: int, stop: int):
    """Yield the numeric image of v_n under x for each n in [start, stop),
    as a map from target index to value with entries below the purge
    threshold dropped; see the module notes for the rounding policy."""
    u, v = q0.numerator, q0.denominator
    groups = {}
    for bw, c in x.terms.items():
        if bw.a < stop:
            groups.setdefault((bw.b, bw.a), []).append((bw.k, c.evaluate(q0)))
    max_a = max((a for _, a in groups), default=0)
    max_b = max((b for b, _ in groups), default=0)
    # column n reads {n-max_a+1}_q .. {n+max_b}_q, so the exact q-integers
    # are tabulated over the window the requested columns touch
    lo = max(start - max_a, 0) + 1
    table = list(islice(_qintegers(q0, lo), stop + max_b - lo + 1))
    rad_nums, rad_dens = [r for r, _ in table], [d for _, d in table]
    # the terms c_i q0^(k_i m) of a band share the denominator L v^(K m), with
    # L the lcm of the denominators of the c_i and K the largest k_i, so the
    # numerator of term i steps by u^k_i v^(K - k_i) and the denominator by v^K
    # (b, a, running integers: the numerators then the denominator, their steps)
    bands = []
    for (b, a), parts in groups.items():
        m0 = max(start - a, 0)
        top = max(k for k, _ in parts)
        common = math.lcm(*(c.denominator for _, c in parts))
        firsts = [c.numerator * (common // c.denominator) for _, c in parts] + [common]
        steps = [u**k * v ** (top - k) for k, _ in parts] + [v**top]
        bands.append((b, a, [f * s**m0 for f, s in zip(firsts, steps)], steps))
    for n in range(start, stop):
        # b*a = 0, so distinct (b, a) send v_n to distinct targets n - a + b
        # and each target holds exactly one merged scalar
        col = {}
        for b, a, running, steps in bands:
            if n < a:
                continue
            m = n - a
            cn, cd = sum(running[:-1]), running[-1]
            running[:] = [p * s for p, s in zip(running, steps)]
            if cn:
                i, j = m + 1 - lo, m + 1 + a + b - lo
                value = signed_root(cn, cd, math.prod(rad_nums[i:j]), math.prod(rad_dens[i:j]))
                if abs(value) >= PURGE_EPS:
                    col[m + b] = value
        yield col


def apply_numeric(x: Element, n: int, q0) -> dict:
    """Numeric image of basis vector v_n under x at q0, one rounding per
    merged scalar.  Entries below the purge threshold are dropped."""
    if n < 0:
        raise ValueError("basis index must be nonnegative")
    q0 = NumericQ.coerce(q0)
    return next(_columns(x, q0.value, n, n + 1))


class TruncatedMatrix:
    """Dense N x N truncation; column j is the action on v_j projected to
    indices below N.  Equal only to itself."""

    __slots__ = ("dim", "q0", "data")

    def __init__(self, dim: int, q0: NumericQ, data: np.ndarray):
        self.dim = dim
        self.q0 = q0
        self.data = data

    def max_abs(self) -> float:
        import numpy as np

        return float(np.max(np.abs(self.data))) if self.dim else 0.0


def matrix(x: Element, q0, N: int) -> TruncatedMatrix:
    if N < 1:
        raise ValueError("matrix dimension must be positive")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    import numpy as np

    data = np.zeros((N, N))
    for j, col in enumerate(_columns(x, q0.value, 0, N)):
        for idx, v in col.items():
            if idx < N:
                data[idx, j] = v
    return TruncatedMatrix(dim=N, q0=q0, data=data)


def op_norm(x: Element, q0, N: int) -> float:
    """Largest singular value of the truncated matrix of x, exactly: the
    largest absolute entry when x is one band, else the largest LAPACK SVD
    of the residue-class blocks of the truncation (see the module notes)."""
    if N < 2:
        raise ValueError("norm estimation needs dimension at least 2")
    offsets = {bw.b - bw.a for bw in x.terms}
    if len(offsets) <= 1:
        # one band: at most one nonzero in each row and column
        _check_dim(N)
        q0 = NumericQ.coerce(q0)
        cols = _columns(x, q0.value, 0, N)
        return max((abs(v) for col in cols for i, v in col.items() if i < N), default=0.0)
    data = matrix(x, q0, N).data
    import numpy as np

    # column j has nonzeros only in rows j + s with s = s0 (mod g), so the
    # residue classes r of the columns split the truncation into blocks
    s0 = min(offsets)
    g = math.gcd(*(s - s0 for s in offsets))
    blocks = (data[(r + s0) % g :: g, r::g] for r in range(min(g, N)))
    return max((float(np.linalg.svd(blk, compute_uv=False)[0]) for blk in blocks if blk.size), default=0.0)


def _window_means(q0, kmax: int, N: int, pick: str) -> list:
    """For each window length k <= kmax, the numpy reduction named by
    ``pick`` ("max" or "min") over n < N-k of the geometric mean of the k
    consecutive weights from n on."""
    if kmax < 1 or N <= kmax:
        raise ValueError("need kmax >= 1 and N > kmax")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    import numpy as np

    pick = getattr(np, pick)
    logs = np.array([0.5 * math.log(n / d) for n, d in islice(_qintegers(q0.value, 1), N)])
    csum = np.concatenate([[0.0], np.cumsum(logs)])
    return [float(math.exp(pick(csum[k:N] - csum[0 : N - k]) / k)) for k in range(1, kmax + 1)]


def spectral_radius_est(q0, kmax: int, N: int):
    """For each window length k <= kmax, the sup over n < N-k of the
    geometric mean of k consecutive weights; the final entry estimates the
    spectral radius of the shift."""
    return _window_means(q0, kmax, N, "max")


def lower_index_est(q0, kmax: int, N: int):
    """Windowed geometric-mean infima; monotonically increasing in k with
    O(1/k) convergence toward (1-q)^(-1/2) (the infimum sits at n = 0)."""
    return _window_means(q0, kmax, N, "min")


class CoherentWitness(namedtuple("CoherentWitness", "eigenvalue entries residual radius outside_disk")):
    """A numeric eigenvector candidate for the lowering operator A with
    eigenvalue c, plus its truncation residual."""

    __slots__ = ()


def coherent_vector(c, q0, N: int) -> CoherentWitness:
    """Build v with v_0 = 1, v_(n+1) = c v_n / alpha_n, so that A v = c v in
    the infinite model, and report the truncation residual |Av - cv|/|v|.

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
    av = [alphas[n] * v[n + 1] for n in range(N - 1)] + [0j]
    # abs() of a complex past the float range, and float **, raise
    # OverflowError where other float arithmetic gives inf or nan
    try:
        residual = math.sqrt(sum(abs(av[n] - c * v[n]) ** 2 for n in range(N)))
        residual /= math.sqrt(sum(abs(z) ** 2 for z in v))
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


def spectrum_facts(op: str, k: int = 1, q0=None) -> SpectrumFacts:
    """Spectral shape of B (shift), A (its adjoint), or C^k (diagonal):
    B has empty point spectrum, the circle as approximate point spectrum,
    and the open disk as compression spectrum; A has the open disk as point
    spectrum, the closed disk as approximate point spectrum, and empty
    compression spectrum; C^k has eigenvalues q^(kn) with one-dimensional
    eigenspaces and their closure as full spectrum.  Only C takes a power
    k; A or B with k != 1 raises ``ValueError``."""
    if op in ("A", "B") and k != 1:
        raise ValueError(f"operator {op} takes no power: k must be 1, got {k}")
    radius_sq = RF_ONE / RF_ONE_MINUS_Q
    numeric = None
    if q0 is not None:
        q0 = NumericQ.coerce(q0)
        numeric = 1.0 / math.sqrt(1.0 - float(q0))
    if op == "B":
        return SpectrumFacts(
            operator="B",
            k=1,
            radius_sq=radius_sq,
            point_spectrum="empty",
            approx_point_spectrum="circle",
            compression_spectrum="open-disk",
            radius_numeric=numeric,
        )
    if op == "A":
        return SpectrumFacts(
            operator="A",
            k=1,
            radius_sq=radius_sq,
            point_spectrum="open-disk",
            approx_point_spectrum="closed-disk",
            compression_spectrum="empty",
            radius_numeric=numeric,
        )
    if op == "C":
        if k < 1:
            raise ValueError("diagonal powers need k >= 1")
        eigenvalues = None
        if q0 is not None:
            eigenvalues = tuple(float(q0.value**(k * n)) for n in range(20))
        return SpectrumFacts(
            operator="C",
            k=k,
            radius_sq=RF_ONE,
            point_spectrum="eigenvalue-list",
            approx_point_spectrum="closure-of-eigenvalues",
            compression_spectrum="eigenvalue-list",
            eigenvalue_formula=f"q^({k}*n)",
            eigenspace="one-dimensional, spanned by the basis vector of index n",
            radius_numeric=1.0 if q0 is not None else None,
            eigenvalues=eigenvalues,
        )
    raise ValueError(f"unknown operator tag {op!r} (expected 'A', 'B', or 'C')")


class DecayReport(namedtuple("DecayReport", "q0 tail verdict")):
    """Column-norm tail of an element: a decaying tail is consistent with
    compactness, a tail bounded away from zero witnesses the opposite.  The
    authoritative compactness answer is the symbolic one."""

    __slots__ = ()


def compact_decay_report(x: Element, q0, N: int) -> DecayReport:
    if N < 1:
        raise ValueError("decay report needs at least one column")
    _check_dim(N)
    q0 = NumericQ.coerce(q0)
    tail = [math.sqrt(sum(v * v for v in col.values())) for col in _columns(x, q0.value, 0, N)]
    peak = max(tail)
    if peak == 0.0 or tail[-1] < 0.5 * peak:
        verdict = "consistent-with-compact"
    else:
        verdict = "non-compact-witness"
    return DecayReport(q0=q0, tail=tuple(tail), verdict=verdict)
