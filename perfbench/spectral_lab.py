"""Workload ``spectral-lab``: seeded ``op_norm``, ``matrix`` and
``compact_decay_report`` calls for N in [100, 300], plus the cheap weight
estimators (``spectral_radius_est``, ``lower_index_est``,
``coherent_vector``), all at q = 1/2, where the test suite pins its
tolerances.

This is the numeric path through ``lie.apply_symbolic``,
``RatFun.evaluate`` and LAPACK, with no rewriting.  Elements containing C
are the costly ones (their columns carry q-powers of degree up to k*N).
Each deck holds the same costly tasks at fixed sizes up to N = 300: the
four tasks on C at N = 300 (three norms and a matrix, a fifth of the deck)
set the 90th percentile, which falls in the middle of them, and the norms
of the six C-free monomials at N = 200 hold the median.

Reference answers: a single monomial is a weighted shift whose norm is its
largest weight; sums are checked against the SVD of the benchmark's own
float matrix; matrices and decay tails against the same float
realization; the estimators against their closed forms; and the
tolerances pinned in the acceptance tests on top (||B^l|| = 2^(l/2) to
1e-8 for N >= 200, ||C^k|| = 1 and the C^k diagonal to 1e-12, the radius
to 1e-6, the lower index within 1% at k = 500, coherent residuals below
1e-8).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from qheis import spectral
from qheis.algebra import BasisWord, Element

from realize import Realization, monomial_weight, qint
from taskdeck import Task, expect

Q = Fraction(1, 2)
N_RANGE = (100, 300)
#: size of the norms of the six C-free monomials, which hold the median
LIGHT_NORM_N = 200
#: sizes of the C-free matrix and decay report of a sum
LIGHT_SIZES = (250, 150)
#: sizes of the tasks with one C: two norms, a norm of a sum and a matrix on
#: C, a fifth of a deck, which hold the 90th percentile, and a decay report
#: on a rotating shape
HEAVY_SIZES = (300, 300, 300, 300, 200)
N_JITTER = 4
REL = 1e-10
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3))
#: C-free monomials (b, k, a): cheap columns
LIGHT = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)]
#: monomials with one C: q-powers of degree up to N in every column
HEAVY = [(0, 1, 0), (0, 1, 1), (1, 1, 0), (0, 1, 2), (2, 1, 0)]


def monomial_norm(bw: BasisWord, c, N: int, real: Realization) -> float:
    """Largest weight of the monomial c*bw among the columns whose image
    stays inside the truncation."""
    best = 0.0
    for j in range(N):
        hit = monomial_weight(bw.b, bw.k, bw.a, j, real.q)
        if hit is not None and hit[0] < N:
            best = max(best, hit[1])
    return abs(real.value(c)) * best


def rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(abs(want), 1e-300)


def norm_task(x: Element, N: int) -> Task:
    def run():
        return spectral.op_norm(x, Q, N)

    def check(value):
        real = Realization(Q)
        if len(x.terms) > 1:
            want = float(np.linalg.svd(real.matrix(x, N), compute_uv=False)[0])
            expect(rel_close(value, want), f"op_norm {value!r}, SVD of the float realization {want!r}")
            return
        ((bw, c),) = x.terms.items()
        want = monomial_norm(bw, c, N, real)
        expect(rel_close(value, want), f"op_norm {value!r}, largest weight {want!r}")
        if c == 1 and bw.k == bw.a == 0 and N >= 200:
            expect(abs(value - 2.0 ** (bw.b / 2)) < 1e-8, f"||B^{bw.b}|| is {value!r}")
        if c == 1 and bw.b == bw.a == 0:
            expect(abs(value - 1.0) < 1e-12, f"||C^{bw.k}|| is {value!r}")

    return Task("op_norm", {"x": str(x), "N": N}, run, check)


def matrix_task(x: Element, N: int) -> Task:
    def run():
        return spectral.matrix(x, Q, N)

    def check(m):
        real = Realization(Q)
        want = real.matrix(x, N)
        expect(m.data.shape == (N, N), f"matrix shape {m.data.shape}")
        err = float(np.max(np.abs(m.data - want)))
        expect(err <= REL * max(1.0, float(np.max(np.abs(want)))), f"matrix differs by {err!r}")
        if len(x.terms) == 1:
            ((bw, c),) = x.terms.items()
            if bw.b == bw.a == 0:
                cv = real.value(c)
                diag = np.array([cv * real.q ** (bw.k * n) for n in range(N)])
                err = float(np.max(np.abs(np.diag(m.data) - diag)))
                expect(err < 1e-12 * max(1.0, abs(cv)), f"C^{bw.k} diagonal differs by {err!r}")

    return Task("matrix", {"x": str(x), "N": N}, run, check)


def decay_task(x: Element, N: int) -> Task:
    compact = all(bw.k >= 1 for bw in x.terms)

    def run():
        return spectral.compact_decay_report(x, Q, N)

    def check(rep):
        real = Realization(Q)
        expect(len(rep.tail) == N, f"tail has {len(rep.tail)} entries")
        for n, got in enumerate(rep.tail):
            want = math.sqrt(sum(v * v for v in real.column(x, n).values()))
            # entries below 1e-300 are purged from the program's columns
            expect(rel_close(got, want) or abs(got - want) < 1e-300, f"tail[{n}] {got!r}, reference {want!r}")
        verdict = "consistent-with-compact" if compact else "non-compact-witness"
        expect(rep.verdict == verdict, f"verdict {rep.verdict}, expected {verdict}")

    return Task("compact_decay_report", {"x": str(x), "N": N}, run, check)


def radius_closed_form(kmax: int, N: int) -> list:
    """Windowed geometric means of the weights: they increase with n, so
    the sup over windows of length k is the last full window."""
    logs = [0.5 * math.log(qint(n + 1, float(Q))) for n in range(N)]
    return [math.exp(sum(logs[N - k :]) / k) for k in range(1, kmax + 1)]


def lower_closed_form(kmax: int) -> list:
    """(1-q)^(-1/2) prod_(i<k) (1-q^(i+1))^(1/2k): the inf sits at n = 0."""
    q, acc, out = float(Q), 0.0, []
    for k in range(1, kmax + 1):
        acc += math.log(1 - q**k)
        out.append(math.exp(acc / (2 * k)) / math.sqrt(1 - q))
    return out


def _check_estimates(what: str, est, want) -> None:
    expect(len(est) == len(want), f"{len(est)} {what} estimates, expected {len(want)}")
    for k, (got, w) in enumerate(zip(est, want), start=1):
        expect(rel_close(got, w), f"{what} window {k}: {got!r}, closed form {w!r}")


def radius_task(kmax: int, N: int) -> Task:
    def run():
        return spectral.spectral_radius_est(Q, kmax, N)

    def check(est):
        _check_estimates("radius", est, radius_closed_form(kmax, N))
        expect(abs(est[-1] - 1 / math.sqrt(1 - float(Q))) < 1e-6, f"radius {est[-1]!r}")

    return Task("spectral_radius_est", {"kmax": kmax, "N": N}, run, check)


def lower_task(kmax: int, N: int) -> Task:
    def run():
        return spectral.lower_index_est(Q, kmax, N)

    def check(est):
        _check_estimates("lower index", est, lower_closed_form(kmax))
        if kmax >= 500:
            limit = 1 / math.sqrt(1 - float(Q))
            expect(abs(est[499] - limit) / limit < 0.01, f"lower index at k=500 is {est[499]!r}")

    return Task("lower_index_est", {"kmax": kmax, "N": N}, run, check)


def coherent_residual(c: complex, N: int) -> float:
    """|A v - c v| / |v| for the truncated eigenvector v_n = c^n / sqrt({n}_q!):
    only the last component survives, c v_(N-1)."""
    q = float(Q)
    v, norm_sq = 1 + 0j, 1.0
    for n in range(N - 1):
        v = v * c / math.sqrt(qint(n + 1, q))
        norm_sq += abs(v) ** 2
    return abs(c * v) / math.sqrt(norm_sq)


def residual_close(got: float, want: float) -> bool:
    """Relative agreement, with an absolute floor for the rounding noise of
    the components that cancel exactly in the infinite model."""
    return abs(got - want) <= REL * want + 1e-14


def coherent_task(c: complex, N: int) -> Task:
    def run():
        return spectral.coherent_vector(c, Q, N)

    def check(w):
        q = float(Q)
        expect(not w.outside_disk, "eigenvalue flagged outside the disk")
        want = coherent_residual(c, N)
        expect(residual_close(w.residual, want), f"residual {w.residual!r}, closed form {want!r}")
        if N >= 300:
            expect(w.residual < 1e-8, f"residual {w.residual!r} at N = {N}")
        want = 1 + 0j
        for n in range(12):
            got = w.entries.get(n, 0j)
            expect(abs(got - want) <= REL * abs(want), f"entry {n}: {got!r}, reference {want!r}")
            want = want * c / math.sqrt(qint(n + 1, q))

    return Task("coherent_vector", {"c": c, "N": N}, run, check)


class Workload:
    def deck(self, rng, index: int) -> list:
        """Every deck holds the same shapes at the same sizes, except for a
        few cheap terms and the decay report's shape, which rotate with the
        deck number; the seed draws the coefficients, a small jitter on each
        size, and the estimator and eigenvalue parameters."""
        d = index
        c = BasisWord(0, 1, 0)
        light = iter([BasisWord(*LIGHT[(d + j) % len(LIGHT)]) for j in range(5)])
        heavy_sizes = iter(HEAVY_SIZES)
        light_sizes = iter(LIGHT_SIZES)

        def size(n: int) -> int:
            return min(max(n + rng.randint(-N_JITTER, N_JITTER), N_RANGE[0]), N_RANGE[1])

        def element(*shapes) -> Element:
            return Element({bw: rng.choice(COEFFS) for bw in shapes})

        radius = (1 - float(Q)) ** -0.5
        return [
            norm_task(element(c), size(next(heavy_sizes))),
            norm_task(element(c), size(next(heavy_sizes))),
            norm_task(element(c, next(light)), size(next(heavy_sizes))),
            matrix_task(element(c), size(next(heavy_sizes))),
            decay_task(element(BasisWord(*HEAVY[d % len(HEAVY)])), size(next(heavy_sizes))),
            # C^2 doubles the q-power degrees, so it runs at the small sizes
            norm_task(Element.monomial(0, 2, 0, rng.choice(COEFFS)), rng.randint(100, 150)),
            *(norm_task(element(BasisWord(*shape)), size(LIGHT_NORM_N)) for shape in LIGHT),
            matrix_task(element(next(light), next(light)), size(next(light_sizes))),
            decay_task(element(next(light), next(light)), size(next(light_sizes))),
            radius_task(rng.randint(10, 50), rng.randint(200, 500)),
            radius_task(50, 500),
            lower_task(rng.randint(50, 400), rng.randint(450, 500)),
            lower_task(500, 520),
            coherent_task(cmath.rect(rng.uniform(0, 0.9 * radius), rng.uniform(0, 2 * math.pi)), rng.randint(*N_RANGE)),
            # the eigenvalues and size at which the acceptance tests pin the residual
            coherent_task(rng.choice((0.0, 0.7, 1.0, 0.9 * radius * cmath.exp(1j * math.pi / 3))), 300),
        ]
