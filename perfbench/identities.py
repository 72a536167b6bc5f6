"""Workload ``exact-identities``: one task is one report of the nested
commutator identity suite, for one of its four families at
(k, l) with k <= 8 and l <= 6.

Deep brackets whose left factor is a single generator reuse the same few
words, so the rewrite memo stays hot and the time goes to coefficient
arithmetic of growing degree.

Reference answers:

* the two rebuild families must return exactly the monomial they rebuild;
* the two gamma families are never asserted to hold or to fail.  The
  check is that ``difference == lhs - rhs`` and that the diagonal of each
  side matches a float reference: nested commutators of truncated float
  shift matrices for ``gamma``, the closed-form expression evaluated in
  floats for its claimed right-hand side, and q^((k+2)n) for C^(k+2).
"""

from __future__ import annotations

from fractions import Fraction

from qheis import lie
from qheis.algebra import Element

from realize import Realization, close, qint
from taskdeck import Task, expect

KMAX = 8
LMAX = 6
Q_CHECK = Fraction(1, 2)
#: leading diagonal entries compared; the truncated matrices are exact there
DIAG_ENTRIES = 10
#: matrix size for the float commutators: deep enough below the compared
#: entries that the truncation corner cannot reach them
FLOAT_DIM = 2 * DIAG_ENTRIES + 4 * KMAX + 20
REL = 1e-9

REBUILDS = {
    "ck-al-bracket-build": ("build_ck_al_via_ad", lambda k, l: (0, k + 1, l)),
    "bl-ck-bracket-build": ("build_bl_ck_via_ad", lambda k, l: (l, k + 1, 0)),
}


class Oracle:
    """Float diagonals of gamma(k) from truncated shift matrices."""

    def __init__(self):
        self.real = Realization(Q_CHECK)
        self._gamma = {}

    def gamma_diag(self, k: int):
        if not self._gamma:
            a, b, c = self.real.shift_matrices(FLOAT_DIM)
            t = c @ a - a @ c
            for i in range(KMAX + 1):
                g = b @ t - t @ b
                self._gamma[i] = g.diagonal()[:DIAG_ENTRIES].copy()
                t = -(c @ t - t @ c)
        return self._gamma[k]

    def closed_form_diag(self, k: int):
        q = self.real.q
        s = (q - 1.0) ** (k + 1)
        return [
            q ** (-k) * s * qint(k + 1, q) * q ** ((k + 2) * n)
            - q ** (1 - k) * s * qint(k, q) * q ** ((k + 1) * n)
            for n in range(DIAG_ENTRIES)
        ]

    def gamma_sum_diag(self, k: int):
        q = self.real.q
        total = sum((q - 1.0) ** (-(i + 1)) * self.gamma_diag(i) for i in range(k + 1))
        return list(q**k / qint(k + 1, q) * total)

    def check_diagonal(self, x: Element, want, what: str) -> None:
        """x must be diagonal, with leading entries equal to ``want``."""
        expect(all(bw.b == 0 and bw.a == 0 for bw in x.terms), f"{what} is not diagonal")
        for n in range(DIAG_ENTRIES):
            got = self.real.column(x, n).get(n, 0.0)
            scale = self.real.apply(x, {n: 1.0}, absolute=True).get(n, 0.0)
            expect(
                close(got, float(want[n]), scale, REL),
                f"{what}: diagonal entry {n} is {got!r}, float reference {float(want[n])!r}",
            )


def _check_report(r, identity: str, params: dict) -> None:
    expect(isinstance(r, lie.IdentityReport), f"expected an IdentityReport, got {type(r).__name__}")
    expect(r.identity == identity and r.params == params, "report labels do not match the task")
    expect(r.difference == r.lhs - r.rhs, "difference is not lhs - rhs")
    expect(r.verdict == (r.lhs == r.rhs), "verdict disagrees with lhs == rhs")


def _rebuild(family: str, k: int, l: int) -> Task:
    build, target = REBUILDS[family]
    params = {"k": k, "l": l}

    def run():
        # looked up per call, so that a traced run sees the traced callable
        return lie.IdentityReport(
            identity=family, params=params, lhs=getattr(lie, build)(k, l), rhs=Element.monomial(*target(k, l))
        )

    def check(r):
        _check_report(r, family, params)
        expect(r.lhs == Element.monomial(*target(k, l)), f"{family} {params}: lhs is not the monomial")

    return Task(family, params, run, check)


def _gamma_closed_form(oracle: Oracle, k: int) -> Task:
    params = {"k": k}

    def run():
        return lie.IdentityReport(
            identity="gamma-closed-form", params=params, lhs=lie.gamma(k), rhs=lie.gamma_closed_form_rhs(k)
        )

    def check(r):
        _check_report(r, "gamma-closed-form", params)
        oracle.check_diagonal(r.lhs, oracle.gamma_diag(k), f"gamma({k})")
        oracle.check_diagonal(r.rhs, oracle.closed_form_diag(k), f"gamma_closed_form_rhs({k})")

    return Task("gamma-closed-form", params, run, check)


def _gamma_sum(oracle: Oracle, k: int) -> Task:
    params = {"k": k}

    def run():
        return lie.IdentityReport(
            identity="ck-from-gamma-sum", params=params, lhs=Element.monomial(0, k + 2, 0), rhs=lie.gamma_sum_rhs(k)
        )

    def check(r):
        _check_report(r, "ck-from-gamma-sum", params)
        q = oracle.real.q
        oracle.check_diagonal(r.lhs, [q ** ((k + 2) * n) for n in range(DIAG_ENTRIES)], f"C^{k + 2}")
        oracle.check_diagonal(r.rhs, oracle.gamma_sum_diag(k), f"gamma_sum_rhs({k})")

    return Task("ck-from-gamma-sum", params, run, check)


class Workload:
    def __init__(self):
        self.oracle = Oracle()

    def deck(self, rng, index: int) -> list:
        """Each family once at every k in 0..KMAX.  l runs through 1..LMAX
        with the deck number, so every run of LMAX decks holds every (k, l)
        once for each rebuild family and what a run costs does not depend
        on its seed; the seed sets the order of the tasks in each deck."""
        tasks = []
        for k in range(KMAX + 1):
            for f, family in enumerate(REBUILDS):
                tasks.append(_rebuild(family, k, (index + k + f) % LMAX + 1))
            tasks.append(_gamma_closed_form(self.oracle, k))
            tasks.append(_gamma_sum(self.oracle, k))
        return tasks
