"""Truncated weighted-shift realization: weights, matrices, norms, spectra."""

import cmath
import decimal
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from conftest import basis_words_up_to, random_element
from qheis import expr, spectral
from qheis.algebra import A, B, BasisWord, C, Element, I, bracket, element_power, multiply, normalize
from qheis.lie import apply_symbolic
from qheis.ratfun import RF_ONE, RF_ONE_MINUS_Q, RF_Q, PoleError, RatFun, qbracket_value
from qheis.spectral import (
    MAX_DIM,
    PURGE_EPS,
    NumericQ,
    _power_float,
    _qintegers,
    apply_numeric,
    coherent_vector,
    compact_decay_report,
    lower_index_est,
    matrix,
    op_norm,
    spectral_radius_est,
    spectrum_facts,
    weights,
)

HALF = NumericQ(Fraction(1, 2))
SQRT2 = math.sqrt(2)
ORACLE_QS = (Fraction(1, 2), Fraction(1, 3), Fraction(5, 7))
#: q close to 1: the integers of a column grow fastest with its index
NEAR_ONE = Fraction(99, 100)


def test_numeric_q_validation():
    assert float(NumericQ.coerce("1/4")) == 0.25
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            NumericQ(bad)
    # coerce refuses what the constructor refuses, with the same message,
    # whether the value comes as a Fraction, an int, a str or a float
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2), 0, 1, 2, -1):
        for value in (bad, str(bad), float(bad)):
            with pytest.raises(ValueError) as made:
                NumericQ(value)
            with pytest.raises(ValueError) as coerced:
                NumericQ.coerce(value)
            assert str(coerced.value) == str(made.value), value
    for good in (Fraction(1, 4), "1/4", 0.25, Fraction(99, 100), "99/100", 0.99, Fraction(1, 10**30), "1e-30"):
        q = NumericQ.coerce(good)
        assert type(q) is NumericQ and type(q.value) is Fraction, good
        assert q.value == NumericQ(good).value, good
    assert NumericQ.coerce(HALF) is HALF


def test_weights():
    w = weights(HALF, 50)
    assert w.values[0] == 1.0
    assert w.values[1] == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert abs(w.values[49] - SQRT2) < 1e-12
    assert all(w.values[i] < w.values[i + 1] for i in range(49))
    assert all(v < SQRT2 for v in w.values)
    with pytest.raises(ValueError):
        weights(HALF, 0)


def test_apply_numeric_examples():
    assert apply_numeric(C, 2, HALF) == {2: pytest.approx(0.25, abs=1e-16)}
    assert apply_numeric(A, 0, HALF) == {}
    vec = apply_numeric(element_power(B, 2), 1, HALF)
    assert set(vec) == {3}
    assert vec[3] == pytest.approx(math.sqrt(21 / 8), abs=1e-14)


def test_apply_numeric_keeps_entries_below_the_normal_range():
    # C v_1 = q v_1, so C^k v_1 = q^k v_1: c^2 r is below the normal range of
    # a double while the entry itself is far above PURGE_EPS
    got = apply_numeric(expr.evaluate("C^600"), 1, Fraction(1, 2))
    assert list(got) == [1]
    assert got[1] == pytest.approx(2.0**-600, rel=1e-12)
    got = apply_numeric(expr.evaluate("3*C^520"), 1, Fraction(1, 3))
    want = float(3 * Fraction(1, 3) ** 520)
    assert list(got) == [1]
    assert got[1] == pytest.approx(want, rel=1e-12)
    assert want > 1e-300


def test_apply_numeric_matches_symbolic():
    for bw in basis_words_up_to(3):
        x = Element({bw: RF_Q})
        for n in range(11):
            sym = apply_symbolic(x, n).numeric(HALF.value)
            num = apply_numeric(x, n, HALF)
            assert num == sym


def _oracle_column(x, n, q):
    """The exact symbolic action rounded once per merged scalar, with the
    purge threshold of the numeric route applied."""
    return {i: v for i, v in apply_symbolic(x, n).numeric(q).items() if abs(v) >= PURGE_EPS}


def _oracle_elements():
    rng = random.Random(3)
    q_over = RF_Q / RF_ONE_MINUS_Q
    inv = RF_ONE / RF_ONE_MINUS_Q
    third = RatFun.from_fraction(Fraction(1, 3))
    # terms with equal (b, a) and different k share target and radicand and
    # must merge before rounding; C - I cancels exactly on v_0
    merged = [
        Element({BasisWord(2, 0, 0): q_over, BasisWord(2, 1, 0): 3 * RF_ONE, BasisWord(2, 3, 0): -inv}),
        Element({BasisWord(0, 1, 2): q_over, BasisWord(0, 3, 2): RF_ONE, BasisWord(0, 0, 2): third}),
        Element({BasisWord(0, 1, 0): RF_ONE, BasisWord(0, 0, 0): -RF_ONE, BasisWord(1, 2, 0): q_over}),
        Element({BasisWord(1, 0, 0): inv, BasisWord(1, 2, 0): -RF_Q, BasisWord(0, 2, 1): q_over, BasisWord(0, 0, 1): RF_ONE}),
    ]
    # bands wider than the truncation of the band fill tests, N = 18
    wide = [expr.evaluate("B^20+A"), expr.evaluate("C*A^19+B")]
    return merged + [random_element(rng, max_terms=5) for _ in range(24)] + wide


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
def test_band_fill_equals_symbolic_oracle_bitwise(q):
    N = 18
    for x in _oracle_elements():
        data = matrix(x, q, N).data
        tail = compact_decay_report(x, q, N).tail
        for n in range(N):
            want = _oracle_column(x, n, q)
            assert apply_numeric(x, n, q) == want, (str(x), n)
            column = np.zeros(N)
            for i, v in want.items():
                if i < N:
                    column[i] = v
            assert (data[:, n] == column).all(), (str(x), n)
            assert tail[n] == math.sqrt(sum(v * v for v in want.values())), (str(x), n)


#: bands whose entries are zero (a coefficient that vanishes at q = 1/2) or
#: purged below PURGE_EPS, with C and without: a band with no C is filled
#: up to its limit entry, which must be 0.0 here, not -0.0
ZERO_BANDS = ("(1-2*q)*B^3*C", "q^2000*B^3*C", "(1-2*q)*B^3", "q^2000*B^3", "(2*q-1)*C", "-(q^2000)*B^3")


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_band_stores_equal_the_column_view(q):
    # matrix stores each band as one strided diagonal, and the decay report
    # sums the squares band by band: both agree with an assembly, entry by
    # entry and column by column, from the columns of apply_numeric, also for
    # N <= h, where a band leaves the truncation
    for x in _oracle_elements() + [expr.evaluate(text) for text in ZERO_BANDS]:
        h = max(bw.a + bw.b for bw in x.terms)
        for N in sorted({1, 2, 3, h, h + 1, 120} - {0}):
            cols = [apply_numeric(x, n, q) for n in range(N)]
            want = np.zeros((N, N))
            for n, col in enumerate(cols):
                for i, v in col.items():
                    if i < N:
                        want[i, n] = v
            assert matrix(x, q, N).data.tobytes() == want.tobytes(), (str(x), N)
            tail = tuple(math.sqrt(sum(v * v for v in col.values())) for col in cols)
            assert compact_decay_report(x, q, N).tail == tail, (str(x), N)
    for text in ZERO_BANDS:
        assert not matrix(expr.evaluate(text), HALF, 40).data.any(), text


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_deep_columns_equal_symbolic_oracle_bitwise(q):
    # at these indices the running numerators and denominators carry
    # thousands of bits, and are never reduced before the one rounding
    for x in _oracle_elements():
        for n in (500, 2000):
            assert apply_numeric(x, n, q) == _oracle_column(x, n, q), (str(x), n)


def test_matrix_near_one_equals_symbolic_oracle_bitwise():
    N = 120
    for x in _oracle_elements()[:12]:
        data = matrix(x, NEAR_ONE, N).data
        for n in range(N):
            column = np.zeros(N)
            for i, v in _oracle_column(x, n, NEAR_ONE).items():
                if i < N:
                    column[i] = v
            assert (data[:, n] == column).all(), (str(x), n)


@pytest.mark.parametrize("q", ORACLE_QS, ids=str)
def test_diagonal_columns_through_subnormal_squares(q):
    # c^2 q^(2kn) (c = 1, 3 or 1/3) turns subnormal near 2kn log2(1/q) = 1022
    # and rounds to zero near 1075, both far above the purge threshold; the
    # one-term bands there leave the one-pass rounding for scaled_root
    third = RatFun.from_fraction(Fraction(1, 3))
    elements = [(expr.evaluate("C*A^2"), 1), (expr.evaluate("B^2*C"), 1)]
    for k in (1, 2, 3):
        elements += [(element_power(C, k), k), (3 * element_power(C, k) + third * element_power(C, k + 1), k)]
    for x, k in elements:
        N = math.ceil(560 / (k * math.log2(1 / q)))
        data = matrix(x, q, N).data
        for n in range(N):
            want = _oracle_column(x, n, q)
            assert apply_numeric(x, n, q) == want, (str(x), n)
            column = np.zeros(N)
            for i, v in want.items():
                if i < N:
                    column[i] = v
            assert data[:, n].tobytes() == column.tobytes(), (str(x), n)
    assert apply_numeric(C, 520, HALF) == {520: 2.0**-520}


def _oracle_or_overflow(x, n, q):
    """The oracle column, or None where an entry of it is past the float range."""
    try:
        return _oracle_column(x, n, q)
    except OverflowError:
        return None


def _one_term_bands(rng):
    """Seeded one-term bands c B^b C^k A^a, h = a + b <= 3, with both signs
    of c and |c| from 2^-1000 to 2^1020, drawn often near 2^-511 and 2^512,
    where the squares of a band leave the normal range of a double in its
    middle, and fixed bands that cross 2^-1022 or the float range."""
    fixed = ["2^600*C", "2^600*C^3", "-2^520*B^2*C^2", "(1/2^500)*C^3*A", "-(1/2^512)*B^3", "2^511*A^2", "-(1/2^600)*C"]
    # bands that cross in their middle also at q = 99/100
    fixed += ["(1/2^516)*B^3", "-(1/2^510)*C^3", "2^512*C^3"]
    bands = [expr.evaluate(text) for text in fixed]
    for _ in range(40):
        h, k = rng.randint(0, 3), rng.randint(0, 3)
        b = rng.choice((0, h))
        e = rng.choice((rng.randint(-1000, 1020), rng.randint(-560, -460), rng.randint(460, 560)))
        c = rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.randint(1, 9)) * Fraction(2) ** e
        bands.append(Element({BasisWord(b, k, h - b): RatFun.from_fraction(c)}))
    return bands


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_one_term_bands_on_both_routes_equal_symbolic_oracle(q, monkeypatch):
    # a one-term band is rounded in one pass where every square is a normal
    # double, and by scaled_root where some square is not: the sweep takes
    # both routes, and both give the oracle's entries bit for bit
    routes = {"one pass": 0, "scaled_root": 0}

    def counted(route, f):
        def call(*args):
            routes[route] += 1
            return f(*args)

        return call

    monkeypatch.setattr(spectral, "truediv", counted("one pass", spectral.truediv))
    monkeypatch.setattr(spectral, "scaled_root", counted("scaled_root", spectral.scaled_root))
    N = 40
    for x in _one_term_bands(random.Random(31)):
        ((bw, _),) = x.terms.items()
        cols = [_oracle_or_overflow(x, n, q) for n in range(N)]
        if any(cols[n] is None for n in range(bw.a, N - bw.b)):
            with pytest.raises(OverflowError):
                matrix(x, q, N)
        else:
            want = np.zeros((N, N))
            for n in range(bw.a, N - bw.b):
                for i, v in cols[n].items():
                    want[i, n] = v
            assert matrix(x, q, N).data.tobytes() == want.tobytes(), str(x)
        # one-column windows past the first column
        for n in (1, 9, 23, 300):
            if (want := _oracle_or_overflow(x, n, q)) is None:
                with pytest.raises(OverflowError):
                    apply_numeric(x, n, q)
            else:
                assert apply_numeric(x, n, q) == want, (str(x), n)
    assert all(routes.values()), routes


def test_qinteger_numerators_are_the_exact_qintegers():
    for q in ORACLE_QS + (NEAR_ONE,):
        for lo in (1, 2, 7, 300):
            nums = _qintegers(q, lo)
            for m in range(lo, lo + 60):
                assert Fraction(next(nums), q.denominator ** (m - 1)) == qbracket_value(m, q), (q, m)


#: bands with no C, filled up to the column that rounds to their limit
#: entry: a negative coefficient, entries purged in the first columns only,
#: and squares below the normal range
SATURATING = ("B^3", "-5/3*A^2", "(5/10^301)*B^3", "(1/10^160)*B")


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_band_without_c_past_its_limit_equals_symbolic_oracle(q):
    N = 130
    for text in SATURATING:
        x = expr.evaluate(text)
        data = matrix(x, q, N).data
        for n in range(N):
            column = np.zeros(N)
            for i, v in _oracle_column(x, n, q).items():
                if i < N:
                    column[i] = v
            assert data[:, n].tobytes() == column.tobytes(), (text, n)
    # 16e307 is inside the float range, 16e307 sqrt({2}_q) and the limit
    # entry 16e307 (1-q)^(-1/2) are not
    x = expr.evaluate("16*10^307*B")
    assert matrix(x, q, 2).data[1, 0] == 16e307
    with pytest.raises(OverflowError):
        apply_numeric(x, 1, q)


def test_saturated_qintegers_are_not_computed(monkeypatch):
    # at q = 1/2, {m}_q rounds to 2.0 from m = 54 on, and so does every entry
    # of a band with no C from about its column 54
    read = []
    qintegers = spectral._qintegers

    def counting(q0, lo):
        for pair in qintegers(q0, lo):
            read.append(pair)
            yield pair

    monkeypatch.setattr(spectral, "_qintegers", counting)
    assert weights(HALF, 2000).values[53:] == (SQRT2,) * 1947
    assert len(read) == 54
    read.clear()
    spectral_radius_est(HALF, 50, 500)
    assert len(read) == 1
    read.clear()
    data = matrix(expr.evaluate("A^3+B^100"), HALF, 600).data
    assert len(read) < 160
    assert (np.diagonal(data, -100)[60:] == 2.0**50).all()


def test_entry_whose_square_overflows_a_float():
    # (1/(1-q))^600 = 2^600 at q = 1/2, so c^2 r is past the float range
    x = expr.evaluate("(1/(1-q))^600*B")
    want = math.ldexp(math.sqrt(float(qbracket_value(9, HALF.value))), 600)
    got = apply_numeric(x, 8, HALF)
    assert set(got) == {9}
    assert abs(got[9] - want) <= 1e-12 * want
    assert apply_symbolic(x, 8).numeric(HALF.value) == got
    assert matrix(x, HALF, 10).data[9, 8] == got[9]
    with pytest.raises(OverflowError):
        apply_numeric(expr.evaluate("(1/(1-q))^1100*B"), 8, HALF)


def test_truncation_never_computes_rows_past_it():
    # every entry of these bands lies at a row >= N, where it would be past
    # the float range
    assert not matrix(expr.evaluate("(1/(1-q))^1100*B^3"), HALF, 3).data.any()
    assert op_norm(expr.evaluate("(1/(1-q))^1100*(B^3+C*B^3)"), HALF, 3) == 0.0


def test_pole_at_q0_raises():
    pole = Element.monomial(1, 1, 0, RF_ONE / (RF_ONE - 2 * RF_Q)) + C
    with pytest.raises(PoleError):
        matrix(pole, HALF, 6)
    with pytest.raises(PoleError):
        apply_numeric(pole, 3, HALF)
    with pytest.raises(PoleError):
        compact_decay_report(pole, HALF, 6)
    assert matrix(pole, Fraction(1, 3), 6).data[1, 0] == 3.0
    # (A - 2 C A)/(1-2q) sends v_2 to sqrt({2}_q) v_1: the pole cancels only
    # after the two terms merge, which the per-term evaluation does not do
    cancelled = Element.monomial(0, 0, 1, RF_ONE / (RF_ONE - 2 * RF_Q)) + Element.monomial(
        0, 1, 1, -2 * RF_ONE / (RF_ONE - 2 * RF_Q)
    )
    assert apply_symbolic(cancelled, 2).numeric(HALF.value) == {1: math.sqrt(1.5)}
    with pytest.raises(PoleError):
        matrix(cancelled, HALF, 3)
    with pytest.raises(PoleError):
        apply_numeric(cancelled, 2, HALF)
    # op_norm of several bands evaluates every term before it fills a column,
    # of one band reads its entries
    with pytest.raises(PoleError):
        op_norm(pole, HALF, 6)
    with pytest.raises(PoleError):
        op_norm(cancelled, HALF, 3)
    with pytest.raises(PoleError):
        op_norm(pole - C, HALF, 6)


def last_window_means(exact: list, kmax: int) -> list:
    """exp of the mean log weight of each last window of the exact q-integers
    {1}_q ... {N}_q: 0.5 log {m}_q summed over m = N-1, N-2, ..., N-k, from
    the largest m down, as the definition of the radius estimate reads it."""
    logs = [0.5 * math.log(float(v)) for v in exact[len(exact) - 1 - kmax : len(exact) - 1]]
    return [math.exp(s / k) for k, s in enumerate(accumulate(reversed(logs)), 1)]


def test_weights_and_estimators_from_exact_qintegers():
    for q in ORACLE_QS:
        exact = [qbracket_value(n + 1, q) for n in range(300)]
        assert weights(q, 300).values == tuple(math.sqrt(float(v)) for v in exact)
        logs = np.array([0.5 * math.log(float(v)) for v in exact])
        csum = np.concatenate([[0.0], np.cumsum(logs)])
        spans = [csum[k:300] - csum[0 : 300 - k] for k in range(1, 41)]
        radius = spectral_radius_est(q, 40, 300)
        assert radius == last_window_means(exact, 40)
        assert radius == pytest.approx([math.exp(np.max(s) / k) for k, s in enumerate(spans, 1)], rel=1e-12, abs=0)
        assert lower_index_est(q, 40, 300) == [math.exp(np.min(s) / k) for k, s in enumerate(spans, 1)]


#: (kmax, N) of the estimators: one window length, every window length of a
#: truncation, and the largest truncation
ESTIMATOR_GRID = [(1, 2)] + [(N - 1, N) for N in (2, 3, 66, 520)] + [(500, 520), (1999, 2000)]


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_block_estimators_equal_the_per_length_reduction(q):
    for kmax, N in ESTIMATOR_GRID:
        exact = [qbracket_value(n + 1, q) for n in range(N)]
        logs = np.array([0.5 * math.log(float(v)) for v in exact])
        csum = np.concatenate([[0.0], np.cumsum(logs)])
        spans = [csum[k:N] - csum[0 : N - k] for k in range(1, kmax + 1)]
        radius = spectral_radius_est(q, kmax, N)
        assert radius == last_window_means(exact, kmax), (kmax, N)
        scan = [math.exp(np.max(s) / k) for k, s in enumerate(spans, 1)]
        assert radius == pytest.approx(scan, rel=1e-12, abs=0), (kmax, N)
        lower = lower_index_est(q, kmax, N)
        assert lower == [math.exp(np.min(s) / k) for k, s in enumerate(spans, 1)], (kmax, N)
        assert all(type(v) is float for v in radius + lower), (kmax, N)


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE, Fraction(9999, 10000)), ids=str)
def test_radius_of_one_window_is_the_largest_weight(q):
    # a window of one weight has that weight as its geometric mean, and the
    # largest weight inside the truncation is alpha_(N-2)
    for N in (2, 3, 66, 300, 2000):
        largest = weights(q, N).values[N - 2]
        assert abs(spectral_radius_est(q, 1, N)[0] - largest) <= 2 * math.ulp(largest), N


@pytest.mark.parametrize("q, kmax, N", [(Fraction(99, 100), 100, 600), (Fraction(9999, 10000), 300, 2000)], ids=str)
def test_radius_against_a_decimal_reference(q, kmax, N):
    with decimal.localcontext(prec=50):
        total = decimal.Decimal(0)
        reference = []
        for k, m in enumerate(range(N - 1, N - 1 - kmax, -1), 1):
            value = qbracket_value(m, q)
            total += (decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)).ln() / 2
            reference.append(float((total / k).exp()))
    radius = spectral_radius_est(q, kmax, N)
    assert len(radius) == kmax
    for k, (got, want) in enumerate(zip(radius, reference), 1):
        assert abs(got - want) <= 64 * math.ulp(want), k


def test_matrix_examples():
    m = matrix(C, HALF, 3)
    assert np.allclose(np.diag(m.data), [1.0, 0.5, 0.25])
    assert np.allclose(matrix(I, HALF, 4).data, np.eye(4))
    defect = normalize(multiply(A, B) - RF_Q * multiply(B, A) - I)
    assert matrix(defect, HALF, 10).max_abs() < 1e-14
    assert matrix(multiply(A, B) - RF_Q * multiply(B, A), HALF, 10).data == pytest.approx(
        np.eye(10), abs=1e-14
    )
    with pytest.raises(ValueError):
        matrix(B, HALF, 0)


def test_matrix_diagonal_powers():
    for k in range(1, 4):
        m = matrix(element_power(C, k), HALF, 50)
        expected = np.array([0.5 ** (k * n) for n in range(50)])
        assert np.max(np.abs(np.diag(m.data) - expected)) < 1e-12
        off = m.data - np.diag(np.diag(m.data))
        assert np.max(np.abs(off)) == 0.0


def test_adjointness_of_truncations():
    ma, mb = matrix(A, HALF, 40), matrix(B, HALF, 40)
    assert np.max(np.abs(ma.data - mb.data.T)) < 1e-14


def test_apply_then_project_semantics():
    # columns are computed in the infinite model: the product of truncated
    # matrices corrupts exactly the final column of A.B, nothing else
    n = 12
    prod = matrix(A, HALF, n).data @ matrix(B, HALF, n).data
    exact = matrix(multiply(A, B), HALF, n).data
    assert np.max(np.abs(prod[:, : n - 1] - exact[:, : n - 1])) < 1e-14
    assert abs(prod[n - 1, n - 1] - exact[n - 1, n - 1]) > 0.5


def test_op_norm_shift_powers():
    for l, target in ((1, SQRT2), (2, 2.0), (3, 2 * SQRT2)):
        value = op_norm(element_power(B, l), HALF, 200)
        assert abs(value - target) < 1e-8, (l, value)
    assert abs(op_norm(B, HALF, 200) - SQRT2) < 1e-9
    # adjoint powers have the same norms
    assert abs(op_norm(element_power(A, 2), HALF, 200) - 2.0) < 1e-8


def test_op_norm_diagonal_powers():
    for k in range(1, 4):
        assert abs(op_norm(element_power(C, k), HALF, 50) - 1.0) < 1e-12


def _monomial_norm(bw, c, q, N):
    """A monomial is a weighted shift: its truncated norm is |c(q0)| times
    the largest weight product over the columns whose image stays below N,
    here computed in floating point from (1 - q^j)/(1 - q)."""
    qf = float(q)
    best = 0.0
    for n in range(bw.a, N):
        m = n - bw.a
        if m + bw.b >= N:
            break
        rad = math.prod((1 - qf**j) / (1 - qf) for j in range(m + 1, m + 1 + bw.a + bw.b))
        best = max(best, qf ** (bw.k * m) * math.sqrt(rad))
    return abs(float(c.evaluate(q))) * best


def test_op_norm_equals_monomial_weight_oracle():
    coeff = -3 * RF_Q / RF_ONE_MINUS_Q
    words = [bw for bw in basis_words_up_to(4) if bw.degree <= 4]
    for N in (40, 120):
        for bw in words:
            want = _monomial_norm(bw, coeff, HALF.value, N)
            got = op_norm(Element.monomial(bw.b, bw.k, bw.a, coeff), HALF, N)
            assert abs(got - want) <= 1e-12 * want, (str(bw), N, got, want)


def _one_band_elements(rng):
    """Seeded elements whose terms share one (b, a), pure diagonals included,
    with several k per band and q/(1-q) among the coefficients."""
    coeffs = (RF_ONE, -3 * RF_ONE, RF_Q / RF_ONE_MINUS_Q, RF_ONE / RF_ONE_MINUS_Q, RatFun.from_fraction(Fraction(-2, 5)))
    for b, a in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)):
        for _ in range(3):
            ks = rng.sample(range(4), rng.randint(1, 3))
            yield Element({BasisWord(b, k, a): rng.choice(coeffs) for k in ks})


def _svd_norm(x, q, N):
    return float(np.linalg.svd(matrix(x, q, N).data, compute_uv=False)[0])


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_op_norm_of_one_band_is_its_largest_entry(q):
    # at most one nonzero in each row and column: the singular values are
    # the absolute entries, each rounded correctly
    rng = random.Random(q.denominator)
    for x in _one_band_elements(rng):
        N = rng.randint(2, 160)
        got = op_norm(x, q, N)
        assert got == matrix(x, q, N).max_abs(), (str(x), N)
        svd = _svd_norm(x, q, N)
        assert abs(got - svd) <= 2 * np.spacing(svd), (str(x), N, got, svd)


def _scan_norm(x, q, N):
    """The largest absolute entry of the truncation of one band, from all N
    columns of ``apply_numeric``."""
    return max((abs(v) for n in range(N) for i, v in apply_numeric(x, n, q).items() if i < N), default=0.0)


#: coefficients of one-term bands: signed, fractional, and q-dependent
PEAK_COEFFS = ("1", "-5/3", "q^40/(1-q)^3")
#: coefficients whose squared entries leave the normal range, or whose
#: entries are purged below PURGE_EPS or lie near it
BIG_PEAK_COEFFS = ("1/2^600", "-1/2^1000", "1/2^996", "2^600", "-3*2^900/(1-q)^2")


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE, Fraction(1, 100)), ids=str)
def test_one_term_norm_is_its_peak_column(q):
    # the squared entries of B^b C^k A^a are unimodal in the column, so the
    # peak column alone gives the largest entry of the scan, bit for bit
    for b, a in [(0, 0)] + [(h, 0) for h in range(1, 9)] + [(0, h) for h in range(1, 9)]:
        for k in range(6):
            for coeff in PEAK_COEFFS:
                x = expr.evaluate(f"({coeff})*B^{b}*C^{k}*A^{a}")
                for N in {2, a + b, a + b + 1, a + b + 2, 17, 60} - {0, 1}:
                    assert op_norm(x, q, N) == _scan_norm(x, q, N), (str(x), N)
    for text, N in (("B", 600), ("-2*C*B", 600), ("C^3*A^2", 300), ("B^8", 300), ("q^3*C^5*A^8", 300)):
        x = expr.evaluate(text)
        assert op_norm(x, q, N) == _scan_norm(x, q, N), (text, N)
    # peak entries whose squares lie below the normal range, past it, or
    # near the purge threshold
    for b, k, a in ((0, 0, 0), (0, 3, 0), (1, 0, 0), (3, 1, 0), (0, 2, 4), (0, 0, 2)):
        for coeff in BIG_PEAK_COEFFS:
            x = expr.evaluate(f"({coeff})*B^{b}*C^{k}*A^{a}")
            for N in {a + b + 1, 17, 60} - {1}:
                assert op_norm(x, q, N) == _scan_norm(x, q, N), (str(x), N)


def test_one_term_norm_edge_cases():
    # N <= h: no entry stays inside the truncation, even where the entries
    # just outside are past the float range
    huge = expr.evaluate("(1/(1-q))^1100*A^3")
    for N in (2, 3):
        assert op_norm(expr.evaluate("B^3*C"), HALF, N) == 0.0
        assert op_norm(huge, HALF, N) == 0.0
    # a coefficient that vanishes at q0, and one purged below PURGE_EPS
    for coeff in ("(1-2*q)", "q^2000"):
        y = expr.evaluate(f"{coeff}*B^3*C")
        assert op_norm(y, HALF, 40) == _scan_norm(y, HALF, 40) == 0.0
    assert op_norm(expr.evaluate("(1-2*q)*B^3*C"), Fraction(1, 3), 40) > 0.0
    # a pole at q0 raises wherever the term meets a column of the truncation
    for b, a in ((3, 0), (0, 3)):
        pole = Element.monomial(b, 1, a, RF_ONE / (RF_ONE - 2 * RF_Q))
        for N in (2, 3, 4, 40):
            if a < N:
                with pytest.raises(PoleError):
                    op_norm(pole, HALF, N)
            else:
                assert op_norm(pole, HALF, N) == _scan_norm(pole, HALF, N) == 0.0
    with pytest.raises(OverflowError):
        op_norm(huge, HALF, 4)
    # a peak entry past the float range raises, as the scan does
    for text in ("2^1100*B^3", "-2^1024*C", "3*2^1023*C^2*A^3"):
        for norm in (op_norm, _scan_norm):
            with pytest.raises(OverflowError):
                norm(expr.evaluate(text), HALF, 40)
    # the radicand budget of the peak column: B^143 at q = 99/100 peaks in
    # its last column inside, m = N - 144, whose radicand has at most
    # 143 (N - 1) bit_length(100) bits, 1,999,998 at N = 1999
    shift = expr.evaluate("B^143")
    assert op_norm(shift, NEAR_ONE, 1999) == apply_numeric(shift, 1855, NEAR_ONE)[1998]
    with pytest.raises(ValueError) as refused:
        op_norm(shift, NEAR_ONE, 2000)
    assert str(refused.value) == "a column of up to 2000999 bits exceeds MAX_RADICAND_BITS = 2000000"
    # N > h and k = 0: the peak column m = 1 of B^3 at N = 5 fits the float
    # range, while column 2, whose image v_5 lies outside the truncation,
    # does not; the infinite model rounds that entry, the truncation never
    # computes it
    edge = expr.evaluate("7/4*(1/(1-q))^1022*B^3")
    assert op_norm(edge, HALF, 5) == apply_numeric(edge, 1, HALF)[4]
    with pytest.raises(OverflowError):
        apply_numeric(edge, 2, HALF)
    assert matrix(edge, HALF, 5).max_abs() == op_norm(edge, HALF, 5)
    # C^k peaks in column 0, which reads no power of q: a C-power whose
    # q^(2k) would have 1.3e8 bits at q = 99/100 costs none
    assert op_norm(Element.monomial(0, 10**7, 0, -3 * RF_ONE), NEAR_ONE, 10) == 3.0


def test_one_term_norm_reads_one_column(monkeypatch):
    # the peak entry is rounded alone, as one scaled_root of its square,
    # with no band fill
    rounded = []
    root = spectral.scaled_root

    def counting(*args):
        rounded.append(args)
        return root(*args)

    def no_fill(*args):
        raise AssertionError("a one-term norm fills a band")

    monkeypatch.setattr(spectral, "scaled_root", counting)
    monkeypatch.setattr(spectral, "_bands", no_fill)
    for text in ("C", "B^3", "C^2*A", "-3*C*B^2"):
        rounded.clear()
        op_norm(expr.evaluate(text), HALF, 300)
        assert len(rounded) == 1, text


#: g = 1: one residue-class block, the whole truncation
ONE_BLOCK = ("C+B", "A+B+C", "A+B^2+C")
#: the g = 1 shapes that op_norm never cuts up to MAX_DIM
UNCUT = ("A+B+C", "A+B^2+C")
#: g = 2, 3, 3, 4, 6, 5
SEVERAL_BLOCKS = ("A+B", "A*A+B", "C+B^3", "A^2+B^2", "A^3+B^3", "C+B^5")
#: largest gap, in units in the last place, between the largest piece SVD
#: and the SVD of the whole truncation: both are backward stable, and the
#: worst gap seen over the 268 cases of the two tests below was 9
BLOCK_ULPS = 16
#: entries at most this times the largest entry of a truncation, over its
#: number of bands, are the ones ``op_norm`` may drop
DROP = 2.0**-64


def _residue_blocks(x, N):
    """Row and column index lists of the nonempty residue-class blocks of
    the truncation of x, derived from its band offsets b - a: column j
    meets only rows j + s, and every s is s0 mod g."""
    offsets = {bw.b - bw.a for bw in x.terms}
    s0 = min(offsets)
    g = math.gcd(*(s - s0 for s in offsets))
    for r in range(g):
        rows, cols = list(range((r + s0) % g, N, g)), list(range(r, N, g))
        if rows and cols:
            yield rows, cols


def _components(kept):
    """(rows, columns) of each connected component of the True entries of
    a boolean matrix, by a search from each column over index lists."""
    col_rows = [set(np.flatnonzero(kept[:, j]).tolist()) for j in range(kept.shape[1])]
    row_cols = [set(np.flatnonzero(kept[i]).tolist()) for i in range(kept.shape[0])]
    seen = set()
    for j in range(kept.shape[1]):
        if j in seen or not col_rows[j]:
            continue
        rows, cols, todo = set(), {j}, [j]
        seen.add(j)
        while todo:
            for i in col_rows[todo.pop()] - rows:
                rows.add(i)
                for k in row_cols[i] - seen:
                    seen.add(k)
                    cols.add(k)
                    todo.append(k)
        yield rows, cols


def _pieces(x, kept):
    """(rows, columns) of each piece of the truncation of x, whose kept
    entries are the True ones of kept.  In each residue-class block their
    connected components, taken by least column, merge with the chain
    before them until each link lies wholly below and right of the one
    before it.  A piece then owns the block rows and columns from its own
    first kept ones up to those of the next piece, and the first and last
    pieces reach the block's edges."""
    comps = list(_components(kept))
    for rows, cols in _residue_blocks(x, len(kept)):
        row_at, col_at = {i: t for t, i in enumerate(rows)}, {j: t for t, j in enumerate(cols)}
        chain = []
        for comp_rows, comp_cols in sorted(comps, key=lambda c: min(c[1])):
            if min(comp_cols) not in col_at:
                continue
            assert comp_cols <= col_at.keys() and comp_rows <= row_at.keys(), "a component leaves its block"
            link = [min(row_at[i] for i in comp_rows), max(row_at[i] for i in comp_rows)]
            link += [min(col_at[j] for j in comp_cols), max(col_at[j] for j in comp_cols)]
            while chain and not (chain[-1][1] < link[0] and chain[-1][3] < link[2]):
                prev = chain.pop()
                link = [min(prev[0], link[0]), max(prev[1], link[1]), min(prev[2], link[2]), max(prev[3], link[3])]
            chain.append(link)
        row_ends = [0] + [link[0] for link in chain[1:]] + [len(rows)]
        col_ends = [0] + [link[2] for link in chain[1:]] + [len(cols)]
        for t in range(len(chain)):
            yield rows[row_ends[t] : row_ends[t + 1]], cols[col_ends[t] : col_ends[t + 1]]


def _piece_norm(x, q, N):
    """The largest of the piece norms, where the entries above DROP times the
    largest entry over the number of bands are kept: the absolute entry of a
    piece that keeps one entry, else the LAPACK SVD of its rectangle."""
    data = matrix(x, q, N).data
    kept = np.abs(data) > DROP * np.abs(data).max() / len({bw.b - bw.a for bw in x.terms})
    norms, inside = [], 0
    for rows, cols in _pieces(x, kept):
        piece, piece_kept = data[np.ix_(rows, cols)], kept[np.ix_(rows, cols)]
        inside += int(piece_kept.sum())
        if piece_kept.sum() == 1:
            norms.append(float(abs(piece[piece_kept][0])))
        else:
            norms.append(float(np.linalg.svd(piece, compute_uv=False)[0]))
    assert inside == kept.sum(), "a kept entry lies outside every piece"
    return max(norms, default=0.0)


def _residue_block_norm(x, q, N):
    """The largest LAPACK SVD of the whole residue-class blocks."""
    data = matrix(x, q, N).data
    norms = (np.linalg.svd(data[np.ix_(rows, cols)], compute_uv=False)[0] for rows, cols in _residue_blocks(x, N))
    return max((float(s) for s in norms), default=0.0)


def _assert_block_norm(x, q, N):
    got = op_norm(x, q, N)
    assert got == _piece_norm(x, q, N), (str(x), N)
    svd = _svd_norm(x, q, N)
    assert abs(got - svd) <= BLOCK_ULPS * np.spacing(svd), (str(x), N, got, svd)


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_op_norm_of_several_bands_is_the_svd(q):
    # offsets with gcd 1 leave one block, the whole truncation, which LAPACK
    # sees whole, bit for bit, where no cut splits it; C+B is cut at N = 160
    # and q <= 5/7, so it is held to the pieces and to BLOCK_ULPS
    for text in ONE_BLOCK:
        x = expr.evaluate(text)
        for N in (2, 17, 160):
            if text in UNCUT:
                assert op_norm(x, q, N) == _svd_norm(x, q, N), (text, N)
            else:
                _assert_block_norm(x, q, N)


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_op_norm_of_several_bands_is_the_largest_block_svd(q):
    # the largest over the residue-class blocks of the largest over their
    # pieces; N = 17 is a multiple of none of the g
    for text in SEVERAL_BLOCKS + ONE_BLOCK:
        x = expr.evaluate(text)
        for N in (2, 3, 17, 160):
            _assert_block_norm(x, q, N)


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_block_norm_of_random_elements(q):
    rng = random.Random(q.numerator + q.denominator)
    for _ in range(40):
        x = random_element(rng)
        if len({bw.b - bw.a for bw in x.terms}) > 1:
            _assert_block_norm(x, q, rng.randint(2, 120))


def test_op_norm_near_one_is_the_residue_block_svd():
    # at q = 99/100 no band with C falls as far as DROP below the largest
    # entry, so a block is cut only where it already splits: at an edge of
    # the truncation, or where a coefficient vanishes (2 q^2 - 2 q^(2n) of
    # B^3 in 2 q^2 B^3 - 2 B^3 C^2 at n = 1); on these elements the pieces
    # give the norm of the whole residue-class blocks, bit for bit
    rng = random.Random(99)
    elements = [expr.evaluate(text) for text in SEVERAL_BLOCKS + ONE_BLOCK]
    elements += [x for x in (random_element(rng) for _ in range(60)) if len({bw.b - bw.a for bw in x.terms}) > 1]
    for x in elements:
        for N in (2, 3, 17, rng.randint(100, 300)):
            assert op_norm(x, NEAR_ONE, N) == _residue_block_norm(x, NEAR_ONE, N), (str(x), N)


def test_op_norm_drops_a_compact_band_far_below_the_norm():
    # every entry of 10^-30 C lies below the cut, so every column of B is a
    # piece of one entry, and the norm is the largest weight of B, bit for bit
    x = expr.evaluate("(1/10^30)*C + B")
    for q in ORACLE_QS:
        for N in (2, 17, 160, 300):
            assert op_norm(x, q, N) == weights(q, N).values[N - 2], (q, N)


#: 40-digit references: g = 1, 2 and 3 shapes, cut and whole, at q where the
#: C band falls below the cut inside N = 30 (1/10, 1/100) and where it
#: does not (1/2)
MP_CASES = ("C+B", "3*C+A/2", "2*C+B^2", "C-A^3", "A+B+C", "C*A+B/(1-q)", "C^2+B-A", "q*C+B^3")


@pytest.mark.parametrize("q", (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)), ids=str)
def test_op_norm_against_a_40_digit_reference(q):
    mpmath = pytest.importorskip("mpmath")
    N = 30
    with mpmath.workdps(40):
        for text in MP_CASES:
            x = expr.evaluate(text)
            want = max(mpmath.svd_r(mpmath.matrix(matrix(x, q, N).data.tolist()), compute_uv=False))
            got = op_norm(x, q, N)
            assert abs(got - want) <= 4 * np.spacing(float(want)), (text, got, want)


#: largest gap, in units in the last place, between op_norm of a
#: tridiagonal truncation below and its exact largest |eigenvalue|: the
#: gaps seen run from 2 ulp above it to 6 ulp below it (A + B + C at
#: q = 1/2, N = 300, where the LAPACK SVD is that far low)
STURM_ULPS = 8


def _sturm_count(diagonal, off_squares, x):
    """The number of eigenvalues below x of the symmetric tridiagonal matrix
    with this diagonal and these squared off-diagonal entries, in exact
    arithmetic and with no square root: by Sylvester's law of inertia, the
    number of negative pivots of the LDL^T factorization of T - x I."""
    count, pivot = 0, None
    for i, d in enumerate(diagonal):
        pivot = d - x if i == 0 else d - x - off_squares[i - 1] / pivot
        assert pivot, f"a zero pivot at {x}"
        count += pivot < 0
    return count


@pytest.mark.parametrize("q", (Fraction(1, 2), Fraction(1, 3)), ids=str)
def test_op_norm_of_tridiagonal_truncations_against_an_exact_sturm_count(q):
    # A + B and A + B + C are symmetric tridiagonal: the diagonal is 0 or
    # q^n, and the squared off-diagonal in rows n, n + 1 is {n+1}_q, all
    # rational, so Sturm counts of Fractions place the largest |eigenvalue|,
    # which is the norm, independently of LAPACK and of the band fill
    for text, diagonal in (("A+B", lambda n: Fraction(0)), ("A+B+C", lambda n: q**n)):
        x = expr.evaluate(text)
        for N in (100, 300):
            d = [diagonal(n) for n in range(N)]
            off_squares = [(1 - q ** (n + 1)) / (1 - q) for n in range(N - 1)]
            norm = Fraction(op_norm(x, q, N))
            gap = STURM_ULPS * Fraction(math.ulp(norm))
            lo, hi = norm - gap, norm + gap
            # every eigenvalue lies inside (-hi, hi), and some eigenvalue
            # outside (-lo, lo)
            assert _sturm_count(d, off_squares, -hi) == 0 and _sturm_count(d, off_squares, hi) == N, (text, N)
            assert _sturm_count(d, off_squares, -lo) > 0 or _sturm_count(d, off_squares, lo) < N, (text, N)


#: shapes whose truncations keep, past a head of columns, one band without C
#: or do not: a C band with C-free bands, compact bands at larger offsets
#: than the live one, compact pairs, coefficients that vanish at 1/2, 1/3
#: and 5/7, and bands of several terms
HEAD_SHAPES = (
    "({0})*C+({1})*B",
    "({0})*C*A+({1})*A^3",
    "({0})*C+({1})*A+B",
    "C*B^3+({1})*A",
    "2*C^2*B+({0})*A^2",
    "({0})*C+C*B",
    "(1-2*q)*C+({1})*B",
    "(3*q-1)*C*B+({1})*A",
    "({0})*(7*q-5)*C+B^2",
    "C+({0})*C^2+B",
    "({1})*B-C*B+A",
)


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_op_norm_with_a_head_equals_the_pieces_bitwise(q):
    # where one band without C keeps entries past a head of columns, op_norm
    # fills the head only; on every shape and size it gives the norm of the
    # pieces of the whole truncation, bit for bit
    rng = random.Random(32)
    for shape in HEAD_SHAPES:
        x = expr.evaluate(shape.format(*(rng.choice(("1", "-3", "5/2", "1/7")) for _ in range(2))))
        for N in (2, 3, 17, 160, 300, 600):
            assert op_norm(x, q, N) == _piece_norm(x, q, N), (str(x), N)


def test_op_norm_fills_only_the_head(monkeypatch):
    # at q = 1/2 the C band of C + B is above the cut in columns 0 ... 64
    # only: op_norm fills the head of 67 columns, reads the largest entry of
    # B from its last column, and builds no N x N array; its one piece of
    # more than one entry is that of N = 160
    want = _piece_norm(C + B, HALF, 160)
    filled = {}
    bands = spectral._bands

    def counting(*args):
        for b, a, m0, entries in bands(*args):
            filled[b, a] = filled.get((b, a), 0) + len(entries)
            yield b, a, m0, entries

    def no_matrix(*args):
        raise AssertionError("op_norm built the whole truncation")

    monkeypatch.setattr(spectral, "_bands", counting)
    monkeypatch.setattr(spectral, "matrix", no_matrix)
    tracemalloc.start()
    try:
        assert op_norm(C + B, HALF, 2000) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert filled[0, 0] <= 70 and filled[1, 0] <= 71, filled
    assert peak < 8 * 2000**2 // 32, peak


def test_bracket_matrices_agree_with_the_two_products():
    # a bracket holds its terms in the order it meets the monomial pairs, and
    # a band sums its terms in that order, so the entries agree to rounding
    rng = random.Random(53)
    for _ in range(30):
        x = random_element(rng, max_terms=3, max_deg=2)
        y = random_element(rng, max_terms=3, max_deg=2)
        z, ref = bracket(x, y), multiply(x, y) - multiply(y, x)
        assert z == ref
        if z.is_zero():
            continue
        got, want = matrix(z, HALF, 40).data, matrix(ref, HALF, 40).data
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
        assert math.isclose(op_norm(z, HALF, 40), op_norm(ref, HALF, 40), rel_tol=1e-12)


def test_block_norm_edge_cases():
    # g = 6 and N = 2: every block is empty, as is the truncation
    assert op_norm(expr.evaluate("A^3+B^3"), HALF, 2) == 0.0
    # g = 5 and N = 3: three 1 x 1 blocks, the diagonal of C
    assert op_norm(expr.evaluate("C+B^5"), HALF, 3) == 1.0


def test_op_norm_takes_one_svd_per_piece(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    op_norm(A + B, HALF, 160)
    assert shapes == [(80, 80), (80, 80)]
    shapes.clear()
    # q^n falls below the cut past n = 64, so columns 0 ... 64 and rows
    # 0 ... 65 make the one piece of more than one entry; every column after
    # them keeps only its entry of B
    op_norm(C + B, HALF, 160)
    assert shapes == [(66, 65)]
    shapes.clear()
    op_norm(B, HALF, 160)
    assert shapes == []


def test_op_norm_zero_and_validation():
    assert op_norm(Element.zero(), HALF, 10) == 0.0
    with pytest.raises(ValueError):
        op_norm(B, HALF, 1)
    for x in (B, A + B):
        with pytest.raises(ValueError, match="MAX_DIM"):
            op_norm(x, HALF, MAX_DIM + 1)


def test_spectral_radius_estimates():
    est = spectral_radius_est(HALF, 50, 500)
    assert len(est) == 50
    assert abs(est[-1] - SQRT2) < 1e-6
    # sup over a larger window set can only grow
    smaller = spectral_radius_est(HALF, 50, 300)
    assert all(s <= l + 1e-15 for s, l in zip(smaller, est))
    est34 = spectral_radius_est(NumericQ(Fraction(3, 4)), 50, 500)
    assert abs(est34[-1] - 2.0) < 1e-6


def test_lower_index_estimates():
    est = lower_index_est(HALF, 500, 520)
    assert est[1] == pytest.approx(SQRT2 * 0.375**0.25, abs=1e-12)
    assert abs(est[499] - SQRT2) / SQRT2 < 0.01
    assert all(est[i] < est[i + 1] for i in range(len(est) - 1))
    with pytest.raises(ValueError):
        lower_index_est(HALF, 50, 50)


def test_coherent_vectors():
    with pytest.raises(ValueError):
        coherent_vector(0.5, HALF, 1)
    assert coherent_vector(0, HALF, 200).residual == 0.0
    assert coherent_vector(0.7, HALF, 200).residual < 1e-8
    assert coherent_vector(1.0, HALF, 300).residual < 1e-8
    boundaryish = 0.9 * SQRT2 * cmath.exp(1j * math.pi / 3)
    w = coherent_vector(boundaryish, HALF, 300)
    assert w.residual < 1e-8
    assert not w.outside_disk
    rng = random.Random(53)
    for _ in range(20):
        r = 0.9 * SQRT2 * rng.random()
        phi = 2 * math.pi * rng.random()
        c = r * cmath.exp(1j * phi)
        assert coherent_vector(c, HALF, 300).residual < 1e-8, c


@pytest.mark.parametrize("c", [0.7, 0.3 + 0.4j, 1.0])
def test_coherent_residual_is_its_last_component(c):
    # (Av)_n = c v_n except at n = N-1, where the truncation leaves 0
    N = 300
    alphas = weights(HALF, N).values
    v = [c**n / math.prod(alphas[:n]) for n in range(N)]
    want = abs(c * v[-1]) / math.sqrt(sum(abs(z) ** 2 for z in v))
    assert coherent_vector(c, HALF, N).residual == pytest.approx(want, rel=1e-12, abs=0)


def test_coherent_outside_disk_flagged():
    w = coherent_vector(1.5, HALF, 120)
    assert w.outside_disk
    assert w.residual > 1e-8


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(0.5, -math.inf), complex(math.nan, 1.0)])
def test_coherent_vector_refuses_a_non_finite_eigenvalue(c):
    with pytest.raises(ValueError, match="eigenvalue must be finite"):
        coherent_vector(c, HALF, 10)


def test_spectrum_facts_descriptors():
    b = spectrum_facts("B", q0=HALF)
    assert (b.point_spectrum, b.approx_point_spectrum, b.compression_spectrum) == (
        "empty",
        "circle",
        "open-disk",
    )
    assert b.radius_numeric == pytest.approx(SQRT2)
    a = spectrum_facts("A")
    assert (a.point_spectrum, a.approx_point_spectrum, a.compression_spectrum) == (
        "open-disk",
        "closed-disk",
        "empty",
    )
    assert str(a.radius_sq) == "(-1)/(-1 + q)"
    c2 = spectrum_facts("C", k=2, q0=HALF)
    assert c2.point_spectrum == "eigenvalue-list"
    assert c2.approx_point_spectrum == "closure-of-eigenvalues"
    assert c2.eigenvalues[:4] == (1.0, 0.25, 0.0625, 0.015625)
    assert c2.eigenvalue_formula == "q^(2*n)"
    with pytest.raises(ValueError):
        spectrum_facts("C", k=0)
    with pytest.raises(ValueError):
        spectrum_facts("D")
    # only C takes a power
    for op in ("A", "B"):
        assert spectrum_facts(op, k=1) == spectrum_facts(op)
        for k in (0, 2, 3):
            with pytest.raises(ValueError, match=f"operator {op} takes no power"):
                spectrum_facts(op, k=k)


#: q from near 0 to near 1, with small and large denominators
POWER_QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(5, 7), Fraction(15, 16), Fraction(1, 10**6))


def test_power_float_is_the_correctly_rounded_power():
    rng = random.Random(2101)
    for _ in range(600):
        v = rng.randint(2, 10 ** rng.randint(1, 12))
        q, e = Fraction(rng.randint(1, v - 1), v), rng.randint(0, 4000)
        assert _power_float(q, e) == float(q**e), (q, e)
    # exponents where q^e passes 2^-1022 (subnormal), 2^-1074 (the least
    # subnormal) and 2^-1075 (half of it, which rounds to 0.0)
    for q in POWER_QS:
        for t in (1022, 1074, 1075):
            middle = round(t * math.log(2) / -math.log(q))
            for e in range(max(middle - 30, 0), middle + 31):
                assert _power_float(q, e) == float(q**e), (q, e)


def test_power_float_falls_back_to_the_exact_power(monkeypatch):
    # with 8-bit bounds many powers straddle a rounding boundary, and take
    # the exact power instead; with no bits allowed for it they are refused
    monkeypatch.setattr(spectral, "_POWER_BITS", 8)
    rng = random.Random(2102)
    cases = [(Fraction(rng.randint(1, 999), 1000), rng.randint(0, 2000)) for _ in range(300)]
    for q, e in cases:
        assert _power_float(q, e) == float(q**e), (q, e)
    monkeypatch.setattr(spectral, "MAX_RADICAND_BITS", 0)
    refused = 0
    for q, e in cases:
        try:
            assert _power_float(q, e) == float(q**e), (q, e)
        except ValueError as err:
            assert "MAX_RADICAND_BITS" in str(err)
            refused += 1
    assert 0 < refused < len(cases)


def _peak_oracle(q: Fraction, k: int, h: int, M: int) -> int:
    """The first m in [0, M] where the exact square q^(2km) {m+1}_q ...
    {m+h}_q of a one-term band B^b C^k A^a, h = a + b, is largest."""
    squares = [q ** (2 * k * m) * math.prod((1 - q ** (m + i)) / (1 - q) for i in range(1, h + 1)) for m in range(M + 1)]
    return squares.index(max(squares))


def _peak_cases() -> list:
    """Seeded (q, k, h, M): k up to 40 and a few in the thousands, with
    M = 0 and M = 1 among the lengths.  At q = 9/10 and 99/100 the peaks
    of small k lie past column a; at q = 10^-30, whose exact powers take
    100 bits per step, the lengths stay short."""
    rng = random.Random(2103)
    cases = []
    for q in ORACLE_QS + (Fraction(9, 10), NEAR_ONE, Fraction(1, 10**30)):
        longest = 60 if q.denominator < 1000 else 6
        for h in (1, 2, 3, 8, 20):
            for k in (1, 2, rng.randint(3, 40), 40):
                cases.extend((q, k, h, M) for M in (0, 1, rng.randint(2, 2 + longest // 6), rng.randint(2, longest)))
            cases.extend((q, k, h, rng.randint(0, longest // 10)) for k in (1000, rng.randint(1001, 5000)))
    return cases


def test_peak_is_the_first_largest_exact_square():
    for q, k, h, M in _peak_cases():
        assert spectral._peak(q, k, h, M) == _peak_oracle(q, k, h, M), (q, k, h, M)
    # no peak where h = 0 lies past column a, and none where k = 0 < h before the last
    for q in ORACLE_QS:
        assert spectral._peak(q, 5, 0, 30) == _peak_oracle(q, 5, 0, 30) == 0
        assert spectral._peak(q, 0, 3, 30) == _peak_oracle(q, 0, 3, 30) == 30


def test_peak_falls_back_to_the_exact_power(monkeypatch):
    # with 8-bit bounds of q^(2k) many probes straddle, and the exact power
    # decides them; with no bits allowed for it they are refused
    cases = [(q, k, h, M) for q, k, h, M in _peak_cases() if k <= 40]
    peaks = [spectral._peak(*case) for case in cases]
    monkeypatch.setattr(spectral, "_POWER_BITS", 8)
    assert [spectral._peak(*case) for case in cases] == peaks
    monkeypatch.setattr(spectral, "MAX_RADICAND_BITS", 0)
    refused = 0
    for case, peak in zip(cases, peaks):
        try:
            assert spectral._peak(*case) == peak, case
        except ValueError as err:
            assert "MAX_RADICAND_BITS" in str(err)
            refused += 1
    assert 0 < refused < len(cases)


def test_compact_decay_reports():
    r = compact_decay_report(C, HALF, 40)
    assert r.verdict == "consistent-with-compact"
    assert r.tail[6] == pytest.approx(2.0**-6, abs=1e-15)
    assert compact_decay_report(B, HALF, 40).verdict == "non-compact-witness"
    mixed = compact_decay_report(B + element_power(B, 3), HALF, 40)
    assert mixed.verdict == "non-compact-witness"
    assert min(mixed.tail) > 1.0
    assert compact_decay_report(Element.zero(), HALF, 10).verdict == "consistent-with-compact"
    for bad in (0, -3):
        with pytest.raises(ValueError):
            compact_decay_report(C, HALF, bad)
    # the q-integer table takes O(N^2) bits, so the refusal comes first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_DIM"):
        compact_decay_report(B, NEAR_ONE, MAX_DIM + 1)
    assert time.perf_counter() - start < 2.0
    with pytest.raises(ValueError):
        apply_numeric(C, -1, HALF)
