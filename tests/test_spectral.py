"""Truncated weighted-shift realization: weights, matrices, norms, spectra."""

import cmath
import math
import random
import time
from fractions import Fraction

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
    _columns,
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


def test_weights():
    w = weights(HALF, 50)
    assert w.values[0] == 1.0
    assert w.values[1] == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert abs(w.values[49] - SQRT2) < 1e-12
    assert all(w.values[i] < w.values[i + 1] for i in range(49))
    assert all(v < SQRT2 for v in w.values)


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
#: purged below PURGE_EPS
ZERO_BANDS = ("(1-2*q)*B^3*C", "q^2000*B^3*C")


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_band_stores_equal_the_column_view(q):
    # matrix stores each band as one strided diagonal, and the decay report
    # sums the squares band by band: both agree with an assembly, entry by
    # entry and column by column, from the per-column view, also for N <= h,
    # where a band leaves the truncation
    for x in _oracle_elements() + [expr.evaluate(text) for text in ZERO_BANDS]:
        h = max(bw.a + bw.b for bw in x.terms)
        for N in sorted({1, 2, 3, h, h + 1, 120} - {0}):
            want = np.zeros((N, N))
            for n, col in enumerate(_columns(x, q, 0, N, N)):
                for i, v in col.items():
                    want[i, n] = v
            assert matrix(x, q, N).data.tobytes() == want.tobytes(), (str(x), N)
            tail = tuple(math.sqrt(sum(v * v for v in col.values())) for col in _columns(x, q, 0, N))
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


def test_diagonal_columns_through_subnormal_squares():
    # c^2 = 2^(-2kn) (times 9 or 1/9) turns subnormal near kn = 511 and
    # rounds to zero near kn = 538, both far above the purge threshold
    third = RatFun.from_fraction(Fraction(1, 3))
    for k in (1, 2, 3):
        for x in (element_power(C, k), 3 * element_power(C, k) + third * element_power(C, k + 1)):
            N = 560 // k
            data = matrix(x, HALF, N).data
            for n in range(N):
                want = _oracle_column(x, n, HALF.value)
                assert apply_numeric(x, n, HALF) == want, (str(x), n)
                assert data[n, n] == want.get(n, 0.0), (str(x), n)
    assert apply_numeric(C, 520, HALF) == {520: 2.0**-520}


def test_qinteger_pairs_are_the_exact_qintegers():
    for q in ORACLE_QS + (NEAR_ONE,):
        for lo in (1, 2, 7, 300):
            pairs = _qintegers(q, lo)
            for m in range(lo, lo + 60):
                n, d = next(pairs)
                assert Fraction(n, d) == qbracket_value(m, q), (q, m)


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
    # op_norm of several bands builds the matrix, of one band reads its entries
    with pytest.raises(PoleError):
        op_norm(pole, HALF, 6)
    with pytest.raises(PoleError):
        op_norm(cancelled, HALF, 3)
    with pytest.raises(PoleError):
        op_norm(pole - C, HALF, 6)


def test_weights_and_estimators_from_exact_qintegers():
    for q in ORACLE_QS:
        exact = [qbracket_value(n + 1, q) for n in range(300)]
        assert weights(q, 300).values == tuple(math.sqrt(float(v)) for v in exact)
        logs = np.array([0.5 * math.log(float(v)) for v in exact])
        csum = np.concatenate([[0.0], np.cumsum(logs)])
        spans = [csum[k:300] - csum[0 : 300 - k] for k in range(1, 41)]
        assert spectral_radius_est(q, 40, 300) == [math.exp(np.max(s) / k) for k, s in enumerate(spans, 1)]
        assert lower_index_est(q, 40, 300) == [math.exp(np.min(s) / k) for k, s in enumerate(spans, 1)]


#: (kmax, N) of the block estimators: one window length, every length of a
#: single block, and lengths over several blocks of _WINDOW_BLOCK doubles
ESTIMATOR_GRID = [(1, 2)] + [(N - 1, N) for N in (2, 3, 66, 520)] + [(500, 520), (1999, 2000)]


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_block_estimators_equal_the_per_length_reduction(q):
    assert any(kmax > spectral._WINDOW_BLOCK // N for kmax, N in ESTIMATOR_GRID)
    for kmax, N in ESTIMATOR_GRID:
        exact = [qbracket_value(n + 1, q) for n in range(N)]
        logs = np.array([0.5 * math.log(float(v)) for v in exact])
        csum = np.concatenate([[0.0], np.cumsum(logs)])
        spans = [csum[k:N] - csum[0 : N - k] for k in range(1, kmax + 1)]
        for estimate, pick in ((spectral_radius_est, np.max), (lower_index_est, np.min)):
            got = estimate(q, kmax, N)
            assert got == [math.exp(pick(s) / k) for k, s in enumerate(spans, 1)], (kmax, N, pick)
            assert all(type(v) is float for v in got), (kmax, N, pick)


def test_matrix_examples():
    m = matrix(C, HALF, 3)
    assert np.allclose(np.diag(m.data), [1.0, 0.5, 0.25])
    assert np.allclose(matrix(I, HALF, 4).data, np.eye(4))
    defect = normalize(multiply(A, B) - RF_Q * multiply(B, A) - I)
    assert matrix(defect, HALF, 10).max_abs() < 1e-14
    assert matrix(multiply(A, B) - RF_Q * multiply(B, A), HALF, 10).data == pytest.approx(
        np.eye(10), abs=1e-14
    )


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
    columns of the band fill."""
    cols = _columns(x, NumericQ.coerce(q).value, 0, N)
    return max((abs(v) for col in cols for i, v in col.items() if i < N), default=0.0)


#: coefficients of one-term bands: signed, fractional, and q-dependent
PEAK_COEFFS = ("1", "-5/3", "q^40/(1-q)^3")


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
    # N > h and k = 0: the peak column m = 1 of B^3 at N = 5 fits the float
    # range, while column 2, whose image v_5 lies outside the truncation,
    # does not; the infinite model rounds that entry, the truncation never
    # computes it
    edge = expr.evaluate("7/4*(1/(1-q))^1022*B^3")
    assert op_norm(edge, HALF, 5) == apply_numeric(edge, 1, HALF)[4]
    with pytest.raises(OverflowError):
        apply_numeric(edge, 2, HALF)
    assert matrix(edge, HALF, 5).max_abs() == op_norm(edge, HALF, 5)


def test_one_term_norm_reads_one_column(monkeypatch):
    yielded = []

    def counting(*args):
        for col in _columns(*args):
            yielded.append(col)
            yield col

    monkeypatch.setattr(spectral, "_columns", counting)
    for text in ("C", "B^3", "C^2*A", "-3*C*B^2"):
        yielded.clear()
        op_norm(expr.evaluate(text), HALF, 300)
        assert len(yielded) == 1, text


#: g = 1: one residue-class block, the whole truncation
ONE_BLOCK = ("C+B", "A+B+C", "A+B^2+C")
#: g = 2, 3, 3, 4, 6, 5
SEVERAL_BLOCKS = ("A+B", "A*A+B", "C+B^3", "A^2+B^2", "A^3+B^3", "C+B^5")
#: largest gap, in units in the last place, between the largest block SVD
#: and the SVD of the whole truncation: both are backward stable, and the
#: worst gap seen over 300 seeded random elements was 7
BLOCK_ULPS = 16


def _blocks(x, N):
    """Row and column index lists of the nonempty residue-class blocks of
    the truncation of x, derived from its band offsets b - a: column j
    meets only rows j + s, and every s is s0 mod g."""
    offsets = {bw.b - bw.a for bw in x.terms}
    s0 = min(offsets)
    g = math.gcd(*(s - s0 for s in offsets))
    for r in range(g):
        cols = [j for j in range(N) if j % g == r]
        rows = [i for i in range(N) if (i - s0 - r) % g == 0]
        if rows and cols:
            yield rows, cols


def _block_norm(x, q, N):
    data = matrix(x, q, N).data
    outside = data.copy()
    for rows, cols in _blocks(x, N):
        outside[np.ix_(rows, cols)] = 0.0
    assert not outside.any(), "an entry lies outside every block"
    norms = (np.linalg.svd(data[np.ix_(rows, cols)], compute_uv=False)[0] for rows, cols in _blocks(x, N))
    return max((float(s) for s in norms), default=0.0)


def _assert_block_norm(x, q, N):
    got = op_norm(x, q, N)
    assert got == _block_norm(x, q, N), (str(x), N)
    svd = _svd_norm(x, q, N)
    assert abs(got - svd) <= BLOCK_ULPS * np.spacing(svd), (str(x), N, got, svd)


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_op_norm_of_several_bands_is_the_svd(q):
    # offsets with gcd 1 leave one block, the whole truncation
    for text in ONE_BLOCK:
        x = expr.evaluate(text)
        for N in (2, 17, 160):
            assert op_norm(x, q, N) == _svd_norm(x, q, N), (text, N)


@pytest.mark.parametrize("q", ORACLE_QS + (NEAR_ONE,), ids=str)
def test_op_norm_of_several_bands_is_the_largest_block_svd(q):
    # N = 17 is a multiple of none of the g
    for text in SEVERAL_BLOCKS:
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


def test_block_norm_takes_one_svd_per_block(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    op_norm(A + B, HALF, 160)
    assert shapes == [(80, 80), (80, 80)]
    shapes.clear()
    op_norm(C + B, HALF, 160)
    assert shapes == [(160, 160)]
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
