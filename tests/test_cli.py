"""Command-line surface: exit codes, stream separation, and JSON schema
conformance for every command."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import jsonschema
import pytest

import qheis
from qheis import expr, lie, rewrite
from qheis.cli import main
from qheis.ratfun import LinComb, RatFun
from qheis.schemas import OUTPUT_SCHEMA
from qheis.spectral import MAX_DIM, apply_numeric

# one representative invocation per command
COMMANDS = [
    ["normalize", "B*A"],
    ["normalize", "B*C*A", "--rules", "completed"],
    ["normalize", "A*B - q*B*A - I"],
    ["bracket", "A", "B"],
    ["adjoint", "C*A"],
    ["decompose", "A + 2*I + C^2*A^3"],
    ["is-lie", "C^3*A^2"],
    ["is-compact", "B"],
    ["calkin", "A"],
    ["apply", "B^2", "--n", "1"],
    ["apply", "C", "--n", "2", "--q", "1/2"],
    ["verify", "identities", "--kmax", "1", "--lmax", "1"],
    ["verify", "fredholm"],
    ["verify", "confluence", "--rules", "printed", "--maxlen", "3"],
    ["verify", "confluence", "--rules", "completed", "--maxlen", "4"],
    ["spectrum", "--op", "B", "--q", "1/2"],
    ["spectrum", "--op", "A"],
    ["spectrum", "--op", "C", "--k", "2", "--q", "1/2"],
    ["norm", "B", "--q", "1/2", "--dim", "60"],
    ["norm", "A+B", "--q", "1/2", "--dim", "60"],
    ["norm", "C^3", "--q", "1/2", "--dim", "40"],
    ["radius", "--q", "1/2", "--kmax", "10", "--dim", "80"],
    ["lower-index", "--q", "1/2", "--kmax", "10", "--dim", "80"],
    ["coherent", "--c", "0.7", "--q", "1/2", "--dim", "120"],
    ["coherent", "--c", "0.5,0.5", "--q", "1/2", "--dim", "120"],
    ["surrogate", "--side", "B", "--l", "2", "--n", "1", "--k", "1"],
    ["surrogate", "--side", "A", "--l", "3", "--n", "4", "--k", "2", "--coeff", "1/(1-q)"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_every_command_emits_schema_valid_json(argv, capsys):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    jsonschema.validate(doc, OUTPUT_SCHEMA)
    assert doc["format_version"] == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_every_command_has_text_mode(argv, monkeypatch, capsys):
    def refuse(value):
        raise AssertionError("text mode must not build JSON")

    # payloads hold values, which only JSON mode encodes
    for name in ("element_json", "ratfun_json", "json_default"):
        monkeypatch.setattr(expr, name, refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() != ""
    assert captured.err == ""


def test_normalize_text_output(capsys):
    assert main(["normalize", "A*B - q*B*A"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "(1)*I"


def test_syntax_error_exit_2(capsys):
    # a superscript digit is a syntax error too, not an int() failure
    for text in ("A @ B", "A^\u00b2"):
        code = main(["normalize", text])
        captured = capsys.readouterr()
        assert code == 2, text
        assert captured.out == ""
        assert "column 3" in captured.err, text


def test_domain_errors_exit_1(capsys):
    # stuck word under the printed rules
    code = main(["normalize", "B*C*A", "--rules", "printed"])
    captured = capsys.readouterr()
    assert code == 1
    assert "BCA" in captured.err

    # q outside (0, 1)
    code = main(["norm", "B", "--q", "3/2", "--dim", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "between 0 and 1" in captured.err

    # division by a zero scalar
    code = main(["normalize", "1/(q - q)"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        (["apply", "1/(1-2*q)*B", "--n", "1", "--q", "1/2"], "error: pole of (-1/2)/(-1/2 + q) at q = 1/2\n"),
        (["normalize", "B*C*A", "--rules", "printed"], "error: reduction produced irreducible non-basis words: BCA\n"),
        (["norm", "B", "--q", "1/2", "--dim", str(MAX_DIM + 1)], f"error: dimension {MAX_DIM + 1} exceeds MAX_DIM = {MAX_DIM}\n"),
        # only C takes a power; k is not dropped for A or B
        (["spectrum", "--op", "B", "--k", "3"], "error: operator B takes no power: k must be 1, got 3\n"),
        (["spectrum", "--op", "A", "--k", "2", "--json"], "error: operator A takes no power: k must be 1, got 2\n"),
        # a non-finite eigenvalue is refused before the window is built
        (["coherent", "--c", "nan", "--q", "1/2", "--dim", "10"], "error: eigenvalue must be finite, got (nan+0j)\n"),
        (["coherent", "--c", "inf", "--q", "1/2", "--dim", "10"], "error: eigenvalue must be finite, got (inf+0j)\n"),
        (["coherent", "--c", "1e400", "--q", "1/2", "--dim", "10"], "error: eigenvalue must be finite, got (inf+0j)\n"),
        (
            ["norm", "A", "--q", "abc", "--dim", "10"],
            "error: q must be a rational literal like 1/2: Invalid literal for Fraction: 'abc'\n",
        ),
        (["coherent", "--c", "1,2,3", "--q", "1/2", "--dim", "20"], "error: complex value must be RE or RE,IM\n"),
    ],
    ids=[
        "pole", "stuck-word", "max-dim", "spectrum-k-B", "spectrum-k-A", "coherent-nan", "coherent-inf",
        "coherent-1e400", "q-not-rational", "coherent-three-parts",
    ],
)
def test_domain_error_classes_exit_1(argv, err, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)


def test_runtime_errors_are_not_domain_errors(monkeypatch):
    # a RecursionError is a RuntimeError; it must not turn into an exit 1
    def recurse(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(expr, "evaluate", recurse)
    with pytest.raises(RecursionError):
        main(["bracket", "A", "B"])


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["norm", "B", "--q", "1/2"])  # missing --dim
    assert err.value.code == 2


def test_norm_has_no_method_option(capsys):
    # the truncation norm is computed exactly; there is no method to choose
    with pytest.raises(SystemExit) as err:
        main(["norm", "B", "--q", "1/2", "--dim", "10", "--method", "svd"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --method svd" in captured.err


def test_confluence_json_payload(capsys):
    assert main(["verify", "confluence", "--rules", "printed", "--maxlen", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    result = doc["result"]
    assert result["confluent"] is False
    assert result["unresolvable"] == ["BAC", "CBA"]
    by_word = {a["word"]: a for a in result["ambiguities"]}
    assert set(by_word) == {"ABA", "ACB", "BAB", "BAC", "CBA"}
    assert len(by_word["BAC"]["outcomes"]) == 2


def test_apply_symbolic_json_payload(capsys):
    assert main(["apply", "B^2", "--n", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    result = doc["result"]
    assert result["zero"] is False
    assert result["entries"] == [
        {
            "target": 3,
            "scalars": [{"coeff": {"num": [1], "den": [1]}, "radicand": [2, 3]}],
        }
    ]


def test_spectrum_payloads(capsys):
    assert main(["spectrum", "--op", "B", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["point_spectrum"] == "empty"
    assert doc["result"]["approx_point_spectrum"] == "circle"
    assert doc["result"]["compression_spectrum"] == "open-disk"

    assert main(["spectrum", "--op", "C", "--k", "2", "--q", "1/2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["eigenvalues"][:3] == [1.0, 0.25, 0.0625]


def test_is_lie_text(capsys):
    assert main(["is-lie", "I"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["is-lie", "C^3*A^2"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_completed_normalize_reduces_while_it_evaluates(monkeypatch, capsys):
    from qheis import expr
    from qheis.algebra import A, B, element_power

    def expand(node):
        raise AssertionError("the completed rules must not expand the free word sum")

    monkeypatch.setattr(expr, "eval_ast_free", expand)
    assert main(["normalize", "(A+B)^10", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["element"] == expr.element_json(element_power(A + B, 10))


def test_printed_normalize_refuses_an_oversized_free_expansion(capsys):
    from qheis.expr import MAX_FREE_PAIRS

    # (A+B)^14 would multiply 4096 words by 2 on its way to 16384 words
    assert MAX_FREE_PAIRS < 2**13
    start = time.perf_counter()
    code = main(["normalize", "(A+B)^14", "--rules", "printed"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert code == 1
    assert err.out == ""
    assert "free expansion too large" in err.err
    assert elapsed < 2.0


def test_printed_normalize_under_the_cap_reports_stuck_words(capsys):
    code = main(["normalize", "(A+B)^6", "--rules", "printed"])
    err = capsys.readouterr()
    assert code == 1
    assert err.out == ""
    assert "irreducible non-basis words: BBBCA, BBCAA, BCA, BCAAA, BCCA" in err.err


@pytest.mark.parametrize("rules", ["printed", "completed"])
def test_confluence_over_max_ambiguity_len_is_refused(capsys, rules):
    from qheis.rewrite import MAX_AMBIGUITY_LEN

    start = time.perf_counter()
    code = main(["verify", "confluence", "--rules", rules, "--maxlen", "80"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert MAX_AMBIGUITY_LEN < 80
    assert code == 1
    assert err.out == ""
    assert "MAX_AMBIGUITY_LEN" in err.err
    assert elapsed < 2.0


#: one command line per command that takes --dim, over the limit
OVER_MAX_DIM = [
    ["norm", "B", "--q", "1/2", "--dim", str(MAX_DIM + 1)],
    ["radius", "--q", "99/100", "--kmax", "10", "--dim", "100000"],
    ["lower-index", "--q", "99/100", "--kmax", "10", "--dim", "100000"],
    ["coherent", "--c", "0.7", "--q", "99/100", "--dim", "100000"],
]


def test_every_dimension_over_max_dim_is_refused(capsys):
    for argv in OVER_MAX_DIM:
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr()
        assert code == 1, argv
        assert err.out == ""
        assert "MAX_DIM" in err.err
        assert elapsed < 2.0, argv


@pytest.mark.parametrize(
    "argv",
    [
        # the entry is about 2^1100, past the float range
        ["norm", "(1/(1-q))^1100*B", "--q", "1/2", "--dim", "10"],
        # the coherent entries grow like 1e300^n
        ["coherent", "--c", "1e300", "--q", "1/2", "--dim", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_float_overflow_exits_1(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert code == 1
    assert err.out == ""
    assert err.err.startswith("error: ")
    assert err.err.count("\n") == 1
    assert elapsed < 2.0


def test_float_overflow_of_a_high_valuation_exits_1_fast(capsys):
    # (1/(1-q))^2000 is one valuation: the entry, about 2^2000, is refused
    # before any power of 1 - q is multiplied out
    start = time.perf_counter()
    code = main(["norm", "(1/(1-q))^2000*B", "--q", "1/2", "--dim", "10"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert code == 1
    assert err.out == ""
    assert err.err == "error: value >= 2^2000 is past the float range\n"
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "argv, head, tail",
    [
        # q^10000000 is printed from its exponent, not from 10^7 zeros
        (["apply", "C", "--n", "10000000"], "((q^10000000))*v_10000000\n", ""),
        # (1 - q)^2000 is expanded from one binomial row
        (["normalize", "(1-q)^2000*A"], "(1 - 2000*q + 1999000*q^2 - ", " - 2000*q^1999 + q^2000)*A\n"),
    ],
    ids=["apply-C", "normalize-(1-q)^2000"],
)
def test_text_of_high_valuations_is_fast(capsys, argv, head, tail):
    start = time.perf_counter()
    assert main(argv) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert out.startswith(head) and out.endswith(tail)
    assert elapsed < 2.0


@pytest.mark.parametrize("c, dim", [("1e300", "10"), ("30", "300")])
def test_coherent_overflow_is_reported_as_the_window_error(capsys, c, dim):
    start = time.perf_counter()
    code = main(["coherent", "--c", c, "--q", "1/2", "--dim", dim])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert code == 1
    assert err.out == ""
    assert err.err == "error: coherent vector overflowed the truncation window\n"
    assert elapsed < 2.0


def test_entries_whose_square_overflows_a_float(capsys):
    # c = 2^600: c^2 r overflows a float while every entry is about 4e180
    assert main(["norm", "(1/(1-q))^600*B", "--q", "1/2", "--dim", "10"]) == 0
    assert 5.86e180 < float(capsys.readouterr().out) < 5.87e180
    assert main(["apply", "(1/(1-q))^600*B", "--n", "2", "--q", "1/2"]) == 0
    assert capsys.readouterr().out.startswith("3: 5.489")


@pytest.mark.parametrize(
    "argv, out",
    [
        # column 0 of a C-power reads no power of q: no step q^(2k) of the
        # band fill, and no exact q^(2k) for the peak, which is column 0
        (["apply", "C^10000000", "--q", "99/100", "--n", "0"], "0: 1.0\n"),
        (["norm", "3*C^10000000*A", "--q", "99/100", "--dim", "10"], "3.0\n"),
        # a band of two terms, whose steps u^k v^(K - k) are not formed either
        (["apply", "C^10000000*A + 2*C^3*A", "--q", "99/100", "--n", "1"], "0: 3.0\n"),
    ],
    ids=["apply", "norm", "apply-two-terms"],
)
def test_hostile_c_powers_read_at_column_0(capsys, argv, out):
    start = time.perf_counter()
    assert main(argv) == 0
    elapsed = time.perf_counter() - start
    assert capsys.readouterr().out == out
    assert elapsed < 2.0


def _timed_norm(capsys, argv, bound):
    start = time.perf_counter()
    code = main(["norm", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert elapsed < bound, (argv, elapsed)
    return float(out.out)


@pytest.mark.parametrize(
    "b, q, dim, bound",
    # a radicand window of 100 and 300 q-integers: the scan over every
    # column ran 36.7 s on the first, and more than 150 s on the second
    [(100, "1/2", 2000, 2.0), (300, "99/100", 500, 5.0)],
    ids=["B^100", "B^300"],
)
def test_norm_of_a_high_shift_power_is_its_last_column(capsys, b, q, dim, bound):
    value = _timed_norm(capsys, [f"B^{b}", "--q", q, "--dim", str(dim)], bound)
    # the weights of B^b rise with the column, so the last column whose
    # image stays inside, dim - b - 1, holds the largest entry
    x = expr.evaluate(f"B^{b}")
    last, before = (apply_numeric(x, n, q) for n in (dim - b - 1, dim - b - 2))
    assert value == last[dim - 1]
    assert before[dim - 2] <= value


def test_norm_of_two_wide_bands_within_its_column_bounds(capsys):
    value = _timed_norm(capsys, ["A^3+B^100", "--q", "1/2", "--dim", "600"], 2.0)
    # the norm is at least the length of column 499, which holds the largest
    # entry of B^100, and at most the sum of the two band norms, the largest
    # entries of B^100 (column 499) and of A^3 (column 599)
    x = expr.evaluate("A^3+B^100")
    col = apply_numeric(x, 499, "1/2")
    assert math.sqrt(col[496] ** 2 + col[599] ** 2) * (1 - 1e-12) <= value
    assert value <= (col[599] + apply_numeric(x, 599, "1/2")[596]) * (1 + 1e-12)


def test_norm_of_a_compact_band_plus_a_shift_at_max_dim(capsys):
    # q^n falls below the cut past n = 64, so LAPACK sees one 66 x 65 piece
    # instead of the whole 2000 x 2000 truncation, which took 2.27 s; the
    # printed value is the one that whole SVD gave
    assert _timed_norm(capsys, ["C+B", "--q", "1/2", "--dim", str(MAX_DIM)], 2.0) == 1.5671766737667177


def test_norm_skips_a_band_outside_the_truncation(capsys):
    # no entry of B^1200 lies inside a dimension 20, so only C is computed;
    # filling B^1200 in full took minutes at q = 1/100
    assert _timed_norm(capsys, ["C+B^1200", "--q", "1/100", "--dim", "20"], 2.0) == 1.0


def _column_refusal(bits: int) -> str:
    return f"error: a column of up to {bits} bits exceeds MAX_RADICAND_BITS = 2000000\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["apply", "B^5000", "--n", "3", "--q", "1/2"], None),
        (["apply", "B^1000", "--n", "3", "--q", "1/100"], None),
        # the running numerators and denominator of a C-power count too
        (["apply", "C^20000", "--n", "20000", "--q", "1/2"], None),
        (["apply", "C", "--n", "1000000", "--q", "1/2"], None),
        # a C-power near q = 1: the peak of its band is placed on the bounds
        # of q^(2k), with no exact power, before its column is checked.
        # C^3000000*A peaks in column m = 1 (q^(2k) is about 0.55, so the
        # ratio q^(2k) {3}_q / {2}_q is below 1 there), and C^300000*A+B has
        # no head inside dim 10, so the whole fill refuses the last column of
        # its C band, m = 8: (h (m + h) + 2 k m) bit_length(10^7) bits each
        (["norm", "C^3000000*A", "--q", "9999999/10000000", "--dim", "10"], _column_refusal(144000048)),
        (["norm", "C^300000*A+B", "--q", "9999999/10000000", "--dim", "10"], _column_refusal(115200216)),
        # the radius window starts at lo = 1995, whose powers of a q with a
        # 3001-digit denominator are charged before they are formed
        (
            ["radius", "--q", "1/1" + "0" * 3000, "--kmax", "5", "--dim", "2000"],
            "error: q^1995 needs an exact power of about 19882170 bits, over MAX_RADICAND_BITS = 2000000\n",
        ),
    ],
    ids=["B^5000", "B^1000", "C^20000", "C", "C^3000000*A", "C^300000*A+B", "radius-window"],
)
def test_column_radicand_over_its_budget_is_refused(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert code == 1
    assert err.out == ""
    assert "MAX_RADICAND_BITS" in err.err
    assert elapsed < 2.0
    if message is not None:
        assert err.err == message


def test_norm_of_a_huge_c_power_at_a_tiny_q(capsys):
    # q^(2k) is about 2^-(2 10^7 log2(10^30)): its bounds alone put the peak
    # at column 0, where a shift of that many bits would take gigabytes
    assert _timed_norm(capsys, ["C^10000000*A", "--q", "1/1" + "0" * 30, "--dim", "10"], 2.0) == 1.0


@pytest.mark.parametrize("q", ["1/2", "9999/10000"])
def test_spectrum_of_a_huge_diagonal_power_is_fast(capsys, q):
    # q^(kn) rounds to 0.0 past n = 0, which bit lengths show without the
    # power; near q = 1 (q^k about 2^-1443) only after several squarings
    start = time.perf_counter()
    assert main(["spectrum", "--op", "C", "--k", "10000000", "--q", q, "--json"]) == 0
    assert time.perf_counter() - start < 2.0
    assert json.loads(capsys.readouterr().out)["result"]["eigenvalues"] == [1.0] + [0.0] * 19


@pytest.mark.parametrize("k", [50000, 389474])
def test_spectrum_near_one_is_fast(capsys, k):
    # the eigenvalues pass from normal doubles (k = 50000) into the
    # subnormal range (k = 389474, at n = 19) and are not 0.0; the exact
    # powers behind them have up to 10^8 bits
    start = time.perf_counter()
    assert main(["spectrum", "--op", "C", "--k", str(k), "--q", "9999/10000", "--json"]) == 0
    assert time.perf_counter() - start < 2.0
    eigenvalues = json.loads(capsys.readouterr().out)["result"]["eigenvalues"]
    assert eigenvalues[1] == float(Fraction(9999, 10000) ** k)
    assert 0.0 < eigenvalues[19] < eigenvalues[18]


def builds_a_matrix(argv) -> bool:
    """`norm` of more than one band builds the dense matrix; the norm of a
    single band is its largest entry, read off the band fill.  Canonical
    words have min(b, a) = 0, so (b, a) names a band."""
    return len({(bw.b, bw.a) for bw in expr.evaluate(argv[1]).terms}) > 1


#: the only command lines that build a matrix or call LAPACK, so load numpy:
#: the `norm` lines that build a matrix
NUMPY_COMMANDS = [argv for argv in COMMANDS if argv[0] == "norm" and builds_a_matrix(argv)]
NUMPY_FREE = [argv + mode for argv in COMMANDS if argv not in NUMPY_COMMANDS for mode in ([], ["--json"])]
# refused by the MAX_DIM check before numpy is imported
NUMPY_FREE.extend(OVER_MAX_DIM)
# single bands whose entries, or their squares, are past the float range
NUMPY_FREE += [
    ["norm", "(1/(1-q))^1100*B", "--q", "1/2", "--dim", "10"],
    ["norm", "(1/(1-q))^600*B", "--q", "1/2", "--dim", "10", "--json"],
]

#: runs each command line of argv[1] (JSON) under qheis.cli.main with numpy
#: made unimportable, and prints the [exit code, stdout] of each as JSON
CHILD_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from qheis.cli import main
from qheis.ratfun import RatFun
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def run_child(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qheis.__file__)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


#: modules start-up must not load: numpy and what the CLI imports lazily,
#: and `dataclasses` with the modules it pulls in
NOT_AT_STARTUP = ("numpy", "dataclasses", "inspect", "json", "qheis.lie", "qheis.spectral")

#: runs each command line of argv[1] (JSON) under qheis.cli.main, text mode,
#: and prints which of the lie and spectral layers got loaded
CHILD_LOADED_LAYERS = """
import contextlib, io, json, sys
from qheis.cli import main
from qheis.ratfun import RatFun
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print([name for name in ("qheis.lie", "qheis.spectral") if name in sys.modules])
"""


def test_importing_the_cli_does_not_load_numpy():
    child = run_child("-c", "import sys, qheis, qheis.cli; print('numpy' in sys.modules)")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"

    code = f"import sys, qheis, qheis.cli; print([m for m in {NOT_AT_STARTUP!r} if m in sys.modules])"
    child = run_child("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"

    # the symbolic commands run on algebra and expr alone
    symbolic = [["normalize", "A*B - q*B*A"], ["bracket", "A", "B"], ["adjoint", "C*A"]]
    child = run_child("-c", CHILD_LOADED_LAYERS, json.dumps(symbolic))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_numpy_free_commands_run_without_numpy(capsys):
    child = run_child("-c", CHILD_WITHOUT_NUMPY, json.dumps(NUMPY_FREE))
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    for argv, (code, out) in zip(NUMPY_FREE, results, strict=True):
        expected_code = main(argv)
        assert [code, out] == [expected_code, capsys.readouterr().out], argv


def test_json_entries_are_the_dense_lengths():
    values = [RatFun.zero(), RatFun.one(), RatFun.q_power(-7), expr.parse_ratfun("q^3*(1-q)^4/(2 - q)")]
    values += [expr.parse_ratfun(f"(q^{a}*(1-q)^{b})/((1-q)^{c}*q^{d}*(3 + q^2))") for a, b, c, d in ((0, 5, 2, 1), (4, 0, 6, 0), (2, 2, 2, 2))]
    x = expr.evaluate("(A+B)^5 - 3/(1-q)^4*C^2*A")
    values += list(x.terms.values())
    for c in values:
        doc = expr.ratfun_json(c)
        assert expr.json_entries(c) == len(doc["num"]) + len(doc["den"]), c


@pytest.mark.parametrize(
    "argv",
    [["apply", "C", "--n", "10000000", "--json"], ["normalize", "q^2000000*A", "--json"]],
)
def test_json_past_its_budget_is_refused_quickly(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_JSON_COEFFS" in err.err
    assert elapsed < 2.0
    # the text of the same command writes its power of q as one exponent,
    # which the text budget does not charge
    assert main(argv[:-1]) == 0
    assert capsys.readouterr().out.count("q^") == 1


def test_json_radicands_count_against_the_budget(capsys, monkeypatch):
    # one radicand of 10^6 indices and its coefficient pass the budget: 21.9 MB
    # were printed before the indices were counted
    start = time.perf_counter()
    assert main(["apply", "B^1000000", "--n", "0", "--json"]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_JSON_COEFFS" in err.err
    assert elapsed < 2.0
    # B^2 on v_1: the radicand [2, 3] and the coefficient's num [1] and den [1]
    argv = ["apply", "B^2", "--n", "1", "--json"]
    assert main(argv) == 0
    full = capsys.readouterr().out
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", 4)
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", 3)
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_text_radicands_count_against_the_budget(capsys, monkeypatch):
    # the text of one radicand of 10^6 indices, 8.9 MB, was printed unbudgeted
    start = time.perf_counter()
    assert main(["apply", "B^1000000", "--n", "0"]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_JSON_COEFFS" in err.err
    assert elapsed < 2.0
    # B^3 on v_1 lists one scalar, whose radicand has the indices 2, 3, 4;
    # the budget is inclusive
    argv = ["apply", "B^3", "--n", "1"]
    assert main(argv) == 0
    full = capsys.readouterr().out
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", 4)
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", 3)
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_long_run_is_refused_without_listing_it(capsys, json_flag):
    # the radicand of B^1000000 on v_0 is one run of 10^6 indices, refused
    # from its length: a tuple of them took a 40 MB peak before the refusal
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(["apply", "B^1000000", "--n", "0", *json_flag]) == 1
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_JSON_COEFFS" in err.err
    assert elapsed < 2.0
    assert peak < 5_000_000


def test_exact_apply_under_json_renders_no_text(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("JSON mode must not render the text")

    monkeypatch.setattr(lie.KetImage, "__str__", refuse)
    assert main(["apply", "B^2 + C", "--n", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["zero"] is False


def test_coherent_outside_the_disk_warns(capsys):
    assert main(["coherent", "--c", "1.5", "--q", "1/2", "--dim", "20"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("residual: ")
    assert out[1] == (
        "warning: |c| is not inside the open spectral disk; the residual is not expected to vanish"
    )


def test_text_past_its_budget_is_refused_quickly(capsys):
    # the text of A^181 B^181 writes 1,021,566 entries, 44 MB, and was printed
    start = time.perf_counter()
    assert main(["normalize", "A^181*B^181"]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_JSON_COEFFS" in err.err
    assert elapsed < 2.0


def test_text_within_its_budget_prints_what_it_printed(capsys):
    # the 176,952 entries of A^100 B^100: 4,776,313 bytes, whose digest was
    # taken before the text had a budget
    assert main(["normalize", "A^100*B^100"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 4_776_313
    assert hashlib.sha256(out).hexdigest() == "e56f43048bbac09e2aa218c7962b523457e67f7ac785e8c92fc9e5314dca3af7"


@pytest.mark.parametrize(
    "argv, elements",
    [
        (["normalize", "(A+B)^4"], ["(A+B)^4"]),
        (["bracket", "A^3", "B^3"], ["[A^3, B^3]"]),
        (["decompose", "A + 2*I + C^2*A^3 + B*C/(1-q)^3"], ["C^2*A^3 + B*C/(1-q)^3", "2*I"]),
    ],
    ids=["normalize", "bracket", "decompose"],
)
def test_text_budget_is_inclusive(capsys, monkeypatch, argv, elements):
    # each element's text is charged on its own, so the largest one sets
    # the edge
    assert main(argv) == 0
    full = capsys.readouterr().out
    entries = max(sum(map(expr.text_entries, expr.evaluate(e).terms.values())) for e in elements)
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", entries)
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", entries - 1)
    assert main(argv) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert "MAX_JSON_COEFFS" in err.err


def test_json_within_its_budget_is_printed(capsys, monkeypatch):
    argv = ["normalize", "(A+B)^4", "--json"]
    assert main(argv) == 0
    full = capsys.readouterr().out
    x = expr.evaluate("(A+B)^4")
    entries = sum(map(expr.json_entries, x.terms.values()))
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", entries)
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", entries - 1)
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def _charged_entries(x) -> int:
    """Coefficient entries the text of x, an element, a word sum, a Laurent
    image or a coefficient, writes out."""
    return sum(map(expr.text_entries, x.terms.values() if isinstance(x, LinComb) else (x,)))


def _confluence_outcomes():
    summary = rewrite.check_confluence(rewrite.RuleSet.printed(), 3)
    return [o for r in summary.unresolvable for o in r.outcomes]


@pytest.mark.parametrize(
    "argv, texts",
    [
        (["calkin", "A^3 + B^2/(1-q) - 3*I + C"], lambda: [lie.calkin_image(expr.evaluate("A^3 + B^2/(1-q) - 3*I + C"))]),
        (["verify", "confluence", "--rules", "printed", "--maxlen", "3"], _confluence_outcomes),
        # the coefficient of A writes more entries than any part
        (["decompose", "(1-q)^4/(2+q)*A + 3*B + C"], lambda: [expr.parse_ratfun("(1-q)^4/(2+q)"), expr.evaluate("C")]),
    ],
    ids=["calkin", "confluence", "decompose"],
)
def test_every_printed_text_is_charged(capsys, monkeypatch, argv, texts):
    assert main(argv) == 0
    full = capsys.readouterr().out
    entries = max(map(_charged_entries, texts()))
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", entries)
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    monkeypatch.setattr(expr, "MAX_JSON_COEFFS", entries - 1)
    assert main(argv) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_JSON_COEFFS" in err.err


def test_json_over_its_budget_renders_no_text(capsys, monkeypatch):
    def refuse(x):
        raise AssertionError("a document over its budget must not render its text")

    # the text of A^150 B^150 passes its own budget, 21.5 MB that the JSON
    # budget refused only after they were rendered
    monkeypatch.setattr(expr, "element_text", refuse)
    start = time.perf_counter()
    assert main(["normalize", "A^150*B^150", "--json"]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: ") and "MAX_JSON_COEFFS" in err.err
    assert elapsed < 0.5


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_json_mode_builds_no_text_line(argv, capsys, monkeypatch):
    from qheis import cli

    def refuse():
        raise AssertionError("JSON mode must not build a text line")

    def without_text(handler):
        return lambda args: (handler(args)[0], refuse)

    for name in [name for name in vars(cli) if name.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, without_text(getattr(cli, name)))
    rendered = []
    element_text = expr.element_text
    monkeypatch.setattr(expr, "element_text", lambda x: rendered.append(x) or element_text(x))
    monkeypatch.setattr(lie.KetImage, "__str__", lambda self: refuse())
    assert main(argv + ["--json"]) == 0
    # the one text that JSON mode renders is the document's "text" field
    assert len(rendered) == ("text" in json.loads(capsys.readouterr().out)["result"])


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_an_integer_past_the_digit_limit_is_a_domain_error(capsys, json_flag):
    # the entries of (1 - q)^3000 have up to 902 digits; the text and the
    # JSON of apply write them out only in main's last step
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["apply", "(1-q)^3000*B", "--n", "0", *json_flag])
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr()
    assert code == 1
    assert err.out == ""
    assert err.err.startswith("error: ") and "integer string conversion" in err.err


#: the command lines of COMMANDS whose text writes a coefficient: not the
#: numeric ones, nor the normal form 0, nor reports whose every line is ok
WRITE_COEFFICIENTS = [
    argv
    for argv in COMMANDS
    if argv[0] in ("normalize", "bracket", "adjoint", "decompose", "calkin", "apply", "verify", "surrogate")
    and "--q" not in argv
    and argv[:4]
    not in (["normalize", "A*B - q*B*A - I"], ["verify", "fredholm"], ["verify", "confluence", "--rules", "completed"])
]


@pytest.mark.parametrize("argv", WRITE_COEFFICIENTS, ids=lambda argv: " ".join(argv))
def test_an_error_while_rendering_prints_nothing(argv, capsys, monkeypatch):
    def fail(self):
        raise ValueError("unrenderable coefficient")

    monkeypatch.setattr(RatFun, "__str__", fail)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: unrenderable coefficient\n")
    # a JSON document renders coefficients only in its text field
    code = main(argv + ["--json"])
    out = capsys.readouterr()
    if argv[0] in ("decompose", "apply", "verify"):
        assert code == 0 and out.err == ""
    else:
        assert out == ("", "error: unrenderable coefficient\n") and code == 1


def test_a_runtime_error_while_rendering_propagates(monkeypatch):
    def recurse(self):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(RatFun, "__str__", recurse)
    with pytest.raises(RecursionError):
        main(["normalize", "A"])
