"""Byte-for-byte regression of CLI reports and of ``RatFun`` hash values.

The digests were taken before brackets were summed from memoized monomial
commutators (the identity-suite report) and before a ``RatFun`` content was
stored as a pair of integers instead of a ``Fraction`` (the ``normalize`` and
``bracket`` reports, whose coefficients carry negative, fractional and
``1/(1 - q)`` contents, and the hash values).  Rendering sorts terms, so
neither the bracket memo nor the order in which a bracket meets its terms may
show in the output.  Hashes of ints and of tuples of ints do not depend on
the hash seed, and a constant hashes as the number it equals; CI runs this
file a second time under another hash seed.
"""

import hashlib
from fractions import Fraction

import pytest

from qheis.cli import main
from qheis.ratfun import RF_ONE_MINUS_Q, QPolynomial, RatFun, over_one_minus_q, qbracket

NORMALIZE = ["normalize", "-3/7*A^4*B^2 + 5/2*q^3/(1-q)*C^2*B - 1/(1-2*q)*A"]
BRACKET = ["bracket", "2/3*A - q*C^2", "B^2 - 5/(1-q)*C*A"]
IDENTITIES = ["verify", "identities", "--kmax", "8", "--lmax", "6"]

#: constants, negative and fractional contents, q-powers and poles
HASH_CORPUS = [
    RatFun.zero(),
    RatFun.one(),
    RatFun.from_fraction(-1),
    RatFun.from_fraction(5),
    RatFun.from_fraction(Fraction(3, 7)),
    RatFun.from_fraction(Fraction(-22, 15)),
    RatFun.q_power(1),
    RatFun.q_power(-2),
    RatFun.q_power(5) * Fraction(-3, 2),
    qbracket(4),
    RatFun.one() / RF_ONE_MINUS_Q,
    over_one_minus_q([-5, 0, 7], -1, 3) / 6,
    RatFun(QPolynomial((2, 1)), QPolynomial((1, -2))),
    RatFun(QPolynomial((Fraction(-4, 9), 0, 3)), QPolynomial((3, 0, 0, 12))),
    # denominators with no inverse modulo the hash modulus 2^61 - 1
    RatFun.from_fraction(Fraction(-3, 2**61 - 1)),
    RatFun.q_power(2) / (2 * (2**61 - 1)),
]


def cli(*argv):
    def run(capsys):
        assert main(list(argv)) == 0
        out = capsys.readouterr()
        assert out.err == ""
        return out.out

    return run


def ratfun_hashes(capsys):
    return "\n".join(str(hash(x)) for x in HASH_CORPUS)


@pytest.mark.parametrize(
    "produce, digest",
    [
        (cli(*IDENTITIES), "7d21c385f114b962d21ebfe2d2c0c35fc75112369aa27a925bff2e89bce7b076"),
        (cli(*IDENTITIES, "--json"), "756022f2849f395e679438ea6a87b0ea8a0117bd925b3afe35af6822d8fcd500"),
        (cli(*NORMALIZE), "eb160f9c201aadd7288c118655df656d5d9d74a84100349a7f98e3940ef61b58"),
        (cli(*NORMALIZE, "--json"), "8c5d7671fdbbd355c6662eeb6c580236de89ff1d71bbc9916a6c7ca15d57d2f2"),
        (cli(*BRACKET), "8f9e289195653e9696256fe1ee606ca617f7e3917a8471de9ba9fdf020a89d93"),
        (cli(*BRACKET, "--json"), "41fcc760a846b4e5544212747605836a5d3a2976061696e9ee4ca6956127d316"),
        (ratfun_hashes, "a87cb12716f1f1079ca408a7f0f9ecd6189677ca700358a8476e2ad2e8181da3"),
    ],
    ids=["identities-text", "identities-json", "normalize-text", "normalize-json", "bracket-text", "bracket-json", "ratfun-hashes"],
)
def test_output_is_unchanged(capsys, produce, digest):
    assert hashlib.sha256(produce(capsys).encode()).hexdigest() == digest
