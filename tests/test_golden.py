"""Byte-for-byte regression of CLI reports and of ``RatFun`` hash values.

The digests were taken before brackets were summed from memoized monomial
commutators (the identity-suite report) and before a ``RatFun`` content was
stored as a pair of integers instead of a ``Fraction`` (the ``normalize`` and
``bracket`` reports, whose coefficients carry negative, fractional and
``1/(1 - q)`` contents, and the hash values), and before the spectral lab
read its columns straight off the band fill and rounded the eigenvalues of
``spectrum --op C`` from bounds on the power (the numeric ``apply``, the
one-band ``norm`` and the ``spectrum`` reports).  The identity suite at
kmax = 16, lmax = 12, ``(A+B)^12`` and the hash corpus with q^v and
(1 - q)^w above and below the line were taken before a ``RatFun`` carried
those two valuations apart from its dense parts.  The window estimators,
the coherent vector, the C-free ``norm`` and the deep numeric ``apply`` at
q = 1/2, none of which calls LAPACK, were taken before the rounded
q-integers and C-free band entries stopped their exact arithmetic at the
limit they round to.  Rendering sorts terms, so
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
#: coefficients of degree up to about 200, with (q^l - 1)^k scale factors
IDENTITIES_DEEP = ["verify", "identities", "--kmax", "16", "--lmax", "12"]
POWER = ["normalize", "(A+B)^12"]
APPLY = ["apply", "-3/7*B^2*C + 5/(1-q)*C^2*A - 2/3*q^2/(1-q)^2*C^3 + 4*B*C", "--n", "5", "--q", "1/3"]
#: one term, whose norm is read from its peak column
NORM_PEAK = ["norm", "(-5/3)*q^2/(1-q)*B^2*C^3", "--q", "1/3", "--dim", "60"]
#: one band with several C-powers, whose norm is read from all its columns
NORM_BAND = ["norm", "4*B^2*C - 3*B^2*C^2 - 1/(1-q)*B^2*C^5", "--q", "1/3", "--dim", "60"]
#: windows, weights and C-free entries far past where {m}_q rounds to 1/(1-q)
RADIUS = ["radius", "--q", "1/2", "--kmax", "50", "--dim", "500"]
LOWER_INDEX = ["lower-index", "--q", "1/2", "--kmax", "500", "--dim", "520"]
COHERENT = ["coherent", "--c", "0.7", "--q", "1/2", "--dim", "300"]
NORM_SHIFT = ["norm", "B^3", "--q", "1/2", "--dim", "300"]
APPLY_DEEP = ["apply", "A+2*B^3", "--n", "250", "--q", "1/2"]


def spectrum(op, *argv):
    return cli("spectrum", "--op", op, *argv, "--json")

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
    # (1 - q)^w above and below the line, with q^v and q-integers
    RF_ONE_MINUS_Q**3,
    RatFun.q_power(-3) / RF_ONE_MINUS_Q**2,
    RF_ONE_MINUS_Q**4 * RatFun.q_power(2) * qbracket(3) * Fraction(-5, 4),
    qbracket(5) ** 2 / (RF_ONE_MINUS_Q**3 * RatFun.q_power(4)),
    RatFun.q_power(-1) * RF_ONE_MINUS_Q**2 / (qbracket(4) * 7),
    over_one_minus_q([3, 0, -3], 2, 5),
    RatFun(QPolynomial((1, -2)), QPolynomial((0, 0, 1, -2, 1))),
    RatFun(QPolynomial((0, 1, -3, 3, -1)), QPolynomial((2, 1))),
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
        (cli(*IDENTITIES_DEEP), "1e18a879365de47cd079f6ae0509728b7544d2f6ec6cfd88e607bddd018f6a63"),
        (cli(*IDENTITIES_DEEP, "--json"), "0236e7d62abd08c8d9adc99e167d1c4b350764323879a32665bfea6123380b05"),
        (cli(*POWER), "b5bae706ea00c1bcd719da2b1d89468b6a74f6d985889a8cea1651b0fbab9d2b"),
        (cli(*POWER, "--json"), "da1450fcddcfb8011267e942ad42b2c8e611214217158235550ae1cdf4f3c4be"),
        (cli(*NORMALIZE), "eb160f9c201aadd7288c118655df656d5d9d74a84100349a7f98e3940ef61b58"),
        (cli(*NORMALIZE, "--json"), "8c5d7671fdbbd355c6662eeb6c580236de89ff1d71bbc9916a6c7ca15d57d2f2"),
        (cli(*BRACKET), "8f9e289195653e9696256fe1ee606ca617f7e3917a8471de9ba9fdf020a89d93"),
        (cli(*BRACKET, "--json"), "41fcc760a846b4e5544212747605836a5d3a2976061696e9ee4ca6956127d316"),
        (ratfun_hashes, "afb33e1cfdeab69b05e63577e63e33d8f91e0b322e4bf4299c1fe55d59be0491"),
        (cli(*APPLY), "7f1e1e3eb6b0c37f70821a7c85b1d1b8fbd90a9b63df1767c9bb4f08d8e15c90"),
        (cli(*APPLY, "--json"), "7a942c9912f737431b08a55e6cb959ad979042b987dfaa4bf4dd406a42d70e57"),
        (cli(*NORM_PEAK), "a38a199bffaf382dfadc9b37a4aeb9df1b29127c6114f3acae977812fb0e9be4"),
        (cli(*NORM_BAND), "ba30bb175ee731158f6217ce13cf88e9b4304ccf89564c2179b87045ec70965d"),
        (cli(*RADIUS), "9dfe28a67111fa841413b8d1d27f2815cfe38998ec174b687d7b2a23ef2454f8"),
        (cli(*RADIUS, "--json"), "d27a3289e6d23f9018fa079d10454e8cfe2e9d36bc6c4eff0d93292f26ba72cf"),
        (cli(*LOWER_INDEX), "cd3b690e2ffe4c72680879a95efe450163ffcc732ae0174e017d244d79bc3193"),
        (cli(*LOWER_INDEX, "--json"), "e897d2ab77d901aea0e0012aa8a06fa497c9e6f0a7a3ab0636c6beff98b038c6"),
        (cli(*COHERENT), "2026fde90b1b156eb0b96060288e85dd73906acd1c8ca4a7e3e00e7fab8931d2"),
        (cli(*COHERENT, "--json"), "800783b61e4c6e88080777073a6b215c194dee8ba2f6917b357a7e65916b7711"),
        (cli(*NORM_SHIFT), "9fc1ba1cc3bdb6207745e078c558b3ae4fb2d12bbe64d0f5b0929f971d39abc8"),
        (cli(*NORM_SHIFT, "--json"), "844b234b3b60818cf1c0fcc4c1055efdd094f58dfa3a56531e3a253882fa1797"),
        (cli(*APPLY_DEEP), "511d9fe43849281fdf2ef7f0bc176e605dd3806e0cd17261fb1847240da2c2ba"),
        (cli(*APPLY_DEEP, "--json"), "69458cf1101e2331c833009949c20a49a68513b815f177c5790f282b9f44f5cd"),
        (spectrum("A", "--q", "1/3"), "c9b448c21a4405db38268ba06cf19df407b63ab91bd48a67acb9d3a7950375be"),
        (spectrum("B", "--q", "1/3"), "9d7400ee1810720c588a46ec44e77db336e58eec41e2ded4e5df7ac9cc4bd41b"),
        (spectrum("C", "--k", "3", "--q", "1/3"), "34c3ec0e6500ea1caf099c7d905c338864fc092daee2c4d92ccdd63f64ea7267"),
        (spectrum("C", "--k", "10000", "--q", "9999/10000"), "5b0fa73b98005873e361cdd535e3a5e7030e849e7f43d94c3e411026b781aa26"),
    ],
    ids=[
        "identities-text",
        "identities-json",
        "identities-deep-text",
        "identities-deep-json",
        "power-text",
        "power-json",
        "normalize-text",
        "normalize-json",
        "bracket-text",
        "bracket-json",
        "ratfun-hashes",
        "apply-text",
        "apply-json",
        "norm-peak",
        "norm-band",
        "radius-text",
        "radius-json",
        "lower-index-text",
        "lower-index-json",
        "coherent-text",
        "coherent-json",
        "norm-shift-text",
        "norm-shift-json",
        "apply-deep-text",
        "apply-deep-json",
        "spectrum-A",
        "spectrum-B",
        "spectrum-C",
        "spectrum-C-near-one",
    ],
)
def test_output_is_unchanged(capsys, produce, digest):
    assert hashlib.sha256(produce(capsys).encode()).hexdigest() == digest
