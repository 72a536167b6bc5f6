"""Byte-for-byte regression of the identity-suite report.

The digests are those of ``qheis verify identities --kmax 8 --lmax 6`` in
text and in JSON before brackets were summed from memoized monomial
commutators.  Rendering sorts terms, so neither the memo nor the order in
which a bracket meets its terms may show in the output; CI runs this file a
second time under another hash seed.
"""

import hashlib

import pytest

from qheis.cli import main

ARGV = ["verify", "identities", "--kmax", "8", "--lmax", "6"]


@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "7d21c385f114b962d21ebfe2d2c0c35fc75112369aa27a925bff2e89bce7b076"),
        (["--json"], "756022f2849f395e679438ea6a87b0ea8a0117bd925b3afe35af6822d8fcd500"),
    ],
    ids=["text", "json"],
)
def test_verify_identities_output_is_unchanged(capsys, extra, digest):
    assert main(ARGV + extra) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
