"""Result records: immutable tuples that survive pickling and copying with
their computed fields."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import COPIERS

from qheis import expr, lie, rewrite, spectral
from qheis.algebra import PRINTED, B, BasisWord

HALF = spectral.NumericQ(Fraction(1, 2))

#: one instance of each record type, by the call that returns it
RECORDS = [
    BasisWord(1, 2, 0),
    expr.tokenize("A^2")[1],
    expr.parse("1/(1-q)"),
    expr.parse("A"),
    expr.parse("A - B"),
    expr.parse("q*A*B"),
    expr.parse("(A+B)^2"),
    expr.parse("[A, B]"),
    expr.parse("ad(A)^2(B)"),
    rewrite.list_ambiguities(PRINTED, 3)[0],
    rewrite.check_confluence(PRINTED, 3),
    lie.decompose(expr.evaluate("A + 2*I + C^2*A^3")),
    lie.verify_fredholm_relations()[0],
    lie.apply_symbolic(B * B, 1).scalars(3)[0],
    HALF,
    spectral.weights(HALF, 5),
    spectral.coherent_vector(0.5, HALF, 10),
    spectral.spectrum_facts("C", k=2, q0=HALF),
    spectral.compact_decay_report(B, HALF, 5),
]

#: the fields a record computes on construction
COMPUTED = {
    rewrite.ConfluenceSummary: ("unresolvable",),
    lie.IdentityReport: ("difference", "verdict"),
}


def test_every_record_type_is_sampled():
    kinds = {type(r) for r in RECORDS}
    assert len(kinds) == len(RECORDS) == 19
    assert {expr.Scalar, expr.Atom, expr.Sum, expr.Product, expr.Power, expr.Bracket, expr.AdPower} <= kinds
    assert rewrite.check_confluence(PRINTED, 3).unresolvable


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_copy(record, copier):
    back = copier(record)
    assert type(back) is type(record)
    assert back == record
    assert repr(back) == repr(record)
    try:
        hash(record)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(back)
    else:
        assert hash(back) == hash(record)
    for name in COMPUTED.get(type(record), ()):
        assert getattr(back, name) == getattr(record, name)


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
def test_truncated_matrix_survives_pickle_and_copy(copier):
    m = spectral.matrix(expr.evaluate("A + B"), HALF, 4)
    back = copier(m)
    assert type(back) is spectral.TruncatedMatrix
    assert (back.dim, back.q0) == (m.dim, m.q0)
    assert np.array_equal(back.data, m.data)
    # equal only to itself, as an array holder
    assert back != m and m == m


def test_records_are_tuples_of_their_fields():
    report = lie.verify_fredholm_relations()[0]
    assert report == tuple(report)
    assert report.difference == report.lhs - report.rhs and report.verdict
    assert BasisWord(0, 1, 2) == (0, 1, 2)
    assert sorted([BasisWord(1, 0, 0), BasisWord(0, 1, 0), BasisWord(0, 0, 3)]) == [(0, 0, 3), (0, 1, 0), (1, 0, 0)]
    with pytest.raises(ValueError):
        BasisWord(1, 0, 1)
    with pytest.raises(ValueError):
        spectral.NumericQ(2)
