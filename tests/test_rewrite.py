"""Reduction system: rule soundness, ambiguities, and confluence."""

import pytest
from conftest import basis_words_up_to

from qheis import rewrite
from qheis.algebra import Element, I, multiply_cascade, reduce_word
from qheis.ratfun import RF_ONE_MINUS_Q, RatFun
from qheis.rewrite import (
    FreeElement,
    RewriteRule,
    RuleSet,
    check_confluence,
    list_ambiguities,
    normalize_free,
    word,
    word_normal_form,
)

PRINTED = RuleSet.printed()
COMPLETED = RuleSet.completed()
INV = RatFun.one() / RF_ONE_MINUS_Q
Q = RatFun.q_power(1)


def test_printed_ambiguity_words():
    reports = list_ambiguities(PRINTED, 3)
    assert [r.word_text for r in reports] == ["ABA", "ACB", "BAB", "BAC", "CBA"]
    assert all(r.kind == "overlap" for r in reports)


def test_bab_resolvable_with_expected_outcome():
    reports = {r.word_text: r for r in list_ambiguities(PRINTED, 3)}
    bab = reports["BAB"]
    assert bab.resolvable
    expected = FreeElement({("B",): INV, ("B", "C"): -(Q * INV)})
    assert bab.outcomes == (expected,)


def test_bac_and_cba_unresolvable_with_two_outcomes():
    reports = {r.word_text: r for r in list_ambiguities(PRINTED, 3)}
    stuck = FreeElement({("B", "C", "A"): Q})
    reduced = FreeElement({("C",): INV, ("C", "C"): -INV})
    for name in ("BAC", "CBA"):
        rep = reports[name]
        assert not rep.resolvable
        assert set(rep.outcomes) == {stuck, reduced}
    assert reports["ABA"].resolvable
    assert reports["ACB"].resolvable


def test_completed_confluent_up_to_six():
    summary = check_confluence(COMPLETED, 6)
    assert summary.confluent_up_to_length
    assert summary.unresolvable == ()
    words = {r.word_text for r in summary.reports}
    # the base ambiguities plus the three parametric families
    assert {"ABA", "ACB", "BAB", "BAC", "CBA"} <= words
    for j in (1, 2, 3):
        c = "C" * j
        assert f"B{c}AB" in words
        assert f"B{c}AC" in words
        assert f"CB{c}A" in words
        assert f"AB{c}A" in words


def test_inclusion_ambiguities_resolve_each_word_once(monkeypatch):
    # the shipped rule sets have no inclusion; ACB contains the pattern AC
    # of a base rule and is also the overlap of AC and CB
    rules = RuleSet("with-ACB", PRINTED.rules + (RewriteRule("ACB", word("ACB"), FreeElement.of_word(("C",))),))
    searched = []
    search = rewrite.reachable_normal_forms
    monkeypatch.setattr(rewrite, "reachable_normal_forms", lambda start, r: searched.append(start) or search(start, r))
    reports = list_ambiguities(rules, 3)
    assert [(r.word_text, r.kind) for r in reports] == [
        ("ABA", "overlap"), ("ACB", "inclusion"), ("ACB", "overlap"), ("BAB", "overlap"), ("BAC", "overlap"),
        ("CBA", "overlap"),
    ]
    assert len(searched) == len({r.word for r in reports}) == 5
    inclusion, overlap = reports[1:3]
    assert inclusion.outcomes is overlap.outcomes
    assert not inclusion.resolvable
    # ACB -> C at once, or AC -> qCA first: q CAB -> q C (I - qC)/(1 - q)
    assert set(inclusion.outcomes) == {FreeElement.of_word(("C",)), FreeElement({("C",): Q * INV, ("C", "C"): -Q * Q * INV})}


def test_completed_short_horizon_vacuous():
    reports = list_ambiguities(COMPLETED, 2)
    assert reports == []


def test_maxlen_validation():
    with pytest.raises(ValueError):
        list_ambiguities(PRINTED, 1)


def test_rule_replacements_match_cascade_oracle():
    # every left-hand side instance must equal its replacement in the
    # algebra; the cascade product is the independent route
    for rule in COMPLETED.rules:
        for lhs in rule.lhs_instances(6):
            length, repl = rule.match(lhs, 0)
            assert length == len(lhs)
            lhs_elem = I
            for letter in reversed(lhs):
                gen = Element.monomial(
                    1 if letter == "B" else 0,
                    1 if letter == "C" else 0,
                    1 if letter == "A" else 0,
                )
                lhs_elem = multiply_cascade(gen, lhs_elem)
            repl_elem = Element.zero()
            for w, c in repl.terms.items():
                repl_elem = repl_elem + reduce_word(w).scale(c)
            assert lhs_elem == repl_elem, f"{rule!r} unsound at {lhs}"


def test_normal_forms_idempotent_and_basis_shaped():
    # every word of length <= 5 reduces, and reduction is a fixed point
    letters = ("A", "B", "C")
    words = [()]
    frontier = [()]
    for _ in range(5):
        frontier = [w + (x,) for w in frontier for x in letters]
        words.extend(frontier)
    for w in words:
        nf = word_normal_form(w, COMPLETED)
        assert normalize_free(nf, COMPLETED) == nf
        for u in nf.terms:
            assert COMPLETED.is_irreducible_word(u)
            # basis shape: B-block, C-block, A-block with no B+A mix
            text = "".join(u)
            b = text.rstrip("A").rstrip("C").count("B")
            a = text.lstrip("B").lstrip("C").count("A")
            assert text == "B" * b + "C" * (len(text) - b - a) + "A" * a
            assert b == 0 or a == 0


def test_free_element_algebra():
    x = FreeElement({word("BA"): RatFun.one()})
    y = FreeElement({word("BA"): -RatFun.one()})
    assert (x + y).is_zero()
    assert x.scale(0).is_zero()
    assert x - x == FreeElement.zero()
    assert str(FreeElement.zero()) == "0"


def test_memos_are_bounded_and_keep_every_result(monkeypatch):
    from qheis import algebra, rewrite

    words = [bw for bw in basis_words_up_to(3) if bw.degree <= 4]
    monomials = [Element.monomial(*bw) for bw in words]
    pairs = [(x, y) for x in monomials for y in monomials]
    free_words = [word(t) for t in ("BA", "AB", "BAA", "ABB", "BBAA", "AABB", "BABA", "ABAB", "BCA", "ABCBA")]
    want_nf = [word_normal_form(w, RuleSet("completed", COMPLETED.rules)) for w in free_words]
    want_products = [multiply_cascade(x, y) for x, y in pairs]
    cap = 5
    monkeypatch.setattr(rewrite, "MAX_MEMO_ENTRIES", cap)
    monkeypatch.setattr(algebra.COMPLETED, "_product_memo", {})
    monkeypatch.setattr(algebra.COMPLETED, "_bracket_memo", {})
    rules = RuleSet("completed", COMPLETED.rules)
    for (x, y), want in zip(pairs, want_products):
        assert algebra.multiply(x, y, rules) == want
        assert algebra.bracket(x, y) == want - multiply_cascade(y, x)
        assert len(rules._product_memo) <= cap
        assert len(algebra.COMPLETED._product_memo) <= cap
        assert len(algebra.COMPLETED._bracket_memo) <= cap
    # a word normal form clears the memo only where a call misses, so it
    # holds at most the cap plus what one cold reduction adds
    sizes = []
    for _ in range(3):
        for w, want in zip(free_words, want_nf):
            assert word_normal_form(w, rules) == want
            fresh = RuleSet("completed", COMPLETED.rules)
            word_normal_form(w, fresh)
            assert len(rules._nf_memo) < cap + len(fresh._nf_memo), w
            sizes.append(len(rules._nf_memo))
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
