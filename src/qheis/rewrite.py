"""String rewriting on words over the generators A, B, C.

The algebra is presented by A, B with AB - qBA = I; the commutator
C = AB - BA is adjoined as a third letter.  Two oriented rule sets are
shipped:

* ``printed`` -- the four base reductions obtained directly from the
  defining relation and the commutation of C past the generators:

      BA -> (I - C)/(1 - q)        AB -> (I - qC)/(1 - q)
      AC -> q CA                   CB -> q BC

* ``completed`` -- the same four rules plus the derived parametric family

      B C^j A -> q^(-j) (C^j - C^(j+1))/(1 - q)       (j >= 1),

  which eliminates the irreducible-but-dependent words B C^j A.  Under the
  completed system the irreducible words are exactly the canonical
  monomials B^b C^k A^a with b*a = 0, and every word has a unique normal
  form.

Termination: each application of BA, AB, or B C^j A strictly decreases the
number of A/B letters in the rewritten word; AC and CB preserve letter
counts while strictly decreasing the number of (A before C) respectively
(C before B) inversions.  The lexicographic measure
(A/B letter count, inversion count) is therefore strictly decreasing, and
on linear combinations the induced multiset order is well founded, so
every reduction sequence halts.

Deterministic normalization scans for the leftmost redex and tries rules
in a fixed order (longest pattern first).  The ambiguity checker instead
explores *all* single-step reductions exhaustively, so resolvability is
decided by genuine reachability of a common normal form rather than by
the deterministic strategy.

All values are immutable; the per-ruleset memo table only caches idempotent
results, so concurrent use is safe.
"""

from __future__ import annotations

from collections import namedtuple

from .ratfun import RF_ONE, RF_ONE_MINUS_Q, LinComb, RatFun

#: Words are tuples of single-letter generator names.
LETTERS = ("A", "B", "C")

Word = tuple

#: Longest ambiguity word ``list_ambiguities`` accepts.  The completed rules
#: have one collapse instance per length, so the ambiguity count grows
#: linearly and the exhaustive resolution of each one with it: on a 2-vCPU
#: Xeon, length 24 (89 ambiguities) takes 1.4 s and length 30 already 3.1 s.
MAX_AMBIGUITY_LEN = 24

#: Most entries a ``RuleSet`` memo holds before its next miss clears it; the
#: identity suite at (24, 18) and (A+B+C)^12 leave 927 brackets, 2,138 products.
MAX_MEMO_ENTRIES = 1 << 16


def word(text: str) -> Word:
    """Build a word from a string like ``"BCA"`` (``""`` is the empty word I)."""
    w = tuple(text)
    for ch in w:
        if ch not in LETTERS:
            raise ValueError(f"unknown generator {ch!r}")
    return w


def word_str(w: Word) -> str:
    return "".join(w) if w else "I"


class FreeElement(LinComb):
    """Finite linear combination of free words with RatFun coefficients.

    Zero coefficients are purged on construction, so structural equality of
    the term maps is equality of free-algebra elements.
    """

    __slots__ = ()

    @classmethod
    def of_word(cls, w: Word, coeff=RF_ONE) -> "FreeElement":
        return cls({w: coeff})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def sort_key(self):
        return tuple((w, c.sort_key()) for w, c in self.sorted_terms())

    @staticmethod
    def _term_text(w, c) -> str:
        return f"{c}*{word_str(w)}"


class RewriteRule:
    """One oriented reduction.  ``match(w, i)`` reports the length of the
    rule's pattern instance at position i and the replacement combination,
    or None when the rule does not apply there."""

    def __init__(self, name: str, pattern: Word, replacement: FreeElement):
        self.name = name
        self.pattern = pattern
        self.replacement = replacement

    def match(self, w: Word, i: int):
        n = len(self.pattern)
        if w[i : i + n] == self.pattern:
            return n, self.replacement
        return None

    def lhs_instances(self, max_len: int):
        return [self.pattern] if len(self.pattern) <= max_len else []

    def __repr__(self) -> str:
        return f"<rule {self.name}: {word_str(self.pattern)}>"


class CollapseRule(RewriteRule):
    """The parametric family B C^j A -> q^(-j) (C^j - C^(j+1))/(1 - q)."""

    def __init__(self):
        self.name = "BCjA"

    def match(self, w: Word, i: int):
        if w[i] != "B":
            return None
        j = 0
        pos = i + 1
        while pos < len(w) and w[pos] == "C":
            j += 1
            pos += 1
        if j == 0 or pos >= len(w) or w[pos] != "A":
            return None
        scale = RatFun.q_power(-j) / RF_ONE_MINUS_Q
        repl = FreeElement({("C",) * j: scale, ("C",) * (j + 1): -scale})
        return j + 2, repl

    def lhs_instances(self, max_len: int):
        return [("B",) + ("C",) * j + ("A",) for j in range(1, max_len - 1)]

    def __repr__(self) -> str:
        return "<rule BCjA: B C^j A>"


def _base_rules():
    inv = RF_ONE / RF_ONE_MINUS_Q
    q = RatFun.q_power(1)
    return (
        RewriteRule("BA", word("BA"), FreeElement({(): inv, ("C",): -inv})),
        RewriteRule("AB", word("AB"), FreeElement({(): inv, ("C",): -(q * inv)})),
        RewriteRule("AC", word("AC"), FreeElement({("C", "A"): q})),
        RewriteRule("CB", word("CB"), FreeElement({("B", "C"): q})),
    )


class RuleSet:
    """An ordered, immutable collection of rewrite rules plus memo tables
    for word normal forms and for monomial products and commutators."""

    def __init__(self, name: str, rules):
        """The memos start empty: ``_nf_memo`` holds word normal forms, and
        under the completed rules ``_product_memo`` holds the closed-form
        product of each ordered monomial pair that ``algebra.multiply`` met
        and ``_bracket_memo`` the commutator of each one that
        ``algebra.bracket`` met.  A memo holding ``MAX_MEMO_ENTRIES`` is
        cleared on its next miss; ``_nf_memo`` only where a call to
        ``word_normal_form`` misses, never within one reduction."""
        self.name = name
        self.rules = tuple(rules)
        self._nf_memo = {}
        self._product_memo = {}
        self._bracket_memo = {}

    _printed = None
    _completed = None

    @classmethod
    def printed(cls) -> "RuleSet":
        if cls._printed is None:
            cls._printed = cls("printed", _base_rules())
        return cls._printed

    @classmethod
    def completed(cls) -> "RuleSet":
        if cls._completed is None:
            # longest pattern first, so the collapse family wins at a shared
            # position before BA/AB fire inside it
            cls._completed = cls("completed", (CollapseRule(),) + _base_rules())
        return cls._completed

    @classmethod
    def by_name(cls, name: str) -> "RuleSet":
        if name == "printed":
            return cls.printed()
        if name == "completed":
            return cls.completed()
        raise ValueError(f"unknown rule set {name!r} (expected printed or completed)")

    def redexes(self, w: Word):
        """Yield (position, rule, length, replacement) for every match in
        w, leftmost first and in rule order at each position."""
        for i in range(len(w)):
            for rule in self.rules:
                m = rule.match(w, i)
                if m is not None:
                    yield i, rule, m[0], m[1]

    def leftmost_redex(self, w: Word):
        """The first of :meth:`redexes`, or None."""
        return next(self.redexes(w), None)

    def is_irreducible_word(self, w: Word) -> bool:
        return self.leftmost_redex(w) is None

    def __repr__(self) -> str:
        return f"RuleSet({self.name!r}, {len(self.rules)} rules)"


def _splice(w: Word, i: int, length: int, repl: FreeElement) -> FreeElement:
    left, right = w[:i], w[i + length :]
    return FreeElement({left + u + right: c for u, c in repl.terms.items()})


def word_normal_form(w: Word, rules: RuleSet) -> FreeElement:
    """Deterministic normal form of a single word (leftmost redex, fixed
    rule order), memoized per rule set.  Iterative so that long reduction
    chains cannot overflow the interpreter stack."""
    memo = rules._nf_memo
    if w not in memo and len(memo) >= MAX_MEMO_ENTRIES:
        memo.clear()
    stack = [w]
    while stack:
        cur = stack[-1]
        if cur in memo:
            stack.pop()
            continue
        redex = rules.leftmost_redex(cur)
        if redex is None:
            memo[cur] = FreeElement.of_word(cur)
            stack.pop()
            continue
        i, _rule, length, repl = redex
        spliced = _splice(cur, i, length, repl)
        pending = [u for u in spliced.terms if u not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[cur] = FreeElement.collect(
            (v, c * d) for u, c in spliced.terms.items() for v, d in memo[u].terms.items()
        )
        stack.pop()
    return memo[w]


def normalize_free(fe: FreeElement, rules: RuleSet) -> FreeElement:
    """Normal form of a linear combination of words."""
    return FreeElement.collect(
        (u, c * d) for w, c in fe.terms.items() for u, d in word_normal_form(w, rules).terms.items()
    )


def reachable_normal_forms(start: FreeElement, rules: RuleSet):
    """All irreducible elements reachable from ``start`` by any sequence of
    single reductions (exhaustive breadth-first search)."""
    seen = {start}
    frontier = [start]
    outcomes = set()
    while frontier:
        nxt = []
        for fe in frontier:
            moves = []
            for w, c in fe.terms.items():
                for i, _rule, length, repl in rules.redexes(w):
                    delta = _splice(w, i, length, repl).scale(c) - FreeElement.of_word(w, c)
                    moves.append(fe + delta)
            if not moves:
                outcomes.add(fe)
                continue
            for child in moves:
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return sorted(outcomes, key=FreeElement.sort_key)


class AmbiguityReport(namedtuple("AmbiguityReport", "word kind resolvable outcomes")):
    """A word admitting two competing reductions, with every normal form
    the exhaustive search can reach from it; ``kind`` is "overlap" or
    "inclusion"."""

    __slots__ = ()

    @property
    def word_text(self) -> str:
        return word_str(self.word)


def list_ambiguities(rules: RuleSet, max_len: int):
    """Every overlap/inclusion ambiguity among rule left-hand sides whose
    ambiguity word has length <= max_len, each resolved by exhaustive
    reduction.  Raises ``ValueError`` past ``MAX_AMBIGUITY_LEN``."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if max_len > MAX_AMBIGUITY_LEN:
        raise ValueError(f"max_len {max_len} exceeds MAX_AMBIGUITY_LEN = {MAX_AMBIGUITY_LEN}")
    instances = []
    for rule in rules.rules:
        for lhs in rule.lhs_instances(max_len):
            instances.append((rule, lhs))

    found = {}
    for r1, w1 in instances:
        for r2, w2 in instances:
            # overlaps: a proper nonempty suffix of w1 is a prefix of w2
            for s in range(1, min(len(w1), len(w2))):
                if len(w1) + len(w2) - s > max_len:
                    continue
                if w1[len(w1) - s :] == w2[:s]:
                    found.setdefault(w1 + w2[s:], set()).add("overlap")
            # inclusions: w1 a proper subword of w2 (distinct rule instances)
            if w1 != w2 and len(w1) < len(w2) <= max_len:
                for i in range(len(w2) - len(w1) + 1):
                    if w2[i : i + len(w1)] == w1:
                        found.setdefault(w2, set()).add("inclusion")
                        break

    reports = []
    for w in sorted(found, key=lambda u: (len(u), u)):
        # a word that is both an overlap and an inclusion is resolved once
        outcomes = tuple(reachable_normal_forms(FreeElement.of_word(w), rules))
        reports.extend(AmbiguityReport(w, kind, len(outcomes) == 1, outcomes) for kind in sorted(found[w]))
    return reports


class ConfluenceSummary(namedtuple("ConfluenceSummary", "rules_name max_len reports unresolvable")):
    """The ambiguity reports up to ``max_len``; ``unresolvable``, the
    reports without a unique normal form, is computed on construction."""

    __slots__ = ()

    def __new__(cls, rules_name: str, max_len: int, reports: tuple):
        unresolvable = tuple(r for r in reports if not r.resolvable)
        return super().__new__(cls, rules_name, max_len, reports, unresolvable)

    def __getnewargs__(self):
        return self[:3]

    @property
    def confluent_up_to_length(self) -> bool:
        return not self.unresolvable


def check_confluence(rules: RuleSet, max_len: int) -> ConfluenceSummary:
    """Aggregate the ambiguity reports into a confluence verdict up to the
    given word length."""
    return ConfluenceSummary(
        rules_name=rules.name,
        max_len=max_len,
        reports=tuple(list_ambiguities(rules, max_len)),
    )
