"""Expression parser and printer for algebra elements.

Grammar (operator precedence: ^ binds tighter than *, which binds tighter
than unary minus, which binds tighter than + and -; juxtaposition is not
multiplication, an explicit * is required):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := primary ['^' NAT]
    primary := 'A' | 'B' | 'C' | 'I' | NAT | 'q'
             | '(' expr ')'
             | '[' expr ',' expr ']'
             | 'ad' '(' expr ')' '^' NAT '(' expr ')'

Scalar subexpressions (built from naturals and q) fold into exact rational
functions during parsing.  Division requires the divisor to fold to a
scalar; dividing by a genuine operator expression is rejected with a
position, and dividing by the zero scalar raises ZeroDivisionError.

``C`` is accepted as an atom and always printed as C; the bracket form
[A,B] evaluates to the same element.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import A, B, BasisWord, C, Element, I, bracket, element_power, multiply
from .ratfun import RF_ONE, LinComb, QPolynomial, RatFun
from .rewrite import FreeElement, word_str

#: Most word pairs one free product may form.  Under the printed rules the
#: free word sum is reduced word by word, so this bounds that work:
#: (A+B)^12, 4096 words, is the largest power of A+B it admits.
MAX_FREE_PAIRS = 4096

#: Most ``num``/``den`` entries and ``IndexList`` ints one JSON document may hold
#: (2-vCPU Xeon): "A^100*B^100" (348,652) prints 14 MB in 1.2 s; "A^150*B^150"
#: (1,159,227), 57 MB in 3.6 s, is refused, and so is ``apply "B^1000000" --n 0``,
#: whose one radicand has 10^6 indices.
MAX_JSON_COEFFS = 1_000_000


class ParseError(ValueError):
    """Syntax error with a 1-based column, the offending token, and the
    token kinds that would have been accepted."""

    def __init__(self, message: str, column: int, token: str, expected=()):
        self.column = column
        self.token = token
        self.expected = tuple(expected)
        detail = f"{message} at column {column}"
        if token:
            detail += f" (found {token!r})"
        if expected:
            detail += f"; expected one of: {', '.join(expected)}"
        super().__init__(detail)


# -- tokens -------------------------------------------------------------------

_SYMBOLS = set("+-*/^()[],")
_NAMES = {"A", "B", "C", "I", "q", "ad"}


#: kind is "nat", "name", a symbol, or "end"
Token = namedtuple("Token", "kind text column")


def tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("nat", text[i:j], col))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name not in _NAMES:
                raise ParseError(
                    "unknown name", col, name, expected=sorted(_NAMES)
                )
            tokens.append(Token("name", name, col))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, col))
            i += 1
            continue
        raise ParseError("unexpected character", col, ch)
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


# -- syntax tree --------------------------------------------------------------


Scalar = namedtuple("Scalar", "value")  # a RatFun
Atom = namedtuple("Atom", "name")  # A, B, C, or I
Sum = namedtuple("Sum", "parts")  # (sign, node) pairs with sign in {+1, -1}
Product = namedtuple("Product", "factors")
Power = namedtuple("Power", "base exponent")
Bracket = namedtuple("Bracket", "left right")
AdPower = namedtuple("AdPower", "operand exponent argument")


def _make_sum(parts):
    if all(isinstance(node, Scalar) for _sign, node in parts):
        total = RatFun.zero()
        for sign, node in parts:
            total = total + node.value if sign > 0 else total - node.value
        return Scalar(total)
    if len(parts) == 1 and parts[0][0] > 0:
        return parts[0][1]
    return Sum(tuple(parts))


def _make_product(factors):
    scalar = RatFun.one()
    rest = []
    for f in factors:
        if isinstance(f, Scalar):
            scalar = scalar * f.value
        else:
            rest.append(f)
    if not rest:
        return Scalar(scalar)
    if scalar.is_zero():
        return Scalar(scalar)
    if not scalar.is_one():
        rest.insert(0, Scalar(scalar))
    if len(rest) == 1:
        return rest[0]
    return Product(tuple(rest))


def _make_power(base, exponent):
    if isinstance(base, Scalar):
        return Scalar(base.value**exponent)
    if exponent == 1:
        return base
    return Power(base, exponent)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("unexpected token", tok.column, tok.text, expected=(kind,))
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("trailing input", tok.column, tok.text, expected=("end",))
        return node

    def expr(self):
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        parts = [(sign, self.term())]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            parts.append((1 if op.kind == "+" else -1, self.term()))
        return _make_sum(parts)

    def term(self):
        factors = [self.factor()]
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            nxt = self.factor()
            if op.kind == "*":
                factors.append(nxt)
                continue
            if not isinstance(nxt, Scalar):
                raise ParseError(
                    "division requires a scalar divisor", op.column, op.text
                )
            if nxt.value.is_zero():
                raise ZeroDivisionError(
                    f"division by zero scalar at column {op.column}"
                )
            factors.append(Scalar(nxt.value.inverse()))
        return _make_product(factors)

    def factor(self):
        base = self.primary()
        if self.peek().kind == "^":
            self.advance()
            exp = int(self.expect("nat").text)
            return _make_power(base, exp)
        return base

    def primary(self):
        tok = self.peek()
        if tok.kind == "nat":
            self.advance()
            return Scalar(RatFun.from_fraction(int(tok.text)))
        if tok.kind == "name":
            self.advance()
            if tok.text == "q":
                return Scalar(RatFun.q_power(1))
            if tok.text in ("A", "B", "C", "I"):
                return Atom(tok.text)
            # ad(f)^n(g)
            self.expect("(")
            operand = self.expr()
            self.expect(")")
            self.expect("^")
            exp = int(self.expect("nat").text)
            self.expect("(")
            argument = self.expr()
            self.expect(")")
            return AdPower(operand, exp, argument)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.advance()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return Bracket(left, right)
        raise ParseError(
            "expected an expression",
            tok.column,
            tok.text,
            expected=("A", "B", "C", "I", "q", "NAT", "(", "[", "ad"),
        )


def parse(text: str):
    """Parse an expression into a syntax tree with scalars folded."""
    return _Parser(tokenize(text)).parse()


_ATOMS = {"A": A, "B": B, "C": C, "I": I}


#: how ``_walk`` evaluates: ``embed(c, letter)`` is the scalar c times one of
#: A, B, C or I, and the rest are the ring operations
_Ops = namedtuple("_Ops", "embed product power bracket")


def _walk(node, ops: _Ops):
    """Evaluate a syntax tree with the operations ``ops``; ``ad(x)^n(y)`` is
    n brackets by x."""
    if isinstance(node, Scalar):
        return ops.embed(node.value, "I")
    if isinstance(node, Atom):
        return ops.embed(RF_ONE, node.name)
    if isinstance(node, Sum):
        total = None
        for sign, part in node.parts:
            val = _walk(part, ops)
            if sign < 0:
                val = -val
            total = val if total is None else total + val
        return total
    if isinstance(node, Product):
        out = None
        for f in node.factors:
            val = _walk(f, ops)
            out = val if out is None else ops.product(out, val)
        return out
    if isinstance(node, Power):
        return ops.power(_walk(node.base, ops), node.exponent)
    if isinstance(node, Bracket):
        return ops.bracket(_walk(node.left, ops), _walk(node.right, ops))
    if isinstance(node, AdPower):
        operand = _walk(node.operand, ops)
        out = _walk(node.argument, ops)
        for _ in range(node.exponent):
            out = ops.bracket(operand, out)
        return out
    raise TypeError(f"not a syntax tree node: {node!r}")


def eval_ast(node) -> Element:
    """Evaluate a syntax tree to a normalized element, through ``multiply``,
    ``element_power`` and ``bracket``."""
    # by their module names at each call, which perfbench/tracing.py rebinds
    return _walk(node, _Ops(lambda c, name: _ATOMS[name].scale(c), multiply, element_power, bracket))


def evaluate(text: str) -> Element:
    """Parse and evaluate in one step."""
    return eval_ast(parse(text))


def eval_ast_free(node) -> FreeElement:
    """Evaluate a syntax tree in the free algebra on the letters A, B, C:
    products are word concatenations and nothing is reduced.  This is the
    input shape for reduction under a caller-chosen rule set.  Raises
    ``ValueError`` before forming a product of more than ``MAX_FREE_PAIRS``
    word pairs; a power multiplies its factors on one at a time, from the
    left, and a bracket forms both products."""
    return _walk(node, _FREE_OPS)


def _free_product(x: FreeElement, y: FreeElement) -> FreeElement:
    pairs = len(x.terms) * len(y.terms)
    if pairs > MAX_FREE_PAIRS:
        raise ValueError(
            f"free expansion too large: one product would form {pairs} word pairs, "
            f"over the limit of {MAX_FREE_PAIRS}; the completed rules reduce as they go"
        )
    return FreeElement.collect(
        (wx + wy, cx * cy) for wx, cx in x.terms.items() for wy, cy in y.terms.items()
    )


def _free_power(x: FreeElement, m: int) -> FreeElement:
    out = FreeElement.of_word(())
    for _ in range(m):
        out = _free_product(out, x)
    return out


_FREE_OPS = _Ops(
    lambda c, name: FreeElement.of_word(() if name == "I" else (name,), c),
    _free_product,
    _free_power,
    lambda x, y: _free_product(x, y) - _free_product(y, x),
)


def parse_ratfun(text: str) -> RatFun:
    """Parse a purely scalar expression (a rational function of q)."""
    node = parse(text)
    if not isinstance(node, Scalar):
        raise ParseError("expected a scalar expression", 1, text)
    return node.value


# -- printing -----------------------------------------------------------------


def word_text(bw: BasisWord) -> str:
    return str(bw)


def element_text(x: Element) -> str:
    """Terms in graded order, each as (coefficient)*word; re-parseable."""
    return str(x)


def _fraction_json(c):
    return c if isinstance(c, int) else f"{c.numerator}/{c.denominator}"


def ratfun_json(c: RatFun) -> dict:
    num, den = c._monic_coeffs()
    return {"num": [_fraction_json(x) for x in num], "den": [_fraction_json(x) for x in den]}


def ratfun_from_json(doc) -> RatFun:
    num = QPolynomial([Fraction(v) for v in doc["num"]])
    den = QPolynomial([Fraction(v) for v in doc["den"]])
    return RatFun(num, den)


def element_json(x: Element) -> dict:
    return {
        "terms": [
            {"b": bw.b, "k": bw.k, "a": bw.a, "coeff": ratfun_json(c)}
            for bw, c in x.sorted_terms()
        ]
    }


class IndexList:
    """Ints that ``json_text`` writes as one list and charges to its budget,
    one entry each; a plain list or tuple is written without passing it."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


def json_default(value):
    """The ``default`` hook of ``json_text``: the JSON form of a ``RatFun``,
    an ``Element``, a ``FreeElement`` or an ``IndexList``."""
    # called by their module names, which perfbench/tracing.py rebinds
    if isinstance(value, IndexList):
        return list(value.items)
    if isinstance(value, RatFun):
        return ratfun_json(value)
    if isinstance(value, Element):
        return element_json(value)
    if isinstance(value, FreeElement):
        words = value.sorted_terms()
        return {"words": [{"word": word_str(w), "coeff": ratfun_json(c)} for w, c in words]}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_entries(c: RatFun) -> int:
    """Entries of ``ratfun_json(c)`` read off the parts, with no densifying:
    len(N) + max(v, 0) + max(w, 0) + len(D) + max(-v, 0) + max(-w, 0)."""
    return len(c._n) + len(c._d) + abs(c._v) + abs(c._w)


def json_text(doc) -> str:
    """doc as indented JSON text by ``json_default``; ``ValueError`` before
    encoding a value that takes it past ``MAX_JSON_COEFFS`` entries."""
    import json

    budget = MAX_JSON_COEFFS

    def default(value):
        nonlocal budget
        if isinstance(value, IndexList):
            budget -= len(value.items)
        else:
            coeffs = value.terms.values() if isinstance(value, LinComb) else (value,)
            budget -= sum(json_entries(c) for c in coeffs if isinstance(c, RatFun))
        if budget < 0:
            raise ValueError(f"JSON output over MAX_JSON_COEFFS = {MAX_JSON_COEFFS} coefficient entries")
        return json_default(value)

    return json.dumps(doc, indent=2, default=default)


def element_from_json(doc) -> Element:
    return Element.collect(
        (BasisWord(t["b"], t["k"], t["a"]), ratfun_from_json(t["coeff"])) for t in doc["terms"]
    )

