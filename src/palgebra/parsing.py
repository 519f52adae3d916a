"""Recursive-descent parser for scalar and element expressions.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' INT)*
    atom   := INT | NAME | '(' expr ')'

INT is a run of ASCII digits and NAME an ASCII identifier (``is_name``).
Scalar expressions know the names ``a`` and ``b``; element expressions add
``x`` and ``y`` and multiply noncommutatively in source order.  Extra names
may be supplied through an environment of let-bindings.  Exponents are
nonnegative integers of at most ``MAX_EXPONENT``, and so is each power's
exponent times its base's total degree in a and b, which bounds a power of
a power, and so is the sum of the degrees of a product's or quotient's two
operands, which bounds a chain of products.  Parentheses and unary minus
together may nest at most ``MAX_NESTING`` deep.  Input past any of these bounds is a syntax error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import AlgElement
from .errors import ExprSyntaxError


@dataclass(frozen=True)
class Token:
    kind: str  # INT | NAME | OP | END
    text: str
    pos: int


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# whitespace, which is skipped, or one token whose kind is the name of the
# group that matched
_TOKEN = re.compile(rf"(?P<SPACE>\s+)|(?P<INT>[0-9]+)|(?P<NAME>{_NAME.pattern})|(?P<OP>[-+*/^()])")

# Each level of nesting costs the parser a few Python frames; this bound
# keeps the deepest accepted expression well inside the recursion limit.
MAX_NESTING = 100

# A power's cost grows with its exponent far faster than the input's length:
# (1+a+b)^n over F_p(a, b) with p > n has n^2/2 terms, and squaring them
# costs about n^4.  At this bound the worst case measured, that power at
# p = 10007, takes 0.8 s; n = 128 takes 2.2 s and n = 200 over 8 s.
MAX_EXPONENT = 100


def tokenize(text):
    """The tokens of text, ending with END, yielded one at a time: a parser
    that rejects its input stops reading it there."""
    i, n = 0, len(text)
    while i < n:
        m = _TOKEN.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "SPACE":
            yield Token(m.lastgroup, m.group(), i)
        i = m.end()
    yield Token("END", "", n)


def _degree(value):
    """The largest i + j over the terms a^i b^j of a scalar's numerator
    and denominator, or of every coefficient's."""
    scalars = value.entries.values() if isinstance(value, AlgElement) else (value,)
    return max((i + j for c in scalars for m in (c.num, c.den) for i, j in m), default=0)


def is_name(text):
    """Whether text reads as one NAME token, an ASCII identifier."""
    return _NAME.fullmatch(text) is not None


class _Parser:
    """Evaluating parser; atoms come from a name table, arithmetic from the
    value type's operators."""

    def __init__(self, text, atoms, from_int):
        self.tokens = tokenize(text)
        self.tok = next(self.tokens)
        self.atoms = atoms
        self.from_int = from_int
        self.depth = 0

    def advance(self):
        tok = self.tok
        self.tok = next(self.tokens)
        return tok

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", tok.pos)

    def expect_op(self, op):
        tok = self.tok
        if tok.kind != "OP" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)
        return self.advance()

    def parse(self):
        value = self.expr()
        tok = self.tok
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.tok
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.tok
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                degree = _degree(value) + _degree(rhs)
                if degree > MAX_EXPONENT:
                    raise ExprSyntaxError(f"product of degree {degree} is larger than {MAX_EXPONENT}", tok.pos)
                value = value * rhs if tok.text == "*" else value / rhs
            else:
                return value

    def factor(self):
        tok = self.tok
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            self.nest(tok)
            value = -self.factor()
            self.depth -= 1
            return value
        value = self.atom()
        while True:
            tok = self.tok
            if tok.kind == "OP" and tok.text == "^":
                self.advance()
                etok = self.tok
                if etok.kind != "INT":
                    raise ExprSyntaxError("expected a nonnegative integer exponent", etok.pos)
                self.advance()
                n = int(etok.text)
                if n > MAX_EXPONENT:
                    raise ExprSyntaxError(f"exponent {n} is larger than {MAX_EXPONENT}", etok.pos)
                degree = n * _degree(value)
                if degree > MAX_EXPONENT:
                    raise ExprSyntaxError(f"power of degree {degree} is larger than {MAX_EXPONENT}", etok.pos)
                value = value ** n
            else:
                return value

    def atom(self):
        tok = self.tok
        if tok.kind == "INT":
            self.advance()
            return self.from_int(int(tok.text))
        if tok.kind == "NAME":
            if tok.text not in self.atoms:
                raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.pos)
            self.advance()
            return self.atoms[tok.text]
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            self.nest(tok)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ExprSyntaxError("expected a value", tok.pos)


def parse_scalar(text, field, env=None):
    """Parse a scalar expression over the given field descriptor."""
    atoms = {"a": field.gen("a"), "b": field.gen("b")}
    if env:
        atoms.update(env)
    return _Parser(text, atoms, field.from_int).parse()


def parse_element(text, algebra, env=None):
    """Parse an element expression in the given symbol algebra.

    Let-bound names from ``env`` may be scalars or elements; scalars embed
    as multiples of the identity.
    """
    field = algebra.field
    atoms = {
        "a": algebra.scalar(field.gen("a")),
        "b": algebra.scalar(field.gen("b")),
        "x": algebra.x(),
        "y": algebra.y(),
    }
    if env:
        for name, value in env.items():
            atoms[name] = value if isinstance(value, AlgElement) else algebra.scalar(value)
    return _Parser(text, atoms, lambda n: algebra.scalar(field.from_int(n))).parse()
