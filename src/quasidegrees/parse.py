"""Parsing and rendering of polynomials in a graded ring.

Grammar (whitespace ignored between tokens):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('-' | '+')* power
    power   := atom ('^' INT)*
    atom    := INT | NAME | '(' expr ')'

INT is a nonnegative decimal integer, NAME an identifier matching
[A-Za-z][A-Za-z0-9_]*. Division is only allowed by nonzero constants
(rational coefficients like 3/2*x are fine; x/y is not). Exponents must be
nonnegative integer literals. Parentheses nest at most MAX_NESTING deep;
deeper input is a ParseError rather than a blown recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .poly import GradedRing, MonomialOrder, Polynomial


class ParseError(ValueError):
    """Malformed input text; carries the 0-based offset when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariableError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable {name!r}", position)
        self.name = name


MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<INT>\d+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<OP>[-+*/^()]))"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        assert kind is not None
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: GradedRing):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    def parse(self) -> Polynomial:
        f = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return f

    def expr(self) -> Polynomial:
        f = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                g = self.term()
                f = f + g if tok.text == "+" else f - g
            else:
                return f

    def term(self) -> Polynomial:
        f = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.next()
                f = f * self.factor()
            elif tok.kind == "OP" and tok.text == "/":
                self.next()
                g = self.factor()
                if len(g.terms) != 1 or any(next(iter(g.terms))):
                    raise ParseError("division only by nonzero constants", tok.pos)
                f = f * (1 / next(iter(g.terms.values())))
            else:
                return f

    def factor(self) -> Polynomial:
        sign = 1
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                if tok.text == "-":
                    sign = -sign
            else:
                break
        f = self.power()
        return f if sign == 1 else -f

    def power(self) -> Polynomial:
        f = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "^":
                self.next()
                etok = self.next()
                if etok.kind != "INT":
                    raise ParseError("exponent must be a nonnegative integer", etok.pos)
                f = f ** int(etok.text)
            else:
                return f

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok.kind == "INT":
            return Polynomial.constant(self.ring.nvars, int(tok.text))
        if tok.kind == "NAME":
            try:
                j = self.ring.name_index(tok.text)
            except KeyError:
                raise UnknownVariableError(tok.text, tok.pos) from None
            return self.ring.variable(j)
        if tok.kind == "OP" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.pos
                )
            self.depth += 1
            f = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return f
        raise ParseError(
            f"expected a number, variable, or parenthesis, got {tok.text!r}"
            if tok.kind != "END"
            else "unexpected end of input",
            tok.pos,
        )


def _monomial_exponents(text: str, ring: GradedRing) -> list[int] | None:
    """The exponents of ``text`` when it is exactly NAME('^'INT)? factors
    joined by '*', with no whitespace and every name in the ring; None
    for any other text."""
    exps = [0] * ring.nvars
    for factor in text.split("*"):
        name, caret, power = factor.partition("^")
        if caret and not power.isdecimal():
            return None
        if not (
            name.isascii()
            and name[:1].isalpha()
            and name.replace("_", "a").isalnum()
        ):
            return None
        try:
            j = ring.name_index(name)
        except KeyError:
            return None
        exps[j] += int(power) if caret else 1
    return exps


def parse_polynomial(text: str, ring: GradedRing) -> Polynomial:
    """Parse ``text`` into a polynomial over ``ring``.

    The text ``0`` and a single monomial such as ``x^2*y`` are read
    straight into their terms; any other text, malformed text included,
    goes through the recursive descent. Raises ParseError (with a
    position) on malformed input and UnknownVariableError for names not
    in the ring.
    """
    if text == "0":
        return Polynomial._unchecked(ring.nvars, {})
    exps = _monomial_exponents(text, ring)
    if exps is None:
        return _Parser(text, ring).parse()
    return Polynomial._unchecked(ring.nvars, {tuple(exps): Fraction(1)})


def _render_monomial(exps, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def render_polynomial(f: Polynomial, ring: GradedRing, order: MonomialOrder | None = None) -> str:
    """Human-readable form, terms in decreasing order; parses back to f."""
    if f.nvars != ring.nvars:
        raise ValueError("polynomial does not live in this ring")
    if not f.terms:
        return "0"
    order = order or ring.order
    chunks = []
    for idx, (exps, coeff) in enumerate(f.sorted_terms(order)):
        mon = _render_monomial(exps, ring.names)
        mag = abs(coeff)
        if not mon:
            body = str(mag)
        elif mag == 1:
            body = mon
        else:
            body = f"{mag}*{mon}"
        if idx == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)
