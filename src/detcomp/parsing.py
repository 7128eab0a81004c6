"""Text grammar for polynomials.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER | NAME | '(' expr ')' | '-' atom

NAME matches [A-Za-z_][A-Za-z0-9_]*. NUMBER is an integer or a rational
literal a/b. Whitespace is insignificant. There is no implicit
multiplication. Parse errors carry line and column. Printing (Polynomial.__str__)
emits canonical degrevlex-descending form and parse(print(f)) == f.

A product or a power (...)^k is refused with PolynomialSyntaxError, before it
is expanded, when an upper bound on its term count passes MAX_EXPANSION_TERMS.
The bound for t terms of degree d in n variables raised to k is
min(C(t + k - 1, k), C(n + k*d, n)): the monomials a k-fold product of the t
terms can form, and all monomials of degree at most k*d. For a product of t1
and t2 terms it is min(t1*t2, C(n + d1 + d2, n)). Expanding a dense
univariate power costs about the square of its term count, so the largest one
the cap admits, (x + 1)^999, takes about 4 s over Q and 1 s over F_p.

The parser recurses once per parenthesis and once per unary minus, so an atom
nested in more than MAX_NESTING_DEPTH of them is refused with
PolynomialSyntaxError at the first '(' or '-' past the cap, well before
Python's recursion limit (four frames per parenthesis).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .fields import Field, QQ, Record
from .poly import Polynomial, VarSet, sum_of_products

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])"
)


MAX_EXPANSION_TERMS = 1000  # see the module docstring
MAX_NESTING_DEPTH = 100  # see the module docstring


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class _Token(Record):
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolynomialSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk.replace(" ", ""), line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], vars: VarSet, field: Field):
        self.tokens = tokens
        self.i = 0
        self.vars = vars
        self.field = field
        self.depth = 0  # open parentheses and unary minus signs around the atom being read

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise PolynomialSyntaxError(message, tok.line, tok.column)

    def check_expansion(self, products: int, degree: int, tok: _Token):
        """Refuse an expansion whose term-count bound passes the cap."""
        n = len(self.vars)
        if min(products, comb(n + degree, n)) > MAX_EXPANSION_TERMS:
            self.fail(f"expansion may exceed {MAX_EXPANSION_TERMS} terms", tok)

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r}", tok)
        return p

    def expr(self) -> Polynomial:
        """One sum_of_products over all the terms: adding them one at a time
        would rebuild the whole sum at each '+', quadratic in the term count."""
        terms = [self.term()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                q = self.term()
                terms.append(q if tok.text == "+" else -q)
            else:
                return sum_of_products(self.vars, self.field, (), terms)

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.take()
                q = self.factor()
                if len(p.terms) > 1 and len(q.terms) > 1:
                    self.check_expansion(len(p.terms) * len(q.terms), p.degree() + q.degree(), tok)
                p = p * q
            else:
                return p

    def factor(self) -> Polynomial:
        p = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            etok = self.take()
            if etok.kind != "number" or "/" in etok.text:
                self.fail("exponent must be a nonnegative integer", etok)
            k = int(etok.text)
            t = len(p.terms)
            if t > 1:
                self.check_expansion(comb(t + k - 1, k), k * p.degree(), etok)
            p = p ** k
        return p

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok.kind == "number":
            try:  # 1/0 anywhere, and a denominator divisible by p over F_p
                return Polynomial.const(self.vars, self.field, Fraction(tok.text))
            except ZeroDivisionError:
                self.fail(f"coefficient {tok.text} divides by zero in {self.field}", tok)
        if tok.kind == "name":
            if tok.text not in self.vars:
                self.fail(f"unknown variable {tok.text!r}", tok)
            return Polynomial.variable(self.vars, self.field, tok.text)
        if tok.kind == "op" and tok.text in "(-":
            self.depth += 1
            if self.depth > MAX_NESTING_DEPTH:
                self.fail(f"parentheses and unary minus signs nest deeper than {MAX_NESTING_DEPTH}", tok)
            if tok.text == "-":
                p = -self.atom()
            else:
                p = self.expr()
                closing = self.take()
                if not (closing.kind == "op" and closing.text == ")"):
                    self.fail("expected ')'", closing)
            self.depth -= 1
            return p
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)


def infer_varset(text: str) -> VarSet:
    """Variables in order of first appearance."""
    seen = []
    for tok in _tokenize(text):
        if tok.kind == "name" and tok.text not in seen:
            seen.append(tok.text)
    return VarSet(tuple(seen))


def parse_polynomial(text: str, vars: VarSet | None = None, field: Field = QQ) -> Polynomial:
    if vars is None:
        vars = infer_varset(text)
    if len(vars) == 0:
        raise PolynomialSyntaxError("no variables given and none inferable", 1, 1)
    return _Parser(_tokenize(text), vars, field).parse()
