"""Infix parser for polynomials and differential operators.

Grammar: sums of products with ^, *, +, -, parentheses and rational
coefficients.  Multiplication is explicit (write 3*x, not 3x) and is
evaluated left to right in the Weyl algebra, so "d1*x1" parses to the
normally ordered x1*d1 + 1.  Division is only allowed by a rational.

Symbols always available: x1..xn and d1..dn.  A variable declaration
like --vars x,y additionally binds the names x, y and dx, dy.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInputError
from .weyl import WeylElement

_CANONICAL = re.compile(r"^[xd]([0-9]+)$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[()+\-*/^]))")


def tokenize(text: str):
    out = []
    pos = 0
    m = _TOKEN.match(text)
    while m:
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
        m = _TOKEN.match(text, pos)
    rest = text[pos:].lstrip()
    if rest:
        raise InvalidInputError(
            f"unexpected character {rest[0]!r} at position {len(text) - len(rest)}")
    out.append(("end", "", len(text)))
    return out


def variable_table(names, n: int) -> dict:
    """Maps every accepted symbol name to a generator of D_n."""
    table = {}
    declared = set(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise InvalidInputError(f"variable name {name!r} is declared twice")
        if f"d{name}" in declared:
            raise InvalidInputError(
                f"variable names {name!r} and 'd{name}' collide: 'd' + name "
                "is reserved for the derivative")
    for i in range(n):
        table[f"x{i + 1}"] = WeylElement.x(i, n)
        table[f"d{i + 1}"] = WeylElement.d(i, n)
    for i, name in enumerate(names):
        if not _NAME.match(name):
            raise InvalidInputError(f"bad variable name {name!r}")
        if _CANONICAL.match(name) and table.get(name) != WeylElement.x(i, n):
            raise InvalidInputError(
                f"variable name {name!r} collides with a canonical symbol")
        table[name] = WeylElement.x(i, n)
        table[f"d{name}"] = WeylElement.d(i, n)
    return table


class _Parser:
    def __init__(self, tokens, table, n):
        self.toks = tokens
        self.i = 0
        self.table = table
        self.n = n

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind and tok[0] != kind:
            raise InvalidInputError(f"expected {kind} at position {tok[2]}, got {tok[1]!r}")
        self.i += 1
        return tok

    def parse(self):
        v = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise InvalidInputError(f"trailing input {tok[1]!r} at position {tok[2]}")
        return v

    def expr(self):
        kind, val, _ = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.take()
            neg = val == "-"
        out = self.term()
        if neg:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                out = out - rhs if val == "-" else out + rhs
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                out = out * self.factor()
            elif kind == "op" and val == "/":
                self.take()
                rhs = self.factor()
                if not rhs.is_constant():
                    raise InvalidInputError(
                        f"division by a non-constant at position {pos}")
                c = rhs.constant_coefficient()
                if not c:
                    raise InvalidInputError(f"division by zero at position {pos}")
                out = out.scale(Fraction(1) / c)
            else:
                return out

    def factor(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k, kv, kpos = self.peek()
            if k != "num":
                raise InvalidInputError(f"exponent must be an integer at position {kpos}")
            self.take()
            return base ** int(kv)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return WeylElement.constant(self.n, int(val))
        if kind == "name":
            sym = self.table.get(val)
            if sym is None:
                raise InvalidInputError(f"unknown symbol {val!r} at position {pos}")
            return sym
        if kind == "op" and val == "(":
            v = self.expr()
            self.take("op") if self.peek()[1] == ")" else self._fail_paren(pos)
            return v
        if kind == "op" and val == "-":
            return -self.atom()
        raise InvalidInputError(f"unexpected token {val!r} at position {pos}")

    def _fail_paren(self, pos):
        raise InvalidInputError(f"unbalanced parenthesis opened at position {pos}")


def parse_operator(text: str, n: int, names=()) -> WeylElement:
    """Parse a differential operator over D_n."""
    table = variable_table(names, n)
    return _Parser(tokenize(text), table, n).parse()


def parse_polynomial(text: str, n: int, names=()) -> WeylElement:
    """Parse a commutative polynomial; rejects any d-symbol."""
    p = parse_operator(text, n, names)
    if not p.is_polynomial():
        raise InvalidInputError(f"{text!r} is not a polynomial in the x-variables")
    return p
