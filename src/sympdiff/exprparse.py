"""Parser for polynomial literals like ``t^2-t-1`` or ``t^2+s``.

Grammar (whitespace ignored)::

    expr   = term (("+" | "-") term)*
    term   = factor (("*" | "/") factor)*
    factor = base ("^" INT)*
    base   = INT | "t" | "s" | "(" expr ")" | "-" base

``t`` is the polynomial variable; ``s`` is the rational-function generator
and only parses over GF(p)(s).  Multiplication is always explicit (``2*t``,
not ``2t``).  Division requires a constant (degree-zero) divisor and is
exact field division.  A power whose degree, or whose exponent times the
exponents already applied to its base, exceeds ``MAX_POWER`` is a
ParseError, and so is a product of degree above ``MAX_POWER``; each is
raised before that power or product is computed.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import FieldCtx
from .poly import Poly

MAX_POWER = 256

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([ts])|([()+\-*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("var", m.group(2)))
        elif m.group(3):
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ctx: FieldCtx, text: str):
        self.ctx = ctx
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> Poly:
        e, _ = self.expr()
        if self.i != len(self.tokens):
            raise ParseError(f"trailing input in {self.text!r}")
        return e

    # Each rule returns its value and the product of the exponents applied
    # to it, counting through parentheses, so that powers of powers are
    # capped before they are computed.

    def expr(self):
        acc, w = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs, rw = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
                w = max(w, rw)
            else:
                return acc, w

    def term(self):
        acc, w = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs, rw = self.factor()
                w = max(w, rw)
                if val == "*":
                    if acc.degree + rhs.degree > MAX_POWER:
                        raise ParseError(
                            f"product in {self.text!r} exceeds degree {MAX_POWER}"
                        )
                    acc = acc * rhs
                else:
                    if rhs.degree > 0:
                        raise ParseError(
                            f"division by non-constant {rhs} in {self.text!r}"
                        )
                    if rhs.is_zero:
                        raise ParseError(f"division by zero in {self.text!r}")
                    acc = acc.scale(self.ctx.inv(rhs.coefficient(0)))
            else:
                return acc, w

    def factor(self):
        acc, w = self.base()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "^":
                self.take()
                ekind, e = self.take()
                if ekind != "int":
                    raise ParseError(f"exponent must be an integer in {self.text!r}")
                # ^0 counts as ^1, so that it cannot clear the count of a
                # base that a later exponent raises
                w *= max(e, 1)
                if max(w, acc.degree * e) > MAX_POWER:
                    raise ParseError(
                        f"power ^{e} in {self.text!r} exceeds degree {MAX_POWER}"
                    )
                acc = acc ** e
            else:
                return acc, w

    def base(self):
        kind, val = self.take()
        if kind == "int":
            return Poly.constant(self.ctx, self.ctx.from_int(val)), 1
        if kind == "var":
            if val == "t":
                return Poly.t(self.ctx), 1
            if getattr(self.ctx, "kind", None) != "ratfunc":
                raise ParseError(f"variable 's' needs a GF(p)(s) context, got {self.ctx}")
            return Poly.constant(self.ctx, self.ctx.gen), 1
        if kind == "op" and val == "-":
            acc, w = self.base()
            return -acc, w
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token in {self.text!r}")


def parse_poly(ctx: FieldCtx, text: str) -> Poly:
    """Parse a polynomial literal over the given field context."""
    if not text or not text.strip():
        raise ParseError("empty polynomial literal")
    return _Parser(ctx, text).parse()


def parse_scalar(ctx: FieldCtx, text: str):
    """Parse a literal that must evaluate to a field scalar."""
    f = parse_poly(ctx, text)
    if f.degree > 0:
        raise ParseError(f"{text!r} is not a scalar")
    return f.coefficient(0)
