"""Recursive-descent parser for germ expressions in the logarithmic chart.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INT)?
    atom   := NUMBER | 'zeta' | 'pi' | 'i' | FUNC '(' expr ')'
            | 'L1'..'L9' | '(' expr ')'
    FUNC   := 'exp' | 'log' | 'L1' .. 'L9'

Numbers are decimal literals; rational constants are spelled with '/'.
L1..L9 are iterated principal logarithms; written bare they apply to zeta,
so `L1^-2` is shorthand for `L1(zeta)^-2`.  Evaluation guards: division by
zero and any log whose argument has nonpositive real part raise
EvalDomainError; parse failures carry the character offset.
"""

from __future__ import annotations

import cmath
import re

from .errors import EvalDomainError, ParseError

__all__ = ["parse_expression", "eval_ast", "contains_zeta", "split_affine"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"exp", "log"} | {f"L{m}" for m in range(1, 10)}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", position=at)
        start = m.start("num") if m.group("num") else (
            m.start("name") if m.group("name") else m.start("op"))
        if m.group("num"):
            tokens.append(("num", m.group(0).strip(), start))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), start))
        else:
            tokens.append(("op", m.group("op"), start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", position=pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", position=pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.advance()
                sign = -1
                kind, val, pos = self.peek()
            if kind != "num" or "." in val:
                raise ParseError("exponent must be an integer literal", position=pos)
            self.advance()
            node = ("pow", node, sign * int(val))
        return node

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return ("num", complex(float(val)))
        if kind == "name":
            if val == "zeta":
                return ("zeta",)
            if val == "pi":
                return ("num", complex(cmath.pi))
            if val == "i":
                return ("num", 1j)
            if val in _FUNCS:
                nk, nv, _ = self.peek()
                if nk == "op" and nv == "(":
                    self.advance()
                    arg = self.expr()
                    self.expect_op(")")
                    if val.startswith("L"):
                        return ("ilog", int(val[1:]), arg)
                    return ("call", val, arg)
                if val.startswith("L"):
                    # bare iterated log applies to zeta
                    return ("ilog", int(val[1:]), ("zeta",))
                raise ParseError(f"{val} requires an argument", position=pos)
            raise ParseError(f"unknown name {val!r}", position=pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input",
                         position=pos)


def parse_expression(text: str):
    """Text to AST; raises ParseError with a character offset on failure."""
    return _Parser(text).parse()


def eval_ast(node, zeta: complex) -> complex:
    op = node[0]
    if op == "num":
        return node[1]
    if op == "zeta":
        return zeta
    if op == "neg":
        return -eval_ast(node[1], zeta)
    if op == "add":
        return eval_ast(node[1], zeta) + eval_ast(node[2], zeta)
    if op == "sub":
        return eval_ast(node[1], zeta) - eval_ast(node[2], zeta)
    if op == "mul":
        return eval_ast(node[1], zeta) * eval_ast(node[2], zeta)
    if op == "div":
        den = eval_ast(node[2], zeta)
        if den == 0:
            raise EvalDomainError("division by zero")
        return eval_ast(node[1], zeta) / den
    if op == "pow":
        base = eval_ast(node[1], zeta)
        if node[2] < 0 and base == 0:
            raise EvalDomainError("zero raised to a negative power")
        return base ** node[2]
    if op == "call":
        arg = eval_ast(node[2], zeta)
        if node[1] == "exp":
            return cmath.exp(arg)
        if arg.real <= 0:
            raise EvalDomainError("log argument has nonpositive real part")
        return cmath.log(arg)
    if op == "ilog":
        w = eval_ast(node[2], zeta)
        for _ in range(node[1]):
            if w.real <= 0:
                raise EvalDomainError("iterated log left the right half plane")
            w = cmath.log(w)
        return w
    raise ValueError(f"bad AST node {node!r}")


def contains_zeta(node) -> bool:
    if node[0] == "zeta":
        return True
    return any(contains_zeta(c) for c in node[1:] if isinstance(c, tuple))


def split_affine(node, beta: complex):
    """Split a top-level sum zeta + ... into (offset, other_terms).

    Used to evaluate the perturbation f - zeta - beta without catastrophic
    cancellation: when the expression is a sum containing a bare `zeta` term,
    the identity part is removed structurally and the declared beta is
    subtracted from the (exactly evaluated) constant part, giving `offset`.
    `other_terms` lists the remaining (sign, node) terms that depend on zeta.
    Returns None when the expression has no such shape.
    """
    flat = []

    def walk(n, sign):
        if n[0] == "add":
            walk(n[1], sign)
            walk(n[2], sign)
        elif n[0] == "sub":
            walk(n[1], sign)
            walk(n[2], -sign)
        elif n[0] == "neg":
            walk(n[1], -sign)
        else:
            flat.append((sign, n))

    walk(node, 1)
    zeta_idx = None
    for idx, (sign, n) in enumerate(flat):
        if n == ("zeta",) and sign == 1:
            zeta_idx = idx
            break
    if zeta_idx is None:
        return None
    rest = [sn for idx, sn in enumerate(flat) if idx != zeta_idx]
    const = 0j
    others = []
    for sign, n in rest:
        if contains_zeta(n):
            others.append((sign, n))
        else:
            const += sign * eval_ast(n, 0j)
    offset = const - beta
    return offset, others
