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
so `L1^-2` is shorthand for `L1(zeta)^-2`.  Parse failures carry the
character offset; an expression nested or chained too deeply for the
recursive parser or for delta_ast's walk is a ParseError too.

delta_ast returns the AST of a map's perturbation f - zeta - beta, and
compile_ast, the one compile route, turns an AST into one Python function,
compiled once, that evaluates it operand by operand: left first, except that
a divisor is evaluated and checked before its dividend.  Evaluation guards:
division by zero, zero to a negative power and any log whose argument has
nonpositive real part raise EvalDomainError.
"""

from __future__ import annotations

import cmath
import itertools
import re

from .errors import EvalDomainError, ParseError

__all__ = ["parse_expression", "compile_ast", "eval_ast", "contains_zeta", "delta_ast"]

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
        kind = m.lastgroup  # the match is blanks, then the token (a number's exponent too)
        tokens.append((kind, m.group(0).strip(), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
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
            if kind != "num" or not val.isdigit():
                raise ParseError("exponent must be an integer literal", position=pos)
            self.advance()
            try:
                node = ("pow", node, sign * int(val))
            except ValueError:  # past int()'s limit on digits
                raise ParseError("exponent literal too long", position=pos) from None
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
    """Text to AST; raises ParseError with a character offset on failure,
    and without one on input nested too deeply to parse."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply to parse") from None


# the guarded operations of compiled expressions

def _zero_division():
    raise EvalDomainError("division by zero")


def _neg_pow(base, n):
    if base == 0:
        raise EvalDomainError("zero raised to a negative power")
    return base ** n


def _log(w):
    if w.real <= 0:
        raise EvalDomainError("log argument has nonpositive real part")
    return cmath.log(w)


def _ilog(w, m):
    for _ in range(m):
        if w.real <= 0:
            raise EvalDomainError("iterated log left the right half plane")
        w = cmath.log(w)
    return w


_GLOBALS = {"__builtins__": {}, "_exp": cmath.exp, "_log": _log, "_neg_pow": _neg_pow,
            "_ilog": _ilog, "_zero_division": _zero_division}
# Python precedence of the emitted forms, lowest first
_ADD, _MUL, _UNARY, _POW, _ATOM = range(5)
_BINARY = {"add": ("+", _ADD), "sub": ("-", _ADD), "mul": ("*", _MUL)}
_CALLS = {"exp": "_exp", "log": "_log"}


class _Compiler:
    """Python source for an AST: operator tokens, `z`, generated names and the
    parser's integer literals only; constants are bound by name."""

    def __init__(self):
        self.names = dict(_GLOBALS)
        self.ids = itertools.count()

    def const(self, value) -> str:
        name = f"_c{next(self.ids)}"
        self.names[name] = value
        return name

    def emit(self, node, prec=_ADD) -> str:
        """Source of `node`, parenthesized when it binds looser than `prec`."""
        op = node[0]
        own = _ATOM
        if op == "num":
            src = self.const(node[1])
        elif op == "zeta":
            src = "z"
        elif op == "neg":
            src, own = "-" + self.emit(node[1], _UNARY), _UNARY
        elif op in _BINARY:
            sym, own = _BINARY[op]
            src = f"{self.emit(node[1], own)} {sym} {self.emit(node[2], own + 1)}"
        elif op == "div":
            # the divisor is evaluated and checked before the dividend
            t = f"_t{next(self.ids)}"
            den = self.emit(node[2])
            num = self.emit(node[1], _MUL)
            src = f"({num} / {t} if ({t} := {den}) != 0 else _zero_division())"
        elif op == "pow" and node[2] < 0:
            src = f"_neg_pow({self.emit(node[1])}, {node[2]:d})"
        elif op == "pow":
            src, own = f"{self.emit(node[1], _ATOM)} ** {node[2]:d}", _POW
        elif op == "call":
            src = f"{_CALLS[node[1]]}({self.emit(node[2])})"
        elif op == "ilog":
            src = f"_ilog({self.emit(node[2])}, {node[1]:d})"
        else:
            raise ValueError(f"bad AST node {node!r}")
        return src if own >= prec else f"({src})"


def compile_ast(node):
    """The AST as one compiled function z -> value, with the evaluation order,
    floating-point operations and EvalDomainError guards of the grammar."""
    compiler = _Compiler()
    try:
        code = compile(f"lambda z: {compiler.emit(node)}", "<expression>", "eval")
    except (SyntaxError, RecursionError):
        raise ParseError("expression nested too deeply to compile") from None
    return eval(code, compiler.names)  # the source holds no input text


def eval_ast(node, zeta: complex) -> complex:
    """Value of the AST at zeta; compiles it first, so evaluate a map's
    expression many times through compile_ast instead."""
    return compile_ast(node)(zeta)


def contains_zeta(node) -> bool:
    if node[0] == "zeta":
        return True
    return any(contains_zeta(c) for c in node[1:] if isinstance(c, tuple))


def delta_ast(node, beta: complex):
    """(ast, exact): the AST of the perturbation f - zeta - beta of the
    expression f, and whether it is exactly zero.

    A top-level sum's bare `+zeta` term is removed structurally: its
    zeta-free terms fold, evaluated in order, into one constant less beta,
    and each other term is added to it or subtracted by its sign, so delta
    has no catastrophic cancellation.  Any other f gives f - zeta - beta,
    which is cancellation-limited.  A sum or a term nested too deeply to
    walk is a ParseError.
    """
    try:
        return _delta_ast(node, beta)
    except RecursionError:
        raise ParseError("expression nested too deeply to split") from None


def _delta_ast(node, beta: complex):
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
    has_zeta, consts, others = False, [], []
    for sign, n in flat:
        if n[0] == "zeta" and sign == 1 and not has_zeta:
            has_zeta = True
        else:
            (others if contains_zeta(n) else consts).append((sign, n))
    if not has_zeta:
        return ("sub", ("sub", node, ("zeta",)), ("num", beta)), False
    const = 0j
    for sign, n in consts:
        const += sign * eval_ast(n, 0j)
    offset = const - beta
    body = ("num", offset)
    for sign, n in others:
        body = ("add" if sign == 1 else "sub", body, n)
    return body, not others and offset == 0
