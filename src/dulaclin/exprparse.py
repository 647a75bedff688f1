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
recursive parser or for split_affine's walk is a ParseError too.

compile_ast turns an AST into one Python function, compiled once, that
evaluates it operand by operand: left first, except that a divisor is
evaluated and checked before its dividend.  Evaluation guards: division by
zero, zero to a negative power and any log whose argument has nonpositive
real part raise EvalDomainError.
"""

from __future__ import annotations

import cmath
import itertools
import re

from .errors import EvalDomainError, ParseError

__all__ = ["parse_expression", "compile_ast", "compile_signed_sum", "eval_ast",
           "contains_zeta", "split_affine"]

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


def _compile(emit_body):
    compiler = _Compiler()
    try:
        code = compile(f"lambda z: {emit_body(compiler)}", "<expression>", "eval")
    except (SyntaxError, RecursionError):
        raise ParseError("expression nested too deeply to compile") from None
    return eval(code, compiler.names)  # the source holds no input text


def compile_ast(node):
    """The AST as one compiled function z -> value, with the evaluation order,
    floating-point operations and EvalDomainError guards of the grammar."""
    return _compile(lambda c: c.emit(node))


def compile_signed_sum(offset: complex, terms):
    """z -> offset + sign_1 * t_1(z) + sign_2 * t_2(z) + ..., summed left to
    right, for the `(offset, terms)` that split_affine returns."""
    return _compile(lambda c: c.const(offset) + "".join(
        f" + {sign:d} * {c.emit(node, _MUL + 1)}" for sign, node in terms))


def eval_ast(node, zeta: complex) -> complex:
    """Value of the AST at zeta; compiles it first, so evaluate a map's
    expression many times through compile_ast instead."""
    return compile_ast(node)(zeta)


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
    Returns None when the expression has no such shape.  A sum or a term
    nested too deeply to walk is a ParseError.
    """
    try:
        return _split_affine(node, beta)
    except RecursionError:
        raise ParseError("expression nested too deeply to split") from None


def _split_affine(node, beta: complex):
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
