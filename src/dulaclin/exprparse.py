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

Its third user, enclose, bounds the operations compile_ast emits over a
rectangle in interval arithmetic, keeping parts that are exactly +/-0, so
that a Koenigs walk can prove what adding them changes, if anything.

The fourth, compile_lanes, evaluates an AST of num, zeta, neg, add, sub, mul
and exp nodes over float64 arrays of lanes, real and imaginary parts apart, so
that every float operation is the one CPython's complex operation performs;
exp goes through numpy's complex128 exp, libm's cexp, which returns
cmath.exp's bits where the lanes' `bad` flag is clear.  Any other node gives
None, and its caller evaluates point by point through compile_ast.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = ["parse_expression", "compile_ast", "eval_ast", "contains_zeta", "delta_ast",
           "enclose", "UNDERFLOW", "compile_lanes", "exp_lanes", "complex_lanes", "LANE_EXP_MAX"]

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
    zeta-free terms fold, evaluated in order and each added to -0j or
    subtracted by its sign, into one constant less beta, so an infinite or
    signed-zero constant keeps its value; each other term is added to it or
    subtracted by its sign, so delta has no catastrophic cancellation.  Any other f gives f - zeta - beta,
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
    const = -0j  # the additive identity, signed zeros included
    for sign, n in consts:
        value = eval_ast(n, 0j)
        const = const + value if sign == 1 else const - value
    offset = const - beta
    body = ("num", offset)
    for sign, n in others:
        body = ("add" if sign == 1 else "sub", body, n)
    return body, not others and offset == 0


# enclose: cmath.exp returns l*cos, l*sin with l = exp(Re), and l rounds to
# 0.0 at Re <= UNDERFLOW, where exp(Re) is below half the least subnormal
UNDERFLOW = -746.0
_BOUND = 1e300   # every enclosure stays below it: no operation overflows or makes a NaN
_POW_CAP = 16    # the largest integer power analysed
_ZERO = (0.0, 0.0)   # equal to every interval that holds only +/-0
_ONE = ((1.0, 1.0), _ZERO)


def enclose(node, re, im):
    """(re, im): an interval holding each part of the values compile_ast(node)
    returns, raising nothing, at every finite z with Re z in the closed
    interval `re` and Im z in `im`, rounded outward except where a part is
    exactly +/-0, as _ZERO; None where that is unprovable: log, L1..L9, powers
    outside 1 <= |n| <= _POW_CAP, a divisor that may be 0, an exp that may
    pass log(_BOUND) and any bound past _BOUND."""
    boxes = []
    for n in _postorder(node):  # children on top of the stack, in order
        k = len(boxes) - sum(isinstance(c, tuple) for c in n[1:])
        args, op = boxes[k:], n[0]
        if op == "num":
            v = complex(n[1])
            box = (v.real, v.real), (v.imag, v.imag)
        elif op == "zeta":
            box = tuple(re), tuple(im)
        elif op == "neg":
            box = _neg(args[0])
        elif op in ("add", "sub"):  # a - b is a + (-b), in IEEE arithmetic too
            a, b = args[0], args[1] if op == "add" else _neg(args[1])
            box = _plus(a[0], b[0]), _plus(a[1], b[1])
        elif op == "mul":
            box = _cmul(*args)
        elif op == "div":
            box = _cdiv(*args)
        elif op == "pow" and 1 <= abs(n[2]) <= _POW_CAP:  # x ** -n is 1 / c_powu(x, n)
            box = _powu(args[0], abs(n[2]))
            if box and n[2] < 0:
                box = _cdiv(_ONE, box)
        elif op == "call" and n[1] == "exp" and (top := args[0][0][1]) < math.log(_BOUND):
            # exp's error is under an ulp, |cos|, |sin| <= 1, and sin(+/-0) is +/-0
            bound = 0.0 if top <= UNDERFLOW else 2.0 * math.exp(top)
            box = (-bound, bound), _ZERO if args[0][1] == _ZERO else (-bound, bound)
        else:  # ^0, larger powers, log, L1..L9 and an exp that may overflow
            return None
        if not (box := _bounded(box)):
            return None
        boxes[k:] = [box]
    return boxes[0]


def _postorder(node) -> list:
    """The nodes of an AST, each after its children, which come in order;
    from an explicit stack, so that no AST is too deep."""
    order, todo = [], [node]
    while todo:  # each node, then its children's subtrees, the last first
        order.append(n := todo.pop())
        todo.extend(c for c in n[1:] if isinstance(c, tuple))
    return order[::-1]


def _out(lo: float, hi: float) -> tuple:
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _plus(x, y):
    """x + y enclosed; a part that is +/-0 leaves the other unchanged."""
    if y == _ZERO:
        return x
    return y if x == _ZERO else _out(x[0] + y[0], x[1] + y[1])


def _times(a, b):
    if a == _ZERO or b == _ZERO:  # both are finite, so the product is +/-0
        return _ZERO
    products = a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]
    return _out(min(products), max(products))


def _neg(a):
    return (-a[0][1], -a[0][0]), (-a[1][1], -a[1][0])


def _cmul(a, b):
    """CPython's complex product of the enclosures a and b, enclosed."""
    ii = _times(a[1], b[1])
    return (_plus(_times(a[0], b[0]), (-ii[1], -ii[0])),
            _plus(_times(a[0], b[1]), _times(a[1], b[0])))


def _cdiv(a, b):
    """a / b enclosed, or None when b may be 0: Smith's algorithm divides
    numerators at most twice a's largest part, +/-0 if a is, by b's larger
    part, >= least."""
    least = max(0.0 if iv[0] <= 0.0 <= iv[1] else min(map(abs, iv)) for iv in b)
    if not least > 0.0:
        return None
    if a == (_ZERO, _ZERO):
        return a
    bound = math.nextafter(4.0 * max(map(abs, (*a[0], *a[1]))) / least, math.inf)
    return (-bound, bound), (-bound, bound)


def _bounded(box):
    """box, or None when it may pass _BOUND (chained, so a NaN bound fails)."""
    return box if box and -_BOUND < box[0][0] <= box[0][1] < _BOUND and \
        -_BOUND < box[1][0] <= box[1][1] < _BOUND else None


def _powu(p, n: int):
    """x ** n, n >= 1, from x's enclosure p by CPython's c_powu: r = 1, then
    r = r*p at each set bit of n, lowest first, and p = p*p between them."""
    r = _ONE
    while r and p:
        if n & 1:
            r = _bounded(_cmul(r, p))
        n >>= 1
        if not n:
            return r
        p = _bounded(_cmul(p, p))
    return None


# compile_lanes: numpy's complex128 exp calls libm's cexp, which computes
# exp(Re) * cos(Im), exp(Re) * sin(Im) as cmath.exp does below Re 709, where
# cexp starts to scale; tests/test_lanes.py checks the bits where it runs
LANE_EXP_MAX = 700.0
_LANE_NODES = {"num", "zeta", "neg", "add", "sub", "mul"}


def complex_lanes(re, im):
    """The complex128 array with parts re and im, signed zeros kept, which
    re + 1j*im is not: its real parts gain a +0.0."""
    z = np.empty(np.shape(re), complex)
    z.real, z.imag = re, im
    return z


def exp_lanes(re, im):
    """(re, im, bad): cmath.exp at each lane re + i*im, by numpy's complex128
    exp; `bad` flags the lanes where that is not cmath.exp's value: a part of
    the argument is not finite, or Re is above LANE_EXP_MAX."""
    z = complex_lanes(re, im)
    bad = ~(np.isfinite(z) & (z.real <= LANE_EXP_MAX))
    z = np.exp(z)
    return z.real, z.imag, bad


def compile_lanes(node):
    """The AST as a function (re, im) -> (re, im, bad) over float64 arrays of
    lanes, or None when it holds a node other than num, zeta, neg, add, sub,
    mul and exp.  At each lane whose `bad` flag is clear, the parts are those
    of compile_ast(node)(complex(re, im)), bit for bit: a sum and a negation
    go part by part, a product is (ar*br - ai*bi, ar*bi + ai*br), as CPython
    multiplies complex numbers, and exp is exp_lanes, whose flags it collects.
    Call it under np.errstate(all="ignore"): a lane may overflow or be NaN."""
    order = _postorder(node)
    if any(n[0] not in _LANE_NODES and n[:2] != ("call", "exp") for n in order):
        return None

    def lanes(re, im):
        vals, bad = [], np.zeros(np.shape(re), bool)
        for n in order:
            op = n[0]
            if op == "num":
                v = complex(n[1])
                v = np.full(np.shape(re), v.real), np.full(np.shape(re), v.imag)
            elif op == "zeta":
                v = re, im
            elif op == "neg":
                ar, ai = vals.pop()
                v = -ar, -ai
            elif op == "call":
                *v, flags = exp_lanes(*vals.pop())
                bad |= flags
            else:
                (br, bi), (ar, ai) = vals.pop(), vals.pop()
                v = ((ar + br, ai + bi) if op == "add" else (ar - br, ai - bi) if op == "sub"
                     else (ar * br - ai * bi, ar * bi + ai * br))
            vals.append(v)
        return (*vals[0], bad)
    return lanes
