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
character offset; an expression nested too deeply for the recursive parser
is a ParseError too.  Every walk after the parser uses an explicit stack, so
no AST is too deep for it.

delta_ast returns the AST of a map's perturbation f - zeta - beta, and
compile_ast, the one code generator (series.evaluate_tail compiles through
it too), turns an AST into one Python function, compiled once, of one
assignment per operation, that evaluates it operand by operand: left first,
except that a divisor is evaluated and checked before its dividend.
Evaluation guards: division by zero, zero to a negative power and any log
whose argument has nonpositive real part raise EvalDomainError.

With `box`, the same loop emits the AST's enclosure instead, from a second
table of forms: a function of a rectangle that bounds each operation of the
evaluator over it in interval arithmetic, keeping parts that are exactly
+/-0, so that a Koenigs walk can prove what adding them changes, if anything.

compile_lanes evaluates ASTs of num, zeta, neg, add, sub, mul and
exp nodes over float64 arrays of lanes, parts apart and a shared subtree once,
so that every float operation is the one CPython's complex operation performs;
exp goes through numpy's complex128 exp, libm's cexp, which returns
cmath.exp's bits where the lanes' `bad` flag is clear.  Any other node gives
None, and its caller evaluates point by point through compile_ast.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = ["parse_expression", "compile_ast", "eval_ast", "contains_zeta", "delta_ast",
           "UNDERFLOW", "compile_lanes", "exp_lanes", "complex_lanes", "LANE_EXP_MAX"]

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
    try:
        return base ** n
    except ZeroDivisionError:  # base ** -n underflowed to 0, so base ** n is past the doubles
        raise OverflowError(f"{base!r} ** {n} is past the largest double") from None


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

# each operation's Python form: its operands' values in the order evaluated,
# then its integer literal; a divisor is evaluated before its dividend
_FORMS = {"neg": "-{0}", "add": "{0} + {1}", "sub": "{0} - {1}", "mul": "{0} * {1}",
          "div": "{1} / {0}", "pow": "{0} ** {1:d}", "neg_pow": "_neg_pow({0}, {1:d})",
          "exp": "_exp({0})", "log": "_log({0})", "ilog": "_ilog({0}, {1:d})",
          "def": "def f(z):", "=": " {} = {}"}
# their enclosures, each checked by _bounded; log and L1..L9 are not provable
_BOX_FORMS = {"neg": "_neg({0})", "add": "_cadd({0}, {1})", "sub": "_cadd({0}, _neg({1}))",
              "mul": "_cmul({0}, {1})", "div": "_cdiv({1}, {0})", "pow": "_powu({0}, {1:d})",
              "neg_pow": "_powu({0}, {1:d})", "exp": "_cexp({0})", "log": "None", "ilog": "None",
              "def": "def f(*z):", "=": " if not ({} := _bounded({})): return None"}
_CHECK = ("check",)   # on compile_ast's stack: check the divisor just evaluated


def compile_ast(node, box: bool = False):
    """The AST as one compiled function z -> value, with the evaluation order,
    floating-point operations and EvalDomainError guards of the grammar.

    Its source is straight-line Python, one assignment per operation, emitted
    from an explicit stack, so that no AST is too deep: operator tokens, `z`,
    generated names and the parser's integer literals only, with constants
    bound by name.

    With `box`, it is the AST's enclosure (re, im) -> box | None, from
    _BOX_FORMS: the box (re, im) holds each part of the values the evaluator
    returns, raising nothing, at every finite z with Re z in the closed
    interval `re` and Im z in `im`, rounded outward except where a part is
    exactly +/-0, as _ZERO; None where that is unprovable: log, L1..L9, powers
    outside 1 <= |n| <= _POW_CAP, a divisor that may be 0, an exp that may
    pass log(_BOUND) and any bound past _BOUND."""
    forms = _BOX_FORMS if box else _FORMS
    names, lines, vals = dict(_BOX_GLOBALS if box else _GLOBALS), [forms["def"]], []
    if box and contains_zeta(node):  # z is the rectangle (re, im), zeta's enclosure
        lines.append(" if not _bounded(z): return None")
    todo = [(node, False)]
    while todo:
        n, ready = todo.pop()
        if n is _CHECK:  # _cdiv checks an enclosure's divisor
            lines += [] if box else [f" if {vals[-1]} == 0: _zero_division()"]
        elif n[0] == "zeta":
            vals.append("z")
        elif n[0] == "num":
            vals.append(f"_c{len(names)}")
            c = complex(n[1])
            names[vals[-1]] = ((c.real, c.real), (c.imag, c.imag)) if box else n[1]
            if box and not _bounded(names[vals[-1]]):  # a constant past _BOUND, checked once
                lines.append(" return None")
        elif not ready:  # the node, then its operands, the first evaluated on top
            todo.append((n, True))
            todo += [(n[1], False), (_CHECK, True), (n[2], False)] if n[0] == "div" else \
                [(c, False) for c in reversed(n[1:]) if isinstance(c, tuple)]
        else:
            k = sum(isinstance(c, tuple) for c in n[1:])
            form = forms[n[1] if n[0] == "call" else "neg_pow" if n[0] == "pow" and n[2] < 0
                         else n[0]]
            src = form.format(*vals[-k:], *(c for c in n[1:] if type(c) is int))
            vals[-k:] = [f"_t{len(lines)}"]
            lines.append(forms["="].format(vals[-1], src))
    lines.append(f" return {vals[0]}")
    exec(compile("\n".join(lines), "<expression>", "exec"), names)  # the source holds no input text
    return names["f"]


def eval_ast(node, zeta: complex) -> complex:
    """Value of the AST at zeta; compiles it first, so evaluate a map's
    expression many times through compile_ast instead."""
    return compile_ast(node)(zeta)


def contains_zeta(node) -> bool:
    return any(n[0] == "zeta" for n in _postorder(node))


def delta_ast(node, beta: complex):
    """(ast, exact): the AST of the perturbation f - zeta - beta of the
    expression f, and whether it is exactly zero.

    A top-level sum's bare `+zeta` term is removed structurally: its
    zeta-free terms fold, in order and each added to -0j or subtracted by
    its sign, into one constant less beta, the chain evaluated by one
    `eval_ast` call, so an infinite or signed-zero constant keeps its value;
    each other term is added to it or subtracted by its sign, so delta has
    no catastrophic cancellation.  Any other f gives f - zeta - beta, which
    is cancellation-limited.
    """
    flat, todo = [], [(node, 1)]
    while todo:  # the sum's terms in order, from an explicit stack
        n, sign = todo.pop()
        if n[0] in ("add", "sub"):
            todo += [(n[2], sign if n[0] == "add" else -sign), (n[1], sign)]
        elif n[0] == "neg":
            todo.append((n[1], -sign))
        else:
            flat.append((sign, n))
    has_zeta, consts, others = False, [], []
    for sign, n in flat:
        if n[0] == "zeta" and sign == 1 and not has_zeta:
            has_zeta = True
        else:
            (others if contains_zeta(n) else consts).append((sign, n))
    if not has_zeta:
        return ("sub", ("sub", node, ("zeta",)), ("num", beta)), False
    chain = ("num", -0j)  # the additive identity, signed zeros included
    for sign, n in consts:
        chain = ("add" if sign == 1 else "sub", chain, n)
    offset = eval_ast(("sub", chain, ("num", beta)), 0j)
    body = ("num", offset)
    for sign, n in others:
        body = ("add" if sign == 1 else "sub", body, n)
    return body, not others and offset == 0


# enclosures: cmath.exp returns l*cos, l*sin with l = exp(Re), and l rounds to
# 0.0 at Re <= UNDERFLOW, where exp(Re) is below half the least subnormal
UNDERFLOW = -746.0
_BOUND = 1e300   # every enclosure stays below it: no operation overflows or makes a NaN
_POW_CAP = 16    # the largest integer power analysed
_ZERO = (0.0, 0.0)   # equal to every interval that holds only +/-0
_ONE = ((1.0, 1.0), _ZERO)


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


def _cadd(a, b):
    """a + b enclosed; a - b is a + (-b), in IEEE arithmetic too."""
    return _plus(a[0], b[0]), _plus(a[1], b[1])


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
    """x ** n from x's enclosure p, None unless 1 <= |n| <= _POW_CAP, by
    CPython's c_powu: r = 1, then r = r*p at each set bit of |n|, lowest
    first, and p = p*p between them; x ** -n is 1 / c_powu(x, |n|)."""
    r, m = _ONE, abs(n) if 1 <= abs(n) <= _POW_CAP else 0
    while r and p and m:
        if m & 1:
            r = _bounded(_cmul(r, p))
        m >>= 1
        if not m:
            return _cdiv(_ONE, r) if r and n < 0 else r
        p = _bounded(_cmul(p, p))
    return None


def _cexp(a):
    """exp(x) enclosed from x's enclosure a, or None when it may pass _BOUND:
    exp's error is under an ulp, |cos|, |sin| <= 1, and sin(+/-0) is +/-0."""
    if not (top := a[0][1]) < math.log(_BOUND):
        return None
    bound = 0.0 if top <= UNDERFLOW else 2.0 * math.exp(top)
    return (-bound, bound), _ZERO if a[1] == _ZERO else (-bound, bound)


_BOX_GLOBALS = {"__builtins__": {}, "_bounded": _bounded, "_neg": _neg, "_cadd": _cadd,
                "_cmul": _cmul, "_cdiv": _cdiv, "_powu": _powu, "_cexp": _cexp}


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


def compile_lanes(*nodes):
    """The ASTs as one function (re, im) -> (re_1, im_1, ..., bad) of float64
    lane arrays, or None when one holds a node other than num, zeta, neg, add,
    sub, mul and exp.  It evaluates each distinct subtree once per call; `bad`
    ORs every exp's flags.  Where it is clear, each AST's parts are those of
    compile_ast(node)(complex(re, im)), bit for bit: sums and negations go part
    by part, a product is (ar*br - ai*bi, ar*bi + ai*br), as CPython's, and exp
    is exp_lanes.  Call it under np.errstate(all="ignore"): lanes may overflow."""
    slots, stack = {}, []  # each distinct subtree's (slot, operation); the slots not yet taken
    for n in (n for node in nodes for n in _postorder(node)):
        if n[0] not in _LANE_NODES and n[:2] != ("call", "exp"):
            return None
        k = len(stack) - sum(isinstance(c, tuple) for c in n[1:])
        op = (n[0], complex(n[1])) if n[0] == "num" else (n[0], *stack[k:])
        key = op, np.complex128(op[1]).tobytes() if n[0] == "num" else None  # as 0j == -0j
        stack[k:] = [slots.setdefault(key, (len(slots), op))[0]]  # at the end, one per AST
    program = [op for _, op in slots.values()]

    def lanes(re, im):
        vals, bad = [], np.zeros(np.shape(re), bool)
        for op, *args in program:
            if op == "num":  # Python floats, which numpy broadcasts with the same IEEE operations
                v = args[0].real, args[0].imag
            elif op == "zeta":
                v = re, im
            elif op == "neg":
                ar, ai = vals[args[0]]
                v = -ar, -ai
            elif op == "call":
                *v, flags = exp_lanes(*vals[args[0]])
                bad |= flags
            else:
                (ar, ai), (br, bi) = vals[args[0]], vals[args[1]]
                v = ((ar + br, ai + bi) if op == "add" else (ar - br, ai - bi) if op == "sub"
                     else (ar * br - ai * bi, ar * bi + ai * br))
            vals.append(v)
        # an AST that is a constant has scalar parts; its lanes are those filled with them
        return (*(part if np.shape(part) == bad.shape else np.full(bad.shape, part)
                  for s in stack for part in vals[s]), bad)
    return lanes
