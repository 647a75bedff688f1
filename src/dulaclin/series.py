"""Truncated algebra of exponential-polynomial series over rational exponents.

The carrier type represents finite sums

    sum_mu  exp(-mu*zeta) * B_mu(zeta)

with complex polynomial blocks ``B_mu`` and exponents ``mu`` drawn from a
finitely generated additive semigroup of nonnegative rationals, truncated at
a rational order ``N`` (terms with ``mu > N`` are dropped and considered
unknown).  Under ``z = exp(-zeta)`` the same data reads as a z-chart series
``sum_mu z^mu * B_mu(-log z)``; both charts share this one carrier.

Exponents, the order and the generators are exact ints k on the lattice
(1/L)Z, L the lcm of the denominators of the generators and the order.
``Fraction``s appear only at the boundary: the constructor and the JSON reader
parse and check them, and ``trunc``, ``gens``, ``terms``, ``block`` and the
order functions are views.  The constructor, `_recast`, the chart maps and
`_raw` build through `_series`, which sorts and checks every exponent for
semigroup membership by an int set lookup (`lattice_points`).  Every other
result takes its operand's lattice through `_kept`, unsorted and unchecked:
`scale`, `scale_div`, `derivative`, `translate`, `prune` and `tail` keep its
exponents, and `mul` and `add` sort their sums or union of exponents first,
as the semigroup is closed under addition.  Coefficients are
double-precision complex; only exact zeros are ever stripped.  Approximate
checks read named module constants: `HEAD_TOL` here, `SOLVER_TOL` and
`BACKSUB_TOL` in `linearize`.  A series' powers `v, v^2, ...` are built once
per series value (`powers`) and shared by `compose`, the chart conversions and
the operator S.  Every block product goes through `mul_into`, which hands
each block of one factor with all of its partners to `block_products`: the
CPoly loop for small products, one numpy pass with the loop's bits for
large ones (`BATCH_MIN`).
A series is evaluated as a map's perturbation only: `evaluate_tail` builds
the AST of z -> a(z) - z - beta and compiles it once per series through
`exprparse.compile_ast`, the compile route of expressions too.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    ExponentNotInSemigroup,
    NonUnitSlope,
    NotNormalized,
    ParseError,
)
from .exprparse import compile_ast

__all__ = [
    "CPoly",
    "ExpPolySeries",
    "DulacForm",
    "classify",
    "add",
    "mul",
    "derivative",
    "translate",
    "compose",
    "prune",
    "powers",
    "effective_order",
    "conjugacy_residual",
    "to_z_chart",
    "from_z_chart",
    "z_chart_head",
    "parse_series",
    "series_from_json",
    "evaluate_tail",
    "lattice_points",
    "max_rel_coeff_diff",
]

INF = math.inf
HEAD_TOL = 1e-9   # parabolic |beta|; relative gap of exp(-beta) to a given multiplier


# ---------------------------------------------------------------------------
# rational helpers and the exponent lattice

def format_exponent(k: int, L: int) -> str:
    """The exponent k/L as the JSON wire format writes it: "p/q", reduced."""
    g = math.gcd(k, L)
    return f"{k // g}/{L // g}"


def parse_exponent(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}: {exc}") from None


@lru_cache(maxsize=None)
def lattice_points(g: tuple, n: int) -> frozenset:
    """All nonnegative-integer combinations k <= n of the positive ints `g`,
    zero included: the semigroup points of any one lattice 1/L, as ints.
    The search visits only those points, so its cost does not grow with L."""
    pts = frontier = {0}
    while frontier:
        frontier = {k + x for k in frontier for x in g if k + x <= n} - pts
        pts = pts | frontier
    return frozenset(pts)


def _lattice(trunc: Fraction, gens) -> tuple:
    """(L, n, g) for order `trunc` and Fraction generators `gens`: the lcm L
    of their denominators, the order as n/L and the sorted generators as g/L."""
    if trunc < 0:
        raise ValueError(f"'trunc' must be nonnegative, not {trunc}")
    gv = sorted(set(gens))
    if any(x <= 0 for x in gv):
        raise ValueError(f"'gens' must be positive rationals, not {[str(x) for x in gv]}")
    L = math.lcm(trunc.denominator, *(x.denominator for x in gv))
    return L, int(trunc * L), tuple(int(x * L) for x in gv)


@lru_cache(maxsize=64)
def _binomials(d: int) -> tuple:
    return tuple(comb(d, j) for j in range(d + 1))


# ---------------------------------------------------------------------------
# polynomial blocks

class CPoly:
    """Dense complex polynomial; coefficients ascending, trailing exact zeros stripped.
    Its product is one Python loop; `block_products` takes large products of
    one block with many to numpy with the same bits, and no BLAS kernel sets
    any of them."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        cs = list(map(complex, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _of(cs: list) -> "CPoly":
        """The block of `cs`, a fresh list of complex numbers, trailing zeros
        stripped as the constructor strips them: for CPoly's own results,
        which are complex already and need no second conversion."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(CPoly)
        p.coeffs = tuple(cs)
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, CPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"CPoly({list(self.coeffs)!r})"

    def __add__(self, other: "CPoly") -> "CPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return CPoly._of(out)

    def __neg__(self) -> "CPoly":
        return CPoly._of([-c for c in self.coeffs])

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self + (-other)

    def __mul__(self, other: "CPoly") -> "CPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return CPoly()
        out = [0j] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b, i):
                out[k] += x * y
        return CPoly._of(out)

    def scale(self, c: complex) -> "CPoly":
        return CPoly._of([x * c for x in self.coeffs])

    def scale_div(self, c: complex) -> "CPoly":
        # x/x == 1.0 exactly in IEEE, which `scale(1/c)` would not give
        return CPoly._of([x / c for x in self.coeffs])

    def shift(self, c: complex) -> "CPoly":
        """B(x) -> B(x + c), exact binomial expansion."""
        if not self.coeffs or c == 0:
            return self
        n = len(self.coeffs)
        out = [0j] * n
        cpow = [1.0 + 0j] * n
        for k in range(1, n):
            cpow[k] = cpow[k - 1] * c
        for d, bd in enumerate(self.coeffs):
            if bd == 0:
                continue
            for j, binom in enumerate(_binomials(d)):
                out[j] += bd * binom * cpow[d - j]
        return CPoly._of(out)

    def deriv(self) -> "CPoly":
        return CPoly._of([k * c for k, c in enumerate(self.coeffs)][1:])

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def coeff(self, d: int) -> complex:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0j


# len(b1) * (the partners' total length) from which `block_products` takes
# the numpy pass: the measured crossover.  Timed cold, after other Python
# work as in a solve, the 4,084 calls of one `formal` benchmark pass took
# 47.7 ms with the bound at 200 (flat from 200 to 300), 48.7 ms at 400,
# 50.1 ms at 100 and 109.9 ms all on the loop: below, the pass's fixed cost
# of 13 us or more a call outweighs the loop's.
BATCH_MIN = 200


def block_products(b1: CPoly, bs: list) -> list:
    """[b1 * b2 for b2 in bs], bit for bit: the CPoly loop below BATCH_MIN
    and for a non-finite b1, else one `_batched_products` pass."""
    a = b1.coeffs
    if len(a) * sum([len(b.coeffs) for b in bs]) < BATCH_MIN or not all(map(cmath.isfinite, a)):
        return [b1 * b2 for b2 in bs]
    return _batched_products(a, [b.coeffs for b in bs])


def _batched_products(a: tuple, bs: list) -> list:
    """The CPoly products of the finite coefficients `a` with each of `bs`,
    in one numpy pass with the loop's bits.

    Row i of a zeroed (na, m, w) array holds a[i] times each partner, padded
    to one width and shifted right by i: written unshifted into rows one
    entry longer, then read back flat as rows of the plain length.  One
    reduce over the rows sums every coefficient.  Each product is CPython's
    complex product, re*re - im*im and re*im + im*re on float64 planes (numpy's
    complex multiply differs in the last bit under AVX-512), and each sum runs
    in ascending i from 0j, as the loop's does.  A running sum from +0.0 is
    never -0.0, so adding the zeros of the padding and the shift changes no
    bit; a non-finite a[i] would turn them into NaN, which is why
    `block_products` checks `a`.
    """
    na, m = len(a), len(bs)
    nb = max(map(len, bs))
    w = na + nb - 1
    A = np.array(a, complex)
    B = np.array([b + (0j,) * (nb - len(b)) for b in bs], complex)
    ar, ai = A.real[:, None, None], A.imag[:, None, None]
    z = np.zeros((na, m * w + 1), complex)
    cols = z[:, :m * w].reshape(na, m, w)[:, :, :nb]
    rows = z.ravel()[:na * m * w].reshape(na, m, w)
    with np.errstate(all="ignore"):  # the loop overflows to inf and NaN silently
        cols.real = ar * B.real - ai * B.imag
        cols.imag = ar * B.imag + ai * B.real
        sums = np.add.reduce(rows, axis=0, initial=0j).tolist()
    return [CPoly._of(s[:na + len(b) - 1]) for s, b in zip(sums, bs)]


# ---------------------------------------------------------------------------
# the series carrier

class ExpPolySeries:
    """Truncated exponential-polynomial series; immutable after construction.

    `items` are the (k, block) pairs of the nonzero blocks, k ascending, for
    exponent k/L; `n` is the order and `g` the sorted generators, in steps of
    1/L.  `trunc`, `gens` and `terms` are Fraction views of the same data."""

    __slots__ = ("L", "n", "g", "items")

    def __init__(self, trunc, gens, terms: Mapping):
        trunc = Fraction(trunc)
        L, n, g = _lattice(trunc, map(Fraction, gens))
        acc = {}
        for mu, block in terms.items():
            mu = Fraction(mu)
            if not isinstance(block, CPoly):
                block = CPoly(block)
            if block.is_zero:
                continue
            if mu < 0 or mu > trunc:
                raise ValueError(f"'terms' exponent {mu} outside [0, {trunc}]")
            k = mu * L  # a k off the lattice stays a Fraction and fails the check
            acc[k.numerator if k.denominator == 1 else k] = block
        s = _series(L, n, g, acc)
        self.L, self.n, self.g, self.items = s.L, s.n, s.g, s.items

    # -- inspection; Fraction views --------------------------------------

    @property
    def trunc(self) -> Fraction:
        return Fraction(self.n, self.L)

    @property
    def gens(self) -> tuple:
        return tuple(Fraction(x, self.L) for x in self.g)

    @property
    def terms(self) -> tuple:
        return tuple((Fraction(k, self.L), b) for k, b in self.items)

    @property
    def is_zero(self) -> bool:
        return not self.items

    def block(self, mu) -> CPoly:
        return self._block(Fraction(mu) * self.L)

    def _block(self, k: int) -> CPoly:
        return next((b for m, b in self.items if m == k), CPoly())

    def support(self):
        return tuple(Fraction(k, self.L) for k, _ in self.items)

    def tail(self) -> "ExpPolySeries":
        """Terms with exponent > 0."""
        return _kept(self, [(k, b) for k, b in self.items if k > 0])

    def max_abs_coeff(self) -> float:
        return max((b.max_abs() for _, b in self.items), default=0.0)

    def __eq__(self, other):
        return isinstance(other, ExpPolySeries) and (self.n, self.L, self.g, self.items) \
            == (other.n, other.L, other.g, other.items)

    def __hash__(self):
        return hash((self.n, self.L, self.g, self.items))

    def __repr__(self):
        body = ", ".join(f"{m}: {list(b.coeffs)}" for m, b in self.terms)
        return f"ExpPolySeries(N={self.trunc}, {{{body}}})"

    def _raw(self, acc: Mapping) -> "ExpPolySeries":
        """A series with this lattice, order and generators, from int-keyed blocks."""
        return _series(self.L, self.n, self.g, acc)

    def with_trunc(self, trunc) -> "ExpPolySeries":
        """Change the truncation order, dropping terms beyond it.  Raising it
        is valid only when no term of the exact object lives in the new range."""
        return _recast(self, *_lattice(Fraction(trunc), self.gens))

    def with_gens(self, gens) -> "ExpPolySeries":
        return _recast(self, *_lattice(self.trunc, map(Fraction, gens)))

    def scale(self, c: complex) -> "ExpPolySeries":
        return _kept(self, [(k, b.scale(c)) for k, b in self.items])

    def scale_div(self, c: complex) -> "ExpPolySeries":
        return _kept(self, [(k, b.scale_div(c)) for k, b in self.items])

    def __neg__(self) -> "ExpPolySeries":
        return self.scale(-1.0)

    def __add__(self, other: "ExpPolySeries") -> "ExpPolySeries":
        return add(self, other)

    def __sub__(self, other: "ExpPolySeries") -> "ExpPolySeries":
        return add(self, -other)

    def __mul__(self, other: "ExpPolySeries") -> "ExpPolySeries":
        return mul(self, other)


def _series(L: int, n: int, g: tuple, acc: Mapping) -> ExpPolySeries:
    """The series of the blocks `acc` keyed by exponent*L on the lattice
    (L, n, g), sorted; an exponent g does not generate raises."""
    items = tuple(sorted((k, b) for k, b in acc.items() if b.coeffs))
    pts = lattice_points(g, n)
    for k, _ in items:
        if k not in pts:
            raise ExponentNotInSemigroup(f"exponent {Fraction(k, L)} not generated by "
                                         f"{[str(Fraction(x, L)) for x in g]}")
    s = object.__new__(ExpPolySeries)
    s.L, s.n, s.g, s.items = L, n, g, items
    return s


def _kept(a: ExpPolySeries, items: list) -> ExpPolySeries:
    """The series on `a`'s lattice of `items`, (k, block) pairs with k
    ascending among the exponents of a's semigroup: zero blocks dropped,
    nothing sorted or looked up."""
    s = object.__new__(ExpPolySeries)
    # from a list, not a generator: a tuple grown from a generator can keep spare slots
    s.L, s.n, s.g, s.items = a.L, a.n, a.g, tuple([kb for kb in items if kb[1].coeffs])
    return s


def _common(a: ExpPolySeries, b: ExpPolySeries) -> tuple:
    """a and b recast to the smaller order and the union of the generators."""
    if a.L == b.L:  # then the union's lattice is L too
        lat = a.L, min(a.n, b.n), a.g if a.g == b.g else tuple(sorted({*a.g, *b.g}))
    else:
        lat = _lattice(min(a.trunc, b.trunc), a.gens + b.gens)
    return _recast(a, *lat), _recast(b, *lat)


def _recast(a: ExpPolySeries, L: int, n: int, g: tuple) -> ExpPolySeries:
    """`a` on the lattice 1/L with order n and generators g, terms beyond the
    order dropped; an exponent that g does not generate raises."""
    if a.L == L and a.n == n and a.g == g:
        return a
    acc = {}
    for k, b in a.items:
        q, r = divmod(k * L, a.L)
        if q <= n:  # a k off the lattice stays a Fraction and fails the check
            acc[Fraction(k * L, a.L) if r else q] = b
    return _series(L, n, g, acc)


def add(a: ExpPolySeries, b: ExpPolySeries) -> ExpPolySeries:
    """Blockwise sum at the minimum of the two truncation orders."""
    a, b = _common(a, b)
    acc = dict(a.items)
    for k, blk in b.items:
        acc[k] = acc[k] + blk if k in acc else blk
    return _kept(a, sorted(acc.items()))  # a union of a's and b's exponents


def mul_into(acc: dict, a_items: tuple, b_items: tuple, n: int):
    """Add to acc, by exponent up to n, the products of a's and b's ascending
    (exponent, block) pairs, in ascending a, a first product as it is.  Each
    block of a meets all of its partners in one `block_products` call."""
    for k1, b1 in a_items:
        ks, bs = [], []
        for k2, b2 in b_items:
            if k1 + k2 > n:
                break
            ks.append(k1 + k2)
            bs.append(b2)
        if not bs:  # nor does any later block of a meet b
            break
        for k, prod in zip(ks, block_products(b1, bs)):
            acc[k] = acc[k] + prod if k in acc else prod


def mul(a: ExpPolySeries, b: ExpPolySeries) -> ExpPolySeries:
    """Product; exponents add, blocks multiply, terms beyond the order drop.
    Each block is summed by `mul_into`, in ascending blocks of `a`."""
    a, b = _common(a, b)
    acc = {}
    mul_into(acc, a.items, b.items, a.n)
    return _kept(a, sorted(acc.items()))  # sums of a's and b's exponents


def prune(a: ExpPolySeries, b: ExpPolySeries) -> ExpPolySeries:
    """`a` without the blocks that `mul(a, b)` drops: those whose exponent
    plus ord(b) passes the smaller order, compared on the common lattice.
    It keeps `a`'s lattice and order, so mul(prune(a, b), b) == mul(a, b)."""
    if not b.items:
        return a._raw({})
    top = min(a.n * b.L, b.n * a.L) - b.items[0][0] * a.L
    return _kept(a, [(k, blk) for k, blk in a.items if k * b.L <= top])


def derivative(a: ExpPolySeries) -> ExpPolySeries:
    """d/dzeta, term by term: exp(-mu*zeta)*B -> exp(-mu*zeta)*(B' - mu*B)."""
    return _kept(a, [(k, b.deriv() - b.scale(k / a.L)) for k, b in a.items])


def translate(a: ExpPolySeries, c: complex) -> ExpPolySeries:
    """zeta -> zeta + c: each block shifts and picks up exp(-mu*c)."""
    return _kept(a, [(k, b.shift(c).scale(cmath.exp(-(k / a.L) * complex(c))) if k
                      else b.shift(c)) for k, b in a.items])


def max_rel_coeff_diff(a: ExpPolySeries, b: ExpPolySeries) -> float:
    """Largest coefficient difference, each relative to max(1, |a|, |b|),
    over every block of either series, matched by exponent on their common
    lattice.  max(worst, nan) is worst, so the order of the blocks is free."""
    L = math.lcm(a.L, b.L)
    pairs = {}
    for j, s in enumerate((a, b)):
        for k, blk in s.items:
            pairs.setdefault(k * (L // s.L), [(), ()])[j] = blk.coeffs
    worst = 0.0
    for ca, cb in pairs.values():
        for x, y in zip_longest(ca, cb, fillvalue=0j):
            worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst


def effective_order(a: ExpPolySeries, tol: float):
    """Least exponent whose block has a coefficient of magnitude > tol."""
    return next((Fraction(k, a.L) for k, b in a.items if b.max_abs() > tol), INF)


# a cross-checked solve raises 3 to 30 distinct series to powers on the corpus,
# 44 at deep order 4; all but up to four are `from_z_chart` factors, used once
@lru_cache(maxsize=8)
def powers(v: ExpPolySeries, bound=None) -> tuple:
    """(v, v^2, ..., v^k) for ord(v) > 0, with k the largest integer such
    that k*ord(v) <= bound (default v.trunc); () for the zero series.

    Memoized by value: a germ's perturbation is raised to the same powers at
    every level of a solve, and callers rebuild it as a new object each time.
    """
    if v.is_zero:
        return ()
    d = v.items[0][0]
    if d <= 0:
        raise ValueError("powers need an argument of strictly positive order")
    top = v.n if bound is None else math.floor(bound * v.L)
    out = []
    while (len(out) + 1) * d <= top:
        out.append(mul(out[-1], v) if out else v)
    return tuple(out)


def _affine_head(f: ExpPolySeries) -> complex:
    b0 = f._block(0)
    if b0.degree == 1 and b0.coeffs[1] == 1:
        return b0.coeffs[0]
    raise NonUnitSlope(f"inner series head must be zeta + beta, got block {list(b0.coeffs)}")


def compose(g: ExpPolySeries, f: ExpPolySeries) -> ExpPolySeries:
    """g o f for f = zeta + beta + delta with ord(delta) > 0.

    Taylor expansion around zeta + beta:
        g(f) = sum_i  g^(i)(zeta + beta) * delta^i / i!,
    summed until i*ord(delta) exceeds the common truncation order, term by
    term from `taylor_terms`.
    """
    beta = _affine_head(f)
    g, f = _common(g, f)
    result = translate(g, beta)
    for inv_fact, w, dpow in taylor_terms(g, f, beta):
        result = add(result, mul(w, dpow).scale(inv_fact))
    return result


def taylor_terms(g: ExpPolySeries, f: ExpPolySeries, beta: complex):
    """For g on f's lattice, the terms (1/i!, translate(g^(i), beta), delta^i)
    of compose(g, f), i >= 1.  Term i differentiates and translates only the
    blocks of g that its product with delta^i keeps (`prune`): a dropped block
    never reaches a kept coefficient.  Every step acts block by block."""
    gi = g
    fact = 1.0
    for i, dpow in enumerate(powers(f.tail()), 1):
        gi = derivative(prune(gi, dpow))
        if gi.is_zero:
            return
        fact *= i
        yield 1.0 / fact, translate(gi, beta), dpow


def conjugacy_residual(phi: ExpPolySeries, f: ExpPolySeries, beta: complex) -> ExpPolySeries:
    """compose(phi, f) - phi - beta; the zero series iff phi linearizes f."""
    phi, f = _common(phi, f)
    r = compose(phi, f) - phi
    return r - r._raw({0: CPoly([beta])})


# ---------------------------------------------------------------------------
# Dulac-form classification

@dataclass(frozen=True)
class DulacForm:
    kind: str  # 'hyperbolic' | 'parabolic' | 'general'
    beta: complex


def classify(a: ExpPolySeries) -> DulacForm:
    """Head classification: zeta + beta with Re beta > 0 is hyperbolic,
    |beta| <= HEAD_TOL is parabolic, anything else is general.  The slope must
    be exactly 1, as `compose` requires; `HEAD_TOL` applies to beta only."""
    b0 = a._block(0)
    if b0.degree == 1 and b0.coeffs[1] == 1:
        beta = b0.coeffs[0]
        if abs(beta) <= HEAD_TOL:
            return DulacForm("parabolic", 0j)
        if beta.real > 0:
            return DulacForm("hyperbolic", beta)
        return DulacForm("general", beta)
    return DulacForm("general", b0.coeff(0))


# ---------------------------------------------------------------------------
# chart conversions (zeta-chart <-> z-chart, z = exp(-zeta)); exponent 1 is
# the lattice point L, and both charts share one lattice

def _exp(v: ExpPolySeries) -> ExpPolySeries:
    """exp(v) = 1 + sum_{j>=1} v^j / j! for ord(v) > 0, up to the truncation order."""
    acc = v._raw({0: CPoly([1.0])})
    for j, p in enumerate(powers(v), 1):
        acc = add(acc, p.scale(1.0 / factorial(j)))
    return acc


def to_z_chart(a: ExpPolySeries) -> ExpPolySeries:
    """Hyperbolic/parabolic zeta-chart series to its z-chart representation.

    zeta + beta + delta maps to lambda*z*exp(-delta) with lambda = exp(-beta),
    read in the same carrier with z-exponents; the determination is fixed by
    log(lambda) = -beta.  Result truncation is N + 1.
    """
    form = classify(a)
    if form.kind not in ("hyperbolic", "parabolic"):
        raise NotNormalized("head must be zeta + beta with Re(beta) > 0 or beta = 0")
    lam = cmath.exp(-form.beta)
    factor = _exp(-a.tail()).scale(lam)
    L = a.L  # the lattice of gens + {1} and order N + 1 too
    return _series(L, a.n + L, tuple(sorted({*a.g, L})), {k + L: b for k, b in factor.items})


def z_chart_head(a: ExpPolySeries, beta: complex | None = None) -> tuple:
    """(lambda, beta) of a z-chart series lambda*z + h.o.t. of order >= 1.
    `beta` fixes the logarithm determination, within HEAD_TOL of lambda; the
    principal branch of -log(lambda) is used when it is omitted (exact for
    parabolic heads)."""
    L = a.L
    if a.items and a.items[0][0] < L:
        raise NotNormalized("z-chart series must have order >= 1")
    b1 = a._block(L)
    if b1.degree != 0:
        raise NotNormalized("z-chart head block must be a nonzero constant")
    lam = b1.coeffs[0]
    if beta is None:
        beta = -cmath.log(lam)
    elif abs(cmath.exp(-beta) - lam) > HEAD_TOL * max(1.0, abs(lam)):
        raise NotNormalized("provided beta is inconsistent with the head coefficient")
    return lam, beta


def from_z_chart(a: ExpPolySeries, beta: complex | None = None) -> ExpPolySeries:
    """Inverse chart map: lambda*z*(1 + u) back to zeta + beta + P, exp(-P) = 1 + u.
    At each lattice point nu > 0, ascending, with E = exp(-P) of the levels below,
    P's block is Q_nu = E_nu - u_nu; then E *= exp(-exp(-nu*zeta) Q_nu).  Products
    only: a log(1 + u) sum loses digits on large coefficients."""
    L = a.L
    lam, beta = z_chart_head(a, beta)
    # drop the head term structurally before dividing: complex division is
    # inexact in the last ulp, so lam*z/(lam*z) - 1 would leave an order-zero
    # dust block and break every order-driven loop downstream
    u = _series(L, a.n - L, a.g, {k - L: b.scale_div(lam) for k, b in a.items if k != L})
    E = u._raw({0: CPoly([1.0])})
    acc = {0: CPoly([beta, 1.0])}
    pts = sorted(lattice_points(u.g, u.n))[1:]
    for nu in pts:
        Q = E._block(nu) - u._block(nu)
        if not Q.is_zero:
            acc[nu] = Q
            if nu < pts[-1]:  # only the levels above nu read E
                E = mul(E, _exp(u._raw({nu: -Q})))
    return u._raw(acc)


# ---------------------------------------------------------------------------
# evaluation

def evaluate_tail(a: ExpPolySeries, beta: complex) -> tuple:
    """(delta, ast): the function z -> a(z) - z - beta, what a series map adds
    to the translation z + beta, compiled once by `exprparse.compile_ast`,
    and the exprparse AST it compiles, whose enclosure a Koenigs walk compiles.

    The head block is differenced on its coefficients, so what is evaluated
    is the remainder B_0 - zeta - beta and the terms exp(-m*z) * B_m of
    exponent m > 0: accurate for small values.  Each Horner step is acc*z + c
    from acc = 0j, and each term t + exp(-m*z) * p from t = 0j, with -m a
    float; the sum is head + tail.  compile_ast binds the coefficients and
    exponents by name, so every value is exact, signed zeros included, and
    emits one assignment per operation, so no block's degree or series'
    length nests its source.
    """
    zeta, zero = ("zeta",), ("num", 0j)

    def horner(block: CPoly):
        node = zero
        for c in reversed(block.coeffs):
            node = ("add", ("mul", node, zeta), ("num", c))
        return node

    tail = zero
    for m, b in a.terms:
        if m > 0:
            tail = ("add", tail, ("mul", ("call", "exp", ("mul", ("num", -float(m)), zeta)),
                                  horner(b)))
    ast = ("add", horner(a._block(0) - CPoly([beta, 1.0])), tail)
    return compile_ast(ast), ast


# ---------------------------------------------------------------------------
# JSON wire format

def series_from_json(obj) -> ExpPolySeries:
    if not isinstance(obj, dict):
        raise ParseError("series JSON must be an object")
    for key in ("trunc", "gens", "terms"):
        if key not in obj:
            raise ParseError(f"series JSON missing key {key!r}")
        if key != "trunc" and not isinstance(obj[key], list):
            raise ParseError(f"series JSON {key!r} is not a list")
    trunc = parse_exponent(obj["trunc"])
    gens = [parse_exponent(g) for g in obj["gens"]]
    terms = {}
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or "exp" not in entry or "poly" not in entry:
            raise ParseError("each term needs 'exp' and 'poly'")
        mu = parse_exponent(entry["exp"])
        try:
            coeffs = [complex(float(re), float(im)) for re, im in entry["poly"]]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad poly entry for exponent {entry['exp']}: {exc}") from None
        if not all(map(cmath.isfinite, coeffs)):
            raise ParseError(f"non-finite coefficient for exponent {entry['exp']}")
        if mu in terms:
            raise ParseError(f"duplicate exponent {entry['exp']}")
        terms[mu] = CPoly(coeffs)
    try:
        return ExpPolySeries(trunc, gens, terms)
    except ValueError as exc:  # its message names the key it rejects
        raise ParseError(f"series JSON {exc}") from None


def parse_series(text: str) -> ExpPolySeries:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from None
    return series_from_json(obj)
