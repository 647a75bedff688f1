"""Truncated algebra of exponential-polynomial series over rational exponents.

The carrier type represents finite sums

    sum_mu  exp(-mu*zeta) * B_mu(zeta)

with complex polynomial blocks ``B_mu`` and exponents ``mu`` drawn from a
finitely generated additive semigroup of nonnegative rationals, truncated at
a rational order ``N`` (terms with ``mu > N`` are dropped and considered
unknown).  Under ``z = exp(-zeta)`` the same data reads as a z-chart series
``sum_mu z^mu * B_mu(-log z)``; both charts share this one carrier.

Exponent arithmetic is exact (``fractions.Fraction``); coefficients are
double-precision complex.  No small-coefficient cleanup ever happens
implicitly: only exact zeros are stripped.  Approximate checks read named
module constants: `HEAD_TOL` here, `SOLVER_TOL` and `BACKSUB_TOL` in
`linearize`.  A series' powers `v, v^2, ...` are built once per series
value (`powers`) and shared by `compose`, the chart conversions and the
z-chart operator S.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Mapping

from .errors import (
    ExponentNotInSemigroup,
    NonUnitSlope,
    NotNormalized,
    ParseError,
)

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
    "powers",
    "exp_order",
    "effective_order",
    "conjugacy_residual",
    "to_z_chart",
    "from_z_chart",
    "parse_series",
    "serialize_series",
    "series_from_json",
    "series_to_json",
    "evaluate",
    "evaluate_tail",
    "semigroup_points",
    "max_rel_coeff_diff",
]

INF = math.inf
HEAD_TOL = 1e-9   # parabolic |beta|; relative gap of exp(-beta) to a given multiplier


# ---------------------------------------------------------------------------
# rational helpers

def format_exponent(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_exponent(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}: {exc}") from None


@lru_cache(maxsize=None)
def semigroup_points(gens: tuple, bound: Fraction) -> frozenset:
    """All nonnegative-integer combinations of `gens` that are <= `bound`.

    Zero is always included; generators must be positive rationals.
    """
    pts = {Fraction(0)}
    frontier = [Fraction(0)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p + g
                if q <= bound and q not in pts:
                    pts.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(pts)


# ---------------------------------------------------------------------------
# polynomial blocks

class CPoly:
    """Dense complex polynomial; coefficients ascending, trailing exact zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        return CPoly(out)

    def __neg__(self) -> "CPoly":
        return CPoly([-c for c in self.coeffs])

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self + (-other)

    def __mul__(self, other: "CPoly") -> "CPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return CPoly()
        if len(a) + len(b) > 16:
            import numpy as np

            return CPoly(np.convolve(np.asarray(a), np.asarray(b)).tolist())
        out = [0j] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return CPoly(out)

    def scale(self, c: complex) -> "CPoly":
        return CPoly([x * c for x in self.coeffs])

    def scale_div(self, c: complex) -> "CPoly":
        # x/x == 1.0 exactly in IEEE, which `scale(1/c)` would not give
        return CPoly([x / c for x in self.coeffs])

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
            for j in range(d + 1):
                out[j] += bd * comb(d, j) * cpow[d - j]
        return CPoly(out)

    def deriv(self) -> "CPoly":
        return CPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def max_imag(self) -> float:
        return max((abs(c.imag) for c in self.coeffs), default=0.0)

    def coeff(self, d: int) -> complex:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0j


# ---------------------------------------------------------------------------
# the series carrier

class ExpPolySeries:
    """Truncated exponential-polynomial series; immutable after construction."""

    __slots__ = ("trunc", "gens", "terms")

    def __init__(self, trunc, gens, terms: Mapping):
        trunc = Fraction(trunc)
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        gv = tuple(sorted({Fraction(g) for g in gens}))
        if any(g <= 0 for g in gv):
            raise ValueError("generators must be positive rationals")
        allowed = semigroup_points(gv, trunc)
        items = []
        for mu, block in terms.items():
            mu = Fraction(mu)
            if not isinstance(block, CPoly):
                block = CPoly(block)
            if block.is_zero:
                continue
            if mu < 0 or mu > trunc:
                raise ValueError(f"exponent {mu} outside [0, {trunc}]")
            if mu not in allowed:
                raise ExponentNotInSemigroup(
                    f"exponent {mu} not generated by {[str(g) for g in gv]}"
                )
            items.append((mu, block))
        items.sort(key=lambda kv: kv[0])
        self.trunc = trunc
        self.gens = gv
        self.terms = tuple(items)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc, gens) -> "ExpPolySeries":
        return ExpPolySeries(trunc, gens, {})

    @staticmethod
    def constant(c: complex, trunc, gens) -> "ExpPolySeries":
        return ExpPolySeries(trunc, gens, {Fraction(0): CPoly([c])})

    @staticmethod
    def affine(beta: complex, trunc, gens) -> "ExpPolySeries":
        """The series zeta + beta."""
        return ExpPolySeries(trunc, gens, {Fraction(0): CPoly([beta, 1.0])})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def block(self, mu) -> CPoly:
        mu = Fraction(mu)
        for m, b in self.terms:
            if m == mu:
                return b
            if m > mu:
                break
        return CPoly()

    def support(self):
        return tuple(m for m, _ in self.terms)

    def tail(self) -> "ExpPolySeries":
        """Terms with exponent > 0."""
        return self._raw({m: b for m, b in self.terms if m > 0})

    def max_abs_coeff(self) -> float:
        return max((b.max_abs() for _, b in self.terms), default=0.0)

    def max_imag_coeff(self) -> float:
        return max((b.max_imag() for _, b in self.terms), default=0.0)

    def __eq__(self, other):
        return (
            isinstance(other, ExpPolySeries)
            and self.trunc == other.trunc
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.trunc, self.gens, self.terms))

    def __repr__(self):
        body = ", ".join(f"{m}: {list(b.coeffs)}" for m, b in self.terms)
        return f"ExpPolySeries(N={self.trunc}, {{{body}}})"

    # -- structural helpers ------------------------------------------------

    def _raw(self, terms: Mapping) -> "ExpPolySeries":
        return ExpPolySeries(self.trunc, self.gens, terms)

    def with_trunc(self, trunc) -> "ExpPolySeries":
        """Change the truncation order, dropping terms beyond it.

        Raising the order is only valid when the caller can justify that no
        term of the exact object lives in the uncovered range; the z-chart
        operators use this under an order-counting argument.
        """
        trunc = Fraction(trunc)
        return ExpPolySeries(trunc, self.gens, {m: b for m, b in self.terms if m <= trunc})

    def with_gens(self, gens) -> "ExpPolySeries":
        return ExpPolySeries(self.trunc, gens, dict(self.terms))

    def scale(self, c: complex) -> "ExpPolySeries":
        return self._raw({m: b.scale(c) for m, b in self.terms})

    def scale_div(self, c: complex) -> "ExpPolySeries":
        return self._raw({m: b.scale_div(c) for m, b in self.terms})

    def __neg__(self) -> "ExpPolySeries":
        return self.scale(-1.0)

    def __add__(self, other: "ExpPolySeries") -> "ExpPolySeries":
        return add(self, other)

    def __sub__(self, other: "ExpPolySeries") -> "ExpPolySeries":
        return add(self, -other)

    def __mul__(self, other: "ExpPolySeries") -> "ExpPolySeries":
        return mul(self, other)


def _merge_params(a: ExpPolySeries, b: ExpPolySeries):
    return min(a.trunc, b.trunc), tuple(sorted(set(a.gens) | set(b.gens)))


def add(a: ExpPolySeries, b: ExpPolySeries) -> ExpPolySeries:
    """Blockwise sum at the minimum of the two truncation orders."""
    trunc, gens = _merge_params(a, b)
    acc = {}
    for m, blk in a.terms:
        if m <= trunc:
            acc[m] = blk
    for m, blk in b.terms:
        if m > trunc:
            continue
        acc[m] = acc[m] + blk if m in acc else blk
    return ExpPolySeries(trunc, gens, acc)


def mul(a: ExpPolySeries, b: ExpPolySeries) -> ExpPolySeries:
    """Product; exponents add, blocks multiply, terms beyond the order drop."""
    trunc, gens = _merge_params(a, b)
    acc = {}
    for m1, b1 in a.terms:
        if m1 > trunc:
            break
        for m2, b2 in b.terms:
            m = m1 + m2
            if m > trunc:
                break
            prod = b1 * b2
            if prod.is_zero:
                continue
            acc[m] = acc[m] + prod if m in acc else prod
    return ExpPolySeries(trunc, gens, acc)


def derivative(a: ExpPolySeries) -> ExpPolySeries:
    """d/dzeta, term by term: exp(-mu*zeta)*B -> exp(-mu*zeta)*(B' - mu*B)."""
    acc = {}
    for m, b in a.terms:
        nb = b.deriv() - b.scale(float(m))
        if not nb.is_zero:
            acc[m] = nb
    return a._raw(acc)


def translate(a: ExpPolySeries, c: complex) -> ExpPolySeries:
    """zeta -> zeta + c: each block shifts and picks up exp(-mu*c)."""
    acc = {}
    for m, b in a.terms:
        nb = b.shift(c)
        if m != 0:
            nb = nb.scale(cmath.exp(-float(m) * complex(c)))
        if not nb.is_zero:
            acc[m] = nb
    return a._raw(acc)


def max_rel_coeff_diff(a: ExpPolySeries, b: ExpPolySeries) -> float:
    """Largest coefficient difference, each relative to max(1, |a|, |b|)."""
    worst = 0.0
    for m in set(a.support()) | set(b.support()):
        pa, pb = a.block(m), b.block(m)
        for d in range(max(pa.degree, pb.degree) + 1):
            x, y = pa.coeff(d), pb.coeff(d)
            worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst


def exp_order(a: ExpPolySeries):
    """Least exponent carrying a nonzero block; +inf for the zero series."""
    return a.terms[0][0] if a.terms else INF


def effective_order(a: ExpPolySeries, tol: float):
    """Least exponent whose block has a coefficient of magnitude > tol."""
    for m, b in a.terms:
        if b.max_abs() > tol:
            return m
    return INF


# one formal solve with its cross-check raises six distinct series to powers
@lru_cache(maxsize=8)
def powers(v: ExpPolySeries) -> tuple:
    """(v, v^2, ..., v^k) for ord(v) > 0, with k the largest integer such
    that k*ord(v) <= v.trunc; () for the zero series.

    Memoized by value: a germ's perturbation is raised to the same powers at
    every level of a solve, and callers rebuild it as a new object each time.
    """
    if v.is_zero:
        return ()
    d = exp_order(v)
    if d <= 0:
        raise ValueError("powers need an argument of strictly positive order")
    out = [v]
    while (len(out) + 1) * d <= v.trunc:
        out.append(mul(out[-1], v))
    return tuple(out)


def _affine_head(f: ExpPolySeries) -> complex:
    b0 = f.block(0)
    if b0.degree == 1 and b0.coeffs[1] == 1:
        return b0.coeffs[0]
    raise NonUnitSlope(f"inner series head must be zeta + beta, got block {list(b0.coeffs)}")


def compose(g: ExpPolySeries, f: ExpPolySeries) -> ExpPolySeries:
    """g o f for f = zeta + beta + delta with ord(delta) > 0.

    Taylor expansion around zeta + beta:
        g(f) = sum_i  g^(i)(zeta + beta) * delta^i / i!,
    summed until i*ord(delta) exceeds the common truncation order.
    """
    beta = _affine_head(f)
    trunc, gens = _merge_params(g, f)
    delta = f.tail().with_trunc(trunc).with_gens(gens)
    result = translate(g, beta).with_trunc(trunc).with_gens(gens)
    gi = g
    fact = 1.0
    for i, dpow in enumerate(powers(delta), 1):
        gi = derivative(gi)
        if gi.is_zero:
            break
        fact *= i
        term = mul(translate(gi, beta).with_gens(gens), dpow)
        result = add(result, term.scale(1.0 / fact))
    return result


def conjugacy_residual(phi: ExpPolySeries, f: ExpPolySeries, beta: complex) -> ExpPolySeries:
    """compose(phi, f) - phi - beta; the zero series iff phi linearizes f."""
    trunc, gens = _merge_params(phi, f)
    r = compose(phi, f) - phi.with_trunc(trunc).with_gens(gens)
    return r - ExpPolySeries.constant(beta, trunc, gens)


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
    b0 = a.block(0)
    if b0.degree == 1 and b0.coeffs[1] == 1:
        beta = b0.coeffs[0]
        if abs(beta) <= HEAD_TOL:
            return DulacForm("parabolic", 0j)
        if beta.real > 0:
            return DulacForm("hyperbolic", beta)
        return DulacForm("general", beta)
    return DulacForm("general", b0.coeff(0))


# ---------------------------------------------------------------------------
# chart conversions (zeta-chart <-> z-chart, z = exp(-zeta))

def _shift_exponents(a: ExpPolySeries, offset: Fraction, new_trunc, gens) -> ExpPolySeries:
    terms = {}
    for m, b in a.terms:
        nm = m + offset
        if nm < 0:
            raise ValueError("exponent shift below zero")
        if nm <= new_trunc:
            terms[nm] = b
    return ExpPolySeries(new_trunc, gens, terms)


def _power_series(v: ExpPolySeries, c0: complex, coeff) -> ExpPolySeries:
    """c0 + sum_{j>=1} coeff(j) * v^j for ord(v) > 0, up to the truncation order."""
    acc = ExpPolySeries.constant(c0, v.trunc, v.gens)
    for j, p in enumerate(powers(v), 1):
        acc = add(acc, p.scale(coeff(j)))
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
    factor = _power_series(-a.tail(), 1.0, lambda j: 1.0 / factorial(j)).scale(lam)
    gens = tuple(sorted(set(a.gens) | {Fraction(1)}))
    return _shift_exponents(factor, Fraction(1), a.trunc + 1, gens)


def from_z_chart(a: ExpPolySeries, beta: complex | None = None) -> ExpPolySeries:
    """Inverse chart map: lambda*z + h.o.t. back to zeta + beta + ... .

    `beta` fixes the logarithm determination; the principal branch of
    -log(lambda) is used when it is omitted (exact for parabolic heads).
    """
    if a.terms and a.terms[0][0] < 1:
        raise NotNormalized("z-chart series must have order >= 1")
    b1 = a.block(1)
    if b1.degree != 0:
        raise NotNormalized("z-chart head block must be a nonzero constant")
    lam = b1.coeffs[0]
    if beta is None:
        beta = -cmath.log(lam)
    elif abs(cmath.exp(-beta) - lam) > HEAD_TOL * max(1.0, abs(lam)):
        raise NotNormalized("provided beta is inconsistent with the head coefficient")
    new_trunc = a.trunc - 1
    # drop the head term structurally before dividing: complex division is
    # inexact in the last ulp, so lam*z/(lam*z) - 1 would leave an order-zero
    # dust block and break every order-driven loop downstream
    g = a._raw({m: b for m, b in a.terms if m != 1})
    u = _shift_exponents(g.scale_div(lam), Fraction(-1), new_trunc, a.gens)
    head = ExpPolySeries.affine(beta, new_trunc, a.gens)
    return head - _power_series(u, 0.0, lambda j: (-1.0) ** (j + 1) / j)  # log(1 + u)


# ---------------------------------------------------------------------------
# evaluation

def evaluate(a: ExpPolySeries, zeta: complex) -> complex:
    acc = 0j
    for m, b in a.terms:
        if m == 0:
            acc += b(zeta)
        else:
            acc += cmath.exp(-float(m) * zeta) * b(zeta)
    return acc


def evaluate_tail(pairs, zeta: complex) -> complex:
    """Sum of the exponential terms only; accurate for small values.

    `pairs` are a series' terms of exponent m > 0, given as (-float(m), block)
    so that a caller evaluating one series many times converts them once.
    """
    acc = 0j
    for mu, b in pairs:
        acc += cmath.exp(mu * zeta) * b(zeta)
    return acc


# ---------------------------------------------------------------------------
# JSON wire format

def series_to_json(a: ExpPolySeries) -> dict:
    return {
        "trunc": format_exponent(a.trunc),
        "gens": [format_exponent(g) for g in a.gens],
        "terms": [
            {"exp": format_exponent(m), "poly": [[c.real, c.imag] for c in b.coeffs]}
            for m, b in a.terms
        ],
    }


def series_from_json(obj) -> ExpPolySeries:
    if not isinstance(obj, dict):
        raise ParseError("series JSON must be an object")
    for key in ("trunc", "gens", "terms"):
        if key not in obj:
            raise ParseError(f"series JSON missing key {key!r}")
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
    return ExpPolySeries(trunc, gens, terms)


def serialize_series(a: ExpPolySeries) -> str:
    """Canonical text form: sorted terms, normalized rationals, repr floats."""
    return json.dumps(series_to_json(a), separators=(",", ":"))


def parse_series(text: str) -> ExpPolySeries:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from None
    return series_from_json(obj)
