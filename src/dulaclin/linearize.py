"""Formal linearization of hyperbolic series by two independent algorithms.

Both compute the unique parabolic series phi with  phi o f = phi + beta:

* a level-by-level solver working directly in the zeta-chart, clearing one
  exponential level at a time with a polynomial difference equation, and
* a Picard iteration in the z-chart built from the operators S and T below,
  converging in the valuation topology.

Agreement of the two routes is the main internal cross-check of the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import (
    IterationBudgetExceeded,
    NotHyperbolic,
    OrderTooLow,
    ResonantCoefficient,
)
from .series import (
    CPoly,
    ExpPolySeries,
    add,
    classify,
    compose,
    conjugacy_residual,
    derivative,
    effective_order,
    format_exponent,
    from_z_chart,
    lattice_points,
    mul,
    powers,
    series_to_json,
    to_z_chart,
    translate,
    z_chart_head,
)

__all__ = [
    "LinearizationResult",
    "solve_difference_eq",
    "linearize_level_by_level",
    "SchroederOperators",
    "picard_linearize",
    "linearize_by_picard",
    "partial_sums",
]

SOLVER_TOL = 1e-12    # relative size of a residual, Picard step or imaginary part taken as 0
BACKSUB_TOL = 1e-10   # relative back-substitution error allowed in solve_difference_eq


@dataclass(frozen=True)
class LinearizationResult:
    phi: ExpPolySeries          # parabolic: head zeta, all other exponents > 0
    beta: complex
    levels_solved: tuple        # exponents handled, ascending
    residual_ord: object        # Fraction or math.inf in the truncated algebra
    algorithm: str              # 'level_solver' | 'picard'

    def to_json(self) -> dict:
        ro = "inf" if self.residual_ord == math.inf else format_exponent(self.residual_ord)
        return {
            "algorithm": self.algorithm,
            "beta": [self.beta.real, self.beta.imag],
            "levels": [format_exponent(v) for v in self.levels_solved],
            "residual_ord": ro,
            "phi": series_to_json(self.phi),
        }


def solve_difference_eq(P: CPoly, c: complex, beta: complex) -> CPoly:
    """Unique polynomial Q with Q(x) - c*Q(x + beta) = P(x), for c != 1.

    Descending-degree back-substitution: the top coefficient satisfies
    (1-c) q_d = p_d, lower ones absorb the binomial terms of Q(x + beta).
    The result is substituted back and must reproduce P to `BACKSUB_TOL`
    relative to the size of the substitution's own terms (the binomial shift
    amplifies coefficients by powers of |beta|, which bounds the attainable
    absolute accuracy in doubles).
    """
    if abs(c - 1.0) < 1e-14:
        raise ResonantCoefficient(f"difference equation is resonant: c = {c}")
    if P.is_zero:
        return CPoly()
    D = P.degree
    q = [0j] * (D + 1)
    bpow = [1.0 + 0j] * (D + 1)
    for k in range(1, D + 1):
        bpow[k] = bpow[k - 1] * complex(beta)
    for d in range(D, -1, -1):
        s = P.coeff(d)
        for e in range(d + 1, D + 1):
            s += c * q[e] * comb(e, d) * bpow[e - d]
        q[d] = s / (1.0 - c)
    Q = CPoly(q)
    shifted = Q.shift(beta).scale(c)
    err = (Q - shifted - P).max_abs()
    scale = max(1.0, P.max_abs(), Q.max_abs(), shifted.max_abs())
    if err > BACKSUB_TOL * scale:
        raise ArithmeticError(f"difference-equation back-substitution check failed: {err}")
    return Q


def _level_solve(P: CPoly, m: float, beta: complex) -> CPoly:
    """Q with Q - exp(-m*beta) * Q(. + beta) = P: the level equation at m > 0
    of both solvers, not resonant while |exp(-m*beta)| < 1."""
    c = cmath.exp(-m * beta)
    if abs(c) >= 1.0:
        raise NotHyperbolic(f"level m = {m}: |exp(-m*beta)| = {abs(c)} is not below 1")
    return solve_difference_eq(P, c, beta)


def _hyperbolic_beta(f: ExpPolySeries) -> complex:
    form = classify(f)
    if form.kind != "hyperbolic":
        raise NotHyperbolic(f"expected hyperbolic head, found {form.kind} (beta = {form.beta})")
    return form.beta


def linearize_level_by_level(f: ExpPolySeries) -> LinearizationResult:
    """Zeta-chart solver: clear the conjugacy residual one exponent at a time.

    With phi = zeta the residual is exactly the perturbation of f.  Adding
    e^{-nu*zeta} Q to phi changes the residual block at nu by
    exp(-nu*beta) Q(. + beta) - Q, so the level equation is

        Q - exp(-nu*beta) * Q(. + beta) = P_nu,

    never resonant since |exp(-nu*beta)| < 1 for nu > 0, Re(beta) > 0.
    Levels are swept in ascending semigroup order, which is exact
    back-substitution: a solved level is never touched again.
    """
    beta = _hyperbolic_beta(f)
    L = f.L
    phi = f._raw({0: CPoly([0.0, 1.0])})
    r = f.tail()  # conjugacy_residual(zeta, f, beta), exactly
    solved = []
    for nu in sorted(lattice_points(f.g, f.n))[1:]:  # level nu/L > 0, ascending
        P = r._block(nu)
        if P.is_zero:
            continue
        Q = _level_solve(P, nu / L, beta)
        term = f._raw({nu: Q})
        phi = add(phi, term)
        r = add(r, compose(term, f) - term)
        solved.append(Fraction(nu, L))
    scale = max(1.0, f.max_abs_coeff(), phi.max_abs_coeff())
    return LinearizationResult(
        phi=phi,
        beta=beta,
        levels_solved=tuple(solved),
        residual_ord=effective_order(r, SOLVER_TOL * scale),
        algorithm="level_solver",
    )


# ---------------------------------------------------------------------------
# z-chart operators and the Picard route

class SchroederOperators:
    """The operators attached to a hyperbolic z-chart series f1 = lambda*z + g1.

    S(h) = (1/lambda) * (g1 + sum_{i>=1} h^(i)(lambda z) g1^i / i!)
    T(h) = h - (1/lambda) h(lambda z)

    T acts blockwise as R -> R - exp(-(nu-1) beta) R(. + beta) on the block of
    index nu, which makes its inverse a family of difference equations with
    coefficient strictly inside the unit circle for nu > 1.
    """

    def __init__(self, f1: ExpPolySeries, beta: complex | None = None):
        L = f1.L
        lam, beta = z_chart_head(f1, beta)
        if not 0 < abs(lam) < 1:
            raise NotHyperbolic(f"multiplier must satisfy 0 < |lambda| < 1, got {lam}")
        g1 = f1._raw({k: b for k, b in f1.items if k != L})
        if g1.items and g1.items[0][0] <= L:
            raise OrderTooLow("perturbation must have z-order > 1")
        self.f1 = f1
        self.lam = lam
        self.beta = beta
        self.trunc = f1.trunc
        self.g1 = g1
        # g1/z, known to order trunc - 1 but declared at trunc: every product
        # it enters in s_apply has a factor w_i(lambda z) of z-order > 1, so
        # the unknown terms land beyond trunc.
        self._g_shift = f1._raw({k - L: b for k, b in g1.items})

    def s_apply(self, h: ExpPolySeries) -> ExpPolySeries:
        acc = self.g1.scale_div(self.lam)
        if h.is_zero:
            return acc
        if h.items[0][0] <= h.L:
            raise OrderTooLow("S requires z-order > 1")
        # w_i = z^i h^(i) stays in nonnegative exponents: w_0 = h and
        # w_{i+1} = z (w_i)' - i w_i, where z d/dz = -d/dzeta.  Then
        #   h^(i)(lambda z) g1^i = exp(i beta) w_i(lambda z) (g1/z)^i,
        # and lambda z = exp(-(zeta + beta)) makes w_i(lambda z) a translation.
        # Powers stop at order trunc - 1, as the term of z-order 1 + i*ord(g1/z)
        # must lie within the order.
        w = h
        for i, g_pow in enumerate(powers(self._g_shift, self.trunc - 1), 1):
            w = -derivative(w) - w.scale(float(i - 1))
            if w.is_zero:
                break
            coeff = cmath.exp(complex(i) * self.beta) / (factorial(i) * self.lam)
            term = mul(translate(w, self.beta), g_pow)
            acc = add(acc, term.scale(coeff))
        return acc

    def t_inv(self, h: ExpPolySeries) -> ExpPolySeries:
        L = h.L
        if h.items and h.items[0][0] <= L:
            raise OrderTooLow("T^-1 requires z-order > 1")
        return h._raw({k: _level_solve(b, (k - L) / L, self.beta) for k, b in h.items})


def picard_linearize(
    f1: ExpPolySeries,
    beta: complex | None = None,
    gens_out=None,
) -> LinearizationResult:
    """z-chart route: iterate psi <- T^-1(S(psi)) from 0 until stationary.

    The order of psi_{n+1} - psi_n increases strictly through the semigroup,
    so stationarity at the truncation order is guaranteed; the budget is a
    bug guard, not a convergence knob.  The fixed point gives phi1 = z + psi
    with phi1 o f1 = lambda*phi1; converting back to the zeta-chart yields
    the parabolic linearization, verified there against f.
    """
    ops = SchroederOperators(f1, beta)
    n_levels = sum(1 for k in lattice_points(f1.g, f1.n) if k > f1.L)
    budget = max(4 * n_levels, 8)
    psi = f1._raw({})
    scale = max(1.0, f1.max_abs_coeff())
    for _ in range(budget):
        nxt = ops.t_inv(ops.s_apply(psi))
        diff = nxt - psi
        psi = nxt
        scale = max(scale, psi.max_abs_coeff())
        if diff.max_abs_coeff() <= SOLVER_TOL * scale:
            break
    else:
        raise IterationBudgetExceeded(f"Picard iteration not stationary after {budget} steps")
    phi1 = add(psi, f1._raw({f1.L: CPoly([1.0])}))
    phi = from_z_chart(phi1)  # parabolic head: multiplier 1, beta 0
    if gens_out is not None:
        phi = phi.with_gens(gens_out)
    f_zeta = from_z_chart(f1, beta=ops.beta)
    if gens_out is not None:
        f_zeta = f_zeta.with_gens(gens_out)
    r = conjugacy_residual(phi, f_zeta, ops.beta)
    res_ord = effective_order(r, SOLVER_TOL * max(scale, phi.max_abs_coeff()) * 100)
    levels = tuple(m for m, _ in phi.terms if m > 0)
    return LinearizationResult(
        phi=phi,
        beta=ops.beta,
        levels_solved=levels,
        residual_ord=res_ord,
        algorithm="picard",
    )


def linearize_by_picard(f: ExpPolySeries) -> LinearizationResult:
    """Convenience pipeline: zeta-chart f -> z-chart -> Picard -> zeta-chart."""
    beta = _hyperbolic_beta(f)
    f1 = to_z_chart(f)
    return picard_linearize(f1, beta=beta, gens_out=f.gens)


# ---------------------------------------------------------------------------
# partial sums

def partial_sums(phi: ExpPolySeries, n: int) -> ExpPolySeries:
    """First n exponential levels of a parabolic series; n = 0 gives zeta."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    keep = {0, *[k for k, _ in phi.items if k > 0][:n]}
    return phi._raw({k: b for k, b in phi.items if k in keep})
