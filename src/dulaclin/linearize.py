"""Formal linearization of hyperbolic series by two independent algorithms.

Both compute the unique parabolic series phi with  phi o f = phi + beta:

* a level-by-level solver working directly in the zeta-chart, clearing one
  exponential level at a time with a polynomial difference equation, and
* the Picard fixed point psi = T^-1(S(psi)) in the z-chart, built from the
  operators S and T below and solved block by block in one pass.

Agreement of the two routes is the main internal cross-check of the package.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import NotHyperbolic, OrderTooLow, ResonantCoefficient
from .series import (
    CPoly,
    ExpPolySeries,
    add,
    classify,
    conjugacy_residual,
    derivative,
    effective_order,
    from_z_chart,
    lattice_points,
    mul,
    mul_into,
    powers,
    prune,
    taylor_terms,
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

SOLVER_TOL = 1e-12    # relative size of a residual coefficient taken as 0
BACKSUB_TOL = 1e-10   # relative back-substitution error allowed in solve_difference_eq


@dataclass(frozen=True)
class LinearizationResult:
    """A solver's phi for f, verified by residual = compose(phi, f) - phi - beta.

    `cli.cmd_linearize` writes algorithm, beta, the levels solved,
    residual_ord and phi to a phi file through one fixed-layout writer,
    `cli._phi_text`, reading phi's int-keyed items."""
    phi: ExpPolySeries          # parabolic: head zeta, all other exponents > 0
    beta: complex
    residual: ExpPolySeries     # conjugacy_residual(phi, f, beta), bit for bit
    residual_ord: object        # Fraction or math.inf in the truncated algebra
    algorithm: str              # 'level_solver' | 'picard'

    @property
    def levels_solved(self) -> tuple:
        """The exponents of phi above 0, ascending: the levels a solver
        filled, since a nonzero level residual gives a nonzero block."""
        return tuple(m for m in self.phi.support() if m > 0)


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
    back-substitution: a solved level is never touched again, and each Q
    must be finite, or OverflowError.  Each block of phi, zeta first, goes
    alone through `taylor_terms` once, and `mul_into` adds its products, in
    ascending blocks as `mul` does, into the sums of compose(phi, f)'s terms.
    They are the one residual: P_nu is their block nu, each scaled by its
    1/i! (no block of phi sits at nu yet), and with translate(phi, beta)
    they give `residual` = conjugacy_residual(phi, f, beta) bit for bit.
    """
    beta = _hyperbolic_beta(f)
    moved = {}  # the blocks of translate(phi, beta)
    sums = {}   # by 1/i!: the blocks of mul(translate(phi^(i), beta), delta^i)

    def push(term: ExpPolySeries):
        moved.update(translate(term, beta).items)
        for inv_fact, w, dpow in taylor_terms(term, f, beta):
            mul_into(sums.setdefault(inv_fact, {}), w.items, dpow.items, f.n)

    phi = f._raw({0: CPoly([0.0, 1.0])})
    push(phi)
    for nu in sorted(lattice_points(f.g, f.n))[1:]:  # level nu/L > 0, ascending
        P = sum((acc[nu].scale(c) for c, acc in sums.items() if nu in acc), CPoly())
        if P.is_zero:
            continue
        Q = _level_solve(P, nu / f.L, beta)
        if not all(map(cmath.isfinite, Q.coeffs)):
            raise OverflowError(f"level block at exponent {Fraction(nu, f.L)} is not finite")
        term = f._raw({nu: Q})
        phi = add(phi, term)
        push(term)
    composed = f._raw(moved)
    for inv_fact, acc in sums.items():  # 1/i! for i = 1, 2, ..., as inserted
        composed = add(composed, f._raw(acc).scale(inv_fact))
    residual = composed - phi - phi._raw({0: CPoly([beta])})
    scale = max(1.0, f.max_abs_coeff(), phi.max_abs_coeff())
    return LinearizationResult(
        phi=phi,
        beta=beta,
        residual=residual,
        residual_ord=effective_order(residual, SOLVER_TOL * scale),
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
        self.lam = lam
        self.beta = beta
        self.g1 = g1
        # g1/z, known to order trunc - 1 but declared at trunc: every product
        # it enters in S has a factor w_i(lambda z) of z-order > 1, so the
        # unknown terms land beyond trunc.  Its powers stop at order
        # trunc - 1, as the term of z-order 1 + i*ord(g1/z) must lie within
        # the order; each is paired with its term's coefficient.
        g_shift = f1._raw({k - L: b for k, b in g1.items})
        self._factors = [(cmath.exp(complex(i) * beta) / (factorial(i) * lam), g_pow)
                         for i, g_pow in enumerate(powers(g_shift, f1.trunc - 1), 1)]

    def s_terms(self, h: ExpPolySeries):
        """The terms of S(h) after g1/lambda, in order: for each i >= 1,
        (coeff, (g1/z)^i, w_i(lambda z)), the term being the product of the
        last two scaled by coeff.

        w_i = z^i h^(i) stays in nonnegative exponents: w_0 = h and
        w_{i+1} = z (w_i)' - i w_i, where z d/dz = -d/dzeta.  Then
          h^(i)(lambda z) g1^i = exp(i beta) w_i(lambda z) (g1/z)^i,
        and lambda z = exp(-(zeta + beta)) makes w_i(lambda z) a translation.
        Term i takes only the blocks of w that its product with (g1/z)^i
        keeps (`prune`).  Every step acts block by block, so the w_i(lambda z)
        of h are the sums of those of its blocks.
        """
        w = h
        for i, (coeff, g_pow) in enumerate(self._factors):
            w = prune(w, g_pow)
            w = -derivative(w) - w.scale(float(i))
            yield coeff, g_pow, translate(w, self.beta)
            if w.is_zero:
                return

    def s_apply(self, h: ExpPolySeries) -> ExpPolySeries:
        """S(h).  Block k reads the blocks of h at or below k - ord(g1/z).
        Each term is added even when empty, which puts the result on the
        common lattice of h and f1."""
        acc = self.g1.scale_div(self.lam)
        if h.is_zero:
            return acc
        if h.items[0][0] <= h.L:
            raise OrderTooLow("S requires z-order > 1")
        for coeff, g_pow, w in self.s_terms(h):
            acc = add(acc, mul(w, g_pow).scale(coeff))
        return acc

    def t_inv(self, h: ExpPolySeries) -> ExpPolySeries:
        """T^-1(h), block by block."""
        L = h.L
        if h.items and h.items[0][0] <= L:
            raise OrderTooLow("T^-1 requires z-order > 1")
        return h._raw({k: _level_solve(b, (k - L) / L, self.beta) for k, b in h.items})


def picard_linearize(f1: ExpPolySeries, beta: complex | None = None, *,
                     f: ExpPolySeries | None = None) -> LinearizationResult:
    """z-chart route: the fixed point psi = T^-1(S(psi)), solved block by
    block in lattice order.

    Block k of S(psi) reads only the blocks of psi at or below
    k - ord(g1/z), and T^-1 acts block by block, so one pass of substitution
    reaches the fixed point (relaxed evaluation).  Each psi_k =
    T^-1(S(psi)_k) must be finite, or OverflowError; it goes alone through
    `s_terms`, and `mul_into` adds its products with (g1/z)^i into term
    i's sums as `mul` adds them, so S(psi)_k is summed as `s_apply` sums
    it.  One sweep T^-1(S(psi)) must return psi bit for bit, signed zeros
    included, or the solve raises ArithmeticError.  The fixed point
    gives phi1 = z + psi with phi1 o f1 = lambda*phi1; `from_z_chart` takes
    it back to the parabolic linearization, verified against f, on f's
    generators, or without f against from_z_chart(f1, beta) on f1's lattice.
    """
    ops = SchroederOperators(f1, beta)
    L = f1.L
    const = ops.g1.scale_div(ops.lam)
    terms = [{} for _ in ops._factors]  # per term i: products of w_i(lambda z) and (g1/z)^i
    psi = {}
    top = f1.n - ops._factors[0][1].items[0][0] if ops._factors else L  # last k entering S
    for k in sorted(lattice_points(f1.g, f1.n)):
        if k <= L:
            continue
        P = const._block(k)
        for (coeff, _), term in zip(ops._factors, terms):
            if k in term:
                P = P + term.pop(k).scale(coeff)
        if P.is_zero:
            continue
        psi[k] = Q = _level_solve(P, (k - L) / L, ops.beta)
        if not all(map(cmath.isfinite, Q.coeffs)):
            raise OverflowError(f"Picard block at z^{Fraction(k, L)} is not finite")
        if k <= top:
            for term, (_, g_pow, wk) in zip(terms, ops.s_terms(f1._raw({k: Q}))):
                mul_into(term, wk.items, g_pow.items, f1.n)
    psi = f1._raw(psi)
    if repr(ops.t_inv(ops.s_apply(psi)).items) != repr(psi.items):
        raise ArithmeticError("Picard solve is not a fixed point of T^-1 S")
    phi1 = add(psi, f1._raw({L: CPoly([1.0])}))
    phi = from_z_chart(phi1)  # parabolic head: multiplier 1, beta 0
    f = from_z_chart(f1, beta=ops.beta) if f is None else f
    phi = phi.with_gens(f.gens)  # unchanged on from_z_chart(f1)'s lattice
    r = conjugacy_residual(phi, f, ops.beta)
    scale = max(1.0, f1.max_abs_coeff(), psi.max_abs_coeff(), phi.max_abs_coeff())
    return LinearizationResult(
        phi=phi,
        beta=ops.beta,
        residual=r,
        residual_ord=effective_order(r, SOLVER_TOL * scale * 100),
        algorithm="picard",
    )


def linearize_by_picard(f: ExpPolySeries) -> LinearizationResult:
    """Convenience pipeline: zeta-chart f -> z-chart -> Picard -> zeta-chart,
    with phi recast to the generators of f."""
    beta = _hyperbolic_beta(f)  # NotHyperbolic before to_z_chart's NotNormalized
    return picard_linearize(to_z_chart(f), beta=beta, f=f)


# ---------------------------------------------------------------------------
# partial sums

def partial_sums(phi: ExpPolySeries, n: int) -> ExpPolySeries:
    """First n exponential levels of a parabolic series; n = 0 gives zeta."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    keep = {0, *[k for k, _ in phi.items if k > 0][:n]}
    return phi._raw({k: b for k, b in phi.items if k in keep})
