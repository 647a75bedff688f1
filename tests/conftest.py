import cmath
import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from dulaclin.domains import (
    CUT_DOUBLINGS,
    INVARIANCE_RE_SPAN,
    AsymptoticProfile,
    InvarianceReport,
    QuadRegion,
    Region,
    UnionRegion,
    _eq_new_bound,
    in_safety_rect,
)
from dulaclin.errors import DomainError, DulaclinError, EvalDomainError, OrderTooLow
from dulaclin.exprparse import (
    _BOUND,
    _ONE,
    _POW_CAP,
    _ZERO,
    UNDERFLOW,
    _bounded,
    _cdiv,
    _cmul,
    _neg,
    _plus,
    _postorder,
    _powu,
)
from dulaclin.linearize import (
    SOLVER_TOL,
    LinearizationResult,
    SchroederOperators,
    linearize_level_by_level,
)
from dulaclin.series import (
    CPoly,
    ExpPolySeries,
    _affine_head,
    _common,
    add,
    conjugacy_residual,
    derivative,
    effective_order,
    from_z_chart,
    lattice_points,
    powers,
    translate,
)

GEN_CHOICES = [
    (F(1),),
    (F(1, 2),),
    (F(2, 3),),
    (F(1), F(1, 2)),
    (F(1, 2), F(2, 3)),
    (F(1), F(1, 2), F(2, 3)),
]
ORDER_CHOICES = [F(1), F(3, 2), F(2), F(2), F(5, 2), F(3), F(3), F(4)]


def semigroup_points(gens, bound) -> list:
    """The sorted nonnegative-integer combinations of `gens` up to `bound`,
    zero included, as Fractions: the lattice points of a series' semigroup."""
    s = ExpPolySeries(bound, gens, {})
    return [F(k, s.L) for k in sorted(lattice_points(s.g, s.n))]


def random_hyperbolic_series(rng: random.Random, real: bool = False) -> ExpPolySeries:
    """Random hyperbolic series: generators within {1, 1/2, 2/3}, order <= 4,
    Re(beta) in [0.3, 3], |Im(beta)| <= 10, blocks of degree <= 3."""
    gens = rng.choice(GEN_CHOICES)
    N = rng.choice(ORDER_CHOICES)
    pts = sorted(p for p in semigroup_points(gens, N) if p > 0) or [F(1)]
    if real:
        beta = complex(0.3 + 2.7 * rng.random(), 0.0)
    else:
        beta = complex(0.3 + 2.7 * rng.random(), -10 + 20 * rng.random())
    terms = {F(0): CPoly([beta, 1.0])}
    for mu in rng.sample(pts, rng.randint(1, min(3, len(pts)))):
        deg = rng.randint(0, 3)
        coeffs = [complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2))
                  for _ in range(deg + 1)]
        terms[mu] = CPoly(coeffs)
    return ExpPolySeries(N, gens, terms)


def deep_series(order=8) -> ExpPolySeries:
    """The benchmark's deep series (seed 8): generators 1/2, 2/3, order 8,
    degree-3 blocks on the four lowest levels; truncated at `order`."""
    rng = random.Random(8)
    gens = (F(1, 2), F(2, 3))
    terms = {F(0): [complex(1.0, 0.3 * (2 * rng.random() - 1)), 1.0]}
    for mu in sorted(p for p in semigroup_points(gens, 8) if p > 0)[:4]:
        terms[mu] = [complex(0.5 * rng.uniform(-1, 1), 0.5 * rng.uniform(-1, 1))
                     for _ in range(4)]
    return ExpPolySeries(8, gens, terms).with_trunc(order)


def fraction_text(q: F) -> str:
    return f"{q.numerator}/{q.denominator}"


def series_to_json(a: ExpPolySeries) -> dict:
    """The series wire format's dict, each exponent written from its Fraction:
    the oracle of the phi files' `phi` and of the cross-check's rounded
    comparison, as `dulaclin.series` wrote it before `cli._phi_text` was its
    one writer."""
    return {
        "trunc": fraction_text(a.trunc),
        "gens": [fraction_text(g) for g in a.gens],
        "terms": [{"exp": fraction_text(m), "poly": [[c.real, c.imag] for c in b.coeffs]}
                  for m, b in a.terms],
    }


def serialize_series(a: ExpPolySeries) -> str:
    """Canonical text form: sorted terms, normalized rationals, repr floats."""
    return json.dumps(series_to_json(a), separators=(",", ":"))


def reference_mul(a: ExpPolySeries, b: ExpPolySeries) -> ExpPolySeries:
    """`series.mul` before its outer loop stopped at the last block that
    meets b: the bit-for-bit reference of the product."""
    a, b = _common(a, b)
    n, acc = a.n, {}
    for k1, b1 in a.items:
        for k2, b2 in b.items:
            k = k1 + k2
            if k > n:
                break
            prod = b1 * b2
            acc[k] = acc[k] + prod if k in acc else prod
    return a._raw(acc)


def reference_compose(g: ExpPolySeries, f: ExpPolySeries) -> ExpPolySeries:
    """`series.compose` before its Taylor loop pruned g: every block of every
    derivative is translated and multiplied, and `reference_mul` drops the
    products beyond the order."""
    beta = _affine_head(f)
    g, f = _common(g, f)
    delta = f.tail()
    result = translate(g, beta)
    gi = g
    fact = 1.0
    for i, dpow in enumerate(powers(delta), 1):
        gi = derivative(gi)
        if gi.is_zero:
            break
        fact *= i
        term = reference_mul(translate(gi, beta), dpow)
        result = add(result, term.scale(1.0 / fact))
    return result


def reference_s_apply(ops, h: ExpPolySeries) -> ExpPolySeries:
    """`SchroederOperators.s_apply` of `ops` before its Taylor loop pruned
    w, with `reference_mul` for the products."""
    acc = ops.g1.scale_div(ops.lam)
    if h.is_zero:
        return acc
    if h.items[0][0] <= h.L:
        raise OrderTooLow("S requires z-order > 1")
    w = h
    for i, (_, g_pow) in enumerate(ops._factors, 1):
        w = -derivative(w) - w.scale(float(i - 1))
        if w.is_zero:
            break
        coeff = cmath.exp(complex(i) * ops.beta) / (math.factorial(i) * ops.lam)
        term = reference_mul(translate(w, ops.beta), g_pow)
        acc = add(acc, term.scale(coeff))
    return acc


class IterationBudgetExceeded(DulaclinError):
    """The sweeps of `reference_picard_linearize` did not stop within its budget."""


def reference_picard_linearize(f1: ExpPolySeries, beta: complex | None = None) -> LinearizationResult:
    """`linearize.picard_linearize` as a sweep loop, before it kept settled
    blocks and before it solved in one pass: every sweep applies S and T^-1
    to every block, and the loop stops on the step test alone.  It is the
    bit-for-bit reference of the Picard route wherever that test does not
    stop before the blocks settle, which holds on every corpus, deep and
    hypothesis input of the suite.  On a small perturbation a step can fall
    below SOLVER_TOL before the blocks settle, and it stops short of the
    fixed point (1e-6 and 1e-15 do).  An overflowed psi never passes the
    step test and runs into the budget."""
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
    r = conjugacy_residual(phi, from_z_chart(f1, beta=ops.beta), ops.beta)
    res_ord = effective_order(r, SOLVER_TOL * max(scale, phi.max_abs_coeff()) * 100)
    return LinearizationResult(
        phi=phi,
        beta=ops.beta,
        residual=r,
        residual_ord=res_ord,
        algorithm="picard",
    )


def horner(block: CPoly, x: complex) -> complex:
    """The value of a block at x, from acc = 0j: the polynomial evaluator
    `CPoly.__call__` was before series maps were compiled."""
    acc = 0j
    for c in reversed(block.coeffs):
        acc = acc * x + c
    return acc


def interpreted_tail(pairs, zeta: complex) -> complex:
    """The loop `series.evaluate_tail` was before it compiled its series:
    the sum of exp(mu*zeta) * B(zeta) over `pairs` (-float(m), block)."""
    acc = 0j
    for mu, b in pairs:
        acc += cmath.exp(mu * zeta) * horner(b, zeta)
    return acc


def interpreted_series_delta(series: ExpPolySeries, beta: complex):
    """z -> series(z) - z - beta as a series map stepped it before it was
    compiled: the head differenced on its coefficients, then the tail; the
    bit-for-bit reference of `series.evaluate_tail`."""
    rest = series.block(0) - CPoly([beta, 1.0])
    tail = tuple((-float(m), b) for m, b in series.terms if m > 0)

    def delta(z):
        return horner(rest, z) + interpreted_tail(tail, z)
    return delta


def reference_eval(node, z: complex):
    """The value of an exprparse AST at z, node by node and recursively, the
    left operand first and a divisor before its dividend, with the guards of
    the grammar: the reference of `exprparse.compile_ast`'s straight-line
    code, for ASTs shallow enough to recurse."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "zeta":
        return z
    if op == "div":
        den = reference_eval(node[2], z)
        if den == 0:
            raise EvalDomainError("division by zero")
        return reference_eval(node[1], z) / den
    if op in ("add", "sub", "mul"):
        a, b = reference_eval(node[1], z), reference_eval(node[2], z)
        return a + b if op == "add" else a - b if op == "sub" else a * b
    w = reference_eval(node[1] if op in ("neg", "pow") else node[2], z)
    if op == "neg":
        return -w
    if op == "pow":
        if node[2] < 0 and w == 0:
            raise EvalDomainError("zero raised to a negative power")
        return w ** node[2]
    if node[1] == "exp":
        return cmath.exp(w)
    for _ in range(1 if op == "call" else node[1]):  # log, or L1..L9
        if w.real <= 0:
            raise EvalDomainError("log argument has nonpositive real part" if op == "call"
                                  else "iterated log left the right half plane")
        w = cmath.log(w)
    return w


def reference_enclose(node, re, im):
    """The enclosure compile_ast(node, box=True) returns on the rectangle, by
    the AST interpreter that computed it before it was compiled: the nodes
    in postorder from an explicit stack, each dispatched on its operation and
    enclosed by exprparse's interval helpers, the exp rule inline."""
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


def evaluate(a: ExpPolySeries, zeta: complex) -> complex:
    acc = 0j
    for k, b in a.items:
        if k == 0:
            acc += horner(b, zeta)
        else:
            acc += cmath.exp(-(k / a.L) * zeta) * horner(b, zeta)
    return acc


def max_imag(p: CPoly) -> float:
    return max((abs(c.imag) for c in p.coeffs), default=0.0)


def max_imag_coeff(a: ExpPolySeries) -> float:
    return max((max_imag(b) for _, b in a.items), default=0.0)


def check_real_preservation(f: ExpPolySeries) -> bool:
    """True iff the linearization of a real hyperbolic series is real."""
    if max_imag_coeff(f) != 0.0:
        raise ValueError("precondition: f must have all-real coefficients")
    result = linearize_level_by_level(f)
    return max_imag_coeff(result.phi) <= SOLVER_TOL


def kappa(w: complex, C: float) -> complex:
    """w + C*sqrt(w + 1), principal square root."""
    return w + C * cmath.sqrt(w + 1.0)


def quad_boundary_param(r: float, C: float) -> complex:
    """Upper boundary point of the quadratic domain at parameter r >= 0.

    x(r) = C (r^2+1)^(1/4) cos(arctan(r)/2),
    y(r) = r + C (r^2+1)^(1/4) sin(arctan(r)/2);  equals kappa(i r).
    """
    if r < 0:
        raise DomainError("parameter r must be nonnegative")
    half = 0.5 * math.atan(r)
    rad = C * (r * r + 1.0) ** 0.25
    return complex(rad * math.cos(half), r + rad * math.sin(half))


@pytest.fixture
def rng():
    return random.Random(20260808)


def reference_check_invariance(f, region: Region, profile: AsymptoticProfile,
                               n_samples: int = 1000, seed: int = 0, *,
                               stop_at_violation: bool = False) -> InvarianceReport:
    """`domains.check_invariance` as a loop over the samples, one at a time,
    as it was before its uniforms came from one draw and before its lanes:
    each sample takes two scalar `rng.random()` calls.  Every sample is
    checked, unless `stop_at_violation` ends the loop at the first violating
    one."""
    R = max(profile.R, region.cut)
    if isinstance(region, QuadRegion) and R <= region.C:
        raise DomainError("cut must exceed the quadratic-domain constant C")
    rng = np.random.default_rng(seed)
    n_strata = max(1, min(64, n_samples))
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    rows = []
    nb = nr = ng = 0
    worst = math.inf
    for j in range(n_samples):
        u1, u2 = rng.random(), rng.random()
        x = R + INVARIANCE_RE_SPAN * ((j % n_strata) + u1) / n_strata
        # at least one part has cut <= x, as x >= R >= region.cut
        live = [p for p in parts if p.cut <= x]
        lo, hi = live[j % len(live)].im_bounds(x)
        y = lo + (hi - lo) * u2
        zeta = complex(x, y)
        if not region.contains(zeta):  # x >= R: the cut holds
            # boundary-exact draws; resample toward the centerline
            y = 0.5 * (lo + hi)
            zeta = complex(x, y)
        d = f.delta(zeta)
        w = zeta + f.profile.beta + d
        margin = _eq_new_bound(zeta, profile.epsilon, profile.k) - abs(d)
        rect_ok = in_safety_rect(zeta, w, profile)
        region_ok = w.real >= R and region.contains(w)
        worst = min(worst, margin)
        nb += margin < 0
        nr += not rect_ok
        ng += not region_ok
        rows.append((x, y, margin, rect_ok, region_ok))
        if stop_at_violation and (margin < 0 or not (rect_ok and region_ok)):
            break
    return InvarianceReport(
        n_samples=len(rows),
        R=R,
        n_bound_violations=nb,
        n_rect_violations=nr,
        n_region_violations=ng,
        worst_bound_margin=worst,
        rows=rows,
    )


def reference_find_invariant_cut(f, region: Region, profile: AsymptoticProfile,
                                 n_samples: int = 2000, seed: int = 0):
    """`domains.find_invariant_cut` as it was with `reference_check_invariance`:
    every round, failing or not, checks all its samples; the bit-for-bit
    reference of the search's (R, report)."""
    R = profile.R
    if isinstance(region, QuadRegion):
        R = max(R, region.C + 1.0)
    for _ in range(CUT_DOUBLINGS):
        report = reference_check_invariance(f, region, replace(profile, R=R),
                                            n_samples=n_samples, seed=seed)
        if report.passed:
            return R, report
        R *= 2.0
    raise DomainError(f"no invariant cut found up to R = {R}")
