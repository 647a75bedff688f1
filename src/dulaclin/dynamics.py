"""Numeric linearization: orbits, Koenigs limits with certified tails,
homological-equation sums, and decay-slope verification.

Maps carry a split perturbation  f(zeta) = zeta + beta + delta(zeta)  so the
small quantities that drive every estimate are evaluated without catastrophic
cancellation; displacement sums then inherit the relative accuracy of delta.
All certified bounds are floating-point quantities, conditional on the
declared drift profile, and per-step checks validate that hypothesis along
every computed orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import AsymptoticProfile, DomainError, iterated_log_real
from .errors import (
    DecayHypothesisViolated,
    EvalDomainError,
    GrowthBoundViolated,
    InsufficientData,
    NotConverged,
)
from .exprparse import eval_ast, parse_expression, split_affine
from .series import CPoly, ExpPolySeries, evaluate_tail

__all__ = [
    "AnalyticMap",
    "KoenigsResult",
    "SlopeFit",
    "orbit",
    "koenigs_limit",
    "solve_homological_numeric",
    "expansion_residual_check",
    "decay_slope",
    "parse_grid",
]

NOISE_FLOOR = 1e-14


class AnalyticMap:
    """Evaluatable map zeta -> zeta + beta + delta(zeta) with a drift profile.

    `perturbation` evaluates delta directly; when absent it falls back to
    f(zeta) - zeta - beta, which is cancellation-limited and only used for
    expressions that are not top-level sums.
    """

    def __init__(self, evaluator: Callable, profile: AsymptoticProfile,
                 description: str = "", perturbation: Optional[Callable] = None,
                 exact_translation: bool = False):
        self.evaluator = evaluator
        self.profile = profile
        self.description = description
        self.perturbation = perturbation
        self.exact_translation = exact_translation

    def __call__(self, zeta: complex) -> complex:
        return self.evaluator(zeta)

    def delta(self, zeta: complex) -> complex:
        if self.perturbation is not None:
            return self.perturbation(zeta)
        return self.evaluator(zeta) - zeta - complex(self.profile.beta)

    @staticmethod
    def from_expression(text: str, profile: AsymptoticProfile) -> "AnalyticMap":
        ast = parse_expression(text)
        beta = complex(profile.beta)
        split = split_affine(ast, beta)
        if split is None:
            def evaluator(z, _ast=ast):
                return eval_ast(_ast, z)
            return AnalyticMap(evaluator, profile, description=text)
        offset, others = split

        def perturbation(z, _offset=offset, _others=tuple(others)):
            acc = _offset
            for sign, node in _others:
                acc += sign * eval_ast(node, z)
            return acc

        def evaluator(z, _beta=beta, _p=perturbation):
            return z + _beta + _p(z)

        exact = not others and offset == 0
        return AnalyticMap(evaluator, profile, description=text,
                           perturbation=perturbation, exact_translation=exact)

    @staticmethod
    def from_series(series: ExpPolySeries, profile: AsymptoticProfile) -> "AnalyticMap":
        beta = complex(profile.beta)
        rest = _series_offset_poly(series, beta)

        def perturbation(z, _s=series, _rest=rest):
            return _rest(z) + evaluate_tail(_s, z)

        def evaluator(z, _beta=beta, _p=perturbation):
            return z + _beta + _p(z)

        exact = rest.is_zero and series.tail().is_zero
        return AnalyticMap(evaluator, profile, description="<series>",
                           perturbation=perturbation, exact_translation=exact)


@dataclass(frozen=True)
class KoenigsResult:
    value: complex
    n_used: int
    tail_bound: float
    converged: bool
    displacement: complex      # value - zeta, the running sum of the steps delta
    joj_violations: int
    hahh_constant: float       # fitted C in |phi - id| <= C / (log^k Re)^(eps/2)


@dataclass(frozen=True)
class SlopeFit:
    slope: Optional[float]
    intercept: Optional[float]
    n_used: int
    n_floor: int
    n_skipped: int
    exact: bool
    passed: Optional[bool]
    bound: Optional[float]


def orbit(f: AnalyticMap, zeta0: complex, n: int) -> list:
    """[zeta0, f(zeta0), ..., f^n(zeta0)] with the real-part growth check
    Re f^m >= Re zeta0 + m * rho_minus(Re zeta0) asserted at every step."""
    prof = f.profile
    if zeta0.real < prof.R:
        raise DomainError(f"orbit start needs Re >= R = {prof.R}")
    rho = prof.rho_minus(zeta0.real)
    beta = complex(prof.beta)
    pts = [zeta0]
    w = zeta0
    for m in range(1, n + 1):
        w = w + beta + f.delta(w)
        floor = zeta0.real + m * rho
        if w.real < floor - 1e-12 * max(1.0, abs(w)):
            raise GrowthBoundViolated(
                f"Re(f^{m}) = {w.real} below {floor}; profile mismatch")
        pts.append(w)
    return pts


def _bound_funcs(prof: AsymptoticProfile):
    eps, k = prof.epsilon, prof.k
    if k == 0:
        return (lambda y: y ** (-1.0 - eps)), (lambda y: y ** (-eps) / eps)
    return (lambda y: prof.M(y)), (lambda y: prof.M_tail(y))


def koenigs_limit(f: AnalyticMap, zeta: complex, tol: float,
                  max_n: int = 200_000) -> KoenigsResult:
    """Limit of f^n - n*beta at zeta with a certified stopping rule.

    Stops only when the analytic tail bound (per-step envelope M plus its
    integral) and the empirical step are both below `tol`; any per-step
    violation of |f^{n+1} - f^n - beta| <= M(Re + n*rho_minus) voids the
    certificate and the run ends in NotConverged, which is the expected
    outcome for maps outside the hypothesis.
    """
    prof = f.profile
    beta = complex(prof.beta)
    x0 = zeta.real
    if x0 < prof.R:
        raise DomainError(f"Koenigs start needs Re >= R = {prof.R}")
    if f.exact_translation:
        return KoenigsResult(zeta, 1, 0.0, True, 0j, 0, 0.0)
    Mf, Mtail = _bound_funcs(prof)
    rho = prof.rho_minus(x0)
    delta = f.delta
    w = zeta
    disp = 0j
    violations = 0
    tail = math.inf
    step = math.inf
    n = 0
    converged = False
    while n < max_n:
        d = delta(w)
        step = abs(d)
        if step > Mf(x0 + n * rho) * (1.0 + 1e-9):
            violations += 1
        disp += d
        w = w + beta + d
        n += 1
        y = x0 + n * rho
        tail = Mf(y) + Mtail(y) / rho
        if violations == 0 and tail <= tol and step <= tol:
            converged = True
            break
    value = zeta + disp
    logk = iterated_log_real(x0, prof.k) if prof.k > 0 else x0
    result = KoenigsResult(
        value=value,
        n_used=n,
        tail_bound=tail if converged else math.inf,
        converged=converged,
        displacement=disp,
        joj_violations=violations,
        hahh_constant=abs(disp) * logk ** (prof.epsilon / 2.0),
    )
    if not converged:
        reason = ("per-step drift bound violated "
                  f"{violations} times" if violations else "budget exhausted")
        raise NotConverged(f"Koenigs sequence not certified at {zeta}: {reason}",
                           max_n=n, partial=result)
    return result


def solve_homological_numeric(f: AnalyticMap, h: Callable, alpha: float,
                              zeta: complex, tol: float,
                              max_n: int = 100_000, _verify: bool = True) -> complex:
    """psi(zeta) = -sum_n h(f^n(zeta)), solving psi o f - psi = h.

    Requires |h| <= exp(-alpha Re) on the visited orbit (checked pointwise);
    the geometric tail exp(-alpha Re f^n) / (1 - exp(-alpha rho_minus(R)))
    drives the stopping rule, and the defining equation is re-verified at
    zeta to 10*tol with an independent second run.
    """
    prof = f.profile
    if zeta.real < prof.R:
        raise DomainError(f"start point needs Re >= R = {prof.R}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rho = prof.rho_minus(prof.R)
    denom = 1.0 - math.exp(-alpha * rho)
    beta = complex(prof.beta)
    w = zeta
    acc = 0j
    n = 0
    done = False
    while n < max_n:
        hv = h(w)
        if abs(hv) > math.exp(-alpha * w.real) * (1.0 + 1e-9):
            raise DecayHypothesisViolated(
                f"|h| = {abs(hv)} exceeds exp(-alpha Re) at {w}")
        acc += hv
        w = w + beta + f.delta(w)
        n += 1
        if math.exp(-alpha * w.real) / denom <= tol:
            done = True
            break
    if not done:
        raise NotConverged("homological tail did not reach tolerance", max_n=n)
    psi = -acc
    if _verify:
        znext = zeta + beta + f.delta(zeta)
        psi_next = solve_homological_numeric(f, h, alpha, znext, tol,
                                             max_n=max_n, _verify=False)
        resid = abs(psi_next - psi - h(zeta))
        if resid > 10.0 * tol:
            raise NotConverged(f"homological equation residual {resid} > 10*tol")
    return psi


# ---------------------------------------------------------------------------
# slope fits

def _series_offset_poly(series: ExpPolySeries, beta: complex) -> CPoly:
    return series.block(0) - CPoly([complex(beta), 1.0])


def _fit(points, n_floor, n_skipped, bound, slack):
    if not points:
        # everything at the noise floor: residual is exact at double precision
        return SlopeFit(None, None, 0, n_floor, n_skipped, True, True, bound)
    if len(points) < 8:
        raise InsufficientData(f"only {len(points)} usable points")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    passed = None if bound is None else bool(slope <= bound + slack)
    return SlopeFit(float(slope), float(intercept), len(points), n_floor,
                    n_skipped, False, passed, bound)


def expansion_residual_check(f: AnalyticMap, series: ExpPolySeries, nu: float,
                             grid: Sequence[complex],
                             floor: float = NOISE_FLOOR,
                             slack: float = 0.05) -> SlopeFit:
    """Least-squares slope of log|f - series| against Re zeta.

    Passing means slope <= -nu + slack, i.e. the truncation error decays at
    least like exp(-nu Re).  Points below the double-precision noise floor
    are excluded; guard failures are skipped and counted.
    """
    offset = _series_offset_poly(series, f.profile.beta)
    pts = []
    n_floor = n_skipped = 0
    for z in grid:
        try:
            r = f.delta(z) - (offset(z) + evaluate_tail(series, z))
        except EvalDomainError:
            n_skipped += 1
            continue
        a = abs(r)
        if a < floor:
            n_floor += 1
            continue
        pts.append((z.real, math.log(a)))
    return _fit(pts, n_floor, n_skipped, -float(nu), slack)


def decay_slope(f: AnalyticMap, phi_n: ExpPolySeries, grid: Sequence[complex],
                tol: float = 1e-9, exponent=None,
                floor: float = NOISE_FLOOR, slack: float = 0.1) -> SlopeFit:
    """Slope of log|phi_numeric - phi_n| against Re zeta over the grid.

    phi_numeric comes from certified Koenigs runs; the residual is formed
    from displacement sums so its relative accuracy tracks the signal.  With
    `exponent` set, the fit passes when slope <= -exponent + slack.
    """
    res = [z.real for z in grid]
    if max(res) - min(res) < 15.0:
        raise InsufficientData("grid must span at least 15 units of Re")
    offset = _series_offset_poly(phi_n, 0.0)
    pts = []
    n_floor = n_skipped = 0
    for z in grid:
        kr = koenigs_limit(f, z, tol)
        r = kr.displacement - (offset(z) + evaluate_tail(phi_n, z))
        a = abs(r)
        if a < floor:
            n_floor += 1
            continue
        pts.append((z.real, math.log(a)))
    bound = None if exponent is None else -float(exponent)
    return _fit(pts, n_floor, n_skipped, bound, slack)


def parse_grid(spec: str):
    """Grid spec "re0:re1:steps,im0:im1:steps" to a row-major point list."""
    def axis(part):
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError(f"bad grid axis {part!r}")
        lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        if n < 1:
            raise ValueError("grid steps must be >= 1")
        if n == 1:
            return [lo]
        return [lo + (hi - lo) * j / (n - 1) for j in range(n)]

    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad grid spec {spec!r}")
    return [complex(re, im) for re in axis(parts[0]) for im in axis(parts[1])]
