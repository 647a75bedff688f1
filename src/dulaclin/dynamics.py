"""Numeric linearization: orbits, Koenigs limits with certified tails,
homological-equation sums, and decay-slope verification.

Maps carry a split perturbation  f(zeta) = zeta + beta + delta(zeta)  so the
small quantities that drive every estimate are evaluated without catastrophic
cancellation; displacement sums then inherit the relative accuracy of delta.
An AnalyticMap is that delta and its profile: one function, built once with
the map (one compiled expression AST or a series evaluator with its exponents
already floats), that every step calls directly.  The profile holds the rest:
beta as a complex, and the envelope M and its tail integral M_tail.
All certified bounds are floating-point quantities, conditional on the
declared drift profile, and per-step checks validate that hypothesis along
every computed orbit.

One orbit serves two start points: `koenigs_limit(..., with_next=True)`
certifies zeta and zeta + beta + delta(zeta) from one walk, and
`solve_homological_numeric` sums from both with two accumulators.  The
Koenigs envelope is hoisted: per start, a bisection finds the last step
count n_lo whose tail bound exceeds tol by ENVELOPE_MARGIN, and the envelope
at step n_lo - 1, shrunk by that margin, is a floor under every earlier
step's.  A step evaluates M only when |delta| is above the floor or it is
past n_lo, and the tail bound only past n_lo.  The margin covers the
rounding of pow and log, so only the exact envelope must be monotone, not
its floating-point evaluation: every check and every value is the one that
evaluating both at every step gives.

A KoenigsResult is one certified start: zeta and the displacement its walk
summed (the limit value is their sum), the steps used, the tail bound,
whether it converged and the drift violations met.  A SlopeFit is the slope
over the points whose residual is not below NOISE_FLOOR, their count,
`exact` when there are none, and whether the slope passed its bound.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import AsymptoticProfile, DomainError
from .errors import (
    DecayHypothesisViolated,
    DulaclinError,
    InsufficientData,
    NotConverged,
)
from .exprparse import compile_ast, delta_ast, parse_expression
from .series import CPoly, ExpPolySeries, evaluate_tail

__all__ = [
    "AnalyticMap",
    "KoenigsResult",
    "SlopeFit",
    "koenigs_limit",
    "solve_homological_numeric",
    "decay_slope",
    "parse_grid",
]

NOISE_FLOOR = 1e-14
HOMOLOGICAL_MAX_N = 100_000
ENVELOPE_MARGIN = 1e-12  # relative rounding allowance of the hoisted envelope
DECAY_SLACK = 0.1        # slope slack of decay_slope


@dataclass(eq=False)
class AnalyticMap:
    """The map zeta -> zeta + beta + delta(zeta) with a drift profile.

    `delta` is an attribute holding the function zeta -> delta(zeta), so a
    step calls it directly.  An expression's delta is delta_ast's AST,
    compiled: for a top-level sum zeta + ... it is offset +/- t_1 +/- t_2
    ..., otherwise f(zeta) - zeta - beta, which is cancellation-limited.
    """

    delta: Callable
    profile: AsymptoticProfile
    exact_translation: bool = False

    def __call__(self, zeta: complex) -> complex:
        return zeta + self.profile.beta + self.delta(zeta)

    @staticmethod
    def from_expression(text: str, profile: AsymptoticProfile) -> "AnalyticMap":
        delta, exact = delta_ast(parse_expression(text), profile.beta)
        return AnalyticMap(compile_ast(delta), profile, exact)

    @staticmethod
    def from_series(series: ExpPolySeries, profile: AsymptoticProfile) -> "AnalyticMap":
        exact = series.block(0) == CPoly([profile.beta, 1.0]) and series.tail().is_zero
        return AnalyticMap(_series_delta(series, profile.beta), profile, exact)


@dataclass(frozen=True)
class KoenigsResult:
    zeta: complex
    displacement: complex      # the running sum of the steps delta
    n_used: int
    tail_bound: float
    converged: bool
    joj_violations: int
    next: Optional["KoenigsResult"] = None   # with with_next, the orbit's next point

    @property
    def value(self) -> complex:
        return self.zeta + self.displacement


@dataclass(frozen=True)
class SlopeFit:
    slope: Optional[float]     # None when every residual is below NOISE_FLOOR
    n_used: int                # points above the noise floor
    exact: bool
    passed: Optional[bool]     # None without a bound


def _orbit_deltas(f: AnalyticMap, zeta: complex):
    """The steps delta(w_n) of the orbit w_{n+1} = w_n + beta + delta(w_n)
    from w_0 = zeta, each evaluated when it is first asked for."""
    beta = f.profile.beta
    delta = f.delta
    w = zeta
    while True:
        d = delta(w)
        yield d
        w = w + beta + d


def koenigs_limit(f: AnalyticMap, zeta: complex, tol: float,
                  max_n: int = 200_000, *, with_next: bool = False) -> KoenigsResult:
    """Limit of f^n - n*beta at zeta with a certified stopping rule.

    Stops only when the analytic tail bound (per-step envelope M plus its
    integral) and the empirical step are both below `tol`; any per-step
    violation of |f^{n+1} - f^n - beta| <= M(Re + n*rho_minus) voids the
    certificate and the run ends at that step in NotConverged, which is the
    expected outcome for maps outside the hypothesis.  When the tail bound
    after max_n steps is still above `tol`, it ends so before the first step.

    With `with_next`, the same walk also certifies the orbit's next point
    zeta + beta + delta(zeta), with its own envelope, sum and stopping rule,
    into `result.next`.  Errors come in the order of two calls in a row; a
    NotConverged's partial result is zeta's, holding the next point's in
    `next` when only that one failed.
    """
    deltas = _orbit_deltas(f, zeta)
    if not with_next:
        return _certify(f, zeta, deltas, tol, max_n)
    deltas, shifted = itertools.tee(deltas)
    result = _certify(f, zeta, deltas, tol, max_n)
    w1 = zeta + f.profile.beta + next(shifted)
    try:
        return replace(result, next=_certify(f, w1, shifted, tol, max_n))
    except NotConverged as exc:
        exc.partial = replace(result, next=exc.partial)
        raise


def _certify(f: AnalyticMap, zeta: complex, deltas, tol: float, max_n: int) -> KoenigsResult:
    """The Koenigs limit at zeta from `deltas`, the steps of its orbit."""
    prof = f.profile
    x0 = zeta.real
    if x0 < prof.R:
        raise DomainError(f"Koenigs start needs Re >= R = {prof.R}")
    if f.exact_translation:  # -0j is the additive identity, signed zeros included
        return KoenigsResult(zeta, -0j, 1, 0.0, True, 0)
    rho = prof.rho_minus(x0)

    def tail_at(n):
        y = x0 + n * rho
        return prof.M(y) + prof.M_tail(y) / rho

    # the last step count n_lo whose tail bound provably exceeds tol
    n_lo = bisect.bisect(range(1, max_n + 1), False,
                         key=lambda n: tail_at(n) <= tol * (1.0 + ENVELOPE_MARGIN))
    if n_lo == max_n:  # then tail_at(max_n) > tol: no step count within max_n certifies
        raise NotConverged(f"Koenigs sequence not certified at {zeta}: the envelope needs"
                           f" more than {max_n} steps; tail bound {tail_at(max_n):.3e} after"
                           f" {max_n} steps, tol {tol:.3e}",
                           max_n=0, partial=KoenigsResult(zeta, 0j, 0, math.inf, False, 0))
    # at most the drift check's threshold M(x0 + n*rho) * (1 + 1e-9) at every n < n_lo
    floor = (prof.M(x0 + (n_lo - 1) * rho) * (1.0 - ENVELOPE_MARGIN) * (1.0 + 1e-9)
             if n_lo else -1.0)
    disp = 0j
    violated = False
    n = 0
    for d in itertools.islice(deltas, max_n):
        step = abs(d)
        if not step <= floor or n >= n_lo:  # a NaN step is checked, and violates
            bound = prof.M(x0 + n * rho)    # the drift envelope of this step
            violated = not step <= bound * (1.0 + 1e-9)
        disp += d
        n += 1
        if violated:  # the certificate is void from this step on
            break
        if n > n_lo and step <= tol:
            tail = tail_at(n)
            if tail <= tol:
                return KoenigsResult(zeta, disp, n, tail, True, 0)
    reason = (f"per-step drift bound violated, first at step {n}: |delta| = {step:.3e}"
              f" > M = {bound:.3e}" if violated else "budget exhausted")
    raise NotConverged(f"Koenigs sequence not certified at {zeta}: {reason}; after {n}"
                       f" steps tail bound {tail_at(n):.3e}, step {step:.3e}, tol {tol:.3e}",
                       max_n=n, partial=KoenigsResult(zeta, disp, n, math.inf, False,
                                                      int(violated)))


def solve_homological_numeric(f: AnalyticMap, h: Callable, alpha: float,
                              zeta: complex, tol: float, with_next: bool = False):
    """psi(zeta) = -sum_n h(f^n(zeta)), solving psi o f - psi = h.

    Requires |h| <= exp(-alpha Re) on the visited orbit (checked pointwise,
    so a NaN value of h is DecayHypothesisViolated at its point); the
    geometric tail exp(-alpha Re f^n) / (1 - exp(-alpha rho_minus(R))) drives
    the stopping rule.  A second accumulator sums psi at the next orbit
    point w1 = zeta + beta + delta(zeta) along the same walk; its sum ends
    at the same orbit point as zeta's, or, when zeta's ends after one term,
    at the next one whose tail is below tol.  The defining equation is
    verified at zeta to 10*tol: a larger or NaN residual is NotConverged.
    With `with_next`, returns (psi(zeta), psi(w1)).
    """
    prof = f.profile
    if zeta.real < prof.R:
        raise DomainError(f"start point needs Re >= R = {prof.R}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rho = prof.rho_minus(prof.R)
    denom = 1.0 - math.exp(-alpha * rho)
    beta = prof.beta
    delta = f.delta
    w = zeta
    acc = acc_next = 0j
    psi = None
    envelope = math.exp(-alpha * w.real)    # exp(-alpha Re w) at the current w
    for n in range(1, HOMOLOGICAL_MAX_N + 2):
        hv = h(w)
        if not abs(hv) <= envelope * (1.0 + 1e-9):  # a NaN h violates too
            if n > 1 and not cmath.isfinite(w):  # the map left the plane, not h
                raise _non_finite_step(f, zeta)
            raise DecayHypothesisViolated(
                f"|h| = {abs(hv)} exceeds exp(-alpha Re) at {w}")
        acc += hv
        if n > 1:
            acc_next += hv
        w = w + beta + delta(w)
        if n == 1:
            w1 = w
        envelope = math.exp(-alpha * w.real)
        tail = envelope / denom
        if psi is None and (tail <= tol or n == HOMOLOGICAL_MAX_N):
            if tail > tol:
                raise NotConverged(f"homological tail {tail:.3e} above tol {tol:.3e}"
                                   f" after {n} terms", max_n=n)
            psi = -acc
            if w1.real < prof.R:
                raise DomainError(f"start point needs Re >= R = {prof.R}")
        if n > 1 and tail <= tol:
            if not cmath.isfinite(w):  # at Re = +inf, h and its envelope are both 0
                raise _non_finite_step(f, zeta)
            break
    else:
        raise NotConverged(f"homological tail {tail:.3e} above tol {tol:.3e}"
                           f" after {n - 1} terms", max_n=n - 1)
    psi_next = -acc_next
    resid = abs(psi_next - psi - h(zeta))
    if not resid <= 10.0 * tol:  # a NaN residual fails too
        raise NotConverged(f"homological equation residual {resid} > 10*tol")
    return (psi, psi_next) if with_next else psi


def _non_finite_step(f: AnalyticMap, zeta: complex) -> DulaclinError:
    """The error naming the first step of zeta's orbit to a non-finite point."""
    last, step = zeta, 1
    while cmath.isfinite(nxt := f(last)):
        last, step = nxt, step + 1
    return DulaclinError(f"map step {step} from {last} is not finite: {nxt}")


# ---------------------------------------------------------------------------
# slope fits

def _series_delta(series: ExpPolySeries, beta: complex) -> Callable:
    """z -> series(z) - z - beta, the head differenced on its coefficients."""
    rest = series.block(0) - CPoly([beta, 1.0])
    tail = tuple((-float(m), b) for m, b in series.terms if m > 0)

    def delta(z):
        return rest(z) + evaluate_tail(tail, z)
    return delta


def _fit(grid, residuals, bound, slack):
    """Least-squares slope of log|r| against Re zeta over the points whose
    residual is not below the double-precision noise floor."""
    pts = [(z.real, math.log(abs(r))) for z, r in zip(grid, residuals, strict=True)
           if not abs(r) < NOISE_FLOOR]
    if not pts:
        # everything at the noise floor: residual is exact at double precision
        return SlopeFit(None, 0, True, True)
    if len(pts) < 8:
        raise InsufficientData(f"only {len(pts)} usable points")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, _ = np.polyfit(xs, ys, 1)
    passed = None if bound is None else bool(slope <= bound + slack)
    return SlopeFit(float(slope), len(pts), False, passed)


def decay_slope(displacements: Sequence[complex], phi_n: ExpPolySeries,
                grid: Sequence[complex], exponent=None) -> SlopeFit:
    """Slope of log|phi_numeric - phi_n| against Re zeta over the grid.

    `displacements` holds `koenigs_limit(f, z, tol).displacement` for each
    grid point z, so the residual's relative accuracy tracks the signal.
    With `exponent` set, the fit passes when slope <= -exponent + DECAY_SLACK.
    """
    res = [z.real for z in grid]
    if max(res) - min(res) < 15.0:
        raise InsufficientData("grid must span at least 15 units of Re")
    phi_delta = _series_delta(phi_n, 0.0)
    residuals = [d - phi_delta(z) for d, z in zip(displacements, grid, strict=True)]
    bound = None if exponent is None else -float(exponent)
    return _fit(grid, residuals, bound, DECAY_SLACK)


def parse_grid(spec: str):
    """Grid spec "re0:re1:steps,im0:im1:steps" to a row-major list of finite points."""
    def axis(part):
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError(f"bad grid axis {part!r}")
        lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
        if n < 1:
            raise ValueError("grid steps must be >= 1")
        pts = [lo] if n == 1 else [lo + (hi - lo) * j / (n - 1) for j in range(n)]
        if not all(map(math.isfinite, [lo, hi, *pts])):  # also hi - lo overflowing
            raise ValueError(f"non-finite grid value in {part!r}")
        return pts

    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad grid spec {spec!r}")
    return [complex(re, im) for re in axis(parts[0]) for im in axis(parts[1])]
