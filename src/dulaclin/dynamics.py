"""Numeric linearization: orbits, Koenigs limits with certified tails,
homological-equation sums, and decay-slope verification.

Maps carry a split perturbation  f(zeta) = zeta + beta + delta(zeta)  so the
small quantities that drive every estimate are evaluated without catastrophic
cancellation; displacement sums then inherit the relative accuracy of delta.
An AnalyticMap is that delta and its profile: one function, compiled once
with the map (an expression's AST, or a series' straight-line evaluator from
`series.evaluate_tail`), that every step calls directly, and the AST of its
operations.  The profile holds the rest: beta as a complex, and the envelope
M and its tail integral M_tail.
All certified bounds are floating-point quantities, conditional on the
declared drift profile, and per-step checks validate that hypothesis along
every computed orbit.

One orbit serves two start points: `koenigs_limit(..., with_next=True)`
certifies zeta and zeta + beta + delta(zeta), and `solve_homological_numeric`
sums from both, each in one loop over the orbit with two accumulators.  The
Koenigs envelope is hoisted: a bisection finds the last step count n_lo whose
tail bound exceeds tol by ENVELOPE_MARGIN, memoized per profile, Re, tol and
budget, so the starts of a grid that share Re share it, and the envelope
at step n_lo - 1, shrunk by that margin, is a floor under every earlier
step's.  A step takes |delta| once; it evaluates a start's M only when
|delta| is above that start's floor or the step is past its n_lo, and the
tail bound only past n_lo, so every step before n_lo only sums.  The margin
covers the rounding of pow and log, so only the exact envelope must be
monotone, not its floating-point evaluation: every check and every value is
the one that evaluating both at every step gives.

The germs are exponentially flat: from about Re 45 on, some 2,700 steps
before n_lo, adding delta returns the sums and the point w + beta unchanged.
Once a step's delta is that small, the walk encloses delta
(`exprparse.enclose`) on a rectangle bounding the points w + beta up to n_lo,
and jumps there, the points summed by `np.add.accumulate`, when `_absorbed`
proves that for every step and the enclosure is below half the floor; else it
tries again after 32, 64, ... more steps.  Every result, message and error is
the full walk's.  A map without an AST walks every step.

A grid of homological starts walks at once: solve_homological_grid makes each
start a lane of float64 arrays, evaluates delta and h on the walking lanes
through exprparse.compile_lanes (num, zeta, neg, add, sub, mul and exp
nodes), and drops each lane as it ends.  It returns the leading starts whose
lanes passed cleanly, bit for bit the scalar solver's; from the first other
start on, the scalar solver runs and raises what it raises.  A map or h with
any other node is solved point by point.

A KoenigsResult is one certified start: zeta and the displacement its walk
summed (the limit value is their sum), the steps used, the tail bound,
whether it converged and the drift violations met.  A SlopeFit is the slope
over the points whose residual is not below NOISE_FLOOR, their count,
`exact` when there are none, and whether the slope passed its bound.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import AsymptoticProfile, DomainError
from .errors import (
    DecayHypothesisViolated,
    DulaclinError,
    InsufficientData,
    NotConverged,
)
from .exprparse import (
    compile_ast,
    compile_lanes,
    complex_lanes,
    delta_ast,
    enclose,
    exp_lanes,
    parse_expression,
)
from .series import CPoly, ExpPolySeries, evaluate_tail

__all__ = [
    "AnalyticMap",
    "KoenigsResult",
    "SlopeFit",
    "koenigs_limit",
    "solve_homological_numeric",
    "solve_homological_grid",
    "decay_slope",
    "parse_grid",
]

NOISE_FLOOR = 1e-14
HOMOLOGICAL_MAX_N = 100_000
LANE_STEPS = 1_000       # steps of the batched homological walk; a lane still walking goes on alone
DECAY_MARGIN = 1e-12     # relative margin by which np.hypot must pass a lane's decay check
ENVELOPE_MARGIN = 1e-12  # relative rounding allowance of the hoisted envelope
DECAY_SLACK = 0.1        # slope slack of decay_slope


@dataclass(eq=False)
class AnalyticMap:
    """The map zeta -> zeta + beta + delta(zeta) with a drift profile.

    `delta` is an attribute holding the function zeta -> delta(zeta), so a
    step calls it directly.  An expression's delta is delta_ast's AST,
    compiled: for a top-level sum zeta + ... it is offset +/- t_1 +/- t_2
    ..., otherwise f(zeta) - zeta - beta, which is cancellation-limited.
    `ast`, the AST of the operations `delta` performs, lets a Koenigs walk
    skip the steps where delta provably changes nothing; a map built from a
    bare callable has none.
    """

    delta: Callable
    profile: AsymptoticProfile
    exact_translation: bool = False
    ast: Optional[tuple] = None

    def __call__(self, zeta: complex) -> complex:
        return zeta + self.profile.beta + self.delta(zeta)

    @staticmethod
    def from_expression(text: str, profile: AsymptoticProfile) -> "AnalyticMap":
        delta, exact = delta_ast(parse_expression(text), profile.beta)
        return AnalyticMap(compile_ast(delta), profile, exact, delta)

    @staticmethod
    def from_series(series: ExpPolySeries, profile: AsymptoticProfile) -> "AnalyticMap":
        exact = series.block(0) == CPoly([profile.beta, 1.0]) and series.tail().is_zero
        delta, ast = evaluate_tail(series, profile.beta)
        return AnalyticMap(delta, profile, exact, ast)


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


def _span(s: float, c: float, k: int) -> tuple:
    """An interval holding s and every float that adding c to it k times in
    a row passes through.  With a = |s| + k|c| and k < 2**50, each sum is
    below 2a, so it rounds by at most half an ulp of 2a; the end s + k*c is
    computed within one such ulp, and nextafter covers the rounding of the
    bounds.  Adding 0 changes no s but -0.0, which equals 0.0."""
    if c == 0:
        return s, s
    a = abs(s) + k * abs(c)
    e = (k + 2) * math.ulp(2.0 * a)
    end = s + k * c
    return math.nextafter(min(s, end) - e, -math.inf), math.nextafter(max(s, end) + e, math.inf)


def _absorbed(iv, span, *sums) -> bool:
    """Whether adding any float of the interval iv to any x in span, or to
    any of sums, returns x or that sum: iv holds only +/-0, which moves only
    -0.0, or span excludes 0 and 4*max|iv| < ulp(a) for each such a, so that
    round to nearest returns a (4*m is exact; ulp(a)/4 may round to 0)."""
    m = max(map(abs, iv))
    return not m or not span[0] <= 0.0 <= span[1] and all(
        4.0 * m < math.ulp(a) for a in (min(map(abs, span)), *sums))


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

    With `f.ast`, the steps before n_lo whose delta provably changes neither
    the sums nor the orbit's points are skipped, so the result is the same.
    """
    prof = f.profile
    if f.exact_translation:  # -0j is the additive identity, signed zeros included
        _check_start(prof, zeta)
        result = KoenigsResult(zeta, -0j, 1, 0.0, True, 0)
        return replace(result, next=koenigs_limit(f, f(zeta), tol, max_n)) if with_next else result
    first = _Certificate(prof, zeta, 0, tol, max_n)
    second = result = result_next = None
    beta, delta, node = prof.beta, f.delta, f.ast
    w, disp, disp_next = zeta, 0j, 0j
    # a step takes the full path when it is above a walking start's floor or
    # past its n_lo; the first one always does, to set up the next point
    floor, lo = first.floor, 0
    j, retry, gap = 0, 0, 16  # a failed try costs some 30 steps: retry after 32, 64, ...
    while True:  # each start ends within its budget, so the loop ends by break
        d = delta(w)
        step = abs(d)
        disp += d
        disp_next += d
        if not step <= floor or j >= lo:  # a NaN step is checked too
            if result is None:
                result = first.advance(j, step, disp)
                if isinstance(result, NotConverged):
                    raise result  # zeta's error comes first
            if j == 0 and with_next:
                disp_next = 0j  # the next point's sum starts at its own first step
                try:
                    second = _Certificate(prof, w + beta + d, 1, tol, max_n)
                except (DomainError, NotConverged) as exc:
                    result_next = exc
            elif second is not None and result_next is None:
                result_next = second.advance(j, step, disp_next)
            walking = [c for c, r in ((first, result), (second, result_next))
                       if c is not None and r is None]
            if not walking:
                break
            floor = min(c.floor for c in walking)
            lo = min(c.start + c.n_lo for c in walking)
        elif node is not None and j >= retry and lo - j > 1 and all(
                not v or 4.0 * step < min(math.ulp(a), math.ulp(b)) for v, a, b in
                ((d.real, disp.real, disp_next.real), (d.imag, disp.imag, disp_next.imag))):
            # a step that both sums absorb, floor >= 0: steps j + 1 .. lo - 1
            # only sum.  If their delta changes no sum (never -0.0) nor point
            # w + beta (Re > 0, Im -0.0 only if Im w and Im beta are), the
            # points are w_{j+1} .. w_lo and the sums keep their values.
            last, k = w + beta + d, lo - j - 2
            im = last.imag + beta.imag
            rect = _span(last.real, beta.real, k + 1), _span(last.imag, beta.imag, k + 1)
            if (im or math.copysign(1.0, im) > 0.0) and (box := enclose(node, *rect)) \
                    and 2.0 * max(map(abs, (*box[0], *box[1]))) <= floor \
                    and _absorbed(box[0], rect[0], disp.real, disp_next.real) \
                    and _absorbed(box[1], rect[1], disp.imag, disp_next.imag):
                run = np.full(k + 2, beta)
                run[0] = last
                w, j = complex(np.add.accumulate(run)[-1]), lo
                continue
            gap *= 2
            retry = j + gap
        w = w + beta + d
        j += 1
    if not with_next:
        return result
    if isinstance(result_next, NotConverged):
        result_next.partial = replace(result, next=result_next.partial)
    if isinstance(result_next, Exception):
        raise result_next
    return replace(result, next=result_next)


def _check_start(prof: AsymptoticProfile, zeta: complex):
    if zeta.real < prof.R:
        raise DomainError(f"Koenigs start needs Re >= R = {prof.R}")


def _tail(prof: AsymptoticProfile, x0: float, rho: float, n: int) -> float:
    """The Koenigs tail bound after n steps from Re x0."""
    y = x0 + n * rho
    return prof.M(y) + prof.M_tail(y) / rho


@lru_cache(maxsize=64)  # a grid's starts that share Re come in a row
def _cut(prof: AsymptoticProfile, x0: float, tol: float, max_n: int) -> tuple:
    """(n_lo, floor) of a start at Re x0, memoized: the last step count
    whose tail bound provably exceeds tol, and a floor under the drift check
    at every step before it."""
    rho = prof.rho_minus(x0)
    n_lo = bisect.bisect(range(1, max_n + 1), False,
                         key=lambda n: _tail(prof, x0, rho, n) <= tol * (1.0 + ENVELOPE_MARGIN))
    # M(x0 + n*rho) * (1 + 1e-9) at every n < n_lo is at least this
    return n_lo, (prof.M(x0 + (n_lo - 1) * rho) * (1.0 - ENVELOPE_MARGIN) * (1.0 + 1e-9)
                  if n_lo else -1.0)


class _Certificate:
    """The stopping rule of one Koenigs start, whose first step is the
    orbit's step `start`: its drift envelope and tail bound, the last step
    count n_lo whose tail bound provably exceeds tol, and `floor`, at most
    the drift check's threshold at every step before n_lo."""

    __slots__ = ("prof", "zeta", "start", "tol", "budget", "x0", "rho", "n_lo", "floor")

    def __init__(self, prof: AsymptoticProfile, zeta: complex, start: int, tol: float,
                 max_n: int):
        _check_start(prof, zeta)
        self.prof, self.zeta, self.start, self.tol, self.budget = prof, zeta, start, tol, max_n
        self.x0 = zeta.real
        self.rho = prof.rho_minus(self.x0)
        self.n_lo, self.floor = _cut(prof, self.x0, tol, max_n)
        if self.n_lo == max_n:  # then tail_at(max_n) > tol: no step count within max_n certifies
            raise NotConverged(f"Koenigs sequence not certified at {zeta}: the envelope needs"
                               f" more than {max_n} steps; tail bound {self.tail_at(max_n):.3e}"
                               f" after {max_n} steps, tol {tol:.3e}",
                               max_n=0, partial=KoenigsResult(zeta, 0j, 0, math.inf, False, 0))

    def tail_at(self, n: int) -> float:
        return _tail(self.prof, self.x0, self.rho, n)

    def advance(self, j: int, step: float, disp: complex):
        """The outcome of the orbit's step j, of size `step`, that brings this
        start's sum to `disp`: None to walk on, the KoenigsResult once it is
        certified, or the NotConverged that ends it uncertified."""
        n = j - self.start
        violated = False
        if not step <= self.floor or n >= self.n_lo:  # a NaN step is checked, and violates
            bound = self.prof.M(self.x0 + n * self.rho)  # the drift envelope of this step
            violated = not step <= bound * (1.0 + 1e-9)
        n += 1
        if violated:  # the certificate is void from this step on
            reason = (f"per-step drift bound violated, first at step {n}: |delta| = {step:.3e}"
                      f" > M = {bound:.3e}")
        elif n > self.n_lo and step <= self.tol and (tail := self.tail_at(n)) <= self.tol:
            return KoenigsResult(self.zeta, disp, n, tail, True, 0)
        elif n < self.budget:
            return None
        else:
            reason = "budget exhausted"
        return NotConverged(f"Koenigs sequence not certified at {self.zeta}: {reason}; after {n}"
                            f" steps tail bound {self.tail_at(n):.3e}, step {step:.3e},"
                            f" tol {self.tol:.3e}", max_n=n,
                            partial=KoenigsResult(self.zeta, disp, n, math.inf, False,
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
    verified at zeta to 10*tol, with the sum's own first term h(zeta): a
    larger or NaN residual is NotConverged.  With `with_next`, returns
    (psi(zeta), psi(w1), that residual |psi(w1) - psi(zeta) - h(zeta)|).
    """
    prof = f.profile
    if zeta.real < prof.R:
        raise DomainError(f"start point needs Re >= R = {prof.R}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    denom = 1.0 - math.exp(-alpha * prof.rho)
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
            h0, w1 = hv, w
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
    resid = abs(psi_next - psi - h0)
    if not resid <= 10.0 * tol:  # a NaN residual fails too
        raise NotConverged(f"homological equation residual {resid} > 10*tol")
    return (psi, psi_next, resid) if with_next else psi


def solve_homological_grid(f: AnalyticMap, h_ast, alpha: float, grid: Sequence[complex],
                           tol: float) -> list:
    """solve_homological_numeric(f, compile_ast(h_ast), alpha, z, tol,
    with_next=True) at the leading points of `grid`, all walked at once.

    Each point is a lane of float64 arrays that compile_lanes evaluates delta
    and h on; the lanes take their orbit steps together, and a lane that ends
    is dropped.  Returns the (psi, psi_next, residual) of grid[:k], bit for bit
    the scalar calls', where k is the first point whose lane did not pass
    cleanly, so that the scalar solver from grid[k] on completes the grid.  A
    lane passes cleanly unless a value on it is not finite, an exp has a
    `bad` flag (the envelope's too), the start or its image is below R,
    np.hypot does not decide a decay check by DECAY_MARGIN, it is still
    walking after HOMOLOGICAL_MAX_N + 1 or LANE_STEPS steps, or the residual,
    Python's abs of psi_next - psi - h(zeta), is above 10*tol.  A node of
    delta or h that compile_lanes does not take makes k 0.
    """
    prof = f.profile
    delta = None if f.ast is None else compile_lanes(f.ast)
    h = compile_lanes(h_ast)
    denom = 1.0 - math.exp(-alpha * prof.rho) if alpha > 0 else 0.0
    if delta is None or h is None or not denom:  # the scalar solver raises on either
        return []
    beta, max_n, k = prof.beta, HOMOLOGICAL_MAX_N, len(grid)
    z = np.array(grid, complex)
    lane = np.arange(k)  # the grid index of each walking lane
    wr, wi = z.real, z.imag
    sr = si = nr = ni = np.zeros(k)  # psi's sum and psi_next's, real and imaginary parts
    out = np.empty((6, k))  # by grid index: psi's sum where it ends, psi_next's, h(zeta)
    psi_set = np.zeros(k, bool)
    with np.errstate(all="ignore"):
        env, _, bad = exp_lanes(-alpha * wr, 0.0)  # exp(-alpha Re w), as math.exp gives it
        ok = ~bad & (wr >= prof.R)
        for n in range(1, min(max_n + 1, LANE_STEPS) + 1):
            hr, hi, bad = h(wr, wi)
            lim = env * (1.0 + 1e-9)
            size = np.hypot(hr, hi)  # a subnormal limit leaves no relative margin
            ok &= ~bad & (size <= lim * (1.0 - DECAY_MARGIN)) & (
                (lim >= 2.0 ** -1022) | (size == 0.0))
            sr, si = sr + hr, si + hi
            if n == 1:
                out[4], out[5] = hr, hi
            else:
                nr, ni = nr + hr, ni + hi
            dr, di, bad = delta(wr, wi)
            wr, wi = wr + beta.real + dr, wi + beta.imag + di
            ok &= ~bad & np.isfinite(wr) & np.isfinite(wi)
            if n == 1:
                ok &= wr >= prof.R
            env, _, bad = exp_lanes(-alpha * wr, 0.0)
            below = env / denom <= tol
            ok &= ~bad
            if n == max_n:  # psi's sum must end here
                ok &= psi_set | below
            if not ok.all():
                k = min(k, lane[~ok].min())
            ends = below & ~psi_set  # psi's sum ends at its first tail below tol
            out[0, lane[ends]], out[1, lane[ends]] = sr[ends], si[ends]
            psi_set |= below
            done = below & ok & (n > 1)  # both sums ended
            out[2, lane[done]], out[3, lane[done]] = nr[done], ni[done]
            keep = ok & ~done & (lane < k)
            if not keep.all():
                wr, wi, env, sr, si, nr, ni, lane, psi_set, ok = (
                    a[keep] for a in (wr, wi, env, sr, si, nr, ni, lane, psi_set, ok))
            if not lane.size:
                break
        else:
            k = min(k, lane.min())  # still walking
    psi = complex_lanes(-out[0, :k], -out[1, :k])
    psi_next = complex_lanes(-out[2, :k], -out[3, :k])
    gap = complex_lanes((psi_next.real - psi.real) - out[4, :k],
                        (psi_next.imag - psi.imag) - out[5, :k])
    rows = []
    for p, q, d in zip(psi.tolist(), psi_next.tolist(), gap.tolist()):
        resid = abs(d)
        if not resid <= 10.0 * tol:
            break
        rows.append((p, q, resid))
    return rows


def _non_finite_step(f: AnalyticMap, zeta: complex) -> DulaclinError:
    """The error naming the first step of zeta's orbit to a non-finite point."""
    last, step = zeta, 1
    while cmath.isfinite(nxt := f(last)):
        last, step = nxt, step + 1
    return DulaclinError(f"map step {step} from {last} is not finite: {nxt}")


# ---------------------------------------------------------------------------
# slope fits

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
    phi_delta = evaluate_tail(phi_n, 0.0)[0]
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
