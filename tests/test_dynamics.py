import cmath
import math
import time
from dataclasses import replace
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dulaclin.dynamics
from dulaclin.domains import AsymptoticProfile
from dulaclin.dynamics import (
    ENVELOPE_MARGIN,
    KoenigsResult,
    AnalyticMap,
    SlopeFit,
    _fit,
    decay_slope,
    koenigs_limit,
    parse_grid,
    solve_homological_grid,
    solve_homological_numeric,
)
from dulaclin.errors import (
    DecayHypothesisViolated,
    DomainError,
    DulaclinError,
    EvalDomainError,
    InsufficientData,
    NotConverged,
)
from dulaclin.exprparse import compile_ast, parse_expression
from dulaclin.linearize import linearize_level_by_level, partial_sums
from dulaclin.series import ExpPolySeries, evaluate_tail

PROF = AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)
FIXTURE = "zeta + 1 + exp(-zeta)"


def koenigs_displacements(f, grid):
    return [koenigs_limit(f, z, 1e-9).displacement for z in grid]


def fixture_map(profile=PROF):
    return AnalyticMap.from_expression(FIXTURE, profile)


def tail_after(prof, x0, n):
    """The Koenigs tail bound after n steps from Re = x0."""
    rho = prof.rho_minus(x0)
    y = x0 + n * rho
    return prof.M(y) + prof.M_tail(y) / rho


class GrowthBoundViolated(DulaclinError):
    """An orbit step fell short of the guaranteed real-part growth."""


def orbit(f: AnalyticMap, zeta0: complex, n: int) -> list:
    """[zeta0, f(zeta0), ..., f^n(zeta0)] with the real-part growth check
    Re f^m >= Re zeta0 + m * rho_minus(Re zeta0) asserted at every step."""
    prof = f.profile
    if zeta0.real < prof.R:
        raise DomainError(f"orbit start needs Re >= R = {prof.R}")
    rho = prof.rho_minus(zeta0.real)
    pts = [zeta0]
    w = zeta0
    for m in range(1, n + 1):
        w = f(w)
        floor = zeta0.real + m * rho
        if w.real < floor - 1e-12 * max(1.0, abs(w)):
            raise GrowthBoundViolated(
                f"Re(f^{m}) = {w.real} below {floor}; profile mismatch")
        pts.append(w)
    return pts


class TestOrbit:
    def test_exact_translation(self):
        f = AnalyticMap.from_expression("zeta + 1", AsymptoticProfile(1 + 0j, 1.0, 0, 2.0))
        pts = orbit(f, 5 + 2j, 4)
        assert pts == [5 + 2j, 6 + 2j, 7 + 2j, 8 + 2j, 9 + 2j]

    def test_single_step_value(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)
        f = AnalyticMap.from_expression(FIXTURE, prof)
        pts = orbit(f, 5 + 0j, 1)
        assert abs(pts[1] - (6 + math.exp(-5))) < 1e-14

    def test_growth_bound_checked(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)
        f = AnalyticMap.from_expression(FIXTURE, prof)
        rho = prof.rho_minus(5.0)
        pts = orbit(f, 5 + 0j, 10)
        for m, w in enumerate(pts):
            assert w.real >= 5.0 + m * rho - 1e-12

    def test_growth_violation_raises(self):
        # the step 1 - 0.2/x drops below rho_minus = 1 - x^-2
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        f = AnalyticMap.from_expression("zeta + 1 - 0.2/zeta", prof)
        with pytest.raises(GrowthBoundViolated):
            orbit(f, 10 + 0j, 3)

    def test_start_below_cut(self):
        with pytest.raises(DomainError):
            orbit(fixture_map(), 2 + 0j, 1)


class TestKoenigs:
    def test_exact_translation_shortcut(self):
        f = AnalyticMap.from_expression("zeta + 1", AsymptoticProfile(1 + 0j, 1.0, 0, 2.0))
        res = koenigs_limit(f, 9 + 1j, 1e-12)
        assert res.value == 9 + 1j and res.n_used == 1 and res.tail_bound == 0.0

    def test_against_high_n_oracle(self):
        # ground truth: plain 200-fold iteration of the expression
        res = koenigs_limit(fixture_map(), 10 + 0j, 1e-10)
        w = 10 + 0j
        for _ in range(200):
            w = w + 1 + cmath.exp(-w)
        oracle = w - 200
        assert abs(res.value - oracle) <= 10 * math.exp(-20)
        assert res.converged and res.tail_bound <= 1e-10

    def test_value_against_formal_first_level(self):
        res = koenigs_limit(fixture_map(), 10 + 0j, 1e-10)
        q = 1.0 / (1.0 - math.exp(-1))
        assert abs(res.value - (10 + q * math.exp(-10))) <= 10 * math.exp(-20)

    def test_linearization_functional_equation(self):
        f = fixture_map()
        for z in (8 + 0j, 12 + 3j, 15 - 2j):
            a = koenigs_limit(f, z, 1e-9)
            b = koenigs_limit(f, f(z), 1e-9)
            assert abs(b.value - a.value - 1.0) <= 3e-9

    def test_uniqueness_two_start_points(self):
        f = fixture_map()
        tol = 1e-9
        a = koenigs_limit(f, 9 + 1j, tol)
        b = koenigs_limit(f, f(9 + 1j), tol)
        assert abs(b.value - (a.value + 1.0)) <= 2 * tol

    def test_tangency_to_identity(self):
        f = fixture_map()

        def gap(x):
            # |phi - id| at x, from the displacement, which keeps its
            # relative accuracy where phi(x) - x is below the ulp of x
            return abs(koenigs_limit(f, complex(x, 0), 1e-9).displacement)

        # envelope |phi - id| <= C / Re^(eps/2), with C fitted once at Re = 8
        C = gap(8.0) * 8.0 ** (PROF.epsilon / 2)
        prev = gap(8.0)
        for x in (12.0, 16.0, 24.0, 40.0):
            g = gap(x)
            assert 0 < g < prev  # monotone decay toward tangency
            assert g <= C / x ** (PROF.epsilon / 2)
            prev = g

    def test_real_ray_stays_real(self):
        res = koenigs_limit(fixture_map(), 11 + 0j, 1e-9)
        assert res.value.imag == 0.0

    def test_per_step_bound_never_fails_on_fixture(self):
        res = koenigs_limit(fixture_map(), 8 + 0j, 1e-9)
        assert res.joj_violations == 0

    def test_divergent_map_not_converged(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 10.0)
        f = AnalyticMap.from_expression("zeta + 1 + 1/zeta", prof)
        # at tol 1e-9 the tail bound after 20000 steps is above tol: no walk
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 10 + 0j, 1e-9, max_n=20000)
        assert err.value.partial.n_used == 0 and err.value.max_n == 0
        assert str(err.value).endswith("the envelope needs more than 20000 steps;"
                                       " tail bound 5.099e-05 after 20000 steps, tol 1.000e-09")
        # at tol 1e-3 the walk starts and ends at the first violating step
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 10 + 0j, 1e-3, max_n=20000)
        assert err.value.partial.joj_violations > 0
        # the reason names the first violating step and the final values
        msg = str(err.value)
        assert "violated, first at step 1: |delta| = 1.000e-01 > M = 1.000e-02" in msg
        assert msg.endswith("after 1 steps tail bound 1.002e-01, step 1.000e-01, tol 1.000e-03")

    def test_nan_step_violates_at_once(self):
        f = AnalyticMap.from_expression("zeta + 1 + 0*(zeta*1e300*1e300)", PROF)
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 8 + 0j, 1e-9)
        assert err.value.partial.n_used == 1 and err.value.partial.joj_violations == 1
        assert "violated, first at step 1: |delta| = nan > M = 6.905e-04" in str(err.value)

    @pytest.mark.parametrize("eps", [1.0, 2.5])
    def test_divergent_control_ends_fast(self, eps):
        # eps 1: the budget cannot reach tol; eps 2.5: step 1 violates the envelope
        f = AnalyticMap.from_expression("zeta + 1 + 1/zeta", AsymptoticProfile(1, eps, 0, 10.0))
        t0 = time.perf_counter()
        with pytest.raises(NotConverged):
            koenigs_limit(f, 10 + 0j, 1e-9)
        assert time.perf_counter() - t0 < 0.05

    def test_exhausted_budget_message(self):
        f = fixture_map()
        tail5 = tail_after(PROF, 12.0, 5)
        # the tail bound after 5 steps is above tol 1e-9, so the walk never starts
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 12 + 0j, 1e-9, max_n=5)
        assert str(err.value).endswith(f"the envelope needs more than 5 steps; tail bound"
                                       f" {tail5:.3e} after 5 steps, tol 1.000e-09")
        # a tol inside the envelope's rounding margin below that bound: the
        # walk starts and spends the budget
        tol = tail5 * (1 - 5e-13)
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 12 + 0j, tol, max_n=5)
        msg = str(err.value)
        assert f"budget exhausted; after 5 steps tail bound {tail5:.3e}" in msg
        assert float(msg.split("tail bound ")[1].split(",")[0]) > 1e-9
        last_step = abs(f.delta(orbit(f, 12 + 0j, 4)[-1]))
        assert msg.endswith(f"step {last_step:.3e}, tol {tol:.3e}")

    def test_start_below_cut(self):
        with pytest.raises(DomainError):
            koenigs_limit(fixture_map(), 3 + 0j, 1e-9)


# the Koenigs benchmark germs and the generator-1/2 germ of the compare
# benchmark, on the benchmark profile (eps 2.5, k 0, cut 8, tol 1e-9)
BENCH_MAPS = {
    "germ": lambda: AnalyticMap.from_expression(
        FIXTURE, AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)),
    "germ2": lambda: AnalyticMap.from_expression(
        "zeta + 1 + 0.5*i + exp(-zeta) + (zeta^2/4 - 1)*exp(-2*zeta)",
        AsymptoticProfile(1 + 0.5j, 2.5, 0, 8.0)),
    "half": lambda: AnalyticMap.from_series(
        ExpPolySeries(4, [Fraction(1, 2)],
                      {0: [1.0, 1.0], 1: [1.0], Fraction(3, 2): [0.5, 0.1]}),
        AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)),
}


class TestBitExact:
    """koenigs_limit results recorded when expressions were still walked node
    by node and series exponents converted on every call; compiled maps must
    reproduce them bit for bit."""

    @pytest.mark.parametrize("name, zeta, value, n_used, tail_bound", [
        ("germ", 9 + 2j, 8.999918761756996 + 1.9998224688005375j, 2754, 9.99295950464898e-10),
        ("germ", 14.5 - 1.5j, 14.500000056438996 - 1.4999992041324355j, 2747,
         9.993573605011101e-10),
        ("germ2", 9 + 2j, 8.999888265136246 + 1.9998634794637924j, 2754, 9.99295950464898e-10),
        ("germ2", 14.5 - 1.5j, 14.500000230536758 - 1.4999993171042376j, 2747,
         9.993573605011101e-10),
        ("half", 9 + 2j, 8.999916315458485 + 1.9998217633144344j, 2754, 9.99295950464898e-10),
        ("half", 14.5 - 1.5j, 14.500000055919731 - 1.4999992033791665j, 2747,
         9.993573605011101e-10),
    ])
    def test_koenigs_limit_unchanged(self, name, zeta, value, n_used, tail_bound):
        res = koenigs_limit(BENCH_MAPS[name](), zeta, 1e-9)
        assert (res.value, res.n_used, res.tail_bound) == (value, n_used, tail_bound)

    @pytest.mark.parametrize("text, zeta, message", [
        ("1/(zeta - 2)", 2 + 0j, "division by zero"),
        ("zeta^-1", 0j, "zero raised to a negative power"),
        ("log(zeta)", -3 + 1j, "log argument has nonpositive real part"),
        ("L2(zeta)", 0.5 + 0j, "iterated log left the right half plane"),
    ])
    def test_compiled_guards_raise(self, text, zeta, message):
        f = compile_ast(parse_expression(text))
        with pytest.raises(EvalDomainError, match=message):
            f(zeta)


def reference_koenigs(f, zeta, tol, max_n=200_000):
    """koenigs_limit as it was before orbits were shared and the envelope was
    hoisted: one start, M and the tail bound evaluated at every step.  It
    ends before the first step when the tail bound after max_n steps is above
    tol, and at the first step that violates the drift bound."""
    prof = f.profile
    beta = complex(prof.beta)
    x0 = zeta.real
    if x0 < prof.R:
        raise DomainError(f"Koenigs start needs Re >= R = {prof.R}")
    if f.exact_translation:
        return KoenigsResult(zeta, -0j, 1, 0.0, True, 0)
    Mf, Mtail = prof.M, prof.M_tail
    rho = prof.rho_minus(x0)
    y = x0 + max_n * rho
    if Mf(y) + Mtail(y) / rho > tol * (1.0 + ENVELOPE_MARGIN):
        raise NotConverged(f"Koenigs sequence not certified at {zeta}: the envelope needs"
                           f" more than {max_n} steps; tail bound {Mf(y) + Mtail(y) / rho:.3e}"
                           f" after {max_n} steps, tol {tol:.3e}",
                           max_n=0, partial=KoenigsResult(zeta, 0j, 0, math.inf, False, 0))
    delta = f.delta
    w = zeta
    disp = 0j
    violations = 0
    first_violation = ""
    tail = math.inf
    step = math.inf
    n = 0
    converged = False
    bound = Mf(x0)
    while n < max_n:
        d = delta(w)
        step = abs(d)
        if not step <= bound * (1.0 + 1e-9):
            first_violation = (f", first at step {n + 1}: |delta| = {step:.3e}"
                               f" > M = {bound:.3e}")
            violations += 1
        disp += d
        w = w + beta + d
        n += 1
        y = x0 + n * rho
        bound = Mf(y)
        tail = bound + Mtail(y) / rho
        if violations:
            break
        if tail <= tol and step <= tol:
            converged = True
            break
    result = KoenigsResult(
        zeta=zeta,
        displacement=disp,
        n_used=n,
        tail_bound=tail if converged else math.inf,
        converged=converged,
        joj_violations=violations,
    )
    if not converged:
        reason = (f"per-step drift bound violated{first_violation}"
                  if violations else "budget exhausted")
        raise NotConverged(f"Koenigs sequence not certified at {zeta}: {reason}; after {n}"
                           f" steps tail bound {tail:.3e}, step {step:.3e}, tol {tol:.3e}",
                           max_n=n, partial=result)
    return result


def fields(r):
    return None if r is None else (r.value, r.n_used, r.tail_bound, r.converged,
                                   r.displacement, r.joj_violations)


def outcome(call):
    """Fields of each certified start, or the first error with its partial results."""
    try:
        r = call()
    except (NotConverged, DomainError, EvalDomainError) as exc:
        part = getattr(exc, "partial", None)
        return (type(exc), str(exc), fields(part), fields(getattr(part, "next", None)))
    return fields(r), fields(r.next)


def reference_pair(f, zeta, tol, max_n):
    """Two reference calls in a row, at zeta and at its image."""
    first = reference_koenigs(f, zeta, tol, max_n)
    try:
        second = reference_koenigs(f, f(zeta), tol, max_n)
    except NotConverged as exc:
        exc.partial = replace(first, next=exc.partial)
        raise
    return replace(first, next=second)


def drift_between_envelopes(prof, x0):
    """A map whose steps along the orbit of x0 sit just under that start's
    envelope, and so above the envelope of the orbit's next point."""
    rho = prof.rho_minus(x0)

    def delta(w):
        return complex(prof.M(x0 + round(w.real - x0) * rho) * (1 - 1e-6))
    return AnalyticMap(delta, prof)


def series_map_off_head(remainder):
    """A series map at beta = 1 + 0.5i whose head block is zeta + beta + remainder."""
    beta = 1 + 0.5j
    series = ExpPolySeries(2, [1], {0: [beta + remainder, 1.0], 1: [1.0, 0.25j], 2: [-0.5j]})
    return AnalyticMap.from_series(series, AsymptoticProfile(beta, 2.5, 0, 8.0))


PROF_NEG0 = AsymptoticProfile(complex(1.0, -0.0), 2.5, 0, 8.0)
CRITERION_6_SERIES = ExpPolySeries(3, [1], {0: [1.0, 1.0], 1: [1.0]})


def negative_zero_orbit_map():
    """-0j - exp(-zeta) at beta = 1 - 0j: from a start with Im -0.0, every
    orbit point and every zero step has Im -0.0."""
    ast = ("sub", ("num", complex(-0.0, -0.0)), ("call", "exp", ("neg", ("zeta",))))
    return AnalyticMap(compile_ast(ast), PROF_NEG0, False, ast)


SMALL_RHO = AsymptoticProfile(1 + 0j, 1.0, 0, 1.05)   # rho_minus(R) = 0.093
K1 = AsymptoticProfile(1 + 0j, 6.0, 1, 8.0)
EQUIVALENCE_CASES = {
    "germ": (BENCH_MAPS["germ"], [8 + 0j, 9 + 2j, 14.5 - 1.5j, 20 + 5j], 1e-9, 200_000),
    "germ2": (BENCH_MAPS["germ2"], [8 - 2j, 9 + 2j, 14.5 - 1.5j], 1e-9, 200_000),
    "half": (BENCH_MAPS["half"], [8 + 0j, 9 + 2j, 14.5 - 1.5j], 1e-9, 200_000),
    "divergent": (lambda: AnalyticMap.from_expression(
        "zeta + 1 + 1/zeta", AsymptoticProfile(1 + 0j, 1.0, 0, 10.0)), [10 + 0j], 1e-9, 20_000),
    "divergent-walk": (lambda: AnalyticMap.from_expression(
        "zeta + 1 + 1/zeta", AsymptoticProfile(1 + 0j, 1.0, 0, 10.0)), [10 + 0j], 1e-3, 20_000),
    # tol just under the tail bound after 5 steps, inside the envelope's margin
    "budget-in-margin": (BENCH_MAPS["germ"], [12 + 0j], tail_after(PROF, 12.0, 5) * (1 - 5e-13),
                         5),
    "late-violation": (lambda: AnalyticMap.from_expression(
        "zeta + 1 + 20*exp(-zeta)", PROF), [8 + 0j, 12 + 1j], 1e-9, 200_000),
    "max_n=0": (BENCH_MAPS["germ"], [9 + 2j], 1e-9, 0),
    "max_n=1": (BENCH_MAPS["germ"], [9 + 2j], 1e-9, 1),
    "max_n=5": (BENCH_MAPS["germ"], [9 + 2j], 1e-9, 5),
    "k=1": (lambda: AnalyticMap.from_expression(FIXTURE, K1), [8 + 0j, 10 - 1j], 1e-4, 200_000),
    "small-rho": (lambda: AnalyticMap.from_expression("zeta + 1 + 0.01*zeta^-3", SMALL_RHO),
                  [1.05 + 0j, 1.5 + 0.5j], 1e-2, 200_000),
    "small-rho-budget": (lambda: AnalyticMap.from_expression(
        "zeta + 1 + 0.01*zeta^-3", SMALL_RHO), [1.05 + 0j], 1e-6, 3_000),
    "image-below-cut": (lambda: AnalyticMap.from_expression("zeta + 1 - 1.5/(zeta - 7)", PROF),
                        [8 + 0j], 1e-9, 50),
    "translation": (lambda: AnalyticMap.from_expression(
        "zeta + 1", AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)), [2 + 0j, 5 + 1j], 1e-12, 200_000),
    "start-below-cut": (BENCH_MAPS["germ"], [7.5 + 0j], 1e-9, 200_000),
    "only-image-fails": (lambda: drift_between_envelopes(PROF, 8.0), [8 + 0j], 1e-9, 200_000),
    # series maps whose head block is off zeta + beta by a constant, at a complex beta
    "series-remainder": (lambda: series_map_off_head(1e-13), [8 + 0j, 9 + 2j, 14.5 - 1.5j],
                         1e-9, 200_000),
    "series-remainder-violation": (lambda: series_map_off_head(1e-6 + 1e-6j),
                                   [9 + 2j, 14.5 - 1.5j], 1e-9, 200_000),
    # flat maps, whose delta is exactly 0 from Re 745.13 on: the walk skips
    # to n_lo where it proves that, starts with Im +0.0 and -0.0 included
    "flat-germ": (BENCH_MAPS["germ"], [complex(9, 0.0), complex(9, -0.0), 30 - 1j], 1e-9,
                  200_000),
    "flat-germ2": (BENCH_MAPS["germ2"], [complex(9, -0.0), 8 + 0.25j], 1e-9, 200_000),
    "flat-half": (BENCH_MAPS["half"], [complex(9, 0.0), complex(9, -0.0)], 1e-9, 200_000),
    "flat-criterion-6-series": (lambda: AnalyticMap.from_series(CRITERION_6_SERIES, PROF),
                                [complex(8, -0.0), 9 + 2j, 14.5 - 1.5j], 1e-9, 200_000),
    # beta = 1 - 0j; on the second map, Im stays -0.0 and the skip is refused
    "flat-negative-zero-beta": (lambda: AnalyticMap.from_expression(FIXTURE, PROF_NEG0),
                                [complex(9, -0.0), complex(9, 0.0)], 1e-9, 200_000),
    "flat-negative-zero-orbit": (negative_zero_orbit_map, [complex(9, -0.0)], 1e-9, 200_000),
    # delta is 0 at the first zero steps and again past Re 805, but not near 800
    "flat-then-bump": (lambda: AnalyticMap.from_expression(
        FIXTURE + " + exp(-(zeta - 800)^2)", PROF), [9 + 2j], 1e-9, 200_000),
    # starts on the real axis, where Im delta and Im disp are exactly +/-0
    "noop-real-axis": (BENCH_MAPS["germ"], [complex(8, 0.0), complex(12.5, -0.0), 20 + 0j],
                       1e-9, 200_000),
    "noop-real-axis-series": (BENCH_MAPS["half"], [complex(8, -0.0), 15 + 0j], 1e-9, 200_000),
    # disp is exactly 0 while delta is not: past Re 2254, delta is a nonzero
    # e^-750 .. e^-250 that the reference walk sums, so the skip is refused
    "noop-zero-sum": (lambda: AnalyticMap.from_expression("zeta + 1 + exp(zeta - 3000)", PROF),
                      [9 + 2j, complex(9, 0.0)], 1e-9, 200_000),
    # delta is 0 from the second step to Re 2254, so the next point's sum is
    # exactly 0 where zeta's is not: only a single start may skip
    "noop-zero-next-sum": (lambda: AnalyticMap.from_expression(
        "zeta + 1 + 1e-10*exp(-800*(zeta - 9)) + exp(zeta - 3000)", PROF), [9 + 2j], 1e-9,
        200_000),
    # Im(w + beta) crosses 0 at about step 60, after delta is absorbed
    "noop-crossing-real-axis": (lambda: AnalyticMap.from_expression(
        "zeta + 1 + 0.5*i + exp(-zeta) + (zeta^2/4 - 1)*exp(-2*zeta)",
        AsymptoticProfile(1 + 0.5j, 2.5, 0, 8.0)), [9 - 30j], 1e-9, 200_000),
    # a small budget, and n_lo at and around the first zero step, 737 from 9 + 2j
    **{f"flat-n_lo={n - 1}": (BENCH_MAPS["germ"], [9 + 2j], tail_after(PROF, 9.0, n), n + 2)
       for n in range(737, 743)},
}


class TestSharedOrbit:
    """koenigs_limit with the hoisted envelope equals the reference loop, and
    with_next equals two reference calls in a row, field for field and
    message for message."""

    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_single_start_matches_reference(self, case):
        make, points, tol, max_n = EQUIVALENCE_CASES[case]
        f = make()
        for z in points:
            assert (outcome(lambda: koenigs_limit(f, z, tol, max_n))
                    == outcome(lambda: reference_koenigs(f, z, tol, max_n)))

    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_with_next_matches_two_reference_calls(self, case):
        make, points, tol, max_n = EQUIVALENCE_CASES[case]
        f = make()
        for z in points:
            assert (outcome(lambda: koenigs_limit(f, z, tol, max_n, with_next=True))
                    == outcome(lambda: reference_pair(f, z, tol, max_n)))

    def test_only_the_image_fails(self):
        f = drift_between_envelopes(PROF, 8.0)
        alone = koenigs_limit(f, 8 + 0j, 1e-9)
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 8 + 0j, 1e-9, with_next=True)
        assert str(err.value).startswith(f"Koenigs sequence not certified at {f(8 + 0j)}: "
                                         "per-step drift bound violated")
        assert fields(err.value.partial) == fields(alone)
        assert err.value.partial.next.joj_violations > 0

    def test_one_walk(self):
        # the skip leaves 43 of max(2754, 2752 + 1) steps to evaluate
        assert self.evaluated_points("germ", with_next=True) == 43

    def test_one_walk_single_start(self):
        assert self.evaluated_points("half", with_next=False) == 41

    @staticmethod
    def evaluated_points(name, with_next):
        """The distinct points koenigs_limit(f, 9 + 2j) evaluates delta at, after
        checking that a bare-callable copy of f, with no AST, evaluates it at
        every step."""
        f = BENCH_MAPS[name]()
        counts = []
        for g in (f, AnalyticMap(f.delta, f.profile)):
            evaluated = []
            g.delta = lambda w, delta=g.delta: evaluated.append(w) or delta(w)
            res = koenigs_limit(g, 9 + 2j, 1e-9, with_next=with_next)
            assert len(set(evaluated)) == len(evaluated)
            counts.append(len(evaluated))
        assert counts[1] == (max(res.n_used, res.next.n_used + 1) if with_next else res.n_used)
        return counts[0]


def test_starts_sharing_re_share_their_envelope_cut():
    # n_lo and its floor depend on the profile, Re, tol and max_n only
    cut = dulaclin.dynamics._cut
    cut.cache_clear()
    f = BENCH_MAPS["germ"]()
    for y in (0.0, -0.0, 1.0, 2.5, -3.0):
        koenigs_limit(f, complex(9.0, y), 1e-9)
    assert (cut.cache_info().misses, cut.cache_info().hits) == (1, 4)


def counted(f, walk):
    """The outcome of walk(f), errors included, and how often it evaluated delta."""
    evaluated = []
    g = replace(f, delta=lambda w: evaluated.append(w) or f.delta(w))
    try:
        out = fields(walk(g))
    except (ArithmeticError, DulaclinError) as exc:
        out = type(exc), str(exc), fields(getattr(exc, "partial", None))
    return out, len(evaluated)


class TestVanishingStretch:
    """The steps a walk skips are exactly those whose delta provably changes
    neither a sum nor an orbit point."""

    @pytest.mark.parametrize("text", [
        "zeta + 1 + 0*exp(zeta)",            # exp overflows past Re 709.78
        "zeta + 1 + exp(-zeta)*zeta^400",     # overflows at the first step
        "zeta + 1 + exp(-zeta)*zeta^100",     # 0 at Re 745, overflows past Re 1200
        "zeta + 1 + exp(-zeta)*L1",           # 0 from Re 745.13 on, but not provably
    ], ids=["exp-overflow", "pow-400", "pow-100", "L1"])
    def test_negative_controls_walk_every_step(self, text):
        f = AnalyticMap.from_expression(text, PROF)
        assert (counted(f, lambda g: koenigs_limit(g, 9 + 2j, 1e-9))
                == counted(f, lambda g: reference_koenigs(g, 9 + 2j, 1e-9)))

    def test_negative_zero_orbit_walks_every_step(self):
        out, steps = counted(negative_zero_orbit_map(),
                             lambda g: koenigs_limit(g, complex(9, -0.0), 1e-9))
        assert out[1] == 2754 and steps == 2754

    def test_no_skipped_stretch_holds_im_0(self):
        # from 9 - 30j at beta = 1 + 0.5i, Im(w + beta) crosses 0 after step 58,
        # where a sum with Im delta is not provably Im(w + beta)
        f = EQUIVALENCE_CASES["noop-crossing-real-axis"][0]()
        evaluated = set()
        g = replace(f, delta=lambda w: evaluated.add(w) or f.delta(w))
        koenigs_limit(g, 9 - 30j, 1e-9)
        w = 9 - 30j
        while (w + f.profile.beta).imag < 0:
            assert w in evaluated
            w = f(w)
        assert w in evaluated and len(evaluated) < 100

    @pytest.mark.parametrize("name, zeta", [("germ", 9 + 2j), ("germ2", 14.5 - 1.5j),
                                            ("half", complex(9, -0.0))])
    def test_rectangle_spans_every_skipped_point(self, name, zeta):
        rects = []

        def recording(re, im):
            rects.append((tuple(re), tuple(im)))
            return f.enclosure(re, im)
        f = BENCH_MAPS[name]()
        evaluated = set()
        g = replace(f, delta=lambda w: evaluated.add(w) or f.delta(w))
        g.enclosure = recording  # the rectangles the walk encloses delta on
        res = koenigs_limit(g, zeta, 1e-9, with_next=True)
        w, skipped = zeta, []
        for _ in range(max(res.n_used, res.next.n_used + 1)):
            if w not in evaluated:
                skipped.append(w)
            w = f(w)
        assert len(skipped) > 2600
        # the last try skipped: its rectangle holds every skipped point and the
        # point after them, whose w + beta the skipped steps computed
        (re, im), first, after = rects[-1], skipped[0], f(skipped[-1])
        assert after in evaluated
        assert all(re[0] <= p.real <= re[1] and im[0] <= p.imag <= im[1]
                   for p in (*skipped, after))
        # bounded before the points are made, within a rounding margin of their ends
        ends = (first.real, after.real), tuple(sorted((first.imag, after.imag)))
        assert all(abs(x - y) < 1e-8 for x, y in zip((*re, *im), (*ends[0], *ends[1])))


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e4, 1e4), st.floats(-3.0, 3.0), st.integers(0, 3000))
@example(746.3, 0.1, 2000)    # the sums drift past fl(s + k*c)
@example(2.0, -0.3, 2000)
@example(5e-324, 1e-310, 3000)
def test_span_holds_every_point_of_the_additions(s, c, k):
    lo, hi = dulaclin.dynamics._span(s, c, k)
    for _ in range(k + 1):
        assert lo <= s <= hi
        s = s + c


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(finite.filter(bool), st.floats(-0.2499, 0.2499))
@example(1.0, -0.2499)           # below a power of two, where the gap halves
@example(-0.5, 0.2499)
@example(5e-324, 0.2)            # a subnormal: only +/-0 is below its quarter ulp
@example(2.0 ** -1022, -0.2499)  # the least normal
@example(-1.7976931348623157e308, 0.2499)
def test_a_sum_absorbs_what_is_below_a_quarter_ulp(a, t):
    # the lemma of the no-op rule: a + v == a for finite a != 0 and 4|v| < ulp(a)
    v = t * math.ulp(a)
    if 4.0 * abs(v) < math.ulp(a):
        assert a + v == a and v + a == a


def bits(x: complex) -> tuple:
    return math.copysign(1.0, x.real), x.real, math.copysign(1.0, x.imag), x.imag


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(max_magnitude=1e6), st.sampled_from(
    [1 + 0j, complex(1.0, -0.0), 1 + 0.5j, 0.3 - 0.7j, complex(2.5, 1e-300)]),
       st.integers(0, 3000))
@example(complex(9.0, -0.0), complex(1.0, -0.0), 2753)
@example(complex(9.0, 0.0), complex(1.0, -0.0), 5)
def test_the_jump_adds_like_the_loop(last, beta, k):
    # np.add.accumulate is a sequential scan of IEEE additions, as the loop is
    run = np.full(k + 2, beta)
    run[0] = last
    jumped = complex(np.add.accumulate(run)[-1])
    for _ in range(k + 1):
        last = last + beta
    assert bits(jumped) == bits(last)


POWERS = [math.copysign(2.0 ** e, s) for e in range(-1074, 1024, 7) for s in (1.0, -1.0)]


@settings(max_examples=500, deadline=None)
@given(finite, finite, finite, st.lists(finite, max_size=2))
@example(-0.375 * math.ulp(1.0), 1.0, 2.0, [])     # a quarter to half an ulp below 1.0
@example(-0.375 * math.ulp(0.5), -1.0, 0.5, [])
@example(1e-30, -1.0, 1.0, [])                      # a span holding 0
@example(1e-30, 0.0, 1.0, [])
@example(1e-30, 8.0, 20.0, [0.0])                   # a sum that is 0
@example(1e-30, 8.0, 20.0, [-1.0, 1e-10])
def test_absorbed_holds_for_every_addition_it_allows(m, x, y, sums):
    # the no-op rule's test, checked at the ends of the span, at powers of two
    # and the least floats inside it, and at each sum, for both ends of [-|m|, |m|]
    iv, (lo, hi) = (-abs(m), abs(m)), sorted((x, y))
    if dulaclin.dynamics._absorbed(iv, (lo, hi), *sums):
        inside = [p for p in (*POWERS, 5e-324, -5e-324, 0.0) if lo <= p <= hi]
        for a in (lo, hi, *inside, *sums):
            assert a + iv[0] == a and a + iv[1] == a


BETAS = [(1 + 0j, "1"), (complex(1.0, -0.0), "1"), (1 + 0.5j, "1 + 0.5*i"),
         (1.5 - 0.25j, "1.5 - 0.25*i")]
coefficient = st.floats(-2.0, 2.0).map(lambda c: round(c, 3))


@st.composite
def flat_germs(draw):
    """zeta + beta + sum c*exp(-m*zeta)*(p0 + p1*zeta), as an expression map
    and as a series map, with a start."""
    beta, beta_text = draw(st.sampled_from(BETAS))
    terms, texts = {}, []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
        c, p0, p1 = (draw(coefficient) for _ in range(3))
        unit = draw(st.sampled_from([1, 1j]))
        texts.append(f"({c})*{'i' if unit == 1j else '1'}*exp(-{float(m)}*zeta)"
                     f"*({p0} + ({p1})*zeta)")
        old = terms.get(m, [0j, 0j])
        terms[m] = [old[0] + c * unit * p0, old[1] + c * unit * p1]
    prof = AsymptoticProfile(beta, 2.5, 0, 8.0)
    expr = AnalyticMap.from_expression(f"zeta + {beta_text} + " + " + ".join(texts), prof)
    series = AnalyticMap.from_series(
        ExpPolySeries(3, [Fraction(1, 2)], {0: [beta, 1.0], **terms}), prof)
    zeta = draw(st.sampled_from([complex(10, 0.0), complex(10, -0.0), 12 + 1j, 11 - 2j]))
    return expr, series, zeta


@settings(max_examples=30, deadline=None)
@given(flat_germs())
def test_flat_germs_match_the_reference_walk(germ):
    *maps, zeta = germ
    for f in maps:
        assert (outcome(lambda: koenigs_limit(f, zeta, 1e-9))
                == outcome(lambda: reference_koenigs(f, zeta, 1e-9)))
        assert (outcome(lambda: koenigs_limit(f, zeta, 1e-9, with_next=True))
                == outcome(lambda: reference_pair(f, zeta, 1e-9, 200_000)))


def reference_map_step(f, zeta, n):
    """Raise the map-step error at the first non-finite one of the n orbit
    points after zeta, if there is one."""
    last = zeta
    for step in range(1, n + 1):
        w = last + f.profile.beta + f.delta(last)
        if not cmath.isfinite(w):
            raise DulaclinError(f"map step {step} from {last} is not finite: {w}")
        last = w


def reference_homological(f, h, alpha, zeta, tol):
    """One orbit sum as solve_homological_numeric made it before both sums
    shared a walk, without its verification run."""
    prof = f.profile
    if zeta.real < prof.R:
        raise DomainError(f"start point needs Re >= R = {prof.R}")
    rho = prof.rho_minus(prof.R)
    denom = 1.0 - math.exp(-alpha * rho)
    beta = complex(prof.beta)
    w = zeta
    acc = 0j
    envelope = math.exp(-alpha * w.real)
    for n in range(1, dulaclin.dynamics.HOMOLOGICAL_MAX_N + 1):
        hv = h(w)
        if not abs(hv) <= envelope * (1.0 + 1e-9):
            if n > 1 and not cmath.isfinite(w):
                reference_map_step(f, zeta, n - 1)
            raise DecayHypothesisViolated(
                f"|h| = {abs(hv)} exceeds exp(-alpha Re) at {w}")
        acc += hv
        w = w + beta + f.delta(w)
        envelope = math.exp(-alpha * w.real)
        tail = envelope / denom
        if tail <= tol:
            if not cmath.isfinite(w):
                reference_map_step(f, zeta, n)
            break
    else:
        raise NotConverged(f"homological tail {tail:.3e} above tol {tol:.3e} after {n} terms",
                           max_n=n)
    return -acc


def homological_outcome(call):
    try:
        return call()
    except DulaclinError as exc:
        return type(exc), str(exc), getattr(exc, "max_n", None)


def reference_homological_pair(f, h, alpha, zeta, tol):
    psi = reference_homological(f, h, alpha, zeta, tol)
    psi_next = reference_homological(f, h, alpha, f(zeta), tol)
    resid = abs(psi_next - psi - h(zeta))
    if not resid <= 10.0 * tol:
        raise NotConverged(f"homological equation residual {resid} > 10*tol")
    return psi, psi_next, resid


PROF4 = AsymptoticProfile(1 + 0j, 1.0, 0, 4.0)
HOMOLOGICAL_CASES = {
    # name: (map, profile, h, alpha, points, tol, HOMOLOGICAL_MAX_N)
    "fixture": (FIXTURE, PROF4, lambda z: cmath.exp(-z), 1.0,
                [4 + 0j, 8 + 0j, 8.5 - 3j, 14 + 1j], 1e-10, 100_000),
    "one-term": (FIXTURE, PROF4, lambda z: cmath.exp(-z), 1.0, [30 + 0j, 40 - 2j], 1e-10,
                 100_000),
    # the first sum ends after one term, the second runs out of terms
    "one-term-budget": ("zeta - 0.5", PROF4, lambda z: cmath.exp(-z), 1.0, [30.2 + 0j],
                        2.5e-13, 1),
    "budget": (FIXTURE, PROF4, lambda z: cmath.exp(-z), 1.0, [8 + 0j], 1e-10, 3),
    "decay": ("zeta + 1", PROF4, lambda z: 2 * cmath.exp(-z), 1.0, [8 + 0j], 1e-10, 100_000),
    "late-decay": ("zeta + 1", PROF4, lambda z: cmath.exp(-z) * (1 + (z.real > 25)), 1.0,
                   [8 + 0j, 24.5 + 0j], 1e-10, 100_000),
    "loose-tol": ("zeta + 1", PROF4, lambda z: cmath.exp(-z), 1.0, [5 + 0j], 1e-2, 100_000),
    "image-below-cut": ("zeta - 5", AsymptoticProfile(1 + 0j, 1.0, 0, 30.0),
                        lambda z: cmath.exp(-z), 1.0, [30 + 0j], 1e-10, 100_000),
    "start-below-cut": (FIXTURE, PROF4, lambda z: cmath.exp(-z), 1.0, [3 + 0j], 1e-10, 100_000),
    # h is NaN everywhere: the decay check fails at the first point
    "nan-residual": ("zeta + 1", PROF4, lambda z: complex(math.nan, 0.0), 1.0, [8 + 0j], 1e-10,
                     100_000),
    # the map's step is NaN: the first one, or the eleventh, from Re = 18
    "nan-map": ("zeta + 1 + 0*(zeta*1e300*1e300)", PROF4, lambda z: cmath.exp(-z), 1.0,
                [8 + 0j], 1e-10, 100_000),
    "late-nan-map": ("zeta + 1 + 0*(zeta*1e306*10)", PROF4, lambda z: cmath.exp(-z), 1.0,
                     [8 + 0j, 8.5 + 1j], 1e-10, 100_000),
    # the map's first step lands at Re = +inf, where h and its envelope are both 0
    "inf-map": ("zeta + 1 + 1e300*1e300", PROF4, lambda z: cmath.exp(-z), 1.0, [8 + 0j],
                1e-10, 100_000),
    "guard": ("zeta + 1 + 1e-6*log(zeta - 10)", PROF4, lambda z: cmath.exp(-z), 1.0,
              [8 + 0j], 1e-10, 100_000),
    # the first sum ends after one term, the second hits a guard at f(zeta)
    "late-guard": ("zeta + 1 + 1e-30*log(31 - zeta)", PROF4, lambda z: cmath.exp(-z), 1.0,
                   [30 + 0j], 1e-10, 100_000),
}


class TestHomologicalSharedOrbit:
    """Both homological sums from one walk equal two separate sums, value for
    value and message for message, and the residual check is unchanged."""

    @pytest.mark.parametrize("case", list(HOMOLOGICAL_CASES))
    def test_with_next_matches_two_reference_sums(self, case, monkeypatch):
        text, prof, h, alpha, points, tol, max_n = HOMOLOGICAL_CASES[case]
        monkeypatch.setattr(dulaclin.dynamics, "HOMOLOGICAL_MAX_N", max_n)
        f = AnalyticMap.from_expression(text, prof)
        for z in points:
            got = homological_outcome(
                lambda: solve_homological_numeric(f, h, alpha, z, tol))
            assert got == homological_outcome(
                lambda: reference_homological_pair(f, h, alpha, z, tol))

    def test_one_walk(self):
        evaluated = []
        f = AnalyticMap.from_expression(FIXTURE, PROF4)
        delta = f.delta
        f.delta = lambda w: evaluated.append(w) or delta(w)
        solve_homological_numeric(f, lambda z: cmath.exp(-z), 1.0, 8 + 0j, 1e-10)
        assert len(evaluated) == len(set(evaluated)) == 16


class TestHomological:
    PROF4 = PROF4

    def test_zero_rhs(self):
        f = AnalyticMap.from_expression("zeta + 1", self.PROF4)
        assert solve_homological_numeric(f, lambda z: 0j, 1.0, 8 + 0j, 1e-12)[0] == 0j

    def test_geometric_closed_form(self):
        f = AnalyticMap.from_expression("zeta + 1", self.PROF4)
        psi = solve_homological_numeric(f, lambda z: cmath.exp(-z), 1.0, 8 + 0j, 1e-10)[0]
        closed = -cmath.exp(-8) / (1 - math.exp(-1))
        assert abs(psi - closed) <= 1e-10

    def test_residual_on_perturbed_map(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 4.0)
        f = AnalyticMap.from_expression(FIXTURE, prof)
        h = lambda z: cmath.exp(-z)
        tol = 1e-10
        psi = solve_homological_numeric(f, h, 1.0, 8 + 0j, tol)[0]
        psi_f = solve_homological_numeric(f, h, 1.0, f(8 + 0j), tol)[0]
        assert abs(psi_f - psi - h(8 + 0j)) <= 1e-9

    def test_exhausted_budget_message(self, monkeypatch):
        import dulaclin.dynamics

        monkeypatch.setattr(dulaclin.dynamics, "HOMOLOGICAL_MAX_N", 3)
        f = AnalyticMap.from_expression("zeta + 1", self.PROF4)
        with pytest.raises(NotConverged) as err:
            solve_homological_numeric(f, lambda z: cmath.exp(-z), 1.0, 8 + 0j, 1e-10)
        tail = math.exp(-11) / (1 - math.exp(-self.PROF4.rho_minus(self.PROF4.R)))
        assert str(err.value) == f"homological tail {tail:.3e} above tol 1.000e-10 after 3 terms"
        assert err.value.max_n == 3

    def test_reads_rho_from_the_profile(self, monkeypatch):
        # rho_minus(R) is computed once, when the profile is built: a point
        # of the grid evaluates no drift envelope
        import dulaclin.domains

        f = AnalyticMap.from_expression("zeta + 1", self.PROF4)
        h = lambda z: cmath.exp(-z)
        assert self.PROF4.rho == self.PROF4.rho_minus(self.PROF4.R)
        psi = solve_homological_numeric(f, h, 1.0, 8 + 0j, 1e-10)[0]
        monkeypatch.setattr(dulaclin.domains, "M_eps_k", None)
        assert solve_homological_numeric(f, h, 1.0, 8 + 0j, 1e-10)[0] == psi

    def test_decay_hypothesis_violated(self):
        f = AnalyticMap.from_expression("zeta + 1", self.PROF4)
        with pytest.raises(DecayHypothesisViolated):
            solve_homological_numeric(f, lambda z: 2 * cmath.exp(-z), 1.0, 8 + 0j, 1e-10)

    def test_decay_bound_along_grid(self):
        # |psi| * exp(alpha Re) stays under the geometric-series constant
        f = AnalyticMap.from_expression("zeta + 1", self.PROF4)
        rho = self.PROF4.rho_minus(self.PROF4.R)
        cap = 1.0 / (1.0 - math.exp(-rho))
        for x in (6.0, 8.0, 10.0, 14.0):
            psi = solve_homological_numeric(f, lambda z: cmath.exp(-z), 1.0,
                                            complex(x, 0), 1e-12)[0]
            assert abs(psi) * math.exp(x) <= cap + 1e-6


BUMP = "zeta + 1 - 2.5*exp(-50*(zeta - 4.3)*(zeta - 4.3))"   # sends 4.3 to 2.8, below R = 4
GRID_CASES = {
    # name: (map, profile, h, alpha, points, tol, HOMOLOGICAL_MAX_N, LANE_STEPS, clean points)
    "grid": (FIXTURE, PROF4, "exp(-zeta)", 1.0,
             parse_grid("8:28:12,-5:5:7") + [complex(8, -0.0), complex(9.5, -0.0), 30 + 0j],
             1e-10, 100_000, 1_000, 87),
    "germ2": ("zeta + 1 + 0.5*i + exp(-zeta) + (0.25*zeta*zeta - 1)*exp(-2*zeta)",
              AsymptoticProfile(1 + 0.5j, 1.0, 0, 4.0), "zeta*exp(-2*zeta)", 1.5,
              parse_grid("8:20:7,-2:2:5"), 1e-12, 100_000, 1_000, 35),
    "one-term": (FIXTURE, PROF4, "exp(-zeta)", 1.0, [30 + 0j, 40 - 2j], 1e-10, 100_000, 1_000, 2),
    "no-lanes-for-log": (FIXTURE, PROF4, "exp(-zeta) + 0*log(zeta)", 1.0, [8 + 0j], 1e-10,
                         100_000, 1_000, 0),
    "start-below-cut": (FIXTURE, PROF4, "exp(-zeta)", 1.0, [8 + 0j, 3 + 0j, 9 + 0j], 1e-10,
                        100_000, 1_000, 1),
    "image-below-cut": (BUMP, PROF4, "exp(-zeta)", 1.0, [10 + 0j, 4.3 + 0j, 12 + 0j], 1e-10,
                        100_000, 1_000, 1),
    "decay": (FIXTURE, PROF4, "exp(-zeta)*(1 + exp(zeta - 60))", 1.0, [8 + 0j, 70 + 0j, 9 + 0j],
              1e-10, 100_000, 1_000, 1),
    "nan-h": (FIXTURE, PROF4, "exp(-zeta) + 0*(zeta*zeta)", 1.0, [8 + 0j, 1e250 + 0j], 1e-10,
              100_000, 1_000, 1),
    "nan-map": ("zeta + 1 + 0*(zeta*1e306*2)", PROF4, "exp(-zeta)", 1.0, [8 + 0j, 100 + 0j],
                1e-10, 100_000, 1_000, 1),
    "residual": (FIXTURE, PROF4, "exp(-zeta)", 1.0, [30 + 0j, 8 + 0j], 1e-25, 100_000, 1_000, 1),
    # the scalar solver passes these points, but the batch cannot vouch for them
    "exp-past-700": (FIXTURE, PROF4, "exp(-zeta) + 0*exp(zeta)", 1.0, [8 + 0j, 701 + 0j],
                     1e-10, 100_000, 1_000, 1),
    "subnormal-envelope": (FIXTURE, PROF4, "exp(-zeta)", 1.0, [8 + 0j, 720 + 0j], 1e-10,
                           100_000, 1_000, 1),
    "lane-steps": (FIXTURE, PROF4, "exp(-zeta)", 1.0, [30 + 0j, 8 + 0j, 31 + 0j], 1e-10,
                   100_000, 5, 1),
    "budget": (FIXTURE, PROF4, "exp(-zeta)", 1.0, [30 + 0j, 8 + 0j], 1e-10, 3, 1_000, 1),
    # the first sum ends after one term, the second runs out of terms
    "one-term-budget": ("zeta - 0.5", PROF4, "exp(-zeta)", 1.0, [30.2 + 0j], 2.5e-13, 1, 1_000, 0),
}


class TestHomologicalGrid:
    """The batched walk's columns are the scalar solver's, bit for bit, up to
    the first point whose lane did not pass cleanly."""

    @pytest.mark.parametrize("case", list(GRID_CASES))
    def test_rows_are_the_scalar_calls(self, case, monkeypatch):
        text, prof, h_text, alpha, points, tol, max_n, steps, k = GRID_CASES[case]
        monkeypatch.setattr(dulaclin.dynamics, "HOMOLOGICAL_MAX_N", max_n)
        monkeypatch.setattr(dulaclin.dynamics, "LANE_STEPS", steps)
        f = AnalyticMap.from_expression(text, prof)
        h = parse_expression(h_text)
        columns = solve_homological_grid(f, h, alpha, points, tol)
        assert [len(c) for c in columns] == [k] * 5
        rows = [(p.real, p.imag, q.real, q.imag, resid) for p, q, resid in
                (solve_homological_numeric(f, compile_ast(h), alpha, z, tol) for z in points[:k])]
        assert repr(list(zip(*columns))) == repr(rows)


EXPANSION_SLACK = 0.05   # slope slack of expansion_residual_check


def expansion_residual_check(f: AnalyticMap, series: ExpPolySeries, nu: float,
                             grid: Sequence[complex]) -> SlopeFit:
    """Least-squares slope of log|f - series| against Re zeta.

    Passing means slope <= -nu + EXPANSION_SLACK, i.e. the truncation error
    decays at least like exp(-nu Re).  Points below the double-precision
    noise floor are excluded, and so are points where the map hits a guard.
    """
    series_delta = evaluate_tail(series, f.profile.beta)[0]
    points, residuals = [], []
    for z in grid:
        try:
            r = f.delta(z) - series_delta(z)
        except EvalDomainError:
            continue  # the point goes with its residual
        points.append(z)
        residuals.append(r)
    return _fit(points, residuals, -float(nu), EXPANSION_SLACK)


class TestSlopeFits:
    def test_expansion_exact_when_series_is_the_map(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)
        ser = ExpPolySeries(1, [1], {0: [1.0, 1.0], 1: [1.0]})
        f = AnalyticMap.from_series(ser, prof)
        grid = [complex(x, 0) for x in range(3, 20)]
        fit = expansion_residual_check(f, ser, 2.0, grid)
        assert fit.exact and fit.passed

    def test_expansion_slope_of_missing_level(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)
        f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta) + exp(-3*zeta)", prof)
        ser = ExpPolySeries(1, [1], {0: [1.0, 1.0], 1: [1.0]})
        grid = [complex(x, 0) for x in (2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 7, 8)]
        fit = expansion_residual_check(f, ser, 2.0, grid)
        assert fit.passed and abs(fit.slope + 3.0) < 0.05

    def test_expansion_detects_undershoot(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)
        f = AnalyticMap.from_expression(FIXTURE, prof)
        ser = ExpPolySeries(1, [1], {0: [1.0, 1.0]})
        grid = [complex(x, 0) for x in (2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6)]
        fit = expansion_residual_check(f, ser, 2.0, grid)
        assert not fit.passed and abs(fit.slope + 1.0) < 0.05

    def test_expansion_drops_guarded_points(self):
        # the log term is 0 where it is defined and hits its guard below Re 4.2
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)
        f = AnalyticMap.from_expression(
            "zeta + 1 + exp(-zeta) + exp(-3*zeta) + 0*log(zeta - 4.2)", prof)
        ser = ExpPolySeries(1, [1], {0: [1.0, 1.0], 1: [1.0]})
        grid = [complex(2 + 0.5 * j, 0) for j in range(13)]
        fit = expansion_residual_check(f, ser, 2.0, grid)
        assert fit.n_used == 8 and fit.passed and abs(fit.slope + 3.0) < 0.05

    def test_insufficient_data(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)
        f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta) + exp(-3*zeta)", prof)
        ser = ExpPolySeries(1, [1], {0: [1.0, 1.0], 1: [1.0]})
        with pytest.raises(InsufficientData):
            expansion_residual_check(f, ser, 2.0, [complex(x, 0) for x in (3, 4, 5)])

    def test_fit_matches_least_squares(self):
        # numpy's LAPACK fit is only the reference here: _fit's closed form needs no BLAS
        rng = np.random.default_rng(27)
        for _ in range(20):
            xs = rng.uniform(0.0, 10.0, 40)
            ys = rng.uniform(-2.5, -0.5) * xs + rng.uniform(0.0, 3.0) + rng.normal(0.0, 1.0, 40)
            residuals = [cmath.rect(math.exp(y), t) for y, t in zip(ys, rng.uniform(-3, 3, 40))]
            fit = _fit([complex(x, 1.0) for x in xs], residuals, None, 0.0)
            ref = np.polyfit(xs, [math.log(abs(r)) for r in residuals], 1)[0]
            assert fit.n_used == 40 and abs(fit.slope - ref) <= 1e-12 * abs(ref)

    def test_fit_is_exact_on_an_exact_line(self):
        xs = range(8, 31)
        residuals = []
        for x in xs:  # the float whose log is -x/2 + 3 exactly
            r = math.exp(-0.5 * x + 3.0)
            while (y := math.log(r)) != -0.5 * x + 3.0:
                r = math.nextafter(r, math.inf if y < -0.5 * x + 3.0 else 0.0)
            residuals.append(r)
        fit = _fit([complex(x, 0.0) for x in xs], residuals, -0.5, 0.0)
        assert (fit.slope, fit.n_used, fit.passed) == (-0.5, 23, True)

    def test_fit_on_a_single_re_is_insufficient(self):
        grid = [complex(8.0, im) for im in range(8)] + [complex(30.0, 0.0)]
        residuals = [1e-3 * (1 + im) for im in range(8)] + [0.0]  # Re 30 at the noise floor
        with pytest.raises(InsufficientData, match="all 8 usable points have Re zeta = 8.0"):
            _fit(grid, residuals, None, 0.0)

    def test_decay_slopes_of_fixture(self):
        fhat = ExpPolySeries(3, [1], {0: [1.0, 1.0], 1: [1.0]})
        phi = linearize_level_by_level(fhat).phi
        f = fixture_map()
        grid = [complex(8 + 0.5 * j, 0) for j in range(45)]
        disp = koenigs_displacements(f, grid)
        fit0 = decay_slope(disp, partial_sums(phi, 0), grid, exponent=1)
        assert fit0.passed and abs(fit0.slope + 1.0) <= 0.1
        fit1 = decay_slope(disp, partial_sums(phi, 1), grid, exponent=2)
        assert fit1.passed and fit1.slope <= -2 + 0.1

    def test_decay_exact_when_partial_sum_complete(self):
        # a finite formal object reproduced by its own evaluator
        ser = ExpPolySeries(2, [1], {0: [1.0, 1.0]})
        prof = AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)
        f = AnalyticMap.from_series(ser, prof)
        phi0 = ExpPolySeries(2, [1], {0: [0.0, 1.0]})
        grid = [complex(8 + j, 0) for j in range(20)]
        fit = decay_slope(koenigs_displacements(f, grid), phi0, grid)
        assert fit.exact

    def test_decay_needs_wide_grid(self):
        f = fixture_map()
        phi0 = ExpPolySeries(2, [1], {0: [0.0, 1.0]})
        grid = [complex(8 + j, 0) for j in range(5)]
        with pytest.raises(InsufficientData):
            decay_slope(koenigs_displacements(f, grid), phi0, grid)


class TestGrid:
    def test_parse(self):
        pts = parse_grid("8:20:20,0:2:5")
        assert len(pts) == 100
        assert pts[0] == 8 + 0j and pts[-1] == 20 + 2j

    def test_single_step_axes(self):
        assert parse_grid("5:9:1,0:0:1") == [5 + 0j]
        assert parse_grid("-1e308:1e308:1,0:0:1") == [-1e308 + 0j]

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_grid("8:20:0,0:0:1")
        with pytest.raises(ValueError):
            parse_grid("8:20:5")

    @pytest.mark.parametrize("spec", ["inf:inf:1,0:0:1", "8:20:2,0:nan:3", "8:1e309:2,0:0:1",
                                      "-1e308:1e308:3,0:0:1", "8:8:1,0:-inf:1"])
    def test_non_finite_value(self, spec):
        with pytest.raises(ValueError, match="non-finite grid value"):
            parse_grid(spec)
