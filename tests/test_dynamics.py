import cmath
import math
import time
from dataclasses import replace
from fractions import Fraction
from typing import Sequence

import pytest

import dulaclin.dynamics
from dulaclin.domains import AsymptoticProfile
from dulaclin.dynamics import (
    ENVELOPE_MARGIN,
    KoenigsResult,
    AnalyticMap,
    SlopeFit,
    _fit,
    _series_delta,
    decay_slope,
    koenigs_limit,
    parse_grid,
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
from dulaclin.series import ExpPolySeries

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
        evaluated = []
        f = BENCH_MAPS["germ"]()
        delta = f.delta
        f.delta = lambda w: evaluated.append(w) or delta(w)
        res = koenigs_limit(f, 9 + 2j, 1e-9, with_next=True)
        assert len(evaluated) == max(res.n_used, res.next.n_used + 1)
        assert len(set(evaluated)) == len(evaluated)


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
    return psi, psi_next


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
                lambda: solve_homological_numeric(f, h, alpha, z, tol, with_next=True))
            assert got == homological_outcome(
                lambda: reference_homological_pair(f, h, alpha, z, tol))
            alone = homological_outcome(lambda: solve_homological_numeric(f, h, alpha, z, tol))
            assert alone == (got[0] if isinstance(got[0], complex) else got)

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
        assert solve_homological_numeric(f, lambda z: 0j, 1.0, 8 + 0j, 1e-12) == 0j

    def test_geometric_closed_form(self):
        f = AnalyticMap.from_expression("zeta + 1", self.PROF4)
        psi = solve_homological_numeric(f, lambda z: cmath.exp(-z), 1.0, 8 + 0j, 1e-10)
        closed = -cmath.exp(-8) / (1 - math.exp(-1))
        assert abs(psi - closed) <= 1e-10

    def test_residual_on_perturbed_map(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 4.0)
        f = AnalyticMap.from_expression(FIXTURE, prof)
        h = lambda z: cmath.exp(-z)
        tol = 1e-10
        psi = solve_homological_numeric(f, h, 1.0, 8 + 0j, tol)
        psi_f = solve_homological_numeric(f, h, 1.0, f(8 + 0j), tol)
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
                                            complex(x, 0), 1e-12)
            assert abs(psi) * math.exp(x) <= cap + 1e-6


EXPANSION_SLACK = 0.05   # slope slack of expansion_residual_check


def expansion_residual_check(f: AnalyticMap, series: ExpPolySeries, nu: float,
                             grid: Sequence[complex]) -> SlopeFit:
    """Least-squares slope of log|f - series| against Re zeta.

    Passing means slope <= -nu + EXPANSION_SLACK, i.e. the truncation error
    decays at least like exp(-nu Re).  Points below the double-precision
    noise floor are excluded, and so are points where the map hits a guard.
    """
    series_delta = _series_delta(series, f.profile.beta)
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
