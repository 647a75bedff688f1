import cmath
import math
from fractions import Fraction

import pytest

from dulaclin.domains import AsymptoticProfile
from dulaclin.dynamics import (
    AnalyticMap,
    decay_slope,
    expansion_residual_check,
    koenigs_limit,
    orbit,
    parse_grid,
    solve_homological_numeric,
)
from dulaclin.errors import (
    DecayHypothesisViolated,
    DomainError,
    EvalDomainError,
    GrowthBoundViolated,
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
        prev = math.inf
        for x in (8.0, 12.0, 16.0, 24.0, 40.0):
            prof = AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)
            res = koenigs_limit(f, complex(x, 0), 1e-9)
            gap = abs(res.value - complex(x, 0))
            assert gap < prev  # monotone decay toward tangency
            # envelope |phi - id| <= C / Re^(eps/2) with the fitted constant
            assert gap <= res.hahh_constant / x ** (PROF.epsilon / 2) + 1e-15
            prev = gap

    def test_real_ray_stays_real(self):
        res = koenigs_limit(fixture_map(), 11 + 0j, 1e-9)
        assert res.value.imag == 0.0

    def test_per_step_bound_never_fails_on_fixture(self):
        res = koenigs_limit(fixture_map(), 8 + 0j, 1e-9)
        assert res.joj_violations == 0

    def test_divergent_map_not_converged(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 10.0)
        f = AnalyticMap.from_expression("zeta + 1 + 1/zeta", prof)
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 10 + 0j, 1e-9, max_n=20000)
        assert err.value.partial.joj_violations > 0
        # the reason names the first violating step and the final values
        msg = str(err.value)
        assert "violated 20000 times, first at step 1: |delta| = 1.000e-01 > M = 1.000e-02" in msg
        assert msg.endswith("after 20000 steps tail bound 5.099e-05, step 4.996e-05, tol 1.000e-09")

    def test_exhausted_budget_message(self):
        f = fixture_map()
        with pytest.raises(NotConverged) as err:
            koenigs_limit(f, 12 + 0j, 1e-9, max_n=5)
        msg = str(err.value)
        assert "budget exhausted; after 5 steps tail bound " in msg
        assert float(msg.split("tail bound ")[1].split(",")[0]) > 1e-9
        last_step = abs(f.delta(orbit(f, 12 + 0j, 4)[-1]))
        assert msg.endswith(f"step {last_step:.3e}, tol 1.000e-09")

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


class TestHomological:
    PROF4 = AsymptoticProfile(1 + 0j, 1.0, 0, 4.0)

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

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_grid("8:20:0,0:0:1")
        with pytest.raises(ValueError):
            parse_grid("8:20:5")
