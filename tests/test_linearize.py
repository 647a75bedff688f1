import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    check_real_preservation,
    deep_series,
    evaluate,
    horner,
    random_hyperbolic_series,
    semigroup_points,
)
from dulaclin.errors import (
    NotHyperbolic,
    NotNormalized,
    OrderTooLow,
    ResonantCoefficient,
)
from dulaclin.linearize import (
    SOLVER_TOL,
    SchroederOperators,
    _hyperbolic_beta,
    linearize_by_picard,
    linearize_level_by_level,
    partial_sums,
    picard_linearize,
    solve_difference_eq,
)
from dulaclin.series import (
    CPoly,
    ExpPolySeries,
    conjugacy_residual,
    effective_order,
    max_rel_coeff_diff,
    to_z_chart,
)

E1 = math.exp(-1)


def S(trunc, gens, terms):
    return ExpPolySeries(trunc, gens, terms)


def t_apply(ops: SchroederOperators, h: ExpPolySeries) -> ExpPolySeries:
    """T(h) = h - (1/lambda) h(lambda z) for the operators of `ops`."""
    L = h.L
    return h._raw({k: b - b.shift(ops.beta).scale(cmath.exp(-((k - L) / L) * ops.beta))
                   for k, b in h.items})


def partial_linearization_residual(f: ExpPolySeries, n: int) -> ExpPolySeries:
    """Residual of the n-th partial linearization: compose(phi_n, f) - phi_n - beta.

    Its effective order must exceed the n-th solved exponent (0 for n = 0);
    violation is raised since it falsifies the construction.
    """
    beta = _hyperbolic_beta(f)
    phi = linearize_level_by_level(f).phi
    phi_n = partial_sums(phi, n)
    r = conjugacy_residual(phi_n, f, beta)
    levels = [m for m, _ in phi.terms if m > 0]
    beta_n = levels[n - 1] if 0 < n <= len(levels) else (levels[-1] if levels and n > 0 else F(0))
    scale = max(1.0, f.max_abs_coeff(), phi.max_abs_coeff())
    order = effective_order(r, SOLVER_TOL * scale)
    if order <= beta_n:
        raise ArithmeticError(f"partial residual order {order} not beyond level {beta_n}")
    return r


class TestDifferenceEq:
    def test_constant_case(self):
        Q = solve_difference_eq(CPoly([1.0]), 0.5, 1.0)
        assert list(Q.coeffs) == [2 + 0j]

    def test_degree_one_case(self):
        # oracle: substitute by hand, Q(x) - Q(x+1)/2 = x forces Q = 2x + 2
        Q = solve_difference_eq(CPoly([0.0, 1.0]), 0.5, 1.0)
        assert max(abs(a - b) for a, b in zip(Q.coeffs, [2 + 0j, 2 + 0j])) < 1e-14
        xs = [0.3, -1.2, 5.0]
        for x in xs:
            assert abs(horner(Q, x) - 0.5 * horner(Q, x + 1.0) - x) < 1e-12

    def test_resonant_coefficient(self):
        with pytest.raises(ResonantCoefficient):
            solve_difference_eq(CPoly([0.0, 1.0]), 1.0, 1.0)

    def test_random_substitution_check(self, rng):
        for _ in range(30):
            deg = rng.randint(0, 4)
            P = CPoly([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(deg + 1)])
            c = cmath.exp(complex(-rng.uniform(0.1, 2), rng.uniform(-3, 3)))
            beta = complex(rng.uniform(0.3, 3), rng.uniform(-3, 3))
            Q = solve_difference_eq(P, c, beta)
            got = Q - Q.shift(beta).scale(c)
            scale = max(1.0, Q.max_abs(), P.max_abs())
            assert (got - P).max_abs() < 1e-9 * scale


class TestLevelSolver:
    def test_pure_translation(self):
        res = linearize_level_by_level(S(2, [1], {0: [1.5 + 0.5j, 1.0]}))
        assert res.phi.support() == (F(0),)
        assert res.residual_ord == math.inf

    def test_level_one_coefficient(self):
        f = S(1, [1], {0: [1.0, 1.0], 1: [1.0]})
        res = linearize_level_by_level(f)
        q = res.phi.block(1).coeff(0)
        assert abs(q - 1.0 / (1.0 - E1)) < 1e-14

    def test_degree_one_block_against_linear_solve(self):
        # oracle: brute-force 2x2 system for Q(x) - c Q(x+beta) = x
        beta = 0.8 + 0.3j
        f = S(1, [1], {0: [beta, 1.0], 1: [0.0, 1.0]})
        res = linearize_level_by_level(f)
        Q = res.phi.block(1)
        c = cmath.exp(-beta)
        A = np.array([[1 - c, -c * beta], [0, 1 - c]])
        rhs = np.array([0.0, 1.0])
        q0, q1 = np.linalg.solve(A, rhs)
        assert abs(Q.coeff(0) - q0) < 1e-12 and abs(Q.coeff(1) - q1) < 1e-12
        assert abs(Q.coeff(1) - 1.0 / (1.0 - c)) < 1e-12
        assert conjugacy_residual(res.phi, f, beta).max_abs_coeff() < 1e-12

    def test_rejects_parabolic(self):
        with pytest.raises(NotHyperbolic):
            linearize_level_by_level(S(1, [1], {0: [0.0, 1.0], 1: [1.0]}))

    def test_rejects_negative_real_part(self):
        with pytest.raises(NotHyperbolic):
            linearize_level_by_level(S(1, [1], {0: [-1.0, 1.0], 1: [1.0]}))

    def test_rejects_non_unit_slope_in_both_solvers(self):
        # classify and compose share one exact slope rule: a near-unit slope
        # is not hyperbolic, rather than a compose failure or a silently
        # different germ in the z-chart
        f = S(2, [1], {0: [1.0, 1 + 1e-11], 1: [1.0]})
        with pytest.raises(NotHyperbolic):
            linearize_level_by_level(f)
        with pytest.raises(NotHyperbolic):
            linearize_by_picard(f)

    def test_unit_circle_guard_without_asserts(self):
        # Re(beta) = 1e-17 rounds |exp(-beta)| to exactly 1.0
        f = S(1, [1], {0: [complex(1e-17, 1e-8), 1.0], 1: [1.0]})
        assert abs(cmath.exp(-f.block(0).coeff(0))) == 1.0
        with pytest.raises(NotHyperbolic):
            linearize_level_by_level(f)
        with pytest.raises(NotHyperbolic):
            linearize_by_picard(f)

    def test_residual_vanishes_on_random_corpus(self, rng):
        for _ in range(25):
            f = random_hyperbolic_series(rng)
            res = linearize_level_by_level(f)
            r = conjugacy_residual(res.phi, f, res.beta)
            scale = max(1.0, f.max_abs_coeff(), res.phi.max_abs_coeff())
            assert r.max_abs_coeff() <= 1e-10 * scale
            assert res.residual_ord == math.inf

    def test_support_stays_in_semigroup(self, rng):
        for _ in range(10):
            f = random_hyperbolic_series(rng)
            res = linearize_level_by_level(f)
            allowed = semigroup_points(f.gens, f.trunc)
            assert all(m in allowed for m in res.phi.support())

    def test_uniqueness_across_truncations(self):
        # lower-order run must agree exactly on the shared exponents
        full = S(4, [1], {0: [1.0, 1.0], 1: [1.0, 0.5], 2: [0.25]})
        low = full.with_trunc(2)
        phi_full = linearize_level_by_level(full).phi
        phi_low = linearize_level_by_level(low).phi
        for m, b in phi_low.terms:
            assert phi_full.block(m) == b

    def test_non_resonance_margin(self):
        # every solved level has |exp(-nu beta)| < 1 strictly
        f = S(2, [F(1, 2)], {0: [0.3, 1.0], F(1, 2): [1.0]})
        res = linearize_level_by_level(f)
        for nu in res.phi.support()[1:]:
            assert abs(cmath.exp(-float(nu) * res.beta)) < 1.0


class TestZChartOperators:
    def setup_method(self):
        self.f1 = S(2, [1], {1: [0.5], 2: [1.0]})  # z/2 + z^2

    def test_t_of_zero_and_s_of_zero(self):
        ops = SchroederOperators(self.f1)
        zero = ExpPolySeries(2, [1], {})
        assert t_apply(ops, zero).is_zero
        s0 = ops.s_apply(zero)
        assert abs(s0.block(2).coeff(0) - 2.0) < 1e-15  # g1 / lambda

    def test_t_inv_constant_block(self):
        # nu = 2, c = lambda: q (1 - 1/2) = p
        h = S(2, [1], {2: [1.0]})
        out = SchroederOperators(self.f1).t_inv(h)
        assert abs(out.block(2).coeff(0) - 2.0) < 1e-15

    def test_t_roundtrip_random(self, rng):
        for _ in range(15):
            f = random_hyperbolic_series(rng)
            f1 = to_z_chart(f)
            ops = SchroederOperators(f1, f.block(0).coeff(0))
            pts = sorted(p for p in semigroup_points(f1.gens, f1.trunc) if p > 1)
            terms = {}
            for mu in rng.sample(pts, min(3, len(pts))):
                terms[mu] = CPoly([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                   for _ in range(rng.randint(1, 3))])
            h = ExpPolySeries(f1.trunc, f1.gens, terms)
            back = t_apply(ops, ops.t_inv(h))
            assert max_rel_coeff_diff(back, h) < 1e-10

    def test_order_too_low(self):
        h = S(2, [1], {1: [1.0], 2: [1.0]})
        ops = SchroederOperators(self.f1)
        with pytest.raises(OrderTooLow):
            ops.t_inv(h)
        with pytest.raises(OrderTooLow):
            ops.s_apply(h)

    def test_malformed_head_is_not_normalized(self):
        # the head is read as in from_z_chart: order below 1, a head block
        # that is not a nonzero constant, a beta that does not match lambda
        for f1, beta in [(S(2, [F(1, 2)], {F(1, 2): [1.0], 1: [0.5]}), None),
                         (S(2, [1], {1: [0.5, 1.0]}), None),
                         (S(2, [1], {2: [1.0]}), None),
                         (self.f1, 1.0 + 0j)]:
            with pytest.raises(NotNormalized):
                SchroederOperators(f1, beta)

    def test_multiplier_outside_the_unit_disk_is_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            SchroederOperators(S(2, [1], {1: [2.0], 2: [1.0]}))

    def test_t_inv_guard_without_asserts(self):
        # beta within tolerance of the multiplier but Re(beta) < 0: the
        # difference equations would have |c| > 1
        f1 = S(2, [1], {1: [1 - 1e-10]})
        ops = SchroederOperators(f1, beta=-1e-11 + 0j)
        with pytest.raises(NotHyperbolic):
            ops.t_inv(S(2, [1], {2: [1.0]}))

    def test_t_matches_definition(self):
        # T(h) = h - h(lambda z)/lambda evaluated with the exponent rules
        h = S(2, [1], {2: [1.0]})
        out = t_apply(SchroederOperators(self.f1), h)
        lam = 0.5
        assert abs(out.block(2).coeff(0) - (1.0 - lam ** 2 / lam)) < 1e-15


class TestPicard:
    def test_pure_multiplication(self):
        f1 = S(2, [1], {1: [0.4]})
        res = picard_linearize(f1)
        assert res.phi.support() == (F(0),)
        assert res.phi.block(0).coeff(1) == 1.0

    def test_classical_quadratic(self):
        res = picard_linearize(S(2, [1], {1: [0.5], 2: [1.0]}))
        # phi1 = z + 4 z^2: in the zeta-chart the level-1 block is -4
        assert abs(res.phi.block(1).coeff(0) + 4.0) < 1e-12

    def test_agreement_with_level_solver_fixture(self):
        f = S(3, [1], {0: [1.0, 1.0], 1: [0.0, 0.0, 1.0]})
        a = linearize_level_by_level(f)
        b = linearize_by_picard(f)
        assert max_rel_coeff_diff(a.phi, b.phi) < 1e-9

    def test_rejects_expanding_multiplier(self):
        with pytest.raises(NotHyperbolic):
            picard_linearize(S(2, [1], {1: [2.0], 2: [1.0]}))

    def test_dual_oracle_random(self, rng):
        for _ in range(20):
            f = random_hyperbolic_series(rng)
            a = linearize_level_by_level(f)
            b = linearize_by_picard(f)
            assert max_rel_coeff_diff(a.phi, b.phi) < 1e-9

    def test_deep_series_residual_clears_the_order(self):
        # z-chart coefficients reach 2e15 at order 6; the residual is taken
        # against f on f1's own lattice and must vanish to the order
        res = linearize_by_picard(deep_series(6))
        assert res.residual_ord == math.inf

    def test_budget_guard_is_generous(self, rng):
        # the one pass reaches the fixed point: the residual clears the order
        f = random_hyperbolic_series(rng)
        f1 = to_z_chart(f)
        n_levels = sum(1 for v in semigroup_points(f1.gens, f1.trunc) if v > 1)
        res = picard_linearize(f1, beta=f.block(0).coeff(0))
        assert res.residual_ord == math.inf
        assert n_levels >= 1


class TestSchroederEquationNumerically:
    def test_classical_fixture_in_the_z_chart(self):
        # evaluate phi1(f1(z)) - lambda*phi1(z) at sample points; it must
        # vanish to the truncation order O(z^3)
        lam = 0.5
        f1 = lambda z: lam * z + z * z
        phi1 = lambda z: z + 4 * z * z
        for z in (0.01, 0.003 + 0.004j, -0.008j):
            err = abs(phi1(f1(z)) - lam * phi1(z))
            assert err <= 10 * abs(z) ** 3

    def test_picard_output_satisfies_schroeder_numerically(self):
        f = S(3, [1], {0: [1.0, 1.0], 1: [0.0, 0.0, 1.0]})
        beta = 1.0 + 0j
        lam = cmath.exp(-beta)
        f1 = to_z_chart(f)
        res = picard_linearize(f1, beta=beta)
        phi1 = to_z_chart(res.phi)
        # z-chart series evaluate through zeta = -log z; deep in the
        # asymptotic regime the truncation error is negligible relative
        # to phi1 ~ z
        zeta = 20.0 + 1.0j
        fz = evaluate(f1, zeta)
        lhs = evaluate(phi1, -cmath.log(fz))
        rhs = lam * evaluate(phi1, zeta)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestChartSemantics:
    def test_z_chart_series_evaluates_to_exp_of_negated_map(self, rng):
        # defining identity of the conversion, checked numerically at a point
        # where the dropped terms (order > N+1, blocks up to degree ~20) are
        # small against the head lambda*z
        for _ in range(10):
            f = random_hyperbolic_series(rng)
            f1 = to_z_chart(f)
            zeta = 30.0 + 0.5j
            lhs = evaluate(f1, zeta)
            rhs = cmath.exp(-evaluate(f, zeta))
            assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


class TestPartialSums:
    def test_zeroth_is_identity(self):
        phi = S(2, [1], {0: [0.0, 1.0], 1: [1.5], 2: [0.3]})
        assert partial_sums(phi, 0).support() == (F(0),)

    def test_first_level(self):
        phi = S(2, [1], {0: [0.0, 1.0], 1: [1.5]})
        assert partial_sums(phi, 1) == phi

    def test_stabilizes(self):
        phi = S(2, [1], {0: [0.0, 1.0], 1: [1.5], 2: [0.3]})
        assert partial_sums(phi, 2) == partial_sums(phi, 7) == phi


class TestPartialResiduals:
    def test_order_zero_residual_is_perturbation(self):
        f = S(2, [1], {0: [1.0, 1.0], 1: [1.0]})
        r = partial_linearization_residual(f, 0)
        assert effective_order(r, 0.0) == F(1)
        assert abs(r.block(1).coeff(0) - 1.0) < 1e-15

    def test_first_level_residual_order(self):
        # oracle: with phi_1 = zeta + q e^{-zeta}, the level-2 block of the
        # residual is -q e^{-1} (from the expansion of q e^{-f})
        f = S(2, [1], {0: [1.0, 1.0], 1: [1.0]})
        r = partial_linearization_residual(f, 1)
        assert effective_order(r, 0.0) == F(2)
        q = 1.0 / (1.0 - E1)
        assert abs(r.block(2).coeff(0) + q * E1) < 1e-14

    def test_full_sum_gives_zero_residual(self):
        f = S(2, [1], {0: [1.0, 1.0], 1: [1.0]})
        r = partial_linearization_residual(f, 10)
        assert r.max_abs_coeff() < 1e-14


class TestRealPreservation:
    def test_fixture_is_real(self):
        assert check_real_preservation(S(1, [1], {0: [1.0, 1.0], 1: [1.0]}))

    def test_cubic_block_fixture(self):
        f = S(2, [1], {0: [2.0, 1.0], 2: [0.0, 0.0, 0.0, 1.0]})
        assert check_real_preservation(f)

    def test_precondition_rejects_complex_input(self):
        f = S(1, [1], {0: [1.0, 1.0], 1: [1j]})
        with pytest.raises(ValueError):
            check_real_preservation(f)

    def test_random_real_corpus(self, rng):
        for _ in range(10):
            assert check_real_preservation(random_hyperbolic_series(rng, real=True))
