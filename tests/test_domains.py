import cmath
import hashlib
import math

import numpy as np
import pytest

from conftest import kappa, quad_boundary_param
from dulaclin.domains import (
    AsymptoticProfile,
    BandRegion,
    QuadRegion,
    UnionRegion,
    boundary_map_from_json,
    check_invariance,
    check_lower_map,
    check_upper_map,
    exp_tower,
    find_invariant_cut,
    in_safety_rect,
    iterated_log_real,
    kappa_inv,
    linear_map,
    log_map,
    M_eps_k,
    M_tail_integral,
    negated,
    power_map,
    quad_boundary_height,
    quad_boundary_map,
    RECT_SLACK,
    region_from_json,
)
from dulaclin.dynamics import AnalyticMap
from dulaclin.errors import DomainError


def iterated_log(zeta: complex, m: int) -> complex:
    """Principal-branch log applied m times; guarded so every intermediate
    stays in the right half plane and |L_m| >= log^m(Re zeta)."""
    if zeta.real <= exp_tower(m):
        raise DomainError(f"iterated log needs Re > exp tower({m}), got {zeta.real}")
    w = zeta
    for _ in range(m):
        w = cmath.log(w)
    return w


def region_to_json(region) -> dict:
    if isinstance(region, QuadRegion):
        return {"quad": {"C": region.C, "R": region.R_cut}}
    if isinstance(region, BandRegion):
        return {"band": {"t": region.t, "hl": region.hl.json, "hu": region.hu.json}}
    if isinstance(region, UnionRegion):
        return {"union": [region_to_json(p) for p in region.parts]}
    raise ValueError(f"not a region: {region!r}")


class TestBoundFunctions:
    def test_M_at_k1(self):
        x = math.exp(2)
        assert abs(M_eps_k(x, 1.0, 1) - 1.0 / (4 * math.exp(2))) < 1e-15

    def test_M_at_k0_convention(self):
        assert M_eps_k(2.0, 1.0, 0) == 0.25

    def test_rho_minus_value(self):
        x = math.exp(2)
        beta = 2 + 3j * math.pi
        expect = 2.0 - 1.0 / (4 * math.exp(2))
        assert abs(AsymptoticProfile(beta, 1.0, 1, x).rho_minus(x) - expect) < 1e-15

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            M_eps_k(1.0, 1.0, 1)
        with pytest.raises(DomainError):
            M_eps_k(-1.0, 1.0, 0)

    def test_monotonicity_and_limits(self):
        prof = AsymptoticProfile(1.5 + 2j, 0.7, 1, 4.0)
        xs = np.geomspace(4.0, 1e8, 200)
        ms = [prof.M(x) for x in xs]
        assert all(b < a for a, b in zip(ms, ms[1:]))  # strictly decreasing
        rminus = [prof.rho_minus(x) for x in xs]
        rplus = [prof.rho_plus(x) for x in xs]
        assert all(b > a for a, b in zip(rminus, rminus[1:]))
        assert all(b < a for a, b in zip(rplus, rplus[1:]))
        assert abs(rminus[-1] - 1.5) < 1e-6 and abs(rplus[-1] - 1.5) < 1e-6

    def test_series_of_M_converges_under_integral_bound(self):
        # partial sums of M(x + n y) are Cauchy and below M(x) + integral/y
        x, y, eps, k = 3.0, 0.5, 1.0, 1
        bound = M_eps_k(x, eps, k) + M_tail_integral(x, eps, k) / y
        total = 0.0
        for n in range(5000):
            total += M_eps_k(x + n * y, eps, k)
            assert total <= bound
        chunk = sum(M_eps_k(x + n * y, eps, k) for n in range(5000, 6000))
        assert chunk < 1e-2  # increments die out

    def test_tail_integral_is_the_iterated_log_power(self):
        assert M_tail_integral(4.0, 0.5, 0) == 4.0 ** -0.5 / 0.5
        assert M_tail_integral(math.exp(4.0), 0.5, 1) == 4.0 ** -0.5 / 0.5
        with pytest.raises(DomainError):
            M_tail_integral(1.0, 1.0, 1)

    def test_exp_tower(self):
        assert exp_tower(0) == 0.0
        assert exp_tower(1) == 1.0
        assert abs(exp_tower(2) - math.e) < 1e-15


class TestProfile:
    def test_validation(self):
        with pytest.raises(DomainError):
            AsymptoticProfile(-1 + 0j, 1.0, 0, 5.0)
        with pytest.raises(DomainError):
            AsymptoticProfile(1 + 0j, -1.0, 0, 5.0)
        with pytest.raises(DomainError):
            AsymptoticProfile(1 + 0j, 1.0, 2, 2.0)  # R below the tower
        with pytest.raises(DomainError):
            AsymptoticProfile(0.1 + 0j, 1.0, 0, 2.0)  # rho_minus(R) < 0

    def test_beta_is_stored_complex(self):
        for beta in (1, 1.0, 1 + 0j):
            prof = AsymptoticProfile(beta, 1.0, 0, 5.0)
            assert type(prof.beta) is complex and prof.beta == 1


class TestKappa:
    def test_real_point(self):
        assert abs(kappa(1 + 0j, 2.0) - (1 + 2 * math.sqrt(2))) < 1e-14

    def test_roundtrip_thousand_points(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            w = complex(50 * rng.random() + 1e-9, 100 * rng.random() - 50)
            w2, inside = kappa_inv(kappa(w, 2.0), 2.0)
            assert inside
            worst = max(worst, abs(w2 - w))
        assert worst <= 1e-12

    def test_point_outside(self):
        w, inside = kappa_inv(-1 + 0j, 2.0)
        assert not inside

    def test_right_half_plane_containment(self):
        # every image point has positive real part
        rng = np.random.default_rng(4)
        for _ in range(200):
            w = complex(100 * rng.random() + 1e-12, 300 * rng.random() - 150)
            assert kappa(w, 2.0).real > 0


class TestQuadBoundary:
    def test_touches_axis_at_C(self):
        p = quad_boundary_param(0.0, 2.0)
        assert abs(p - 2.0) < 1e-15

    def test_r1_matches_kappa_i(self):
        # independent route: kappa(i) = i + 2 sqrt(1 + i)
        got = quad_boundary_param(1.0, 2.0)
        expect = 1j + 2.0 * cmath.sqrt(1 + 1j)
        assert abs(got - expect) < 1e-14

    def test_matches_kappa_on_range(self):
        for r in np.linspace(0.0, 100.0, 500):
            assert abs(quad_boundary_param(r, 2.0) - kappa(1j * r, 2.0)) <= 1e-12

    def test_height_increasing(self):
        hs = [quad_boundary_param(r, 2.0).imag for r in np.linspace(0, 10, 100)]
        assert all(b > a for a, b in zip(hs, hs[1:]))

    @pytest.mark.parametrize("C", [0.5, 2.0, 11.0])
    def test_height_inverts_the_parametrization(self, C):
        for r in np.linspace(0.0, 1e4, 4001):
            p = quad_boundary_param(float(r), C)
            assert abs(quad_boundary_height(p.real, C) - p.imag) <= 1e-12 * max(1.0, p.imag)

    def test_height_outside_its_domain_raises(self):
        with pytest.raises(DomainError):
            quad_boundary_height(1.999, 2.0)
        with pytest.raises(DomainError):
            quad_boundary_height(1e200, 2.0)  # the height overflows
        with pytest.raises(DomainError):
            quad_boundary_height(1.0, 0.0)
        assert quad_boundary_height(2.0, 2.0) == 0.0


class TestRegions:
    def test_strip_membership(self):
        region = BandRegion(1.0, power_map(-1.0, 0.0), log_map(1.0))
        assert region.contains(10 + 0.5j)       # log(10) > 0.5 > -1
        assert not region.contains(10 + 3j)     # above log(10)
        assert not region.contains(0.5 + 0j)    # left of t

    def test_quad_membership(self):
        region = QuadRegion(2.0)
        assert region.contains(100 + 0j)
        assert not region.contains(-1 + 0j)

    def test_quad_requires_positive_C(self):
        for C in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                QuadRegion(C)

    def test_cut(self):
        region = QuadRegion(2.0, R_cut=50.0)
        assert not region.contains(10 + 0j)
        assert region.contains(60 + 0j)

    def test_union_and_json_roundtrip(self):
        region = UnionRegion((QuadRegion(2.0, 1.0),
                              BandRegion(1.0, power_map(-1.0, 0.0), log_map(1.0))))
        obj = region_to_json(region)
        back = region_from_json(obj)
        for z in (10 + 0.5j, 100 + 3j, 0.2 + 0j):
            assert region.contains(z) == back.contains(z)

    def test_band_requires_separated_boundaries(self):
        with pytest.raises(ValueError):
            BandRegion(1.0, power_map(1.0, 0.0), power_map(-1.0, 0.0))


class TestUpperLowerMaps:
    def test_log_map_is_upper_for_real_beta(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 1, 10.0)
        report = check_upper_map(log_map(1.0, t=10.0), prof)
        assert report.passed, report.worst_margin

    def test_increasing_linear_upper_when_im_beta_negative(self):
        prof = AsymptoticProfile(1 - 2j, 1.0, 0, 5.0)
        report = check_upper_map(linear_map(0.5, t=5.0), prof)
        assert report.passed and report.case == "im<0 increasing"

    def test_constant_fails_upper_for_real_beta(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        report = check_upper_map(power_map(3.0, 0.0, t=5.0), prof)
        assert not report.passed
        assert report.n_violations > 0

    def test_negated_upper_is_lower_for_mirrored_profile(self):
        # mirror = conjugate beta; for real beta the case tables coincide.
        # Steep maps are needed once Im(beta) != 0 (a log map is genuinely
        # not an upper map there), so use a linear map of slope > Im/Re.
        cases = [(1 + 0j, log_map(1.0, t=10.0)),
                 (1 + 0.5j, linear_map(1.0, t=10.0)),
                 (1 - 0.5j, linear_map(1.0, t=10.0))]
        for beta, h in cases:
            prof = AsymptoticProfile(beta, 1.0, 1, 10.0)
            up = check_upper_map(h, prof)
            mirrored = AsymptoticProfile(beta.conjugate(), 1.0, 1, 10.0)
            low = check_lower_map(negated(h), mirrored)
            assert up.passed, (beta, up.case, up.worst_margin)
            assert low.passed, (beta, low.case, low.worst_margin)

    def test_square_root_upper_from_the_profile_cut(self):
        # the map's own domain starts at t = 1, where rho_minus(1) = 0 and the
        # drift condition fails; the grid starts at the cut R = 5 instead
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        report = check_upper_map(power_map(2.0, 0.5), prof)
        assert report.passed, report.worst_margin
        assert 0 < report.worst_margin < 2e-3

    def test_quad_boundary_is_upper(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        report = check_upper_map(quad_boundary_map(2.0, t=5.0), prof)
        assert report.passed

    def test_decreasing_lower_unconditional_when_im_beta_positive(self):
        prof = AsymptoticProfile(1 + 2j, 1.0, 0, 5.0)
        report = check_lower_map(power_map(-1.0, 1.0, t=5.0), prof)
        assert report.passed and report.case == "im>0 decreasing"


# maps of all five kinds, increasing, decreasing and constant
PINNED_MAPS = [power_map(2.0, 0.5), power_map(-1.0, 1.0), power_map(3.0, 0.0), linear_map(0.5),
               log_map(1.0), quad_boundary_map(2.0), quad_boundary_map(2.0, sign=-1),
               negated(quad_boundary_map(2.0)), negated(power_map(2.0, 0.5))]


class TestMapCheckPins:
    def test_reports_are_pinned(self):
        # Im(beta) below, at and above 0, k = 0 and 1: every row of the case table
        reports = [check(h, AsymptoticProfile(beta, 1.0, k, 10.0))
                   for beta in (1 - 0.5j, 1 + 0j, 1 + 0.5j) for k in (0, 1)
                   for h in PINNED_MAPS for check in (check_upper_map, check_lower_map)]
        assert {r.case for r in reports} == {"im>=0", "im<0 increasing", "im<0 decreasing",
                                             "im>0 decreasing", "im>0 increasing", "im<=0"}
        assert {r.passed for r in reports} == {True, False}
        digest = hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()
        assert digest == "9112c13e4a98959cf8dbdf3078cb6d65c4bd8be32695b62df623b98587b22caf"

    @pytest.mark.parametrize("h", PINNED_MAPS)
    def test_json_round_trip(self, h):
        back = boundary_map_from_json(h.json)
        assert back.json == h.json
        for x in np.geomspace(max(h.domain_start, 2.0), 1e6, 50):
            assert back(float(x)) == h(float(x))


class TestSafetyRect:
    def test_explicit_rectangle(self):
        # f(10) lands in [11 - m, 11 + m] x [-m, m], with m = M(10) = 0.01
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        m = prof.M(10.0)
        assert abs(m - 0.01) < 1e-15
        # each edge's midpoint, with the outward direction
        for edge, out in [(11 - m, -1), (11 + m, 1), (11 - m * 1j, -1j), (11 + m * 1j, 1j)]:
            assert in_safety_rect(10 + 0j, edge + 0.5 * RECT_SLACK * out, prof)
            assert not in_safety_rect(10 + 0j, edge + 2 * RECT_SLACK * out, prof)

    def test_fixture_lands_inside(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        z = 10 + 0j
        fz = z + 1 + cmath.exp(-z)
        assert in_safety_rect(z, fz, prof)

    def test_below_cut_raises(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        with pytest.raises(DomainError):
            in_safety_rect(2 + 0j, 3 + 0j, prof)


class TestIteratedLog:
    def test_real_values(self):
        assert abs(iterated_log_real(math.e, 1) - 1.0) < 1e-15
        assert abs(iterated_log_real(math.exp(math.e), 2) - 1.0) < 1e-15

    def test_guard(self):
        with pytest.raises(DomainError):
            iterated_log(0.5 + 10j, 1)

    def test_modulus_lower_bound(self):
        assert abs(iterated_log(10 + 100j, 1)) >= math.log(10)
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(3 + 50 * rng.random(), 200 * rng.random() - 100)
            for m in (1, 2):
                if z.real > exp_tower(m):
                    assert abs(iterated_log(z, m)) >= iterated_log_real(z.real, m) - 1e-12


class TestInvariance:
    def test_exact_translation_has_no_violations(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        f = AnalyticMap.from_expression("zeta + 1", prof)
        report = check_invariance(f, QuadRegion(2.0), prof, n_samples=500, seed=1)
        assert report.passed

    def test_fixture_on_quadratic_domain(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 10.0)
        f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", prof)
        report = check_invariance(f, QuadRegion(2.0), prof, n_samples=2000, seed=2)
        assert report.passed
        assert report.worst_bound_margin > 0

    def test_slow_decay_is_reported(self):
        # 1/zeta is not o(zeta^-(1+eps)) for eps = 1: bound violations expected
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 10.0)
        f = AnalyticMap.from_expression("zeta + 1 + 1/zeta", prof)
        report = check_invariance(f, QuadRegion(2.0), prof, n_samples=500, seed=3)
        assert report.n_bound_violations > 0

    def test_union_samples_lie_in_the_cut_region(self):
        # the second band starts at Re = 60: below that, every sample comes
        # from the first
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", prof)
        region = UnionRegion((BandRegion(5.0, power_map(-1.0, 0.0), power_map(1.0, 1.0)),
                              BandRegion(60.0, power_map(100.0, 0.0), power_map(10.0, 1.0))))
        report = check_invariance(f, region, prof, n_samples=100, seed=0)
        cut = region.with_cut(report.R)
        assert all(cut.contains(complex(x, y)) for x, y, *_ in report.rows)

    def test_search_increases_cut(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", prof)
        R, report = find_invariant_cut(f, QuadRegion(2.0), prof, n_samples=800, seed=4)
        assert report.passed and R >= 5.0
