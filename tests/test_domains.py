import cmath
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    kappa,
    quad_boundary_param,
    reference_check_invariance,
    reference_find_invariant_cut,
)
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
import dulaclin.domains
from dulaclin.cli import main
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
        # (log^k x)^(1 + eps) below 1 underflows to 0 at a huge eps
        with pytest.raises(DomainError, match="denominator underflows to 0"):
            M_eps_k(8.0, 1e300, 2)

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

    def test_evaluations_do_not_recompute_the_tower(self, monkeypatch):
        # the towers below the first that overflows are computed once, at import
        towers = [exp_tower(k) for k in range(5)]
        monkeypatch.setattr(dulaclin.domains, "exp_tower", None)
        assert M_eps_k(20.0, 0.5, 2) == 1.0 / (20.0 * math.log(20.0) * math.log(math.log(20.0))
                                              ** 1.5)
        assert iterated_log_real(20.0, 3) == math.log(math.log(math.log(20.0)))
        for k, tower in enumerate(towers):
            with pytest.raises(DomainError, match=rf"^M undefined at x = {tower} for k = {k}$"):
                M_eps_k(tower, 0.5, k)
            with pytest.raises(DomainError,
                               match=rf"^iterated log needs x > exp tower\({k}\), got {tower}$"):
                iterated_log_real(tower, k)
            assert M_eps_k(tower + 1.0, 0.5, k) > 0.0

    @pytest.mark.parametrize("k", [5, 9, 400])
    def test_a_tower_that_overflows_still_raises(self, k):
        for fn in (lambda: exp_tower(k), lambda: M_eps_k(1e300, 0.5, k),
                   lambda: iterated_log_real(1e300, k)):
            with pytest.raises(OverflowError):
                fn()


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
        region = region_from_json({"quad": {"C": 2.0, "R": 50.0}})
        assert region == QuadRegion(2.0, cut=50.0) and region.cut == 50.0
        assert not region.contains(10 + 0j)
        assert region.contains(60 + 0j)

    def test_union_and_json_roundtrip(self):
        # the JSON object reads as the union its constructors build
        region = UnionRegion((QuadRegion(2.0, 1.0),
                              BandRegion(1.0, power_map(-1.0, 0.0), log_map(1.0))))
        back = region_from_json({"union": [
            {"quad": {"C": 2.0, "R": 1.0}},
            {"band": {"t": 1.0, "hl": {"kind": "power", "a": -1.0, "r": 0.0},
                      "hu": {"kind": "log", "delta": 1.0, "t": 2.0}}}]})
        (quad, band), (bquad, bband) = region.parts, back.parts
        assert bquad == quad and back.cut == region.cut == 1.0
        assert (bband.cut, bband.hl.t, bband.hu.t) == (band.cut, band.hl.t, band.hu.t)
        for z in (10 + 0.5j, 100 + 3j, 0.2 + 0j, 1.5 - 0.5j, 3 + 1.05j):
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
# the JSON object of each pinned map, with its domain start spelled out
_QUAD = {"kind": "quad", "C": 2.0, "sign": 1, "t": 2.0}
_ROOT = {"kind": "power", "a": 2.0, "r": 0.5, "t": 1.0}
PINNED_JSON = [_ROOT, {"kind": "power", "a": -1.0, "r": 1.0, "t": 1.0},
               {"kind": "power", "a": 3.0, "r": 0.0, "t": 1.0},
               {"kind": "linear", "a": 0.5, "t": 1.0}, {"kind": "log", "delta": 1.0, "t": 2.0},
               _QUAD, {**_QUAD, "sign": -1}, {"kind": "neg", "inner": _QUAD, "t": 2.0},
               {"kind": "neg", "inner": _ROOT, "t": 1.0}]


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

    @pytest.mark.parametrize(("h", "obj"), zip(PINNED_MAPS, PINNED_JSON),
                             ids=[f"h{i}" for i in range(len(PINNED_MAPS))])
    def test_json_round_trip(self, h, obj):
        back = boundary_map_from_json(obj)
        assert (back.t, back.monotonicity) == (h.t, h.monotonicity) and h.t == obj["t"]
        for x in np.geomspace(max(h.t, 2.0), 1e6, 50):
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
        assert all(x >= report.R and region.contains(complex(x, y))
                   for x, y, *_ in report.rows)

    def test_search_increases_cut(self):
        prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
        f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", prof)
        R, report = find_invariant_cut(f, QuadRegion(2.0), prof, n_samples=800, seed=4)
        assert report.passed and R >= 5.0


GERM = "zeta + 1 + exp(-zeta)"
QUAD_PROF = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)   # the benchmark's quad profile
ROOT = power_map(2.0, 0.5)
BAND = BandRegion(5.0, negated(ROOT), ROOT)   # the benchmark's band, -2 x^0.5 < Im < 2 x^0.5
UNION = UnionRegion((QuadRegion(2.0), BandRegion(20.0, linear_map(-1.0), linear_map(1.0))))


def outcome(call):
    try:
        return call()
    except DomainError as exc:
        return type(exc), str(exc)


def first_violation(report) -> int:
    return next(j for j, (_, _, margin, rect_ok, region_ok) in enumerate(report.rows)
                if margin < 0 or not (rect_ok and region_ok))


def counting_band(calls) -> BandRegion:
    """BAND, with the x its one power function, ROOT's, is called at in `calls`."""
    root = power_map(2.0, 0.5)
    counted = replace(root, fn=lambda x: calls.append(x) or root.fn(x))
    return BandRegion(5.0, negated(counted), counted)


def counting_map(text, prof, keep_ast=False):
    """The expression map, with the zetas its delta is called at in `calls`.
    Without its AST, check_invariance checks it sample by sample; with it,
    in lanes, which call delta only at a lane they cannot vouch for."""
    f = AnalyticMap.from_expression(text, prof)
    if not keep_ast:
        f.ast = None
    calls, delta = [], f.delta
    f.delta = lambda z: calls.append(z) or delta(z)
    return f, calls


def lane_sizes(monkeypatch) -> list:
    """The number of lanes of each evaluation of delta's lanes that
    check_invariance makes from then on: the samples it evaluates in lanes."""
    sizes, compile_lanes = [], dulaclin.domains.compile_lanes

    def recording(node):
        lanes = compile_lanes(node)
        return lanes and (lambda re, im: sizes.append(len(re)) or lanes(re, im))

    monkeypatch.setattr(dulaclin.domains, "compile_lanes", recording)
    return sizes


def lane_bound(first: int, n_samples: int) -> int:
    """The most samples a failing round of n_samples evaluates in lanes, with
    its first violation at sample `first`: chunks of 64, 64, 128, ... end at
    twice their start."""
    return min(n_samples, max(64, 2 * (first + 1)))


# name: (map, region, cut, n_samples, seeds)
SEARCH_CASES = {
    # round 1 fails at sample 0 (seed 1), 192 (seed 2) and 256 (seed 3); R = 5 then 10
    "quad": (GERM, QuadRegion(2.0), 5.0, 500, (1, 2, 3)),
    # round 1's one violation is sample 960 of 1000
    "quad-late": (GERM, QuadRegion(2.0), 6.5, 1000, (0,)),
    "band": (GERM, BAND, 5.0, 500, (0, 4)),
    "band-fails": ("zeta + 1 + 3*exp(-zeta/2)", BAND, 5.0, 300, (0, 7)),
    "union": (GERM, UNION, 5.0, 500, (1, 5)),
    "union-fails": ("zeta + 1 + 3*exp(-zeta/2)", UNION, 5.0, 300, (2,)),
    # no cut within the doublings: both raise
    "exhausted": ("zeta + 1 + 1/zeta^2", BAND, 5.0, 50, (0,)),
}


BEYOND_BAND = AsymptoticProfile(1 + 0.5j, 1.0, 0, 5.0)
# name: (map, profile, region, seed, first violating sample of the first cut)
STOP_CASES = {
    "quad-first-sample": (GERM, QUAD_PROF, QuadRegion(2.0), 1, 0),
    "quad": (GERM, QUAD_PROF, QuadRegion(2.0), 2, 192),
    "quad-late": (GERM, replace(QUAD_PROF, R=6.5), QuadRegion(2.0), 0, 960),
    # f(zeta) climbs out of the band while the bound and the rectangle hold,
    # so every violation is a region violation; eight cuts fail
    "band-region-only": ("zeta + 1 + 0.5*i + exp(-zeta)", BEYOND_BAND, BAND, 3, 151),
}


class TestSearchStopsEarly:
    """A failing search round stops at its first violation; the search's
    (R, report) is the reference's, which checks every sample of every round."""

    @pytest.mark.parametrize("case", list(SEARCH_CASES))
    def test_search_matches_reference(self, case):
        text, region, cut, n, seeds = SEARCH_CASES[case]
        prof = replace(QUAD_PROF, R=cut)
        f = AnalyticMap.from_expression(text, prof)
        for seed in seeds:
            got = outcome(lambda: find_invariant_cut(f, region, prof, n_samples=n, seed=seed))
            assert got == outcome(
                lambda: reference_find_invariant_cut(f, region, prof, n_samples=n, seed=seed))
            assert (got[0] is DomainError) == (case == "exhausted")

    @pytest.mark.parametrize("case", list(SEARCH_CASES))
    def test_full_check_matches_reference(self, case):
        # one draw of 2n uniforms is the stream of 2n scalar draws: every
        # report, failing ones included, is the reference's
        text, region, cut, n, seeds = SEARCH_CASES[case]
        prof = replace(QUAD_PROF, R=cut)
        f = AnalyticMap.from_expression(text, prof)
        for seed in seeds:
            assert check_invariance(f, region, prof, n, seed) == \
                reference_check_invariance(f, region, prof, n, seed)

    def test_band_sample_reads_its_bounds_once(self):
        # a band's sample is inside it iff it lies strictly between the bounds
        # just drawn from: only f(zeta)'s membership reads the maps again
        calls = []
        band = counting_band(calls)
        f, _ = counting_map(GERM, QUAD_PROF)
        calls.clear()
        ref = reference_check_invariance(f, band, QUAD_PROF, 500, 3)
        n_ref, calls[:] = len(calls), []
        assert check_invariance(f, band, QUAD_PROF, 500, 3) == ref
        # hl = -ROOT and hu = ROOT call ROOT's function once each: 2 for the
        # bounds, 2 for f(zeta), not 2 more
        assert len(calls) == 4 * 500 and n_ref == 6 * 500

    def test_band_lanes_read_the_bounds_once(self, monkeypatch):
        # the lanes call each map's function, hl = -ROOT's, which calls ROOT's
        # directly, and hu = ROOT's own: once for the bounds, once for f(zeta)
        calls, frames = [], []
        band = counting_band(calls)
        call = dulaclin.domains.BoundaryMap.__call__
        monkeypatch.setattr(dulaclin.domains.BoundaryMap, "__call__",
                            lambda h, x: frames.append(x) or call(h, x))
        sizes = lane_sizes(monkeypatch)
        f, deltas = counting_map(GERM, QUAD_PROF, keep_ast=True)
        calls.clear()
        ref = reference_check_invariance(f, band, QUAD_PROF, 500, 3)
        n_ref, calls[:], frames[:], deltas[:] = len(calls), [], [], []
        report = check_invariance(f, band, QUAD_PROF, 500, 3)
        assert report == ref and report.n_samples == 500
        assert len(calls) == 4 * 500 and n_ref == 6 * 500
        assert sum(sizes) == 500 and not deltas and not frames

    @pytest.mark.parametrize("case", list(STOP_CASES))
    def test_failing_round_stops_at_its_first_violation(self, case):
        text, prof, region, seed, first = STOP_CASES[case]
        f, calls = counting_map(text, prof)
        full = reference_check_invariance(f, region, prof, 1000, seed)
        assert first_violation(full) == first
        calls.clear()
        report = check_invariance(f, region, prof, 1000, seed, stop_at_violation=True)
        assert len(calls) == report.n_samples == first + 1
        assert report.rows == full.rows[:first + 1] and not report.passed
        # the search checks each failing cut up to its first violation, then
        # every sample of the passing one
        R_pass, _ = reference_find_invariant_cut(f, region, prof, n_samples=1000, seed=seed)
        R = max(prof.R, region.C + 1.0) if isinstance(region, QuadRegion) else prof.R
        expected = 1000
        while R < R_pass:
            cut = reference_check_invariance(f, region, replace(prof, R=R), 1000, seed)
            expected += first_violation(cut) + 1
            R *= 2.0
        calls.clear()
        assert find_invariant_cut(f, region, prof, n_samples=1000, seed=seed)[0] == R_pass
        assert len(calls) == expected < 1000 * round(math.log2(R_pass / prof.R) + 1)

    @pytest.mark.parametrize("case", list(STOP_CASES))
    def test_failing_round_in_lanes_stops_at_its_first_violation(self, case, monkeypatch):
        text, prof, region, seed, first = STOP_CASES[case]
        sizes = lane_sizes(monkeypatch)
        f, calls = counting_map(text, prof, keep_ast=True)
        full = reference_check_invariance(f, region, prof, 1000, seed)
        calls.clear()
        report = check_invariance(f, region, prof, 1000, seed, stop_at_violation=True)
        assert first + 1 <= sum(sizes) <= lane_bound(first, 1000) and not calls
        assert report.rows == full.rows[:first + 1] and report.n_samples == first + 1
        assert report == reference_check_invariance(f, region, prof, 1000, seed,
                                                    stop_at_violation=True)
        # each failing cut within its bound, then every sample of the passing one
        R_pass, _ = reference_find_invariant_cut(f, region, prof, n_samples=1000, seed=seed)
        R = max(prof.R, region.C + 1.0) if isinstance(region, QuadRegion) else prof.R
        bound = 1000
        while R < R_pass:
            cut = reference_check_invariance(f, region, replace(prof, R=R), 1000, seed)
            bound += lane_bound(first_violation(cut), 1000)
            R *= 2.0
        calls.clear()
        sizes.clear()
        assert find_invariant_cut(f, region, prof, n_samples=1000, seed=seed)[0] == R_pass
        assert not calls and sum(sizes) <= bound

    def test_a_passing_round_checks_every_sample(self):
        f, calls = counting_map(GERM, QUAD_PROF)
        report = check_invariance(f, BAND, QUAD_PROF, 700, 3, stop_at_violation=True)
        assert report.passed and report.n_samples == len(calls) == 700

    def test_a_passing_round_in_lanes_checks_every_sample(self, monkeypatch):
        sizes = lane_sizes(monkeypatch)
        f, calls = counting_map(GERM, QUAD_PROF, keep_ast=True)
        ref = reference_check_invariance(f, BAND, QUAD_PROF, 700, 3)
        calls.clear()
        assert check_invariance(f, BAND, QUAD_PROF, 700, 3, stop_at_violation=True) == ref
        assert ref.passed and ref.n_samples == sum(sizes) == 700 and not calls

    def test_a_map_raising_after_the_first_violation_goes_on_to_the_next_cut(self):
        # delta raises at samples beyond the first violating one, and only at
        # the first cut: the full check raises, the search moves on
        prof = replace(QUAD_PROF, R=6.5)
        f, calls = counting_map(GERM, prof)
        delta = f.delta

        def raising(z):
            if len(calls) > 961 and z.real < 13.0:
                raise DomainError("raised after the first violation")
            return delta(z)

        f.delta = raising
        with pytest.raises(DomainError, match="after the first violation"):
            check_invariance(f, QuadRegion(2.0), prof, 1000, 0)
        calls.clear()
        R, report = find_invariant_cut(f, QuadRegion(2.0), prof, n_samples=1000, seed=0)
        assert R == 13.0 and report.passed

    def test_lanes_past_the_first_violation_go_on_to_the_next_cut(self, monkeypatch):
        # the same map in lanes, which evaluate its AST, not the delta that
        # raises: the first cut's report is the reference's up to its first
        # violation, and the search evaluates at most lane_bound(960, 1000) there
        prof = replace(QUAD_PROF, R=6.5)
        sizes = lane_sizes(monkeypatch)
        f = AnalyticMap.from_expression(GERM, prof)
        full = reference_check_invariance(f, QuadRegion(2.0), prof, 1000, 0)
        ref = reference_find_invariant_cut(f, QuadRegion(2.0), prof, n_samples=1000, seed=0)

        def raising(z):
            raise DomainError("a lane's delta is not called")

        f.delta = raising
        report = check_invariance(f, QuadRegion(2.0), prof, 1000, 0, stop_at_violation=True)
        assert report.rows == full.rows[:961] and report.n_samples == 961
        assert sum(sizes) <= lane_bound(960, 1000)
        sizes.clear()
        R, report = find_invariant_cut(f, QuadRegion(2.0), prof, n_samples=1000, seed=0)
        assert (R, report) == ref and R == 13.0 and report.passed
        assert sum(sizes) <= lane_bound(960, 1000) + 1000

    @pytest.mark.parametrize("seed, samples", [(1, 10_001), (2, 10_193)])
    def test_benchmark_quad_search_work(self, tmp_path, monkeypatch, seed, samples):
        # `verify-domain --search` with the benchmark's quad flags: a failing
        # round checks up to its first violation, the passing one all 10,000;
        # the search calls the module-level check_invariance, so a wrapper
        # bound there sees every round
        checked = []
        check = dulaclin.domains.check_invariance

        def counting(*args, **kwargs):
            report = check(*args, **kwargs)
            checked.append(report.n_samples)
            return report

        monkeypatch.setattr(dulaclin.domains, "check_invariance", counting)
        code = main(["verify-domain", "--expr", GERM, "--beta", "1", "--eps", "1", "--k", "0",
                     "--cut", "5.0", "--samples", "10000", "--seed", str(seed),
                     "--quad-c", "2.0", "--search", "--output", str(tmp_path / "quad.csv")])
        assert code == 0
        assert len(checked) == 2 and sum(checked) == samples
