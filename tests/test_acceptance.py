"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line; tolerances
are pinned here and nowhere else.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from conftest import check_real_preservation, kappa, quad_boundary_param, random_hyperbolic_series
from dulaclin.domains import (
    AsymptoticProfile,
    QuadRegion,
    check_invariance,
    find_invariant_cut,
    kappa_inv,
)
from dulaclin.dynamics import AnalyticMap, decay_slope, koenigs_limit, solve_homological_numeric
from dulaclin.errors import NotConverged, ResonantCoefficient
from dulaclin.linearize import (
    linearize_by_picard,
    linearize_level_by_level,
    partial_sums,
    picard_linearize,
    solve_difference_eq,
)
from dulaclin.series import CPoly, ExpPolySeries, conjugacy_residual, max_rel_coeff_diff

SEED = 20260808
CORPUS_SIZE = 100


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num}: {description} {detail}".rstrip())
    assert ok, f"criterion {num}: {description} {detail}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    return [random_hyperbolic_series(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def level_results(corpus):
    return [linearize_level_by_level(f) for f in corpus]


def test_criterion_1_formal_conjugacy(corpus, level_results):
    t0 = time.monotonic()
    worst = 0.0
    for f, res in zip(corpus, level_results):
        r = conjugacy_residual(res.phi, f, res.beta)
        scale = max(1.0, f.max_abs_coeff(), res.phi.max_abs_coeff())
        worst = max(worst, r.max_abs_coeff() / scale)
    elapsed = time.monotonic() - t0
    report(1, "formal conjugacy residual <= 1e-9 relative on 100 random series",
           worst <= 1e-9 and elapsed < 10.0,
           f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_dual_oracle(corpus, level_results):
    worst = 0.0
    for f, res in zip(corpus, level_results):
        pic = linearize_by_picard(f)
        worst = max(worst, max_rel_coeff_diff(res.phi, pic.phi))
    report(2, "level solver and Picard agree coefficientwise <= 1e-9",
           worst <= 1e-9, f"(worst {worst:.2e})")


def test_criterion_3_classical_koenigs_spot_value():
    # hand oracle: 1 + b2 lambda^2 = lambda b2 at lambda = 1/2 gives b2 = 4
    f1 = ExpPolySeries(2, [1], {1: [0.5], 2: [1.0]})
    res = picard_linearize(f1)
    b2 = -res.phi.block(1).coeff(0)  # zeta-chart block of z + b2 z^2 is -b2
    report(3, "f1 = z/2 + z^2 gives b2 = 4 exactly",
           abs(b2 - 4.0) <= 1e-12, f"(b2 = {b2})")


def test_criterion_4_level_one_coefficient():
    f = ExpPolySeries(1, [1], {0: [1.0, 1.0], 1: [1.0]})
    q = linearize_level_by_level(f).phi.block(1).coeff(0)
    expect = 1.0 / (1.0 - math.exp(-1))
    report(4, "f = zeta+1+e^-zeta gives q = 1/(1-1/e) to 1e-12",
           abs(q - expect) <= 1e-12, f"(q = {q.real:.13f})")


@pytest.fixture(scope="module")
def koenigs_profile():
    return AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)


@pytest.fixture(scope="module")
def koenigs_runs(koenigs_profile):
    f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", koenigs_profile)
    grid = [complex(8 + 12 * a / 19, 5 * b / 4) for a in range(20) for b in range(5)]
    t0 = time.monotonic()
    runs = []
    for z in grid:
        kr = koenigs_limit(f, z, 1e-9)
        kr2 = koenigs_limit(f, f(z), 1e-9)
        runs.append((z, kr, abs(kr2.value - kr.value - 1.0)))
    return f, runs, time.monotonic() - t0


def test_criterion_5_numeric_linearization(koenigs_runs):
    _, runs, elapsed = koenigs_runs
    worst = max(resid for _, _, resid in runs)
    certified = all(kr.tail_bound <= 1e-9 for _, kr, _ in runs)
    report(5, "Koenigs grid 20x5 on Re in [8,20]: residual <= 1e-9, certified tails",
           worst <= 1e-9 and certified and elapsed < 5.0,
           f"(max residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_6_decay_slopes(koenigs_profile):
    f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", koenigs_profile)
    fhat = ExpPolySeries(3, [1], {0: [1.0, 1.0], 1: [1.0]})
    phi = linearize_level_by_level(fhat).phi
    grid = [complex(8 + 0.5 * j, 0) for j in range(45)]  # Re in [8, 30]
    disp = [koenigs_limit(f, z, 1e-9).displacement for z in grid]
    fit0 = decay_slope(disp, partial_sums(phi, 0), grid, exponent=1)
    fit1 = decay_slope(disp, partial_sums(phi, 1), grid, exponent=2)
    ok = (abs(fit0.slope + 1.0) <= 0.1) and (fit1.slope <= -2.0 + 0.1)
    report(6, "decay slopes: n=0 is -1 +/- 0.1 and n=1 <= -2 + 0.1",
           ok, f"(slopes {fit0.slope:.4f}, {fit1.slope:.4f})")


def test_criterion_7_tail_bound_soundness(koenigs_runs):
    _, runs, _ = koenigs_runs
    violations = sum(kr.joj_violations for _, kr, _ in runs)
    report(7, "per-step |phi_{n+1}-phi_n| <= M(Re+n rho-) never fails",
           violations == 0, f"({sum(kr.n_used for _, kr, _ in runs)} steps checked)")


def test_criterion_8_homological_solver():
    prof = AsymptoticProfile(1 + 0j, 1.0, 0, 4.0)
    f = AnalyticMap.from_expression("zeta + 1", prof)
    h = lambda z: cmath.exp(-z)
    tol = 1e-10
    z0 = 8 + 0j
    psi = solve_homological_numeric(f, h, 1.0, z0, tol)
    psi_f = solve_homological_numeric(f, h, 1.0, f(z0), tol)
    resid = abs(psi_f - psi - h(z0))
    closed = -cmath.exp(-z0) / (1 - math.exp(-1))
    ok = resid <= 1e-9 and abs(psi - closed) <= 1e-10
    report(8, "homological solver: residual <= 1e-9 and closed form to 1e-10",
           ok, f"(residual {resid:.2e}, |psi-closed| {abs(psi - closed):.2e})")


def test_criterion_9_domain_invariance():
    prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
    f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", prof)
    R, _ = find_invariant_cut(f, QuadRegion(2.0), prof, n_samples=2000, seed=SEED)
    prof_R = AsymptoticProfile(1 + 0j, 1.0, 0, R)
    rep = check_invariance(f, QuadRegion(2.0), prof_R, n_samples=10_000, seed=SEED)

    rng = np.random.default_rng(SEED)
    kappa_worst = 0.0
    for _ in range(1000):
        w = complex(50 * rng.random() + 1e-9, 100 * rng.random() - 50)
        w2, inside = kappa_inv(kappa(w, 2.0), 2.0)
        kappa_worst = max(kappa_worst, abs(w2 - w))
        assert inside
    boundary_worst = max(abs(quad_boundary_param(r, 2.0) - kappa(1j * r, 2.0))
                         for r in np.linspace(0.0, 100.0, 1000))
    ok = rep.passed and kappa_worst <= 1e-12 and boundary_worst <= 1e-12
    report(9, "quad domain C=2: 10^4-sample invariance, kappa/boundary identities",
           ok, f"(R={R}, violations {rep.n_violations}, kappa {kappa_worst:.1e}, "
               f"boundary {boundary_worst:.1e})")


def test_criterion_10_negative_controls(corpus):
    prof = AsymptoticProfile(1 + 0j, 1.0, 0, 10.0)
    f_bad = AnalyticMap.from_expression("zeta + 1 + 1/zeta", prof)
    diverged = False
    try:
        koenigs_limit(f_bad, 10 + 0j, 1e-9, max_n=20_000)
    except NotConverged:
        diverged = True

    resonant = False
    try:
        solve_difference_eq(CPoly([0.0, 1.0]), 1.0, 1.0)
    except ResonantCoefficient:
        resonant = True

    rng = random.Random(SEED + 1)
    real_ok = all(check_real_preservation(random_hyperbolic_series(rng, real=True))
                  for _ in range(10))
    prof_r = AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)
    f_real = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", prof_r)
    numeric_real = koenigs_limit(f_real, 12 + 0j, 1e-9).value.imag
    real_ok = real_ok and abs(numeric_real) <= 1e-12

    report(10, "negative controls: divergence, resonance, real preservation",
           diverged and resonant and real_ok,
           f"(diverged={diverged}, resonant={resonant}, real_ok={real_ok})")
