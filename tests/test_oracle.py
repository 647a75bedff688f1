"""Independent 50-digit oracle for formal coefficients, Koenigs values and
the quadratic-domain boundary.

For f = zeta + 1 + exp(-zeta) the first two linearizing coefficients have
closed forms; the classical Koenigs coordinate of z/2 + z^2 has b2 = 4; the
Koenigs limit of each germ below is reached far below double precision
after 200 steps; and the boundary point kappa(i r) above Re = x follows from
Re sqrt(1 + i r) = x/C.  All are recomputed here with mpmath, sharing no
code with the package.
"""

from fractions import Fraction

import pytest

from dulaclin.domains import AsymptoticProfile, quad_boundary_height
from dulaclin.dynamics import AnalyticMap, koenigs_limit
from dulaclin.linearize import linearize_by_picard, linearize_level_by_level, picard_linearize
from dulaclin.series import ExpPolySeries

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


@pytest.mark.parametrize("solver", [linearize_level_by_level, linearize_by_picard])
def test_first_two_coefficients(solver):
    with mp.workdps(50):
        e1 = mpmath.exp(-1)
        q1 = 1 / (1 - e1)
        q2 = -e1 / ((1 - e1) * (1 - mpmath.exp(-2)))
        expected = [complex(q1), complex(q2)]
    phi = solver(ExpPolySeries(2, [1], {0: [1.0, 1.0], 1: [1.0]})).phi
    for level, q in zip((1, 2), expected):
        assert abs(phi.block(level).coeff(0) - q) <= 1e-12


def test_classical_koenigs_b2():
    # h = lim 2^n f^n with f(z) = z/2 + z^2; the even part of h over z^2 is
    # b2 + O(z^2), so z = 1e-12 leaves an error near 1e-24
    with mp.workdps(50):
        def h(z):
            for _ in range(200):
                z = z / 2 + z * z
            return z * mpmath.mpf(2) ** 200

        z = mpmath.mpf("1e-12")
        expected = complex((h(z) + h(-z)) / (2 * z * z))
    res = picard_linearize(ExpPolySeries(2, [1], {1: [0.5], 2: [1.0]}))
    b2 = -res.phi.block(1).coeff(0)  # zeta-chart block of z + b2 z^2 is -b2
    assert abs(b2 - expected) <= 1e-12


# (map, beta, one step of the map in mpmath); the profile is the benchmark's
# eps 2.5, k 0, cut 8.  The second germ exercises pow, div, sub and mul nodes,
# the series-backed third map the series tail evaluator.
GERMS = {
    "exp": ("zeta + 1 + exp(-zeta)", 1 + 0j,
            lambda w: w + 1 + mpmath.exp(-w)),
    "complex-drift": ("zeta + 1 + 0.5*i + exp(-zeta) + (zeta^2/4 - 1)*exp(-2*zeta)", 1 + 0.5j,
                      lambda w: (w + 1 + 0.5j + mpmath.exp(-w)
                                 + (w ** 2 / 4 - 1) * mpmath.exp(-2 * w))),
    "series-half": (ExpPolySeries(4, [Fraction(1, 2)],
                                  {0: [1.0, 1.0], 1: [1.0], Fraction(3, 2): [0.5, 0.1]}), 1 + 0j,
                    lambda w: w + 1 + mpmath.exp(-w) + (0.5 + 0.1 * w) * mpmath.exp(-1.5 * w)),
}


KOENIGS_CASES = [(germ, zeta) for germ in GERMS for zeta in (12 + 0j, 9 + 2j)]


# the cases of the first germ are named by the point alone
@pytest.mark.parametrize("germ, zeta", KOENIGS_CASES, ids=[
    str(zeta) if germ == "exp" else f"{germ}-{zeta}" for germ, zeta in KOENIGS_CASES])
def test_koenigs_value(germ, zeta):
    source, beta, step = GERMS[germ]
    with mp.workdps(50):
        w = mpmath.mpc(zeta.real, zeta.imag)
        for _ in range(200):
            w = step(w)
        expected = complex(w - 200 * mpmath.mpc(beta.real, beta.imag))
    profile = AsymptoticProfile(beta, 2.5, 0, 8.0)
    f = (AnalyticMap.from_expression(source, profile) if isinstance(source, str)
         else AnalyticMap.from_series(source, profile))
    kr = koenigs_limit(f, zeta, 1e-9)
    assert kr.converged and kr.tail_bound <= 1e-9
    assert abs(kr.value - expected) <= 1e-12


@pytest.mark.parametrize("C", [0.5, 2.0, 11.0])
def test_quad_boundary_height(C):
    # a = Re sqrt(1 + i r) = x/C gives sqrt(1 + r^2) = 2a^2 - 1; the height
    # is Im kappa(i r) = r + C Im sqrt(1 + i r)
    for k in range(15, -7, -1):
        x = C * (1 + 10.0 ** -k)
        with mp.workdps(50):
            a = mpmath.mpf(x) / C
            r = mpmath.sqrt((2 * a * a - 1) ** 2 - 1)
            expected = float(r + C * mpmath.im(mpmath.sqrt(1 + 1j * r)))
        assert abs(quad_boundary_height(x, C) - expected) <= 1e-15 * expected, k
