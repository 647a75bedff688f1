"""Independent 50-digit oracle for the formal coefficients and a Koenigs value.

For f = zeta + 1 + exp(-zeta) the first two linearizing coefficients have
closed forms, and the Koenigs limit is reached far below double precision
after 200 steps; both are recomputed here with mpmath, sharing no code with
the package.
"""

import pytest

from dulaclin.domains import AsymptoticProfile
from dulaclin.dynamics import AnalyticMap, koenigs_limit
from dulaclin.linearize import linearize_by_picard, linearize_level_by_level
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


@pytest.mark.parametrize("zeta", [12 + 0j, 9 + 2j])
def test_koenigs_value(zeta):
    with mp.workdps(50):
        w = mpmath.mpc(zeta.real, zeta.imag)
        for _ in range(200):
            w = w + 1 + mpmath.exp(-w)
        expected = complex(w - 200)
    f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", AsymptoticProfile(1 + 0j, 2.5, 0, 8.0))
    kr = koenigs_limit(f, zeta, 1e-9)
    assert kr.converged and kr.tail_bound <= 1e-9
    assert abs(kr.value - expected) <= 1e-12
