import random
from fractions import Fraction as F

import pytest

from dulaclin.series import CPoly, ExpPolySeries, lattice_points

GEN_CHOICES = [
    (F(1),),
    (F(1, 2),),
    (F(2, 3),),
    (F(1), F(1, 2)),
    (F(1, 2), F(2, 3)),
    (F(1), F(1, 2), F(2, 3)),
]
ORDER_CHOICES = [F(1), F(3, 2), F(2), F(2), F(5, 2), F(3), F(3), F(4)]


def semigroup_points(gens, bound) -> list:
    """The sorted nonnegative-integer combinations of `gens` up to `bound`,
    zero included, as Fractions: the lattice points of a series' semigroup."""
    s = ExpPolySeries.zero(bound, gens)
    return [F(k, s.L) for k in sorted(lattice_points(s.g, s.n))]


def random_hyperbolic_series(rng: random.Random, real: bool = False) -> ExpPolySeries:
    """Random hyperbolic series: generators within {1, 1/2, 2/3}, order <= 4,
    Re(beta) in [0.3, 3], |Im(beta)| <= 10, blocks of degree <= 3."""
    gens = rng.choice(GEN_CHOICES)
    N = rng.choice(ORDER_CHOICES)
    pts = sorted(p for p in semigroup_points(gens, N) if p > 0) or [F(1)]
    if real:
        beta = complex(0.3 + 2.7 * rng.random(), 0.0)
    else:
        beta = complex(0.3 + 2.7 * rng.random(), -10 + 20 * rng.random())
    terms = {F(0): CPoly([beta, 1.0])}
    for mu in rng.sample(pts, rng.randint(1, min(3, len(pts)))):
        deg = rng.randint(0, 3)
        coeffs = [complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2))
                  for _ in range(deg + 1)]
        terms[mu] = CPoly(coeffs)
    return ExpPolySeries(N, gens, terms)


@pytest.fixture
def rng():
    return random.Random(20260808)
