import cmath
import math
import random
from fractions import Fraction as F

import pytest

from dulaclin.errors import DomainError
from dulaclin.linearize import SOLVER_TOL, linearize_level_by_level
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
    s = ExpPolySeries(bound, gens, {})
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


def evaluate(a: ExpPolySeries, zeta: complex) -> complex:
    acc = 0j
    for k, b in a.items:
        if k == 0:
            acc += b(zeta)
        else:
            acc += cmath.exp(-(k / a.L) * zeta) * b(zeta)
    return acc


def max_imag(p: CPoly) -> float:
    return max((abs(c.imag) for c in p.coeffs), default=0.0)


def max_imag_coeff(a: ExpPolySeries) -> float:
    return max((max_imag(b) for _, b in a.items), default=0.0)


def check_real_preservation(f: ExpPolySeries) -> bool:
    """True iff the linearization of a real hyperbolic series is real."""
    if max_imag_coeff(f) != 0.0:
        raise ValueError("precondition: f must have all-real coefficients")
    result = linearize_level_by_level(f)
    return max_imag_coeff(result.phi) <= SOLVER_TOL


def kappa(w: complex, C: float) -> complex:
    """w + C*sqrt(w + 1), principal square root."""
    return w + C * cmath.sqrt(w + 1.0)


def quad_boundary_param(r: float, C: float) -> complex:
    """Upper boundary point of the quadratic domain at parameter r >= 0.

    x(r) = C (r^2+1)^(1/4) cos(arctan(r)/2),
    y(r) = r + C (r^2+1)^(1/4) sin(arctan(r)/2);  equals kappa(i r).
    """
    if r < 0:
        raise DomainError("parameter r must be nonnegative")
    half = 0.5 * math.atan(r)
    rad = C * (r * r + 1.0) ** 0.25
    return complex(rad * math.cos(half), r + rad * math.sin(half))


@pytest.fixture
def rng():
    return random.Random(20260808)
