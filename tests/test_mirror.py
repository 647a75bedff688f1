"""Mirror symmetry of the formal solvers, bit for bit.

The mirror of a germ has every coefficient conjugated.  IEEE products and
sums commute with conjugation, because negating a part is exact and rounding
to nearest is symmetric, so both solvers, run on a series and on its mirror,
must give a phi and a residual whose coefficients are exact conjugates, the
same residual order and a conjugate beta.

Only the signs of zero parts may differ.  An exact cancellation x + (-x) is
+0.0 on both sides, where the conjugate of +0.0 would be -0.0, and the
solvers' constants, such as zeta's block [0, 1], are +0.0 parts that no
conjugation reaches.  So parts are compared by value, which takes 0.0 and
-0.0 as equal, and a nonzero part equals only its own bits."""

import random

import pytest

from conftest import deep_series, random_hyperbolic_series
from dulaclin.linearize import linearize_by_picard, linearize_level_by_level
from dulaclin.series import ExpPolySeries

SOLVERS = {"level": linearize_level_by_level, "picard": linearize_by_picard}


def mirror(f: ExpPolySeries) -> ExpPolySeries:
    return ExpPolySeries(f.trunc, f.gens, {m: [c.conjugate() for c in b.coeffs]
                                          for m, b in f.terms})


def assert_conjugate(a: ExpPolySeries, b: ExpPolySeries):
    assert (b.L, b.n, b.g) == (a.L, a.n, a.g)
    assert [(k, len(blk.coeffs)) for k, blk in b.items] == \
        [(k, len(blk.coeffs)) for k, blk in a.items]
    for (k, x), (_, y) in zip(a.items, b.items):
        for d, (c, m) in enumerate(zip(x.coeffs, y.coeffs)):
            assert (m.real, m.imag) == (c.real, -c.imag), (k, d, c, m)


def assert_mirrored(solver: str, f: ExpPolySeries):
    res, mres = SOLVERS[solver](f), SOLVERS[solver](mirror(f))
    assert mres.beta == res.beta.conjugate()
    assert mres.residual_ord == res.residual_ord
    assert_conjugate(res.phi, mres.phi)
    assert_conjugate(res.residual, mres.residual)


@pytest.mark.parametrize("solver", ["level", "picard"])
def test_solvers_are_mirror_symmetric_on_the_corpus(solver):
    rng = random.Random(20260808)
    for _ in range(100):
        assert_mirrored(solver, random_hyperbolic_series(rng))


@pytest.mark.parametrize("solver, order", [("level", 6), ("level", 8), ("picard", 6)])
def test_solvers_are_mirror_symmetric_on_the_deep_series(solver, order):
    assert_mirrored(solver, deep_series(order))
