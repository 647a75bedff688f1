"""The batched block shifts' bits: `series._batched_shifts` against
`CPoly.shift`, by repr, with signed zeros, subnormals, magnitudes near
1e+-300, infinities and NaN; `shift_blocks`' choice of path, with c = 0 and
a non-finite c among its inputs; and `translate` and `taylor_terms` against
the per-block loop.

The batched pass is bit-identical only because it forms CPython's complex
times int and complex product on float64 planes and sums in the loop's
order from +0.0, never with numpy's complex multiply.  Its binomials pass
2^53 from degree 57, where float(comb(d, j)) rounds them as CPython's
complex times int does.  CI runs this file again with numpy's AVX2 and
AVX-512 kernels disabled."""

import cmath
import math
import random

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from conftest import deep_series
from dulaclin import linearize, series
from dulaclin.linearize import linearize_level_by_level
from dulaclin.series import (
    SHIFT_MIN,
    CPoly,
    ExpPolySeries,
    _batched_shifts,
    derivative,
    powers,
    prune,
    shift_blocks,
    taylor_terms,
    translate,
)

EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 3e-300, -1e-300, 5e-324, -5e-324,
         2.2250738585072014e-308]
finite = st.one_of(st.sampled_from(EDGES), st.floats(-4.0, 4.0),
                   st.floats(allow_nan=False, allow_infinity=False))
any_part = st.one_of(finite, st.sampled_from([math.inf, -math.inf, math.nan]))
small = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -1e-300]),
                  st.floats(-3.0, 3.0))


def blocks(part, max_size):
    return st.lists(st.builds(complex, part, part), min_size=1, max_size=max_size) \
        .map(CPoly).filter(lambda p: not p.is_zero)


def loop(bs: list, c) -> list:
    return [b.shift(c) for b in bs]


def powers_of(c, n: int) -> list:
    """c^0 .. c^(n-1) as CPoly.shift forms them."""
    cpow = [1.0 + 0j] * n
    for k in range(1, n):
        cpow[k] = cpow[k - 1] * c
    return cpow


@seed(36)
@settings(max_examples=150, deadline=None)
@given(st.lists(blocks(finite, 70), min_size=1, max_size=6), st.builds(complex, small, small))
# one coefficient: its Re is +0.0 + -0.0 * 1 - -1.0 * 0.0, which is +0.0
@example([CPoly([complex(-0.0, -1.0)])], complex(0.5, -0.0))
# b_0 = -0.0 - 0j: CPython's times int gives Re -0.0 - -0.0, which is +0.0
@example([CPoly([complex(-0.0, -0.0), 1.0])], complex(1.0, -0.0))
def test_batched_shifts_are_the_loop(bs, c):
    cpow = powers_of(c, max(len(b.coeffs) for b in bs))
    assume(c != 0 and all(map(cmath.isfinite, cpow)))  # else `shift_blocks` takes the loop
    assert repr(_batched_shifts([b.coeffs for b in bs], cpow)) == repr(loop(bs, c))


def test_batched_shifts_meet_the_edges():
    # every finite edge pair as a coefficient, in blocks of mixed lengths,
    # past 57 coefficients too, by shifts of every size
    values = [complex(x, y) for x in EDGES for y in EDGES]
    rng = random.Random(36)
    for c in [1.0, -1.0, complex(1.0, 0.3), complex(-0.5, -0.0), 0.75j, 5e-324, 1.9, -2.5]:
        for _ in range(6):
            bs = [CPoly([rng.choice(values) for _ in range(rng.randint(0, 70))] + [1.0])
                  for _ in range(rng.randint(1, 5))]
            cpow = powers_of(c, max(len(b.coeffs) for b in bs))
            assert repr(_batched_shifts([b.coeffs for b in bs], cpow)) == repr(loop(bs, c))


def test_binomials_past_2_to_the_53_are_rounded_as_cpython_rounds_them():
    # from degree 57 on, float() rounds some binomials, C(57, 25) first
    n = 61
    rounded = [(d, j) for d in range(n) for j in range(d + 1)
               if float(math.comb(d, j)) != math.comb(d, j)]
    assert rounded[0] == (57, 25)
    b = CPoly([complex(1.0 + d / 7, -0.5 + d / 11) for d in range(n)])
    for c in [1.0, complex(0.9, 0.2), -1.1]:
        assert repr(_batched_shifts([b.coeffs], powers_of(c, n))) == repr(loop([b], c))


def counting_kernel(monkeypatch) -> list:
    calls = []

    def kernel(bs, cpow):
        calls.append(len(bs))
        return _batched_shifts(bs, cpow)

    monkeypatch.setattr(series, "_batched_shifts", kernel)
    return calls


@seed(36)
@settings(max_examples=100, deadline=None)
@given(st.lists(blocks(any_part, 40), min_size=1, max_size=6),
       st.one_of(st.builds(complex, small, small),
                 st.sampled_from([0.0, -0.0, 0j, complex(-0.0, -0.0), math.inf, math.nan,
                                  complex(1.0, -math.inf), complex(math.nan, 0.0), 1e300])))
def test_shift_blocks_is_the_loop(bs, c):
    assert repr(shift_blocks(bs, c)) == repr(loop(bs, c))


LONG = CPoly([complex(1.0 + d, -0.5 * d) for d in range(30)])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
                                 complex(math.nan, 0.0)])
@pytest.mark.parametrize("at", [0, 17])
def test_a_non_finite_block_takes_the_loop(bad, at, monkeypatch):
    # its product with a zero binomial above the diagonal would be NaN
    calls = counting_kernel(monkeypatch)
    coeffs = list(LONG.coeffs)
    coeffs[at] = bad
    bs = [CPoly([2.0 - 1j] * 5), CPoly(coeffs)]
    assert sum(len(b.coeffs) ** 2 for b in bs) >= SHIFT_MIN
    assert repr(shift_blocks(bs, 0.5)) == repr(loop(bs, 0.5))
    assert calls == []
    assert repr(shift_blocks([bs[0], LONG], 0.5)) == repr(loop([bs[0], LONG], 0.5))
    assert calls == [2]


@pytest.mark.parametrize("c", [0.0, -0.0, complex(-0.0, -0.0), math.inf, complex(1.0, math.nan),
                               1e20, complex(0.0, -1e30)],
                         ids=["zero", "minus-zero", "complex-zero", "inf", "nan-im",
                              "powers-overflow", "im-powers-overflow"])
def test_a_zero_or_non_finite_shift_or_power_takes_the_loop(c, monkeypatch):
    calls = counting_kernel(monkeypatch)
    assert repr(shift_blocks([LONG], c)) == repr(loop([LONG], c))
    assert calls == []


def test_the_crossover_splits_the_paths(monkeypatch):
    calls = counting_kernel(monkeypatch)
    side = math.isqrt(SHIFT_MIN - 1)  # side^2 < SHIFT_MIN <= (side + 1)^2
    below, above = CPoly([1.5 - 1j] * side), CPoly([1.5 - 1j] * (side + 1))
    for b in (below, above):
        assert repr(shift_blocks([b], complex(1.0, 0.3))) == repr(loop([b], complex(1.0, 0.3)))
    assert calls == [1]


def loop_translate(a: ExpPolySeries, c) -> tuple:
    """translate's blocks as one CPoly.shift and scale per block, the reference."""
    return tuple((k, b.shift(c).scale(cmath.exp(-(k / a.L) * complex(c))) if k else b.shift(c))
                 for k, b in a.items)


def loop_taylor_terms(g: ExpPolySeries, f: ExpPolySeries, beta) -> list:
    """taylor_terms as it was with one translate per term and one shift per block."""
    out, gi, fact = [], g, 1.0
    for i, dpow in enumerate(powers(f.tail()), 1):
        gi = derivative(prune(gi, dpow))
        if gi.is_zero:
            break
        fact *= i
        out.append((1.0 / fact, loop_translate(gi, beta), dpow))
    return out


DEEP_PHI = linearize_level_by_level(deep_series(6)).phi


@pytest.mark.parametrize("c", [complex(1.0, 0.3), -0.75, complex(-0.0, 2.0), 1e-320])
def test_translate_is_the_per_block_loop(c, monkeypatch):
    calls = counting_kernel(monkeypatch)
    rng = random.Random(36)
    parts = [0.0, -0.0, 1e300, -3e-300, 5e-324]
    edgy = DEEP_PHI._raw({k: CPoly([complex(rng.choice(parts), x.imag)
                                    if rng.random() < 0.3 else x for x in b.coeffs])
                          for k, b in DEEP_PHI.items})
    for a in (DEEP_PHI, edgy):
        assert repr(translate(a, c).items) == repr(loop_translate(a, c))
    assert calls == [len(DEEP_PHI.items)] * 2


@pytest.mark.parametrize("level", [0, 1, 9, -1], ids=["zeta", "first", "ninth", "top"])
def test_taylor_terms_are_the_per_block_loop(level, monkeypatch):
    # each of phi's blocks alone, as the level solver pushes them, and phi whole
    f = deep_series(6)
    beta = f.block(0).coeff(0)
    k, b = DEEP_PHI.items[level]
    calls = counting_kernel(monkeypatch)
    for g in (DEEP_PHI._raw({k: b}), DEEP_PHI):
        got = [(inv_fact, w.items, dpow) for inv_fact, w, dpow in taylor_terms(g, f, beta)]
        assert repr(got) == repr(loop_taylor_terms(g, f, beta))
    # block 9 alone: its 8 derivatives of 13 coefficients pass SHIFT_MIN
    # together; phi whole: all 167 derivative blocks of its terms in one call
    assert calls == ([8] if level == 9 else []) + [167]


def test_a_level_block_has_the_bits_of_translate(monkeypatch):
    # the block each level's check built is translate(phi, beta)'s, which
    # the level solver keeps instead of shifting it again
    f = deep_series(6)
    moved, solve = [], linearize._solve_difference

    def spying(P, c, beta):
        out = solve(P, c, beta)
        moved.append(out[1])
        return out

    monkeypatch.setattr(linearize, "_solve_difference", spying)
    phi = linearize_level_by_level(f).phi
    assert repr(moved) == repr([b for k, b in loop_translate(phi, f.block(0).coeff(0)) if k])
    assert len(moved) == len(phi.items) - 1 == 33
