"""The batched block products' bits: `series._batched_products` against the
CPoly loop, by repr, with signed zeros, magnitudes near 1e+-300, infinities
and NaN; `block_products`' choice of path; and `mul_into` on each side of
`BATCH_MIN` against a per-pair loop.

The batched pass is bit-identical only because it forms CPython's complex
product on float64 planes and sums in the loop's order from 0j, never with
numpy's complex multiply.  CI runs this file again with numpy's AVX2 and
AVX-512 kernels disabled."""

import math
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dulaclin import series
from dulaclin.series import BATCH_MIN, CPoly, _batched_products, block_products, mul_into

EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 3e-300, -1e-300, 5e-324, 1.7e308]
finite = st.one_of(st.sampled_from(EDGES), st.floats(-4.0, 4.0),
                   st.floats(allow_nan=False, allow_infinity=False))
any_part = st.one_of(finite, st.sampled_from([math.inf, -math.inf, math.nan]))


def blocks(part, max_size):
    return st.lists(st.builds(complex, part, part), min_size=1, max_size=max_size) \
        .map(CPoly).filter(lambda p: not p.is_zero)


def loop(b1: CPoly, bs: list) -> list:
    return [b1 * b2 for b2 in bs]


@seed(33)
@settings(max_examples=100, deadline=None)
@given(blocks(finite, 40), st.lists(blocks(any_part, 20), min_size=1, max_size=25))
# one row: its sum is 0j + (-0.0 + 0j), which is 0j
@example(CPoly([-1.0]), [CPoly([0j, 1.0])])
# every row's product at degree 1 has Re -0.0, and so would a sum from row 0
@example(CPoly([-1.0, -1.0]), [CPoly([0j, 0j, 1.0]), CPoly([2.0])])
def test_batched_products_are_the_loop(b1, bs):
    assert repr(_batched_products(b1.coeffs, [b.coeffs for b in bs])) == repr(loop(b1, bs))


def test_batched_products_meet_the_edges():
    # each finite edge times each edge and non-finite value, in blocks of mixed lengths
    parts = [*EDGES, math.inf, -math.inf, math.nan]
    values = [complex(x, y) for x in parts for y in parts]
    rng = random.Random(33)
    for _ in range(40):
        b1 = CPoly([complex(rng.choice(EDGES), rng.choice(EDGES)) for _ in range(rng.randint(1, 12))]
                   + [1.0])
        bs = [CPoly(rng.sample(values, rng.randint(1, 20)) + [1.0]) for _ in range(rng.randint(1, 8))]
        assert repr(_batched_products(b1.coeffs, [b.coeffs for b in bs])) == repr(loop(b1, bs))


def counting_kernel(monkeypatch) -> list:
    calls = []

    def kernel(a, bs):
        calls.append(len(a))
        return _batched_products(a, bs)

    monkeypatch.setattr(series, "_batched_products", kernel)
    return calls


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
                                 complex(math.nan, 0.0)])
@pytest.mark.parametrize("at", [0, 9])
def test_a_non_finite_block_takes_the_loop(bad, at, monkeypatch):
    # a[i] * a padded 0 would be NaN wherever a shorter partner's product reads it
    calls = counting_kernel(monkeypatch)
    coeffs = [complex(1.0 + d, -0.5 * d) for d in range(20)]
    finite_b1, b1 = CPoly(coeffs), CPoly(coeffs[:at] + [bad] + coeffs[at + 1:])
    bs = [CPoly([1.0] * 20), CPoly([2.0 - 1j] * 5), CPoly([-0.0, 1.0])]
    assert len(b1.coeffs) * sum(len(b.coeffs) for b in bs) >= BATCH_MIN
    assert repr(block_products(b1, bs)) == repr(loop(b1, bs))
    assert calls == []
    assert repr(block_products(finite_b1, bs)) == repr(loop(finite_b1, bs))
    assert calls == [20]


def loop_mul_into(acc: dict, a_items: tuple, b_items: tuple, n: int):
    """`mul_into` as one product per pair of blocks, the reference."""
    for k1, b1 in a_items:
        for k2, b2 in b_items:
            k = k1 + k2
            if k <= n:
                prod = b1 * b2
                acc[k] = acc[k] + prod if k in acc else prod


def random_block(rng: random.Random, length: int) -> CPoly:
    parts = [0.0, -0.0, 1.0, -1.0, 1e300, -3e-300]
    return CPoly([complex(rng.choice(parts) if rng.random() < 0.3 else rng.uniform(-2, 2),
                          rng.choice(parts) if rng.random() < 0.3 else rng.uniform(-2, 2))
                  for _ in range(length - 1)] + [complex(1.0, rng.uniform(-1, 1))])


@pytest.mark.parametrize("length", [3, 14], ids=["below", "above"])
def test_mul_into_on_each_side_of_the_crossover(length, monkeypatch):
    calls = counting_kernel(monkeypatch)
    rng = random.Random(length)
    n = 12
    a_items = tuple((k, random_block(rng, length)) for k in (0, 2, 3, 5, 9, 13))
    b_items = tuple((k, random_block(rng, length)) for k in (1, 2, 4, 6, 7, 12))
    start = {3: random_block(rng, 4), 8: random_block(rng, 2)}
    got, ref = dict(start), dict(start)
    mul_into(got, a_items, b_items, n)
    loop_mul_into(ref, a_items, b_items, n)
    assert list(got) == list(ref)
    assert repr(got) == repr(ref)
    sizes = [length * length * sum(k1 + k2 <= n for k2, _ in b_items) for k1, _ in a_items]
    assert len(calls) == sum(s >= BATCH_MIN for s in sizes)
    assert bool(calls) == (length == 14)
