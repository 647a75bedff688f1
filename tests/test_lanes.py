"""The batched evaluator's bits: numpy's complex128 exp against cmath.exp, and
every node `compile_lanes` takes against `compile_ast`, signed zeros included.

The first test checks the platform, not the package: numpy's complex exp is
libm's cexp, and the batched homological walk relies on it returning
cmath.exp's bits wherever `exp_lanes` leaves its flag clear.  CI runs this
file again with numpy's AVX2 and AVX-512 kernels disabled."""

import cmath
import math

import numpy as np
import pytest

from dulaclin.exprparse import (
    LANE_EXP_MAX,
    compile_ast,
    compile_lanes,
    complex_lanes,
    exp_lanes,
    parse_expression,
)

TINY = 5e-324  # the least subnormal


def bits(values) -> np.ndarray:
    return np.asarray(values, complex).view(np.uint64)


def edge_points():
    """Signed zeros, subnormals, the ends of exp's range and large Im."""
    res = [0.0, -0.0, TINY, -TINY, 1e-310, -1.0, 1.0, -745.2, -745.1, -744.5,
           -708.5, 699.9, LANE_EXP_MAX]
    ims = [0.0, -0.0, TINY, -TINY, 2.2e-308, -1e-310, 1.0, math.pi, -math.pi / 2,
           1e15, -1e15, 1e8 + 0.5]
    return [complex(a, b) for a in res for b in ims]


def random_points(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    re = np.concatenate([rng.uniform(-800.0, LANE_EXP_MAX, n), rng.uniform(-746.0, -744.0, n // 8),
                         rng.uniform(690.0, LANE_EXP_MAX, n // 8)])
    im = np.concatenate([rng.uniform(-10.0, 10.0, n // 2), rng.uniform(-1e15, 1e15, n - n // 2),
                         rng.uniform(-1e-300, 1e-300, n // 4)])
    return complex_lanes(re, im).tolist()


def test_numpy_complex_exp_is_cmath_exp():
    zs = edge_points() + random_points(40_000, 1)
    z = np.array(zs, complex)
    with np.errstate(all="ignore"):
        re, im, bad = exp_lanes(z.real, z.imag)
    assert not bad.any()
    assert np.array_equal(bits(complex_lanes(re, im)), bits([cmath.exp(w) for w in zs]))


def test_real_exp_through_complex_exp_is_math_exp():
    # the envelope exp(-alpha Re w) as the batched walk takes it
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.uniform(-745.5, LANE_EXP_MAX, 20_000), [-0.0, 0.0, TINY, -TINY]])
    with np.errstate(all="ignore"):
        re, _, bad = exp_lanes(x, 0.0)
    assert not bad.any()
    assert np.array_equal(re.view(np.uint64), np.array([math.exp(v) for v in x.tolist()]).view(
        np.uint64))


def test_exp_lanes_flags_what_it_cannot_vouch_for():
    re = np.array([LANE_EXP_MAX, math.nextafter(LANE_EXP_MAX, math.inf), 709.5, math.inf,
                   -math.inf, math.nan, 0.0, 0.0, -745.0])
    im = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, math.inf, math.nan, -0.0])
    with np.errstate(all="ignore"):
        assert exp_lanes(re, im)[2].tolist() == [False, True, True, True, True, True, True, True,
                                                 False]


def test_complex_lanes_keeps_signed_zeros():
    re, im = np.array([-0.0, 0.0, -0.0, 1.0]), np.array([-0.0, -0.0, 0.0, -0.0])
    assert np.array_equal(bits(complex_lanes(re, im)),
                          bits([complex(a, b) for a, b in zip(re.tolist(), im.tolist())]))
    # the sum this replaces loses them
    assert not np.array_equal(bits(re + 1j * im), bits(complex_lanes(re, im)))


NODES = {
    "zeta": ("zeta",),
    "num": ("num", complex(-0.0, 2.5)),
    "neg-zero": ("num", complex(-0.0, -0.0)),
    "neg": parse_expression("-zeta"),
    "add": parse_expression("zeta + 3"),
    "add-zero": ("add", ("num", complex(-0.0, -0.0)), ("zeta",)),
    "sub": parse_expression("zeta - i"),
    "sub-zero": ("sub", ("zeta",), ("num", complex(0.0, 0.0))),
    "mul": parse_expression("zeta*zeta"),
    "mul-real": parse_expression("0.5*zeta"),
    "mul-zero": ("mul", ("num", complex(-0.0, 0.0)), ("zeta",)),
    "exp": parse_expression("exp(zeta)"),
    "exp-neg": parse_expression("exp(-zeta)"),
    "germ-delta": ("add", ("num", 0j), parse_expression("exp(-zeta)")),
    "germ2": parse_expression("0.5*i + exp(-zeta) + (zeta*zeta*0.25 - 1)*exp(-2*zeta)"),
    "overflow": parse_expression("exp(zeta*1000) + 0*(zeta*1e300*1e300)"),
}


def lane_points():
    rng = np.random.default_rng(3)
    pts = [complex(a, b) for a in (0.0, -0.0, TINY, -1.5, 8.0, 30.0) for b in (0.0, -0.0, -TINY, 2.0)]
    re, im = rng.uniform(-50.0, 50.0, 3000), rng.uniform(-50.0, 50.0, 3000)
    return pts + complex_lanes(re, im).tolist()


@pytest.mark.parametrize("name", list(NODES))
def test_lanes_match_compile_ast(name):
    node, pts = NODES[name], lane_points()
    z = np.array(pts, complex)
    with np.errstate(all="ignore"):
        re, im, bad = compile_lanes(node)(z.real, z.imag)
    fn = compile_ast(node)
    clean = 0
    for j, w in enumerate(pts):
        try:
            want = fn(w)
        except (OverflowError, ValueError):
            assert bad[j]
            continue
        if not bad[j]:
            clean += 1
            assert bits([complex(re[j], im[j])]).tolist() == bits([want]).tolist(), (name, w)
    assert clean > len(pts) // 2


@pytest.mark.parametrize("text", ["log(zeta)", "zeta/2", "zeta^2", "L1", "exp(-zeta) + L2(zeta)"])
def test_other_nodes_have_no_lanes(text):
    assert compile_lanes(parse_expression(text)) is None
