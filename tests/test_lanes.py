"""The batched evaluators' bits: numpy's complex128 exp against cmath.exp,
every node `compile_lanes` takes against `compile_ast`, signed zeros included,
np.hypot against abs, and check_invariance's lanes against its loop over
samples, the reference.

The first test checks the platform, not the package: numpy's complex exp is
libm's cexp, and the batched homological walk relies on it returning
cmath.exp's bits wherever `exp_lanes` leaves its flag clear.  So does the
hypot test, for the invariance lanes' abs.  CI runs this file again with
numpy's AVX2 and AVX-512 kernels disabled."""

import cmath
import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_check_invariance, reference_find_invariant_cut
from dulaclin.domains import (
    AsymptoticProfile,
    BandRegion,
    BoundaryMap,
    QuadRegion,
    _call_lanes,
    check_invariance,
    find_invariant_cut,
    linear_map,
    negated,
    power_map,
)
from dulaclin.dynamics import AnalyticMap
from dulaclin.errors import DulaclinError
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


# ---------------------------------------------------------------------------
# check_invariance's lanes

def test_numpy_hypot_is_complex_abs():
    rng = np.random.default_rng(5)
    wide = complex_lanes(10.0 ** rng.uniform(-310.0, 308.0, 20_000),
                         10.0 ** rng.uniform(-310.0, 308.0, 20_000)).tolist()
    strip = complex_lanes(rng.uniform(5.0, 60.0, 20_000), rng.uniform(-3e3, 3e3, 20_000)).tolist()
    zs = edge_points() + random_points(20_000, 4) + wide + strip + [
        complex(1e308, 1e308), complex(math.inf, 1.0), complex(-0.0, -math.inf)]
    z = np.array(zs, complex)
    with np.errstate(all="ignore"):
        got = np.hypot(z.real, z.imag)
    want = []
    for w in zs:
        try:
            want.append(abs(w))
        except OverflowError:  # where hypot overflows, which the lanes leave to the loop
            want.append(math.inf)
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def test_pow_lanes_are_float_pow():
    rng = np.random.default_rng(6)
    bases = np.concatenate([[0.0, -0.0, TINY, 1.0, 2.0, 5.0, 55.0, 1e-300, 1e300],
                            rng.uniform(0.0, 100.0, 20_000), rng.uniform(5.0, 60.0, 20_000),
                            10.0 ** rng.uniform(-300.0, 300.0, 20_000)])
    for e in (2.0, 0.5, 1.001, 1.25, 3.5, 0.05):
        small = bases[bases < 10.0 ** (300.0 / max(e, 1.0))]  # no power overflows
        got = _call_lanes(pow, small, repeat(e))
        assert np.array_equal(got.view(np.uint64),
                              np.array([b ** e for b in small.tolist()]).view(np.uint64))
    with pytest.raises(OverflowError):
        _call_lanes(pow, np.array([2.0, 1e300]), repeat(2.0))


def outcome(call):
    """The report's repr, which shows every float's bits but a NaN's, or the
    error raised."""
    try:
        return repr(call())
    except (DulaclinError, ArithmeticError) as exc:
        return type(exc), str(exc)


@st.composite
def invariance_cases(draw):
    """(map, region, profile at k = 0, n_samples, seed, stop_at_violation)."""
    R = draw(st.floats(3.0, 40.0))
    beta = complex(draw(st.sampled_from([1.0, 0.75, 2.0])),
                   draw(st.sampled_from([0.0, 0.5, -0.25])))
    prof = AsymptoticProfile(beta, draw(st.floats(0.05, 3.0)), 0, R)
    # the map's own constant is beta, or 1 while the profile says otherwise
    const = draw(st.sampled_from([f"{beta.real!r} + {beta.imag!r}*i", "1"]))
    c, a = draw(st.sampled_from(["1", "3", "0.01", "50"])), draw(st.sampled_from(["1", "0.5", "2"]))
    f = AnalyticMap.from_expression(f"zeta + {const} + {c}*exp(-{a}*zeta)", prof)
    if draw(st.booleans()):
        region = QuadRegion(draw(st.floats(0.5, R - 0.5)))
    else:
        t = draw(st.floats(1.0, R))
        hu = power_map(draw(st.floats(0.5, 5.0)), draw(st.floats(0.0, 1.0)), t)
        hl = draw(st.sampled_from([negated(hu), linear_map(-1.0, t),
                                   negated(power_map(3.0, 0.25, t))]))
        region = BandRegion(t, hl, hu)
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 129, 200, 400]))
    return f, region, prof, n, draw(st.integers(0, 2 ** 16)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(invariance_cases())
def test_invariance_lanes_are_the_loop(case):
    f, region, prof, n, seed, stop = case
    assert outcome(lambda: check_invariance(f, region, prof, n, seed, stop_at_violation=stop)) \
        == outcome(lambda: reference_check_invariance(f, region, prof, n, seed,
                                                      stop_at_violation=stop))


GERM = "zeta + 1 + exp(-zeta)"


def counting(f):
    """The zetas at which f's delta is called from then on: the samples checked alone."""
    calls, delta = [], f.delta
    f.delta = lambda z: calls.append(z) or delta(z)
    return calls


class Uniforms:
    """np.random.default_rng(seed)'s stand-in, whose uniforms are `values` in
    order, for one draw of many as for scalar draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        drawn, self.values[:size] = self.values[:size], []
        return np.array(drawn)


def test_a_quad_sample_on_the_boundary_is_checked_alone(monkeypatch):
    # u2 = 0 draws y = -h(x), on the boundary, where numpy's membership is not
    # sure of cmath's; u2 = 1 - 2**-53 draws y just below h(x)
    n, edges = 300, {3: 0.0, 70: 0.0, 200: 1.0 - 2.0 ** -53}
    u = np.random.default_rng(7).uniform(0.1, 0.9, 2 * n)
    for j, u2 in edges.items():
        u[2 * j + 1] = u2
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Uniforms(u.tolist()))
    prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
    f = AnalyticMap.from_expression(GERM, prof)
    ref = outcome(lambda: reference_check_invariance(f, QuadRegion(2.0), prof, n, 0))
    calls = counting(f)
    report = check_invariance(f, QuadRegion(2.0), prof, n, 0)
    assert repr(report) == ref
    alone = [next(j for j, r in enumerate(report.rows) if r[0] == z.real) for z in calls]
    assert {3, 70} <= set(alone) <= set(edges)


def test_an_exp_lane_above_lane_exp_max_is_checked_alone():
    # exp(zeta) at Re up to 705: flagged above LANE_EXP_MAX, yet below
    # cmath.exp's overflow at 709.78
    prof = AsymptoticProfile(1 + 0j, 1.0, 0, 655.0)
    f = AnalyticMap.from_expression("zeta + 1 + exp(zeta)*exp(-2*zeta)", prof)
    ref = outcome(lambda: reference_check_invariance(f, QuadRegion(2.0), prof, 500, 1))
    calls = counting(f)
    report = check_invariance(f, QuadRegion(2.0), prof, 500, 1)
    assert repr(report) == ref and report.passed
    assert calls and [z.real for z in calls] == [x for x, *_ in report.rows if x > LANE_EXP_MAX]


def test_a_map_overflowing_past_the_first_violation_goes_on_to_the_next_cut():
    # hu's pow overflows between Re 7 and 10 once armed, so only at the
    # first cut R = 5, whose first violation, at sample 0, comes before:
    # the chunk is checked sample by sample and stops there, while the full
    # check raises
    armed = []

    def steep(x):
        return x ** 1000.0 if armed and 7.0 <= x < 10.0 else 2.0 * x ** 0.5

    root = power_map(2.0, 0.5)
    band = BandRegion(5.0, negated(root), BoundaryMap(steep, 1, root.json))
    prof = AsymptoticProfile(1 + 0j, 1.0, 0, 5.0)
    f = AnalyticMap.from_expression("zeta + 1 + 3*exp(-0.5*zeta)", prof)
    R, ref = reference_find_invariant_cut(f, band, prof, n_samples=500, seed=0)
    first = reference_check_invariance(f, band, prof, 500, 0, stop_at_violation=True)
    armed.append(True)
    with pytest.raises(OverflowError):
        check_invariance(f, band, prof, 500, 0)
    calls = counting(f)
    report = check_invariance(f, band, prof, 500, 0, stop_at_violation=True)
    assert repr(report) == repr(first) and len(calls) == first.n_samples == 1
    calls.clear()
    assert (R, repr(ref)) == ((got := find_invariant_cut(f, band, prof, 500, 0))[0], repr(got[1]))
    assert R > 10.0 and len(calls) == 1
