import cmath
import hashlib
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate, max_imag_coeff, semigroup_points
from dulaclin.errors import ExponentNotInSemigroup, NonUnitSlope, NotNormalized, ParseError
from dulaclin.linearize import SchroederOperators, linearize_level_by_level, picard_linearize
from dulaclin.series import (
    CPoly,
    ExpPolySeries,
    add,
    classify,
    compose,
    conjugacy_residual,
    derivative,
    effective_order,
    from_z_chart,
    max_rel_coeff_diff,
    mul,
    parse_series,
    powers,
    serialize_series,
    to_z_chart,
    translate,
)

E1 = math.exp(-1)


def S(trunc, gens, terms):
    return ExpPolySeries(trunc, gens, terms)


def blocks(a):
    return {m: list(b.coeffs) for m, b in a.terms}


class TestAdd:
    def test_translation_plus_constant(self):
        a = S(2, [1], {0: [0.0, 1.0]})
        b = S(2, [1], {0: [2.5]})
        assert blocks(a + b) == {F(0): [2.5 + 0j, 1 + 0j]}

    def test_cancellation_gives_zero(self):
        a = S(2, [1], {1: [1.0]})
        b = S(2, [1], {1: [-1.0]})
        assert (a + b).is_zero

    def test_disjoint_supports_merge(self):
        a = S(3, [1], {0: [0.0, 1.0], 1: [0.0, 0.0, 1.0]})
        b = S(3, [1], {2: [1.0]})
        assert blocks(a + b) == {
            F(0): [0j, 1 + 0j],
            F(1): [0j, 0j, 1 + 0j],
            F(2): [1 + 0j],
        }

    def test_truncation_is_min(self):
        a = S(3, [1], {3: [1.0]})
        b = S(2, [1], {1: [1.0]})
        c = a + b
        assert c.trunc == 2 and c.support() == (F(1),)


class TestMul:
    def test_exponents_add(self):
        e = S(3, [1], {1: [1.0]})
        assert blocks(e * e) == {F(2): [1 + 0j]}

    def test_blocks_multiply(self):
        a = S(3, [1], {1: [0.0, 1.0]})
        assert blocks(a * a) == {F(2): [0j, 0j, 1 + 0j]}

    def test_truncation_drops_product(self):
        a = S(3, [1], {2: [1.0]})
        assert (a * a).is_zero


class TestDerivative:
    def test_of_identity(self):
        assert blocks(derivative(S(2, [1], {0: [0.0, 1.0]}))) == {F(0): [1 + 0j]}

    def test_of_exponential(self):
        assert blocks(derivative(S(2, [1], {1: [1.0]}))) == {F(1): [-1 + 0j]}

    def test_product_rule_in_the_term(self):
        # d/dzeta (zeta e^{-2 zeta}) = (1 - 2 zeta) e^{-2 zeta}
        a = S(3, [1], {2: [0.0, 1.0]})
        assert blocks(derivative(a)) == {F(2): [1 + 0j, -2 + 0j]}


class TestTranslate:
    def test_affine(self):
        a = S(2, [1], {0: [0.0, 1.0]})
        assert blocks(translate(a, 2.0)) == {F(0): [2 + 0j, 1 + 0j]}

    def test_pure_exponential_scales(self):
        a = S(2, [1], {1: [1.0]})
        out = translate(a, 1.0)
        assert abs(out.block(1).coeff(0) - E1) < 1e-15

    def test_block_shift_and_scale(self):
        a = S(2, [1], {1: [0.0, 1.0]})
        out = translate(a, 1.0)
        got = list(out.block(1).coeffs)
        assert abs(got[0] - E1) < 1e-15 and abs(got[1] - E1) < 1e-15

    def test_roundtrip_exact_for_integer_shift(self):
        # the polynomial shift is exact for integer c; exponential-prefactor
        # terms pick up one ulp from exp(-mu c) * exp(mu c), so exactness is
        # asserted on the head block and near-exactness overall
        a = S(3, [1], {0: [1.0, 1.0], 1: [2.0, -1.0], 2: [0.5]})
        back = translate(translate(a, 3.0), -3.0)
        assert back.block(0) == a.block(0)
        assert max_rel_coeff_diff(back, a) < 1e-15

    def test_roundtrip_tolerance_for_general_shift(self, rng):
        from conftest import random_hyperbolic_series

        for _ in range(20):
            a = random_hyperbolic_series(rng)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert max_rel_coeff_diff(translate(translate(a, c), -c), a) < 1e-12


class TestCompose:
    def test_identity_outer(self):
        f = S(2, [1], {0: [1.0, 1.0], 1: [1.0]})
        ident = S(2, [1], {0: [0.0, 1.0]})
        assert compose(ident, f) == f

    def test_translations_compose_additively(self):
        f = S(2, [1], {0: [1.0, 1.0]})
        g = S(2, [1], {0: [2.0, 1.0]})
        assert blocks(compose(g, f)) == {F(0): [3 + 0j, 1 + 0j]}

    def test_exponential_through_perturbed_translation(self):
        # independent oracle: e^{-(zeta+1+e^{-zeta})} = e^{-1} e^{-zeta} *
        # sum_j (-e^{-zeta})^j / j!, so level 1+j carries e^{-1} (-1)^j / j!
        g = S(2, [1], {1: [1.0]})
        f = S(2, [1], {0: [1.0, 1.0], 1: [1.0]})
        out = compose(g, f)
        expected = {F(1): E1, F(2): -E1}
        assert set(out.support()) == set(expected)
        for m, v in expected.items():
            assert abs(out.block(m).coeff(0) - v) < 1e-15

    def test_rejects_non_unit_slope(self):
        f = S(2, [1], {0: [0.0, 2.0]})
        g = S(2, [1], {1: [1.0]})
        with pytest.raises(NonUnitSlope):
            compose(g, f)

    def test_associativity_on_random_series(self, rng):
        from conftest import random_hyperbolic_series

        for _ in range(10):
            f = random_hyperbolic_series(rng)
            g = random_hyperbolic_series(rng)
            h = random_hyperbolic_series(rng)
            left = compose(compose(h, g), f)
            right = compose(h, compose(g, f))
            assert max_rel_coeff_diff(left, right) < 1e-10


class TestPowers:
    def test_equal_to_repeated_mul(self):
        v = S(3, [F(1, 2), F(2, 3)], {F(1, 2): [0.3 - 1.1j, 2.0, 0.7j],
                                      F(2, 3): [-1.5, 0.25 + 0.5j]})
        expected = [v]
        while len(expected) < 6:  # 6 * 1/2 = 3 is the last power within the order
            expected.append(mul(expected[-1], v))
        assert [serialize_series(p) for p in powers(v)] == \
            [serialize_series(p) for p in expected]

    def test_zero_series_has_no_powers(self):
        assert powers(ExpPolySeries(3, [1], {})) == ()

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            powers(S(3, [1], {0: [1.0], 1: [1.0]}))

    def test_stops_at_last_power_within_the_order(self):
        # k * 2/3 <= 3 holds up to k = 4; at the boundary k * 1/2 = 2 is kept
        assert len(powers(S(3, [F(2, 3)], {F(2, 3): [1.0]}))) == 4
        assert len(powers(S(2, [F(1, 2)], {F(1, 2): [1.0]}))) == 4

    def test_second_compose_multiplies_no_powers(self, monkeypatch):
        import dulaclin.series

        f = S(3, [F(1, 2)], {0: [1.0, 1.0], F(1, 2): [0.5, 0.2], 1: [-0.3]})
        g = S(3, [F(1, 2)], {0: [0.0, 1.0, 0.5, 0.25]})
        calls = []
        product = dulaclin.series.mul

        def counting(a, b):
            # a power product has two factors of positive order; the Taylor
            # terms multiply an order-0 derivative of g by a power
            if not a.is_zero and effective_order(a, 0.0) > 0 and effective_order(b, 0.0) > 0:
                calls.append((a, b))
            return product(a, b)

        monkeypatch.setattr(dulaclin.series, "mul", counting)
        powers.cache_clear()
        first = compose(g, f)
        assert len(calls) == 5  # delta^2 .. delta^6
        calls.clear()
        assert compose(g, f) == first
        assert calls == []

    def test_picard_builds_no_power_past_trunc_minus_one(self, monkeypatch):
        import dulaclin.series

        # g1/z has order 1/2 and S uses its powers up to trunc - 1 = 2 only
        f1 = S(3, [F(1, 2)], {1: [0.5], F(3, 2): [0.25, 0.1], 2: [-0.3]})
        g_shift = SchroederOperators(f1)._g_shift
        built = []
        product = dulaclin.series.mul

        def recording(a, b):
            out = product(a, b)
            if b == g_shift:
                built.append(out)
            return out

        monkeypatch.setattr(dulaclin.series, "mul", recording)
        powers.cache_clear()
        picard_linearize(f1)
        assert [effective_order(p, 0.0) for p in built] == [1, F(3, 2), 2]  # g_shift^2 .. ^4


class TestOrder:
    def test_zero_series(self):
        assert effective_order(S(2, [1], {}), 0.0) == math.inf

    def test_least_exponent(self):
        a = S(3, [1], {2: [0, 0, 0, 1.0], 3: [1.0]})
        assert effective_order(a, 0.0) == F(2)

    def test_head_is_order_zero(self):
        assert effective_order(S(2, [1], {0: [0.0, 1.0]}), 0.0) == 0

    def test_order_multiplicative(self, rng):
        from conftest import random_hyperbolic_series

        for _ in range(20):
            a = random_hyperbolic_series(rng).tail()
            b = random_hyperbolic_series(rng).tail()
            p = mul(a.with_gens([1, F(1, 2), F(2, 3)]), b.with_gens([1, F(1, 2), F(2, 3)]))
            oa, ob = effective_order(a, 0.0), effective_order(b, 0.0)
            if oa is not math.inf and ob is not math.inf and oa + ob <= p.trunc:
                lead = a.block(oa) * b.block(ob)
                if not lead.is_zero:
                    assert effective_order(p, 0.0) == oa + ob


class TestConjugacyResidual:
    def test_translation_is_linear(self):
        f = S(2, [1], {0: [2.0, 1.0]})
        phi = S(2, [1], {0: [0.0, 1.0]})
        assert conjugacy_residual(phi, f, 2.0).is_zero

    def test_residual_is_perturbation_for_identity(self):
        f = S(1, [1], {0: [1.0, 1.0], 1: [1.0]})
        phi = S(1, [1], {0: [0.0, 1.0]})
        r = conjugacy_residual(phi, f, 1.0)
        assert blocks(r) == {F(1): [1 + 0j]}

    def test_first_level_coefficient_kills_residual(self):
        # oracle: scalar equation q (1 - e^{-1}) = 1
        q = 1.0 / (1.0 - E1)
        f = S(1, [1], {0: [1.0, 1.0], 1: [1.0]})
        phi = S(1, [1], {0: [0.0, 1.0], 1: [q]})
        r = conjugacy_residual(phi, f, 1.0)
        assert r.max_abs_coeff() < 1e-15


class TestCharts:
    def test_pure_translation_maps_to_multiplication(self):
        f = S(2, [1], {0: [0.7 + 0.2j, 1.0]})
        z = to_z_chart(f)
        lam = z.block(1).coeff(0)
        assert abs(lam - cmath.exp(-(0.7 + 0.2j))) < 1e-15
        assert z.support() == (F(1),)

    def test_log2_translation(self):
        f = S(2, [1], {0: [math.log(2), 1.0]})
        z = to_z_chart(f)
        assert abs(z.block(1).coeff(0) - 0.5) < 1e-15

    def test_roundtrip(self):
        f = S(3, [1], {0: [1.0, 1.0], 1: [0.0, 1.0]})
        back = from_z_chart(to_z_chart(f), beta=1.0)
        assert max_rel_coeff_diff(back, f) < 1e-13

    def test_roundtrip_random(self, rng):
        from conftest import random_hyperbolic_series

        for _ in range(15):
            f = random_hyperbolic_series(rng)
            beta = f.block(0).coeff(0)
            back = from_z_chart(to_z_chart(f), beta=beta).with_gens(f.gens)
            assert max_rel_coeff_diff(back, f) < 1e-9

    def test_rejects_general_head(self):
        f = S(2, [1], {0: [-1.0, 1.0]})  # Re(beta) < 0
        with pytest.raises(NotNormalized):
            to_z_chart(f)

    def test_from_z_chart_needs_constant_head_block(self):
        a = S(2, [1], {1: [0.5, 1.0]})
        with pytest.raises(NotNormalized):
            from_z_chart(a)


class TestClassify:
    def test_hyperbolic(self):
        form = classify(S(1, [1], {0: [2.0 + 1j, 1.0], 1: [1.0]}))
        assert form.kind == "hyperbolic" and form.beta == 2.0 + 1j

    def test_parabolic(self):
        assert classify(S(1, [1], {0: [0.0, 1.0], 1: [1.0]})).kind == "parabolic"

    def test_general(self):
        assert classify(S(1, [1], {0: [1.0, 2.0]})).kind == "general"
        assert classify(S(1, [1], {0: [-1.0, 1.0]})).kind == "general"


class TestJson:
    def test_parse_example(self):
        text = '{"trunc":"2/1","gens":["1/1"],"terms":[{"exp":"0/1","poly":[[0,0],[1,0]]}]}'
        a = parse_series(text)
        assert blocks(a) == {F(0): [0j, 1 + 0j]} and a.trunc == 2

    def test_roundtrip_canonical(self):
        f = S(2, [1], {0: [1.0, 1.0], 1: [1.0]})
        text = serialize_series(f)
        assert serialize_series(parse_series(text)) == text

    def test_exponent_outside_semigroup(self):
        text = '{"trunc":"2/1","gens":["1/1"],"terms":[{"exp":"1/2","poly":[[1,0]]}]}'
        with pytest.raises(ExponentNotInSemigroup):
            parse_series(text)

    def test_bad_json_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_series('{"trunc": }')
        assert err.value.position is not None

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_series('{"trunc":"1/1","gens":[]}')


class TestSemigroup:
    def test_points_of_mixed_generators(self):
        pts = semigroup_points((F(1, 2), F(2, 3)), F(2))
        assert F(7, 6) in pts and F(1, 6) not in pts and F(0) in pts

    def test_construction_rejects_strays(self):
        with pytest.raises(ExponentNotInSemigroup):
            S(2, [F(2, 3)], {F(1, 2): [1.0]})


class TestLattice:
    def test_with_trunc_across_a_change_of_lattice(self):
        a = S(F(5, 2), [1], {0: [1.0], 1: [2.0], 2: [3.0]})
        b = a.with_trunc(2)  # lattice step 1/2 -> 1
        assert (a.L, b.L) == (2, 1)
        assert b == S(2, [1], {0: [1.0], 1: [2.0], 2: [3.0]})
        c = S(2, [F(1, 2)], {0: [1.0], F(1, 2): [2.0], F(3, 2): [3.0]}).with_trunc(F(4, 3))
        assert c.L == 6 and c.trunc == F(4, 3)
        assert c == S(F(4, 3), [F(1, 2)], {0: [1.0], F(1, 2): [2.0]})

    def test_an_order_with_a_large_denominator_is_cheap(self):
        # lattice steps of 1e-9 and 1/3e6; only the semigroup points are visited
        t0 = time.perf_counter()
        a = S(3, [1], {0: [1.0], 2: [2.0], 3: [3.0]}).with_trunc(F(2000000001, 10**9))
        b = S(F(8000001, 10**6), [F(1, 2), F(2, 3)], {F(15, 2): [1.0], 8: [2.0]})
        assert time.perf_counter() - t0 < 1.0
        assert a.L == 10**9 and a == S(F(2000000001, 10**9), [1], {0: [1.0], 2: [2.0]})
        assert b.L == 3 * 10**6 and semigroup_points(b.gens, b.trunc)[-3:] == [F(23, 3), F(47, 6), 8]
        assert semigroup_points([1], a.trunc) == [0, 1, 2]

    def test_one_series_built_by_two_routes(self):
        direct = S(2, [F(1, 2)], {F(1, 2): [1.0], 1: [2.0]})
        mixed = S(2, [1], {1: [2.0]}) + S(F(5, 2), [F(1, 2)], {F(1, 2): [1.0]})
        assert mixed.gens == (F(1, 2), 1)
        routed = mixed.with_gens([F(1, 2)])
        assert routed == direct and hash(routed) == hash(direct)
        assert parse_series(serialize_series(direct)) == direct

    def test_shifted_exponent_outside_the_semigroup_raises(self):
        # 4/3 = 2/3 + 2/3, but the shifted 1/3 is not generated by 2/3 and 1
        a = S(3, [F(2, 3), 1], {1: [0.5], F(4, 3): [1.0]})
        with pytest.raises(ExponentNotInSemigroup):
            from_z_chart(a)
        with pytest.raises(ExponentNotInSemigroup):
            SchroederOperators(a)
        with pytest.raises(ExponentNotInSemigroup):
            S(2, [F(1, 2)], {F(1, 2): [1.0]}).with_gens([1])

    def test_deep_order_8_solution_bytes(self):
        # the benchmark's deep series (seed 8): generators 1/2, 2/3, order 8,
        # degree-3 blocks on the four lowest levels; the digest was recorded
        # with exponents stored as Fractions
        rng = random.Random(8)
        gens = (F(1, 2), F(2, 3))
        terms = {F(0): [complex(1.0, 0.3 * (2 * rng.random() - 1)), 1.0]}
        for mu in sorted(p for p in semigroup_points(gens, 8) if p > 0)[:4]:
            terms[mu] = [complex(0.5 * rng.uniform(-1, 1), 0.5 * rng.uniform(-1, 1))
                         for _ in range(4)]
        phi = linearize_level_by_level(S(8, gens, terms)).phi
        assert hashlib.sha256(serialize_series(phi).encode()).hexdigest() == \
            "6911597b001be36cfe8ac036ae6d022cfac5882aafe0e21ed84bb08a107eed59"


# -- property tests ----------------------------------------------------------

small_int = st.integers(min_value=-3, max_value=3)
# (generators, order): operands on different lattices are rescaled to a common one
LATTICES = [((1,), 3), ((1,), 2), ((F(1, 2),), F(5, 2)), ((F(2, 3),), 2),
            ((F(1, 2), F(2, 3)), 3), ((1, F(1, 2)), F(3, 2))]


@st.composite
def int_series(draw):
    # integer coefficients keep the ring laws exact in floating point
    gens, trunc = draw(st.sampled_from(LATTICES))
    points = sorted(semigroup_points(gens, trunc))
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        mu = draw(st.sampled_from(points))
        coeffs = draw(st.lists(small_int, min_size=1, max_size=3))
        terms[mu] = CPoly([complex(c) for c in coeffs])
    return ExpPolySeries(trunc, gens, terms)


@settings(max_examples=60, deadline=None)
@given(int_series(), int_series())
def test_add_commutes_exactly(a, b):
    assert add(a, b) == add(b, a)


@settings(max_examples=60, deadline=None)
@given(int_series(), int_series(), int_series())
def test_add_associates_exactly(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@settings(max_examples=60, deadline=None)
@given(int_series(), int_series())
def test_mul_commutes_exactly(a, b):
    assert mul(a, b) == mul(b, a)


@settings(max_examples=40, deadline=None)
@given(int_series(), int_series(), int_series())
def test_mul_distributes_exactly(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(max_examples=40, deadline=None)
@given(int_series(), int_series(), int_series())
def test_mul_associates_exactly(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=40, deadline=None)
@given(int_series(), int_series())
def test_derivative_is_a_derivation(a, b):
    lhs = derivative(mul(a, b))
    rhs = add(mul(derivative(a), b), mul(a, derivative(b)))
    diff = lhs - rhs
    assert diff.max_abs_coeff() <= 1e-12 * max(1.0, lhs.max_abs_coeff())


def test_real_inputs_stay_exactly_real(rng):
    from conftest import random_hyperbolic_series

    for _ in range(15):
        a = random_hyperbolic_series(rng, real=True)
        b = random_hyperbolic_series(rng, real=True)
        gens = sorted(set(a.gens) | set(b.gens))
        a, b = a.with_gens(gens), b.with_gens(gens)
        for out in (add(a, b), mul(a, b), derivative(a), translate(a, 1.5),
                    compose(a, b)):
            assert max_imag_coeff(out) == 0.0


def test_effective_order_ignores_dust():
    a = S(2, [1], {1: [1e-15], 2: [1.0]})
    assert effective_order(a, 0.0) == F(1)
    assert effective_order(a, 1e-12) == F(2)


def test_evaluate_matches_direct_formula():
    f = S(2, [1], {0: [1.0, 1.0], 1: [2.0, 1.0]})
    z = 1.3 + 0.4j
    direct = z + 1.0 + cmath.exp(-z) * (2.0 + z)
    assert abs(evaluate(f, z) - direct) < 1e-14
