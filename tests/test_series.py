import cmath
import hashlib
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    deep_series,
    evaluate,
    interpreted_series_delta,
    max_imag_coeff,
    random_hyperbolic_series,
    reference_compose,
    reference_eval,
    reference_mul,
    reference_picard_linearize,
    reference_s_apply,
    semigroup_points,
    serialize_series,
)
from dulaclin import linearize
from dulaclin.errors import (
    DulaclinError,
    ExponentNotInSemigroup,
    NonUnitSlope,
    NotNormalized,
    ParseError,
)
from dulaclin.linearize import (
    SchroederOperators,
    linearize_by_picard,
    linearize_level_by_level,
    picard_linearize,
)
from dulaclin.series import (
    CPoly,
    ExpPolySeries,
    add,
    classify,
    compose,
    conjugacy_residual,
    derivative,
    effective_order,
    evaluate_tail,
    from_z_chart,
    lattice_points,
    max_rel_coeff_diff,
    mul,
    parse_series,
    powers,
    prune,
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
        g_shift = SchroederOperators(f1)._factors[0][1]
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
        # the 200-draw corpus extension, each draw back to rounding
        from conftest import random_hyperbolic_series

        for _ in range(200):
            f = random_hyperbolic_series(rng)
            beta = f.block(0).coeff(0)
            back = from_z_chart(to_z_chart(f), beta=beta).with_gens(f.gens)
            assert max_rel_coeff_diff(back, f) <= 1e-13

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
        # one Python loop per block product: the same bytes under every BLAS kernel
        phi = linearize_level_by_level(deep_series()).phi
        assert hashlib.sha256(serialize_series(phi).encode()).hexdigest() == \
            "9c3ed6530b0bf9fdf06e301ffae857d604cd99c2dc1e4e428b9d5dfc7a266ead"


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


def _value_or_error(delta, z):
    """delta(z) as the repr of each part, so signed zeros count, or the error it raised."""
    try:
        w = delta(z)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return repr(w.real), repr(w.imag)


_RNG = random.Random(15)
NEG0 = complex(-0.0, -0.0)
EVALUATOR_CASES = {
    # the head block is zeta + beta exactly: the remainder is zero
    "zero-remainder": (S(2, [F(1, 2)], {0: [1.0, 1.0], F(1, 2): [0.5], 1: [1.0, -2.0],
                                       F(3, 2): [0.5, 0.1, 0.25j], 2: [1, 2j, -3, 0.5 - 1j]}),
                       1.0 + 0j),
    "remainder-complex-beta": (S(2, [1], {0: [1 + 0.75j, 1.0, 1e-3], 1: [2.0 - 1j, 1.0]}),
                               1 + 0.5j),
    "no-head-block": (S(3, [1], {1: [1.0], 3: [0.0, 0.0, 2.5]}), 0.0),
    "negative-zeros": (S(2, [1], {0: [complex(1.0, -0.0), 1.0], 1: [NEG0, complex(1.5, -0.0)],
                                  2: [complex(-0.0, 2.0), NEG0, -1.0]}), complex(1.0, -0.0)),
    # a -0.0 in the head remainder and in the tail at a point with Re < 0, Im = -0.0
    "negative-zero-parts": (S(1, [1], {0: [complex(1.5, -0.0), 1.0], 1: [complex(-2.0, -0.0)]}),
                            1.0 + 0j),
    "degree-0": (S(1, [F(1, 2)], {0: [1.0, 1.0], F(1, 2): [0.5 - 0.25j], 1: [2.0]}), 1.0 + 0j),
    "degree-300": (S(1, [1], {0: [1.0, 1.0],
                              1: [complex(_RNG.uniform(-1, 1), _RNG.uniform(-1, 1)) / (k + 1)
                                  for k in range(301)]}), 1.0 + 0j),
    "3000-terms": (S(1, [F(1, 3000)], {0: [1 + 0.5j, 1.0], **{
        F(k, 3000): [complex(_RNG.uniform(-1, 1), _RNG.uniform(-1, 1))] * (1 + k % 3)
        for k in range(1, 3001)}}), 1 + 0.5j),
    # a deep Horner chain inside a long sum of terms
    "degree-300-1000-terms": (S(1, [F(1, 1000)], {0: [1 + 0.5j, 1.0], **{
        F(k, 1000): [complex(_RNG.uniform(-1, 1), _RNG.uniform(-1, 1)) / (j + 1)
                     for j in range(301 if k == 500 else 1 + k % 3)]
        for k in range(1, 1001)}}), 1 + 0.5j),
}
EVALUATOR_POINTS = [9 + 0j, complex(9.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
                    complex(-1.0, -0.0), 12.5 + 3j, 2 - 7.25j, complex(1e-3, -0.0),
                    complex(-40.0, 1e-300),
                    complex(-720.0, 0.5), complex(math.inf, 0.0), complex(8.0, math.nan)]


class TestCompiledEvaluator:
    """evaluate_tail's compiled function against the interpreter series maps
    were stepped by before, part for part and bit for bit."""

    @pytest.mark.parametrize("case", list(EVALUATOR_CASES))
    def test_bit_for_bit(self, case):
        series, beta = EVALUATOR_CASES[case]
        compiled, reference = evaluate_tail(series, beta)[0], interpreted_series_delta(series, beta)
        for z in EVALUATOR_POINTS:
            assert _value_or_error(compiled, z) == _value_or_error(reference, z), z

    @pytest.mark.parametrize("case", [c for c in EVALUATOR_CASES if c not in (
        "degree-300", "3000-terms", "degree-300-1000-terms")])   # too deep to recurse
    def test_ast_is_the_compiled_operations(self, case):
        # the AST whose enclosure a Koenigs walk compiles, evaluated node by node
        series, beta = EVALUATOR_CASES[case]
        compiled, ast = evaluate_tail(series, beta)
        for z in EVALUATOR_POINTS:
            assert _value_or_error(lambda w: reference_eval(ast, w), z) == \
                _value_or_error(compiled, z), z



# -- the pruned Taylor loops against the loops they replaced -----------------
# compared by canonical bytes, not by ==, which takes -0.0 for 0.0

def _picard_inputs(f: ExpPolySeries, steps: int = 2) -> tuple:
    """The S operator of f's z-chart and the first `steps` Picard iterates,
    the series S is applied to in a solve."""
    f1 = to_z_chart(f)
    ops = SchroederOperators(f1, classify(f).beta)
    psi, inputs = f1._raw({}), []
    for _ in range(steps):
        psi = ops.t_inv(ops.s_apply(psi))
        inputs.append(psi)
    return ops, inputs


def _assert_loops_match_references(f: ExpPolySeries):
    for g in (f, linearize_level_by_level(f).phi):
        assert serialize_series(compose(g, f)) == serialize_series(reference_compose(g, f))
    ops, inputs = _picard_inputs(f)
    for h in inputs:
        assert serialize_series(ops.s_apply(h)) == serialize_series(reference_s_apply(ops, h))


def test_pruned_loops_match_references_on_the_corpus():
    rng = random.Random(20260808)
    for _ in range(100):
        _assert_loops_match_references(random_hyperbolic_series(rng))


@pytest.mark.parametrize("order", [4, 6, 8])
def test_pruned_loops_match_references_on_the_deep_series(order):
    _assert_loops_match_references(deep_series(order))


def _assert_level_residual_is_conjugacy_residual(f: ExpPolySeries):
    # by lattice and by the repr of every coefficient, signed zeros included
    res = linearize_level_by_level(f)
    ref = conjugacy_residual(res.phi, f, res.beta)
    got = res.residual
    assert (got.L, got.n, got.g, repr(got.items)) == (ref.L, ref.n, ref.g, repr(ref.items))


def test_level_residual_is_conjugacy_residual_on_the_corpus():
    rng = random.Random(20260808)
    for _ in range(100):
        _assert_level_residual_is_conjugacy_residual(random_hyperbolic_series(rng))


@pytest.mark.parametrize("order", [4, 6, 8])
def test_level_residual_is_conjugacy_residual_on_the_deep_series(order):
    _assert_level_residual_is_conjugacy_residual(deep_series(order))


@settings(max_examples=60, deadline=None)
@given(int_series(), st.sampled_from([1.0, 0.5 + 2j, 3 - 1j]))
def test_level_residual_is_conjugacy_residual_bytes(b, beta):
    _assert_level_residual_is_conjugacy_residual(
        add(b.tail(), S(b.trunc, b.gens, {0: [beta, 1.0]})))


def assert_well_formed(s: ExpPolySeries):
    """Every key a point of the series' own semigroup, keys strictly
    ascending, no zero block: what the constructor's check guarantees."""
    keys = [k for k, _ in s.items]
    assert all(k in lattice_points(s.g, s.n) for k in keys)
    assert keys == sorted(set(keys)) and all(b.coeffs for _, b in s.items)


@settings(max_examples=80, deadline=None)
@given(int_series(), int_series(), st.sampled_from([0.0, 1.0, 0.5 + 2j, 3 - 1j]))
def test_every_result_key_is_a_semigroup_point(a, b, c):
    # results that keep their operand's keys and those whose keys are sums or
    # unions are built without the lattice lookup; a scale by 0 empties blocks
    f = add(b.tail(), S(b.trunc, b.gens, {0: [c or 1.0, 1.0]}))
    results = [a.scale(c), a.scale_div(c or 2.0), -a, derivative(a), translate(a, c),
               prune(a, b), prune(a, b.tail()), a.tail(), add(a, b), a - b, mul(a, b),
               compose(a, f), conjugacy_residual(a, f, c or 1.0),
               *powers(b.tail()), to_z_chart(f), from_z_chart(to_z_chart(f))]
    for r in results:
        assert_well_formed(r)


@settings(max_examples=60, deadline=None)
@given(int_series(), int_series())
def test_mul_matches_reference_bytes(a, b):
    assert serialize_series(mul(a, b)) == serialize_series(reference_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(int_series(), int_series(), st.sampled_from([1.0, 0.5 + 2j, 3 - 1j]))
def test_compose_matches_reference_bytes(g, b, beta):
    f = add(b.tail(), S(b.trunc, b.gens, {0: [beta, 1.0]}))
    assert serialize_series(compose(g, f)) == serialize_series(reference_compose(g, f))


@settings(max_examples=60, deadline=None)
@given(int_series(), int_series(), st.sampled_from([0.5, 0.3 + 0.4j, -0.25j]))
def test_s_apply_matches_reference_bytes(g, h, lam):
    # f1 = lam*z + z*(the terms of g above order 0); h keeps its own lattice
    f1 = S(g.trunc + 1, (*g.gens, 1), {1: [lam], **{m + 1: b for m, b in g.terms if m > 0}})
    h = h._raw({k: b for k, b in h.items if k > h.L})
    ops = SchroederOperators(f1)
    assert serialize_series(ops.s_apply(h)) == serialize_series(reference_s_apply(ops, h))


# f1 = to_z_chart of this f is on the lattice 1/2 at order 4; the cut-off
# of S's terms must be taken on the common lattice, not in h's own units
FOREIGN_LATTICE_F = S(3, [F(1, 2)], {0: [1 + 0.5j, 1], F(1, 2): [0.3, 0.2], 2: [0.1j]})


@pytest.mark.parametrize("h", [
    S(3, [1], {2: [0.4, -0.1j], 3: [0.2 + 0.3j, 1.0]}),
    S(5, [1], {2: [0.4, -0.1j], 4: [1.5j], 5: [0.25]}),
    S(4, [F(1, 4)], {F(5, 4): [0.3j, 0.1], F(3, 2): [-0.2], F(9, 4): [0.7, 0.0, 0.5j]}),
    S(3, [F(1, 4)], {F(5, 4): [0.3j, 0.1], F(11, 4): [1.0 - 1j], 3: [2.0]}),
    # every block is pruned from the first term, which still sets the lattice
    S(3, [1], {3: [1.0, 0.5]}),
    S(4, [F(1, 3)], {4: [1.0, 0.5]}),
], ids=["coarser", "coarser-higher-order", "finer", "finer-lower-order",
        "coarser-top-block", "other-lattice-top-block"])
def test_s_apply_on_a_foreign_lattice_matches_reference(h):
    ops = SchroederOperators(to_z_chart(FOREIGN_LATTICE_F))
    assert serialize_series(ops.s_apply(h)) == serialize_series(reference_s_apply(ops, h))


class TestPrunedWork:
    """Shifted blocks: the bytes above cannot see a block computed only to
    be dropped, so the pruning is pinned by its count."""

    @staticmethod
    def shifted_blocks(monkeypatch) -> list:
        calls = []
        shift = CPoly.shift

        def counting(block, c):
            calls.append(block)
            return shift(block, c)

        monkeypatch.setattr(CPoly, "shift", counting)
        return calls

    def test_compose_of_a_top_level_block_shifts_it_once(self, monkeypatch):
        f = S(3, [F(1, 2)], {0: [1.0, 1.0], F(1, 2): [0.5, 0.2], 1: [-0.3]})
        g = S(3, [F(1, 2)], {3: [0.25, 1.0, 0.5]})
        calls = self.shifted_blocks(monkeypatch)
        compose(g, f)
        assert len(calls) == 1  # unpruned: once more per power of delta, 7

    def test_s_of_a_top_level_block_shifts_nothing(self, monkeypatch):
        ops = SchroederOperators(to_z_chart(FOREIGN_LATTICE_F))
        h = S(4, [F(1, 2), 1], {4: [1.0, 0.5]})
        calls = self.shifted_blocks(monkeypatch)
        ops.s_apply(h)
        assert calls == []  # unpruned: one per power of g1/z, 6

    def test_deep_order_8_level_solve_shifts_408_blocks(self, monkeypatch):
        calls = self.shifted_blocks(monkeypatch)
        linearize_level_by_level(deep_series())
        # 406 for the levels, 2 for zeta and its derivative in the verifying
        # pass; unpruned: 812
        assert len(calls) == 408


# -- the settled Picard sweeps against the loop they replaced ----------------

def _picard_outcome(solve, f1: ExpPolySeries, beta=None) -> tuple:
    """phi's canonical bytes and the residual order of a Picard solve, or
    the error it raised."""
    try:
        res = solve(f1, beta)
    except (DulaclinError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return serialize_series(res.phi), res.residual_ord


def _assert_picard_matches_reference(f1: ExpPolySeries, beta=None):
    assert _picard_outcome(picard_linearize, f1, beta) \
        == _picard_outcome(reference_picard_linearize, f1, beta)


def test_settled_picard_matches_reference_on_the_corpus():
    rng = random.Random(20260808)
    for _ in range(100):
        f = random_hyperbolic_series(rng)
        _assert_picard_matches_reference(to_z_chart(f), classify(f).beta)


@pytest.mark.parametrize("order", [4, 6])
def test_settled_picard_matches_reference_on_the_deep_series(order):
    f = deep_series(order)
    _assert_picard_matches_reference(to_z_chart(f), classify(f).beta)


@settings(max_examples=60, deadline=None)
@given(int_series(), st.sampled_from([0.5, 0.3 + 0.4j, -0.25j, 0.9]))
def test_settled_picard_matches_reference_bytes(g, lam):
    # f1 = lam*z + z*(the terms of g above order 0), as for S above
    f1 = S(g.trunc + 1, (*g.gens, 1), {1: [lam], **{m + 1: b for m, b in g.terms if m > 0}})
    _assert_picard_matches_reference(f1)


@pytest.mark.parametrize("f1", [
    S(4, [1], {1: [0.5], 2: [1e120]}),
    S(3, [F(1, 2)], {1: [0.5], F(3, 2): [1e120, 1.0]}),
], ids=["lattice-1", "lattice-1/2"])
def test_settled_picard_past_an_overflow_exceeds_the_budget(f1):
    # psi overflows at the top block: the pass stops there, while the
    # reference's sweeps settle on a NaN and run into their budget
    assert _picard_outcome(picard_linearize, f1)[0] == "OverflowError"
    assert _picard_outcome(reference_picard_linearize, f1)[0] == "IterationBudgetExceeded"


def test_settled_picard_work_on_the_corpus(monkeypatch):
    # the bytes above cannot see an S or a solve whose result is dropped
    calls = {"s_apply": 0, "solve_difference_eq": 0}
    s_apply, solve = SchroederOperators.s_apply, linearize.solve_difference_eq

    def counting_s_apply(ops, h):
        calls["s_apply"] += 1
        return s_apply(ops, h)

    def counting_solve(P, c, beta):
        calls["solve_difference_eq"] += 1
        return solve(P, c, beta)

    monkeypatch.setattr(SchroederOperators, "s_apply", counting_s_apply)
    monkeypatch.setattr(linearize, "solve_difference_eq", counting_solve)
    rng = random.Random(20260808)
    for _ in range(100):
        linearize_by_picard(random_hyperbolic_series(rng))
    # one S per solve, the check sweep's, and each block of psi solved twice,
    # in the pass and in the check (the reference loop: 336 and 1,194)
    assert calls == {"s_apply": 100, "solve_difference_eq": 570}
    calls.update(s_apply=0, solve_difference_eq=0)
    linearize_by_picard(deep_series(8))
    assert calls == {"s_apply": 1, "solve_difference_eq": 90}


def test_picard_check_sweep_catches_a_perturbed_s(monkeypatch):
    # negative control: with S's lowest block off by 1e-12 relative, the
    # pass's psi is no fixed point of the sweep (a one-ulp nudge can be
    # absorbed by T^-1's rounding)
    s_apply = SchroederOperators.s_apply

    def perturbed(ops, h):
        (k, b), *rest = s_apply(ops, h).items
        return h._raw({k: b.scale(1 + 1e-12), **dict(rest)})

    monkeypatch.setattr(SchroederOperators, "s_apply", perturbed)
    rng = random.Random(20260808)
    for _ in range(100):
        with pytest.raises(ArithmeticError, match="not a fixed point"):
            linearize_by_picard(random_hyperbolic_series(rng))


def _picard_to_no_bit_change(f1: ExpPolySeries, beta) -> ExpPolySeries:
    """phi of full Picard sweeps, every block of every sweep, run until a
    sweep changes no bit of psi; at most 64 sweeps."""
    ops = SchroederOperators(f1, beta)
    psi = f1._raw({})
    for _ in range(64):
        nxt = ops.t_inv(ops.s_apply(psi))
        if serialize_series(nxt) == serialize_series(psi):
            return from_z_chart(add(psi, f1._raw({f1.L: CPoly([1.0])})))
        psi = nxt
    raise AssertionError("full Picard sweeps still change after 64 sweeps")


@pytest.mark.parametrize("eps", [1e-15, 1e-6])
def test_picard_on_a_tiny_perturbation_reaches_the_fixed_point(eps):
    # a step of 1e-12 relative would stop the sweeps before they settle
    f = S(4, [F(1, 2)], {0: [1 + 0.3j, 1.0], F(1, 2): [eps * (1 + 1j)], 1: [eps]})
    f1, beta = to_z_chart(f), classify(f).beta
    phi = picard_linearize(f1, beta).phi
    assert serialize_series(phi) == serialize_series(_picard_to_no_bit_change(f1, beta))
    level = linearize_level_by_level(f).phi
    step_stopped = reference_picard_linearize(f1, beta).phi
    assert max_rel_coeff_diff(phi.with_gens(f.gens), level) \
        <= max_rel_coeff_diff(step_stopped.with_gens(f.gens), level)


def reference_max_rel_coeff_diff(a: ExpPolySeries, b: ExpPolySeries) -> float:
    """`series.max_rel_coeff_diff` as it was with Fraction supports and a
    `block` lookup per exponent: the bit-for-bit reference."""
    worst = 0.0
    for m in set(a.support()) | set(b.support()):
        pa, pb = a.block(m), b.block(m)
        for d in range(max(pa.degree, pb.degree) + 1):
            x, y = pa.coeff(d), pb.coeff(d)
            worst = max(worst, abs(x - y) / max(1.0, abs(x), abs(y)))
    return worst


def test_max_rel_coeff_diff_matches_reference_on_the_corpus():
    rng = random.Random(20260808)
    for _ in range(100):
        f = random_hyperbolic_series(rng)
        a, b = linearize_level_by_level(f).phi, linearize_by_picard(f).phi
        for x, y in [(a, b), (b, a), (a, f), (f, a.tail())]:
            assert repr(max_rel_coeff_diff(x, y)) == repr(reference_max_rel_coeff_diff(x, y))


@pytest.mark.parametrize("a, b", [
    # lattices 1/2 and 1/3, orders 3 and 2: every block of either counts
    (S(3, [F(1, 2)], {0: [1.0, 2.0], F(1, 2): [1.0], 3: [5.0]}),
     S(2, [F(2, 3)], {0: [1.0, 2.5, 1e-3], F(2, 3): [2.0], 2: [3.0]})),
    # NaN coefficients, first and last, never enter the max
    (S(2, [1], {0: [math.nan, 1.0], 1: [1.0, 3.0], 2: [2.0, math.nan]}),
     S(2, [1], {0: [0.5, 1.0], 1: [2.0, 2.0], 2: [2.0, 1.0]})),
    (S(2, [1], {0: [math.nan]}), S(2, [1], {})),
    (S(2, [1], {}), S(2, [1], {})),
    (S(2, [1], {1: [math.inf, -0.0, 1.0]}), S(2, [1], {1: [1.0, 0.0, 1.0]})),
], ids=["lattices", "nan", "nan-only", "zero", "inf"])
def test_max_rel_coeff_diff_matches_reference(a, b):
    for x, y in [(a, b), (b, a)]:
        assert repr(max_rel_coeff_diff(x, y)) == repr(reference_max_rel_coeff_diff(x, y))
