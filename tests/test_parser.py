import cmath
import math
import random

import pytest
from conftest import reference_enclose, reference_eval
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dulaclin import exprparse
from dulaclin.domains import AsymptoticProfile
from dulaclin.dynamics import AnalyticMap
from dulaclin.errors import EvalDomainError, ParseError
from dulaclin.exprparse import (
    UNDERFLOW,
    _tokenize,
    compile_ast,
    delta_ast,
    eval_ast,
    parse_expression,
)
from dulaclin.series import ExpPolySeries, evaluate_tail

PROF = AsymptoticProfile(1 + 0j, 1.0, 0, 2.0)


def ev(text, z):
    return eval_ast(parse_expression(text), z)


class TestParsing:
    def test_simple_germ_value(self):
        f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", PROF)
        assert abs(f(5 + 0j) - (6 + math.exp(-5))) < 1e-14

    def test_showcase_expression(self):
        text = ("zeta + 2 + 3*pi*i + zeta^-1*L1^-2 + zeta^-2*L2^2"
                " + exp(-zeta)/(1-exp(-zeta)*L1)")
        prof = AsymptoticProfile(complex(2, 3 * math.pi), 1.0, 2, 10.0)
        f = AnalyticMap.from_expression(text, prof)
        z = 20 + 3j
        l1 = cmath.log(z)
        l2 = cmath.log(l1)
        expect = (z + 2 + 3j * math.pi + 1 / (z * l1 ** 2) + l2 ** 2 / z ** 2
                  + cmath.exp(-z) / (1 - cmath.exp(-z) * l1))
        assert abs(f(z) - expect) < 1e-12
        assert f.profile.beta == complex(2, 3 * math.pi)

    def test_double_plus_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("zeta + + 1")
        assert err.value.position == 7

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expression("zeta + foo(1)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("zeta + 1 )")

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("zeta^1.5")
        with pytest.raises(ParseError):
            parse_expression("zeta^zeta")

    @pytest.mark.parametrize("text, tokens", [
        ("12E+3*zeta - .5", [("num", "12E+3", 0), ("op", "*", 5), ("name", "zeta", 6),
                             ("op", "-", 11), ("num", ".5", 13), ("end", "", 15)]),
        ("  L1 ^ -2 ", [("name", "L1", 2), ("op", "^", 5), ("op", "-", 7), ("num", "2", 8),
                        ("end", "", 10)]),
    ])
    def test_tokens(self, text, tokens):
        # kind, text and offset; a number's exponent belongs to its token
        assert _tokenize(text) == tokens

    def test_precedence(self):
        assert ev("2 + 3 * 4 ^ 2", 0j) == 50
        assert ev("-zeta^2", 2 + 0j) == -4
        assert ev("6 / 2 / 3", 0j) == 1
        assert ev("2 - 3 - 4", 0j) == -5

    def test_constants(self):
        assert ev("pi", 0j) == complex(math.pi)
        assert ev("i*i", 0j) == -1
        assert ev("1/2", 0j) == 0.5


class TestEvaluationGuards:
    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ev("1/(zeta - 2)", 2 + 0j)

    def test_log_left_half_plane(self):
        with pytest.raises(EvalDomainError):
            ev("log(zeta)", -3 + 1j)

    def test_iterated_log_guard(self):
        # log(0.5) < 0, so the second log trips the half-plane guard
        with pytest.raises(EvalDomainError):
            ev("L2(zeta)", 0.5 + 0j)
        assert abs(ev("L2(zeta)", complex(math.exp(math.e), 0)) - 1.0) < 1e-14
        assert ev("L1", 5 + 0j) == cmath.log(5)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            ev("zeta^-1", 0j)


class TestCompile:
    def test_constants_bound_by_name(self):
        # the compiled code holds no number from the input, only integer exponents
        f = compile_ast(parse_expression("zeta^3 * 2.5e-3 + 0.125*i - pi/7"))
        assert all(c is None or type(c) is int for c in f.__code__.co_consts)
        z = 1.5 - 0.25j
        assert f(z) == (z ** 3 * 2.5e-3 + 0.125j) - complex(math.pi) / 7

    def test_divisor_checked_before_dividend(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            ev("log(zeta - 9)/(zeta - 9)", 9 + 0j)

    def test_division_chain(self):
        assert ev("1/zeta/zeta/zeta", 2 + 0j) == 0.125
        assert ev("zeta/(zeta/(zeta/2))", 3 + 0j) == 1.5

    def test_deep_division_chain_compiles(self):
        # one assignment per operation: no chain is too deep to compile
        f = compile_ast(parse_expression("1/" * 300 + "zeta"))
        assert f(2 + 0j) == 0.5
        with pytest.raises(EvalDomainError, match="division by zero"):
            f(0j)

    def test_matches_the_recursive_reference_on_random_asts(self):
        rng = random.Random(20261019)
        trees = [random_ast(rng, 5) for _ in range(400)]
        kinds = {n[1] if n[0] == "call" else n[0] for t in trees for n in exprparse._postorder(t)}
        assert kinds == {"num", "zeta", "neg", "add", "sub", "mul", "div", "pow", "exp", "log",
                         "ilog"}
        for tree in trees:
            f = compile_ast(tree)
            for z in RANDOM_POINTS:
                assert value_or_error(f, z) == value_or_error(
                    lambda w: reference_eval(tree, w), z), (tree, z)


# signed zeros, huge and tiny parts, infinities, NaN and a float constant
RANDOM_NUMS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j,
               -2.5 + 0.5j, 1e300 + 0j, 1e-300j, complex(math.inf, 0.0), complex(math.nan, 1.0),
               -3.0]
RANDOM_POINTS = [2 + 1j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), -3 + 0.5j, 800 + 0j,
                 -800 - 2j, complex(math.inf, 0.0), complex(-math.inf, 1.0),
                 complex(1.0, math.inf), complex(math.nan, 0.0)]


def random_ast(rng: random.Random, depth: int):
    """An AST of every node kind, at most `depth` operations deep."""
    if depth == 0 or rng.random() < 0.2:
        return ("zeta",) if rng.random() < 0.5 else ("num", rng.choice(RANDOM_NUMS))
    op = rng.choice(["neg", "add", "sub", "mul", "div", "pow", "exp", "log", "ilog"])
    if op in ("add", "sub", "mul", "div"):
        return (op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if op == "pow":
        return ("pow", random_ast(rng, depth - 1), rng.choice([-3, -2, -1, 0, 1, 2, 3, 17]))
    if op == "ilog":
        return ("ilog", rng.randint(1, 3), random_ast(rng, depth - 1))
    return ("neg", random_ast(rng, depth - 1)) if op == "neg" else \
        ("call", op, random_ast(rng, depth - 1))


def value_or_error(f, z):
    """f(z) as the repr of each part, so signed zeros count, or the type and
    message of what it raised."""
    try:
        w = f(z)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(w.real), repr(w.imag)


EXP = ("call", "exp", ("neg", ("zeta",)))   # exp(-zeta)


def unit_products(node) -> list:
    """The ("mul", ("num", +/-1), .) nodes of an AST."""
    own = [node] if node[0] == "mul" and node[1] in (("num", 1 + 0j), ("num", -1 + 0j)) else []
    return own + [m for c in node[1:] if isinstance(c, tuple) for m in unit_products(c)]


class TestAffineSplit:
    def test_exact_translation_detected(self):
        f = AnalyticMap.from_expression("zeta + 1", PROF)
        assert f.exact_translation
        assert f.delta(13 + 2j) == 0j
        assert delta_ast(parse_expression("zeta + 1"), 1.0 + 0j) == (("num", 0j), True)

    def test_offset_folds_constants(self):
        ast = parse_expression("zeta + 1 + exp(-zeta)")
        assert delta_ast(ast, 1.0 + 0j) == (("add", ("num", 0j), EXP), False)

    @pytest.mark.parametrize("text, offset", [("zeta + 1 + 1e300*1e300", "(inf+0j)"),
                                              ("zeta + 1 - 1e300*1e300", "(-inf+0j)")])
    def test_infinite_constant_folds_without_nan(self, text, offset):
        # an int sign times inf+0j is inf+nanj: the constant is added or subtracted
        (kind, value), exact = delta_ast(parse_expression(text), 1.0 + 0j)
        assert (kind, repr(value), exact) == ("num", offset, False)

    def test_constant_keeps_a_negative_zero(self):
        # 1*complex(2.0, -0.0) and 0j + complex(2.0, -0.0) both drop the zero's sign
        node = ("add", ("zeta",), ("num", complex(2.0, -0.0)))
        (kind, value), exact = delta_ast(node, 1.0 + 0j)
        assert (kind, repr(value), exact) == ("num", "(1-0j)", False)

    def test_constants_fold_in_one_compile(self, monkeypatch):
        # the zeta-free terms 1 and 0.5*i of the benchmark's second germ are
        # one chain (-0j + 1 + 0.5*i) - beta, compiled and evaluated once
        compiled = []
        compile_ast = exprparse.compile_ast
        monkeypatch.setattr(exprparse, "compile_ast",
                            lambda node: compiled.append(node) or compile_ast(node))
        ast = parse_expression("zeta + 1 + 0.5*i + exp(-zeta) + (zeta^2/4 - 1)*exp(-2*zeta)")
        ((_, (_, (kind, value), _), _), exact) = delta_ast(ast, 1 + 0.5j)
        assert len(compiled) == 1
        assert (kind, repr(value), exact) == ("num", "0j", False)

    def test_only_the_first_bare_zeta_is_removed(self):
        ast = parse_expression("2*zeta - zeta + 1 + zeta + zeta")
        assert delta_ast(ast, 1.0 + 0j) == (
            ("add", ("sub", ("add", ("num", 0j), ("mul", ("num", 2 + 0j), ("zeta",))), ("zeta",)),
             ("zeta",)), False)

    def test_no_split_without_top_level_zeta(self):
        ast = parse_expression("(zeta^2 + 1)/zeta")
        assert delta_ast(ast, 1.0 + 0j) == (("sub", ("sub", ast, ("zeta",)), ("num", 1.0 + 0j)),
                                            False)

    def test_fallback_map_still_evaluates(self):
        prof = AsymptoticProfile(0.5 + 0j, 1.0, 0, 3.0)
        f = AnalyticMap.from_expression("(zeta^2 + 0.5*zeta + 1)/zeta", prof)
        z = 6 + 0j
        assert abs(f(z) - (z * z + 0.5 * z + 1) / z) < 1e-14
        # fallback perturbation: f - zeta - beta, cancellation-limited
        assert abs(f.delta(z) - 1 / z) < 1e-12

    def test_subtraction_chain(self):
        # beta declared as 1, expression constants sum to -1: offset = -2
        f = AnalyticMap.from_expression("zeta - 1 - exp(-zeta)", PROF)
        assert abs(f.delta(100 + 0j) + 2.0) < 1e-12
        ast = parse_expression("zeta - 1 - exp(-zeta)")
        assert delta_ast(ast, 1.0 + 0j) == (("sub", ("num", -2 + 0j), EXP), False)
        ast = parse_expression("zeta - (zeta^-1 - 2) + exp(-zeta) - -zeta^-2")
        assert delta_ast(ast, 1.0 + 0j) == (("add", ("add", ("sub", ("num", 1 + 0j),
                                                              ("pow", ("zeta",), -1)),
                                                       EXP), ("pow", ("zeta",), -2)), False)

    @pytest.mark.parametrize("text", [
        "zeta + 1 + exp(-zeta)",
        "zeta - 1 - exp(-zeta)",
        "zeta + 1 + 0.5*i + exp(-zeta) - (zeta^2/4 - 1)*exp(-2*zeta)",
        "-(exp(-zeta) - zeta) + 1 - zeta^-1*L1^-2",
        "(zeta^2 + 1)/zeta",
    ])
    def test_terms_keep_their_sign_without_a_unit_product(self, text):
        ast = parse_expression(text)
        assert unit_products(ast) == []
        delta, _ = delta_ast(ast, 1.0 + 0j)
        assert unit_products(delta) == []


FAR = (746.0, 3000.0)   # Re, where exp(-zeta) underflows to 0
IM = (-3.0, 2.0)


def enclose(node, re, im):
    """The AST's compiled enclosure on one rectangle."""
    return compile_ast(node, box=True)(re, im)


def vanishes(node, re, im) -> bool:
    """Whether enclose proves the node +/-0 in both parts on the rectangle."""
    return enclose(node, re, im) == ((0.0, 0.0), (0.0, 0.0))


def held(box, value) -> bool:
    """Whether both parts of value lie in the enclosure box, an exact 0
    part as +/-0."""
    return all(iv[0] <= x <= iv[1] for iv, x in zip(box, (value.real, value.imag)))


class TestVanishes:
    """The compiled enclosure: where it proves both parts +/-0, and its exact
    zero parts."""

    @pytest.mark.parametrize("text, re, expected", [
        pytest.param("exp(-zeta)", FAR, True, id="exp-past-746"),
        # exp(-745) is a subnormal, not 0
        pytest.param("exp(-zeta)", (745.0, 3000.0), False, id="exp-past-745"),
        pytest.param("exp(-zeta)^0", FAR, False, id="pow-0"),  # 1: ^0 is not provable
        pytest.param("exp(-zeta)^3 + (zeta^2/4 - 1)*exp(-2*zeta)", FAR, True,
                     id="powers-and-quotients"),
        pytest.param("exp(-zeta)/(zeta - 3)", FAR, True, id="divisor-off-0"),
        pytest.param("exp(-zeta)/(zeta - 800)", FAR, False, id="divisor-holding-0"),
        pytest.param("exp(-zeta)*(zeta - 3)^-2", FAR, True, id="negative-power-off-0"),
        # 0 to a negative power raises
        pytest.param("exp(-zeta)*(zeta - 800)^-2", FAR, False, id="negative-power-holding-0"),
        pytest.param("exp(-zeta)*zeta^16", FAR, True, id="pow-16"),
        # a bound passes 1e300
        pytest.param("exp(-zeta)*zeta^16", (746.0, 1e19), False, id="pow-16-past-1e300"),
        pytest.param("exp(-zeta)*(1e200*1e200)", FAR, False, id="nan-factor"),  # 0*inf is a NaN
        pytest.param("exp(-zeta)*zeta^17", FAR, False, id="pow-17"),  # above the power cap
        pytest.param("exp(-zeta)*log(zeta)", FAR, False, id="log"),
        pytest.param("exp(-zeta)*L1", FAR, False, id="L1"),
        # cmath.exp raises past Re 709.78
        pytest.param("0*exp(zeta)", FAR, False, id="exp-overflow"),
        pytest.param("0*exp(zeta)", (8.0, 600.0), True, id="exp-bounded"),
        pytest.param("exp(-(zeta - 800)^2)", FAR, False, id="bump"),
        pytest.param("exp(-zeta) - exp(-2*zeta) + 0", FAR, True, id="sum"),
        pytest.param("exp(-zeta) + 1e-300", FAR, False, id="nonzero-constant"),
    ])
    def test_proves_only_where_it_holds(self, text, re, expected):
        node = parse_expression(text)
        assert vanishes(node, re, IM) is expected
        if expected:  # the compiled function returns +/-0 in both parts on the rectangle
            f = compile_ast(node)
            for x in (re[0], (re[0] + re[1]) / 2, re[1]):
                for y in (*IM, 0.0, -0.0):
                    assert not f(complex(x, y))

    @pytest.mark.parametrize("text, im, exact", [
        # on the real axis, exp, products and sums of real constants stay real
        pytest.param("exp(-zeta)", (0.0, 0.0), (False, True), id="exp-real-axis"),
        pytest.param("exp(-zeta)", (-0.0, -0.0), (False, True), id="exp-negative-zero"),
        pytest.param("(zeta^2/4 - 1)*exp(-2*zeta) - exp(-zeta)/(zeta - 3)", (0.0, 0.0),
                     (False, False), id="divisor"),  # a nonzero quotient is not exact
        pytest.param("(0*zeta + 1)*zeta + 0.5 + exp(-1.5*zeta)*(0.1*zeta + 0.5)",
                     (0.0, 0.0), (False, True), id="horner"),
        pytest.param("i*exp(-zeta)", (0.0, 0.0), (True, False), id="imaginary"),
        # negative controls: the rectangle or a constant leaves the real axis
        pytest.param("exp(-zeta)", (0.0, 1e-300), (False, False), id="exp-off-axis"),
        pytest.param("exp(-zeta) + 1e-300*i", (0.0, 0.0), (False, False), id="complex-constant"),
        pytest.param("exp(-i*zeta)", (0.0, 0.0), (False, False), id="rotated"),
        pytest.param("exp(-zeta)*(1 + 1e-300*i)", (0.0, 0.0), (False, False),
                     id="complex-factor"),
    ])
    def test_exact_zero_parts(self, text, im, exact):
        # a part enclosed as [0, 0] is +/-0 wherever the function is evaluated;
        # every part holds the compiled values
        node = parse_expression(text)
        box = enclose(node, (8.0, 50.0), im)
        assert tuple(iv == (0.0, 0.0) for iv in box) == exact
        f = compile_ast(node)
        for x in (8.0, 8.5, 13.0, 50.0):
            for y in sorted({*im, (im[0] + im[1]) / 2}):
                assert held(box, f(complex(x, y)))

    @pytest.mark.parametrize("text", [
        "exp(-zeta)", "exp(-zeta)*zeta^3 - 2*i*exp(-2*zeta)", "exp(-(zeta - 3)^2)/(zeta + i)",
        "exp(-zeta)*(zeta - 3)^-2 + 0.5 - 0.25*i",
    ])
    def test_enclosure_holds_every_value(self, text):
        node = parse_expression(text)
        box = enclose(node, (8.0, 40.0), IM)
        f = compile_ast(node)
        for x in (8.0, 8.25, 9.75, 23.0, 40.0):
            for y in (*IM, -1.5, 0.0, -0.0, 1.0):
                assert held(box, f(complex(x, y)))

    def test_nested_powers_enclose_each_base_once(self, monkeypatch):
        # c_powu's square-and-multiply runs on the enclosures: 5 products per
        # ^16, not one enclosure of the base per factor (16^6 of them here)
        products = []
        cmul = exprparse._cmul
        monkeypatch.setattr(exprparse, "_cmul", lambda a, b: products.append(1) or cmul(a, b))
        node = parse_expression("((((((exp(-zeta)^16)^16)^16)^16)^16)^16)")
        assert vanishes(node, FAR, IM)
        assert len(products) == 6 * 5
        assert not compile_ast(node)(complex(FAR[0], IM[0]))

    def test_deep_ast_is_analysed(self):
        # the enclosure walks an explicit stack, so no depth is too deep for it
        assert vanishes(parse_expression("exp(-zeta)" + "*1" * 2000), FAR, IM)
        series = ExpPolySeries(521, [1], {0: [1, 1], **{k: [1e-3] for k in range(1, 521)}})
        assert vanishes(evaluate_tail(series, 1 + 0j)[1], (2000.0, 3000.0), IM)

    @pytest.mark.parametrize("y", [0.0, -0.0, 1.0, -2.5, 3.0, 1e10])
    def test_platform_exp_underflows_at_the_cut(self, y):
        # the one libm assumption of UNDERFLOW: exp(-746) rounds to 0.0
        assert not cmath.exp(complex(UNDERFLOW, y))


# the grammar's nodes, with constants and rectangle bounds at the edges the
# enclosure decides on: signed zeros, 1e300 (_BOUND), Re 746 (UNDERFLOW)
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, -1e300, 9.9e299, 1.1e300]
constants = st.one_of(st.sampled_from([complex(x, y) for x in EDGES[:5] for y in EDGES[:4]]
                                      + [complex(x, 0.0) for x in EDGES[5:]] + [1e300j, -1e300j]),
                      st.complex_numbers(max_magnitude=1e3))
asts = st.recursive(
    st.one_of(st.just(("zeta",)), st.builds(lambda c: ("num", c), constants)),
    lambda kids: st.one_of(
        st.builds(lambda a: ("neg", a), kids),
        st.builds(lambda op, a, b: (op, a, b), st.sampled_from(["add", "sub", "mul", "div"]),
                  kids, kids),
        st.builds(lambda a, n: ("pow", a, n), kids, st.integers(-17, 17)),
        st.builds(lambda f, a: ("call", f, a), st.sampled_from(["exp", "exp", "log"]), kids),
        st.builds(lambda a: ("ilog", 1, a), kids)),
    max_leaves=10)
bounds = st.one_of(st.sampled_from([*EDGES, -746.0, 745.0, 746.0, 800.0, 3000.0]),
                   st.floats(-1e3, 1e3))
intervals = st.builds(lambda a, b: (min(a, b), max(a, b)), bounds, bounds)
rects = st.tuples(st.one_of(intervals, st.tuples(st.sampled_from([746.0, 750.0]),
                                                 st.sampled_from([800.0, 3000.0, 1e300]))),
                  st.one_of(st.sampled_from([(0.0, 0.0), (-0.0, -0.0)]), intervals))


@seed(32)
@settings(max_examples=400, deadline=None)
@given(asts, st.lists(rects, min_size=1, max_size=3))
# a constant or a rectangle past _BOUND, times an exact 0 or divided into it
@example(("mul", ("num", 0j), ("num", 1e300 + 0j)), [((1.0, 2.0), (0.0, 0.0))])
@example(("div", ("num", -0j), ("num", -1e300j)), [((1.0, 2.0), (0.0, 0.0))])
@example(("sub", ("num", 1 + 0j), ("mul", ("zeta",), ("num", 0j))), [((1.0, 1e300), (0.0, 0.0))])
def test_compiled_enclosure_is_the_interpreter(node, rectangles):
    # one compiled enclosure per AST, called on each rectangle, returns the
    # interpreter's box, signed zeros and None included
    box = compile_ast(node, box=True)
    for re, im in rectangles:
        assert repr(box(re, im)) == repr(reference_enclose(node, re, im))
