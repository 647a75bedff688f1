import cmath
import math

import pytest

from dulaclin.domains import AsymptoticProfile
from dulaclin.dynamics import AnalyticMap
from dulaclin.errors import EvalDomainError, ParseError
from dulaclin.exprparse import _tokenize, compile_ast, delta_ast, eval_ast, parse_expression

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

    def test_too_deep_to_compile_is_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            compile_ast(parse_expression("1/" * 300 + "zeta"))


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
