"""The JSON reports: `solve-homological` writes its columns through one row template,
in chunks of rows, and `linearize` its phi files through one fixed-layout
writer, each byte for byte what the dict-and-`json.dumps` writer it replaced
wrote, and every JSON file a command writes is strict JSON that `json`
reproduces.  `linearize --cross-check`'s `rounded_bytes_equal` compares the
two rounded phis by value, exactly as comparing their serialized texts did."""

import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dulaclin.cli
from conftest import (
    deep_series,
    fraction_text,
    random_hyperbolic_series,
    serialize_series,
    series_to_json,
)
from dulaclin.cli import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    ROUNDING_QUANTUM as Q,
    _grid,
    _header,
    _homological_chunks,
    _load_map,
    _phi_text,
    _profile,
    _round,
    _rounded,
    _write_chunks,
    main,
)
from dulaclin.dynamics import solve_homological_numeric
from dulaclin.errors import NotConverged
from dulaclin.exprparse import compile_ast, parse_expression
from dulaclin.linearize import LinearizationResult, linearize_by_picard, linearize_level_by_level
from dulaclin.series import CPoly, ExpPolySeries


def reference_solve_homological(args) -> int:
    """`cmd_solve_homological` as it was with a dict per row and one
    json.dumps(payload, indent=1, sort_keys=True): the byte oracle."""
    profile = _profile(args)
    f = _load_map(args, profile)
    h = compile_ast(parse_expression(args.h_expr))
    grid = _grid(args.grid)
    rows = []
    for z in grid:
        try:
            psi, psi_next, _ = solve_homological_numeric(f, h, args.alpha, z, args.tol)
        except NotConverged as exc:
            print(f"not converged at {z}: {exc}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
        resid = abs(psi_next - psi - h(z))
        rows.append({"zeta": [z.real, z.imag], "psi": [psi.real, psi.imag],
                     "residual": resid})
    payload = {
        **_header(args),
        "alpha": args.alpha,
        "rows": rows,
    }
    _write_chunks(args.output, (json.dumps(payload, indent=1, sort_keys=True),))
    worst = max(r["residual"] for r in rows)
    print(f"max homological residual {worst:.3e} over {len(rows)} points")
    return EXIT_OK


def reference_json(fields, rows) -> str:
    return json.dumps({**fields, "rows": [{"zeta": [r[3], r[4]], "psi": [r[0], r[1]],
                                           "residual": r[2]} for r in rows]},
                      indent=1, sort_keys=True)


def run(argv, capsys):
    """Exit code, stdout, stderr and report text of one fresh invocation."""
    report = Path(argv[argv.index("--output") + 1])
    report.unlink(missing_ok=True)
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err, report.read_text()


HOMOLOGICAL = ["solve-homological", "--expr", "zeta + 1 + exp(-zeta)", "--h-expr", "exp(-zeta)",
               "--cut", "4"]


@pytest.mark.parametrize("extra, text", [
    (["--alpha", "1", "--grid", "8:8:1,0:0:1"], None),
    (["--alpha", "1", "--grid", "8:28:40,-5:5:25"], None),
    # zeta's imaginary part and psi's are negative zeros
    (["--alpha", "1", "--grid", "8:9:2,-0.0:-0.0:1"], "-0.0"),
    # psi and the residual below 1e-300, the residual subnormal
    (["--alpha", "1", "--grid", "700:720:3,-1:1:3"], "e-30"),
    # repr switches to exponent form at 1e16
    (["--alpha", "1", "--grid", "1e16:1e17:3,-1e20:1e22:3"], "e+22"),
    (["--alpha", "1/3", "--seed", "17", "--grid", "8:12:3,0:2:2"], "0.3333333333333333"),
    (["--alpha", "0.75", "--seed", "-4", "--tol", "1e-8", "--grid", "5:40:8,-3:3:4"], None),
], ids=["one-row", "many-rows", "negative-zero", "tiny", "huge", "seed-alpha-1/3",
        "seed-alpha-0.75"])
def test_report_bytes_match_the_dict_writer(tmp_path, capsys, monkeypatch, extra, text):
    argv = HOMOLOGICAL + extra + ["--output", str(tmp_path / "h.json")]
    got = run(argv, capsys)
    monkeypatch.setattr(dulaclin.cli, "cmd_solve_homological", reference_solve_homological)
    assert got == run(argv, capsys)
    assert got[0] == 0
    assert text is None or text in got[3]


def solve(expr, h_expr, grid, *extra):
    return ["solve-homological", "--expr", expr, "--h-expr", h_expr, "--alpha", "1",
            "--cut", "4", "--grid", grid, *extra]


def test_failures_match_the_dict_writer(tmp_path, capsys, monkeypatch):
    # a residual above 10*tol (exit 4) and a NaN orbit point (exit 1)
    cases = [HOMOLOGICAL + ["--alpha", "1", "--tol", "1e-300", "--grid", "8:8:1,0:0:1"],
             solve("zeta + 1 + 0*(zeta*1e300*1e300)", "exp(-zeta)", "8:8:1,0:0:1")]
    for argv, code in zip(cases, (4, 1)):
        assert_same_failure(tmp_path, capsys, monkeypatch, argv, code)


@pytest.mark.parametrize("argv, code", [
    # h is NaN at Re 1e250 (0 * inf)
    (solve("zeta + 1 + exp(-zeta)", "exp(-zeta) + 0*(zeta*zeta)", "8:1e250:2,0:0:1"), 1),
    # |h| is above exp(-Re) at Re 70
    (solve("zeta + 1 + exp(-zeta)", "exp(-zeta)*(1 + exp(zeta - 60))", "8:70:2,0:0:1"), 1),
    # the map's step is NaN from Re 90 on
    (solve("zeta + 1 + 0*(zeta*1e306*2)", "exp(-zeta)", "8:100:2,0:0:1"), 1),
    # the residual at Re 8 is above 10*tol, the one at Re 30 is not
    (solve("zeta + 1 + exp(-zeta)", "exp(-zeta)", "30:8:2,0:0:1", "--tol", "1e-25"), 4),
    # a bump sends the image of 4.3 to 2.8, below R = 4
    (solve("zeta + 1 - 2.5*exp(-50*(zeta - 4.3)*(zeta - 4.3))", "exp(-zeta)",
           "10:4.3:2,0:0:1"), 1),
], ids=["nan-h", "decay", "nan-map", "residual", "image-below-cut"])
def test_second_point_failures_match_the_dict_writer(tmp_path, capsys, monkeypatch, argv, code):
    # the batched walk passes the first point; the scalar solver fails the second
    assert_same_failure(tmp_path, capsys, monkeypatch, argv, code)


def assert_same_failure(tmp_path, capsys, monkeypatch, argv, code):
    argv = argv + ["--output", str(tmp_path / "h.json")]
    got = main(argv), capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(dulaclin.cli, "cmd_solve_homological", reference_solve_homological)
        assert got == (main(argv), capsys.readouterr())
    assert got[0] == code and not (tmp_path / "h.json").exists()


FIELDS = {"tool": 'dulaclin "rows": [] x', "config_hash": "[]", "seed": -3, "alpha": 0.1}


def columns(rows) -> list:
    """The renderer's five lists of the rows (psi.re, psi.im, residual, zeta.re, zeta.im)."""
    return [list(c) for c in zip(*rows)]


@pytest.mark.parametrize("rows", [
    [(0.0, -0.0, 0.0, 8.0, -0.0)],
    [(5e-324, -1e-310, 2.2250738585072014e-308, 1e16, 1.2345678901234567e22),
     (-1e300, 1 / 3, 9999999999999998.0, -1e16, 0.1),
     (1e-7, 123456789.0, 1e-300, 7e-5, 1.7976931348623157e308)],
    # a grid whose coordinates hold both zeros, each first in one position:
    # a coordinate formatted once must keep its own sign
    [(1.0, 2.0, 0.0, x, y) for x in (0.0, -0.0, 8.0) for y in (-0.0, 0.0, 8.0, -0.0)]
    + [(1.0, 2.0, 0.0, x, y) for x in (-0.0, 0.0) for y in (0.0, -0.0)],
    # residuals repeat, 0.0 among them, and share values with the coordinates
    # and psi: each is formatted once, a zero where it stands
    [(0.5, -0.0, r, x, -0.0) for r, x in [(0.0, 8.0), (1e-12, 8.0), (0.0, -0.0), (1e-12, 0.5),
                                          (8.0, 1e-12), (0.0, 0.0), (-0.0, 1e-12)]],
    # seven rows: chunks of 3 leave one row in the last
    [(1.0 / j, -j * 1e-11, j * 1e-13, 8.0 + j // 3, j % 3 - 1.0) for j in range(1, 8)],
], ids=["zeros", "exponent-forms", "signed-zero-grid", "repeated-residuals", "seven-rows"])
def test_renderer_is_json(tmp_path, rows):
    # the header is spliced by its structure: no field's value is searched for;
    # a chunk of `size` rows joins the next one as json would
    out = tmp_path / "h.json"
    for size in (1, 2, 3, 1000):
        _write_chunks(str(out), _homological_chunks(FIELDS, columns(rows), size))
        assert out.read_text() == reference_json(FIELDS, rows)


def test_renderer_writes_non_finite_values_as_json_does():
    # unreachable from the command, whose values are all finite; written as
    # json writes them rather than as %r would (nan, inf)
    rows = [(math.nan, -math.inf, math.inf, -math.nan, 0.0), (1.0, 2.0, math.nan, 8.0, 0.0)]
    for size in (1, 2, 1000):
        text = "".join(_homological_chunks(FIELDS, columns(rows), size))
        assert text == reference_json(FIELDS, rows)
        assert "NaN" in text and "-Infinity" in text and "nan" not in text and "inf" not in text


# ---------------------------------------------------------------------------
# linearize's phi files

def reference_phi_json(result) -> dict:
    """`LinearizationResult.to_json` as it was before the phi files had their
    own writer, with `series_to_json` as it was, exponents from Fractions:
    the dict whose json.dumps(indent=1) is a phi file's byte oracle."""
    ro = "inf" if result.residual_ord == math.inf else fraction_text(result.residual_ord)
    return {
        "algorithm": result.algorithm,
        "beta": [result.beta.real, result.beta.imag],
        "levels": [fraction_text(m) for m in result.phi.support() if m > 0],
        "residual_ord": ro,
        "phi": series_to_json(result.phi),
    }


def assert_phi_text_is_json(result):
    assert _phi_text(result) == json.dumps(reference_phi_json(result), indent=1)


SOLVERS = [linearize_level_by_level, linearize_by_picard]


def test_phi_writer_is_json_on_the_corpus(rng):
    for _ in range(100):
        f = random_hyperbolic_series(rng)
        for solve in SOLVERS:
            assert_phi_text_is_json(solve(f))


@pytest.mark.parametrize("order", [4, 6, 8])
@pytest.mark.parametrize("solve", SOLVERS, ids=["level", "picard"])
def test_phi_writer_is_json_on_the_deep_series(solve, order):
    assert_phi_text_is_json(solve(deep_series(order)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_phi_writer_is_json_on_random_germs(seed, real):
    f = random_hyperbolic_series(random.Random(seed), real)
    for solve in SOLVERS:
        assert_phi_text_is_json(solve(f))


def phi_result(terms, trunc=3, gens=(1,), beta=1 + 0j, residual_ord=math.inf,
               algorithm="level_solver") -> LinearizationResult:
    phi = ExpPolySeries(trunc, gens, terms)
    return LinearizationResult(phi=phi, beta=beta, residual=phi._raw({}),
                               residual_ord=residual_ord, algorithm=algorithm)


ZETA = {0: [0j, 1.0]}
NAN, INF = math.nan, math.inf
PHI_RESULTS = {
    "zeta-only": phi_result(ZETA),
    "residual-ord-fraction": phi_result({**ZETA, 1: [0.5j], F(3, 2): [2.0, -1.0]}, gens=(F(1, 2),),
                                        residual_ord=F(5, 2)),
    "residual-ord-zero": phi_result({**ZETA, 2: [1.0]}, residual_ord=F(0), algorithm="picard"),
    "beta-minus-zero": phi_result({**ZETA, 1: [1.0]}, beta=complex(1.0, -0.0)),
    "negative-zeros": phi_result({0: [complex(-0.0, -0.0), complex(-0.0, 0.0), 1.0],
                                  1: [complex(0.0, -0.0), 3.0]}, beta=complex(-0.0, -0.0)),
    "exponent-forms": phi_result({**ZETA, 1: [complex(1e-05, 1e16), complex(-1e-7, 1.5e300),
                                              complex(5e-324, 123456789.0),
                                              complex(9999999999999998.0, 1e+16)]}),
    # exponents k/L on a lattice of L = 6, reduced where they share a factor
    "lattice-6": phi_result({**ZETA, F(1, 2): [1.0], F(2, 3): [2.0], 1: [3.0], F(7, 6): [4.0],
                             F(4, 3): [5.0], F(3, 2): [6.0]}, trunc=F(3, 2),
                            gens=(F(1, 2), F(2, 3))),
    # Picard's phi comes out of from_z_chart unchecked; residual_ord stays "inf"
    "non-finite": phi_result({**ZETA, 1: [complex(NAN, INF), complex(-INF, -NAN), 1.0],
                              2: [complex(INF, 0.0)]}, beta=complex(NAN, -INF)),
}


@pytest.mark.parametrize("name", list(PHI_RESULTS))
def test_phi_writer_is_json(name):
    assert_phi_text_is_json(PHI_RESULTS[name])


def test_linearize_writes_both_phi_files_through_the_writer(tmp_path, rng):
    src, out = tmp_path / "f.json", tmp_path / "lin"
    f = random_hyperbolic_series(rng)
    src.write_text(serialize_series(f))
    assert main(["linearize", "--input", str(src), "--cross-check", "--output", str(out)]) == 0
    for suffix, solve in [(".phi.json", linearize_level_by_level),
                          (".phi.picard.json", linearize_by_picard)]:
        assert (tmp_path / f"lin{suffix}").read_text() == \
            json.dumps(reference_phi_json(solve(f)), indent=1)


# ---------------------------------------------------------------------------
# linearize's cross-check flag

def reference_rounded_bytes_equal(a: ExpPolySeries, b: ExpPolySeries) -> bool:
    """`rounded_bytes_equal` as `cmd_linearize` computed it before it compared
    values: both phis with every part on the rounding grid, each block
    stripped by CPoly and dropped when empty, serialized and compared as text."""
    def rounded(phi):
        return phi._raw({k: CPoly([complex(_round(c.real), _round(c.imag)) for c in b.coeffs])
                         for k, b in phi.items})
    return serialize_series(rounded(a)) == serialize_series(rounded(b))


def assert_flag_is_the_oracle(a: ExpPolySeries, b: ExpPolySeries) -> bool:
    equal = reference_rounded_bytes_equal(a, b)
    assert (_rounded(a) == _rounded(b)) is equal
    return equal


def test_flag_is_the_oracle_on_the_corpus(rng):
    flags = []
    for _ in range(100):
        f = random_hyperbolic_series(rng)
        flags.append(assert_flag_is_the_oracle(*(solve(f).phi for solve in SOLVERS)))
    assert True in flags and False in flags  # each outcome is met, not only one


@pytest.mark.parametrize("order", [4, 6])
def test_flag_is_the_oracle_on_the_deep_series(order):
    f = deep_series(order)
    assert_flag_is_the_oracle(*(solve(f).phi for solve in SOLVERS))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2**16),
       st.one_of(st.floats(-3e-9, 3e-9), st.sampled_from([5e-10, -5e-10, 1.5e-9, 1e-20, -1e-20])))
def test_flag_is_the_oracle_on_random_germs(seed, real, where, shift):
    f = random_hyperbolic_series(random.Random(seed), real)
    level, picard = (solve(f).phi for solve in SOLVERS)
    assert_flag_is_the_oracle(level, picard)
    # the level solver's phi with one part of one coefficient moved by about a quantum
    k, b = level.items[where % len(level.items)]
    j = where % len(b.coeffs)
    moved = level._raw({**dict(level.items),
                        k: CPoly([c + shift if i == j else c for i, c in enumerate(b.coeffs)])})
    assert_flag_is_the_oracle(level, moved)


def series(terms, trunc=3, gens=(1,)) -> ExpPolySeries:
    return ExpPolySeries(trunc, gens, terms)


FLAG_PAIRS = {
    "equal": (series({**ZETA, 1: [1.0, 2j]}), series({**ZETA, 1: [1.0, 2j]}), True),
    "block-rounds-to-zero": (series({**ZETA, 1: [0.4 * Q, -0.3j * Q]}), series(ZETA), True),
    "block-rounds-to-a-quantum": (series({**ZETA, 1: [0.4 * Q]}), series({**ZETA, 1: [0.6 * Q]}),
                                  False),
    # _round gives +0.0 for both signs, so the strings had no -0.0 to tell apart
    "tiny-of-either-sign": (series({**ZETA, 1: [-1e-20]}), series({**ZETA, 1: [1e-20]}), True),
    "trailing-coefficient-rounds-to-zero": (series({**ZETA, 1: [1.0, complex(-1e-20, -0.4 * Q)]}),
                                            series({**ZETA, 1: [1.0]}), True),
    "inner-coefficient-rounds-to-zero": (series({**ZETA, 1: [complex(-1e-20, 0.0), 1.0]}),
                                         series({**ZETA, 1: [0j, 1.0]}), True),
    "signed-zeros": (series({**ZETA, 1: [complex(-0.0, -0.0), 1.0]}), series({**ZETA, 1: [0j, 1.0]}),
                     True),
    # half a quantum rounds to even: 0.5 -> 0, 1.5 -> 2 and 2.5 -> 2 quanta
    "half-quanta": (series({**ZETA, 1: [0.5 * Q, complex(2.5 * Q, -0.5 * Q), 1.5 * Q]}),
                    series({**ZETA, 1: [0j, 2 * Q, 2 * Q]}), True),
    "half-quanta-apart": (series({**ZETA, 1: [0.5 * Q]}), series({**ZETA, 1: [Q]}), False),
    "nan": (series({**ZETA, 1: [complex(NAN, 1.0), complex(0.0, NAN)]}),
            series({**ZETA, 1: [complex(NAN, 1.0), complex(0.0, NAN)]}), True),
    "nan-against-zero": (series({**ZETA, 1: [complex(NAN, 1.0)]}), series({**ZETA, 1: [1j]}), False),
    "inf": (series({**ZETA, 1: [complex(INF, -INF)]}), series({**ZETA, 1: [complex(INF, -INF)]}),
            True),
    "inf-against-minus-inf": (series({**ZETA, 1: [INF]}), series({**ZETA, 1: [-INF]}), False),
    # x / quantum overflows: x is compared as it is
    "beyond-the-grid": (series({**ZETA, 1: [1e300]}), series({**ZETA, 1: [math.nextafter(1e300, 0)]}),
                        False),
    "other-exponent": (series({**ZETA, 1: [1.0]}), series({**ZETA, 2: [1.0]}), False),
    "other-lattice": (series({**ZETA, 1: [1.0]}, gens=(F(1, 2),)), series({**ZETA, 1: [1.0]}), False),
    "other-order": (series({**ZETA, 1: [1.0]}, trunc=F(5, 2), gens=(F(1, 2),)),
                    series({**ZETA, 1: [1.0]}, gens=(F(1, 2),)), False),
    "other-generators": (series({**ZETA, 1: [1.0]}, gens=(F(1, 2), 1)),
                         series({**ZETA, 1: [1.0]}, gens=(F(1, 2),)), False),
}


@pytest.mark.parametrize("name", list(FLAG_PAIRS))
def test_flag_is_the_oracle(name):
    a, b, equal = FLAG_PAIRS[name]
    assert assert_flag_is_the_oracle(a, b) is equal


def test_linearize_cross_check_flag_reads_false_on_large_coefficients(tmp_path):
    # phi reaches 8.9e4 and the solvers agree to 2.7e-15 relative, yet their
    # rounded parts differ on the absolute quantum
    f = random_hyperbolic_series(random.Random(6))
    src, out = tmp_path / "f.json", tmp_path / "lin"
    src.write_text(serialize_series(f))
    assert main(["linearize", "--input", str(src), "--cross-check", "--output", str(out)]) == 0
    report = json.loads((tmp_path / "lin.report.json").read_text())
    assert report["cross_check"]["max_rel_coeff_diff"] < 1e-14
    assert report["cross_check"]["rounded_bytes_equal"] is False
    assert not reference_rounded_bytes_equal(*(solve(f).phi for solve in SOLVERS))


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def assert_strict_json(path, sort_keys):
    text = path.read_text()
    parsed = json.loads(text, parse_constant=reject_constant)
    assert json.dumps(parsed, indent=1, sort_keys=sort_keys) == text


def test_json_reports_are_strict_and_reproducible(tmp_path):
    out = tmp_path / "h.json"
    assert main(HOMOLOGICAL + ["--alpha", "1", "--grid", "8:28:20,-5:5:10",
                               "--output", str(out)]) == 0
    assert_strict_json(out, sort_keys=True)
    src = tmp_path / "f.json"
    src.write_text(serialize_series(ExpPolySeries(3, [1], {0: [1.0, 1.0], 1: [1.0, 0.5j]})))
    lin = tmp_path / "lin"
    assert main(["linearize", "--input", str(src), "--cross-check",
                 "--output", str(lin)]) == 0
    deep = tmp_path / "deep.json"
    deep.write_text(serialize_series(deep_series()))
    assert main(["linearize", "--input", str(deep), "--order", "6", "--cross-check",
                 "--output", str(tmp_path / "deep")]) == 0
    for name in ("lin", "deep"):
        for suffix, sort_keys in [(".phi.json", False), (".phi.picard.json", False),
                                  (".report.json", True)]:
            assert_strict_json(tmp_path / f"{name}{suffix}", sort_keys)
