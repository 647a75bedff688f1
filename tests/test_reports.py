"""The JSON reports: `solve-homological` writes its rows through one template,
in chunks of rows, byte for byte what the dict-and-`json.dumps` writer it
replaced wrote, and every JSON file a command writes is strict JSON that
`json` reproduces."""

import json
import math
import sys
from pathlib import Path

import pytest

import dulaclin.cli
from dulaclin.cli import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    _grid,
    _header,
    _homological_chunks,
    _load_map,
    _profile,
    _write_chunks,
    main,
)
from dulaclin.dynamics import solve_homological_numeric
from dulaclin.errors import NotConverged
from dulaclin.exprparse import compile_ast, parse_expression
from dulaclin.series import ExpPolySeries, serialize_series


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


@pytest.mark.parametrize("rows", [
    [(0.0, -0.0, 0.0, 8.0, -0.0)],
    [(5e-324, -1e-310, 2.2250738585072014e-308, 1e16, 1.2345678901234567e22),
     (-1e300, 1 / 3, 9999999999999998.0, -1e16, 0.1),
     (1e-7, 123456789.0, 1e-300, 7e-5, 1.7976931348623157e308)],
    # a grid whose coordinates hold both zeros, each first in one position:
    # a coordinate formatted once must keep its own sign
    [(1.0, 2.0, 0.0, x, y) for x in (0.0, -0.0, 8.0) for y in (-0.0, 0.0, 8.0, -0.0)]
    + [(1.0, 2.0, 0.0, x, y) for x in (-0.0, 0.0) for y in (0.0, -0.0)],
], ids=["zeros", "exponent-forms", "signed-zero-grid"])
def test_renderer_is_json(tmp_path, rows):
    # the header is spliced by its structure: no field's value is searched for;
    # a chunk of `size` rows joins the next one as json would
    out = tmp_path / "h.json"
    for size in (1, 2, 1000):
        _write_chunks(str(out), _homological_chunks(FIELDS, rows, size))
        assert out.read_text() == reference_json(FIELDS, rows)


def test_renderer_writes_non_finite_values_as_json_does():
    # unreachable from the command, whose values are all finite; written as
    # json writes them rather than as %r would (nan, inf)
    rows = [(math.nan, -math.inf, math.inf, -math.nan, 0.0), (1.0, 2.0, math.nan, 8.0, 0.0)]
    for size in (1, 1000):
        text = "".join(_homological_chunks(FIELDS, rows, size))
        assert text == reference_json(FIELDS, rows)
        assert "NaN" in text and "-Infinity" in text and "nan" not in text and "inf" not in text


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
    for suffix, sort_keys in [(".phi.json", False), (".phi.picard.json", False),
                              (".report.json", True)]:
        assert_strict_json(tmp_path / f"lin{suffix}", sort_keys)
