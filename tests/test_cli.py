import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import dulaclin
from conftest import serialize_series
from dulaclin import series
from dulaclin.cli import build_parser, main
from dulaclin.domains import AsymptoticProfile
from dulaclin.dynamics import AnalyticMap, solve_homological_numeric
from dulaclin.exprparse import compile_ast, parse_expression
from dulaclin.series import CPoly, ExpPolySeries, parse_series


def write_fixture(path: Path, terms=None) -> Path:
    f = ExpPolySeries(3, [1], terms or {0: [1.0, 1.0], 1: [1.0]})
    p = path / "f.json"
    p.write_text(serialize_series(f))
    return p


def test_linearize_roundtrip(tmp_path):
    src = write_fixture(tmp_path)
    out = tmp_path / "lin"
    code = main(["linearize", "--input", str(src), "--output", str(out),
                 "--cross-check"])
    assert code == 0
    report = json.loads((tmp_path / "lin.report.json").read_text())
    assert report["max_residual_coeff_rel"] <= 1e-9
    assert report["cross_check"]["rounded_bytes_equal"]
    phi = json.loads((tmp_path / "lin.phi.json").read_text())
    assert phi["algorithm"] == "level_solver"
    q = parse_series(json.dumps(phi["phi"])).block(1).coeff(0)
    assert abs(q - 1.5819767068693265) < 1e-12
    assert (tmp_path / "lin.phi.picard.json").exists()


def test_linearize_pure_translation(tmp_path):
    src = write_fixture(tmp_path, {0: [2.0, 1.0]})
    out = tmp_path / "lin"
    assert main(["linearize", "--input", str(src), "--output", str(out)]) == 0
    phi = json.loads((tmp_path / "lin.phi.json").read_text())
    assert phi["levels"] == []
    assert parse_series(json.dumps(phi["phi"])).support() == (0,)


def test_linearize_order_flag_retruncates(tmp_path):
    src = write_fixture(tmp_path)
    out = tmp_path / "lin"
    assert main(["linearize", "--input", str(src), "--order", "1",
                 "--output", str(out)]) == 0
    phi = json.loads((tmp_path / "lin.phi.json").read_text())
    assert phi["phi"]["trunc"] == "1/1"
    assert phi["levels"] == ["1/1"]


@pytest.mark.parametrize("order", ["-1", "-1/2", "1/0", "abc"])
def test_linearize_bad_order_is_parse_error_naming_the_flag(tmp_path, capsys, order):
    src = write_fixture(tmp_path)
    assert main(["linearize", "--input", str(src), f"--order={order}",
                 "--output", str(tmp_path / "lin")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: argument --order: ")
    assert err[0].endswith(f": {order!r}")
    assert not (tmp_path / "lin.phi.json").exists()


# a valid invocation of each subcommand; a bad flag value is appended to it
VALID_ARGV = {
    "linearize": ["--input", "f.json"],
    "koenigs": ["--expr", "zeta + 1", "--grid", "8:8:1,0:0:1"],
    "verify-domain": ["--expr", "zeta + 1"],
    "compare": ["--input", "f.json", "--grid", "8:30:45,0:0:1"],
    "solve-homological": ["--expr", "zeta + 1", "--h-expr", "exp(-zeta)", "--alpha", "1",
                          "--grid", "8:8:1,0:0:1"],
}


def typed_flags():
    """(subcommand, flag) for every option of every subcommand that has a type."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return [(name, act.option_strings[0]) for name, p in sub.choices.items()
            for act in p._actions if act.type is not None and act.option_strings]


def test_every_subcommand_has_valid_argv_and_numeric_flags():
    assert set(VALID_ARGV) == {name for name, _ in typed_flags()}
    assert ("koenigs", "--beta") in typed_flags() and ("linearize", "--tol") in typed_flags()


@pytest.mark.parametrize("value", ["1/0", "abc", "nan"])
@pytest.mark.parametrize("command, flag", typed_flags())
def test_bad_numeric_flag_is_parse_error_naming_the_flag(tmp_path, capsys, command, flag,
                                                         value):
    out = tmp_path / "out"
    argv = [command, *VALID_ARGV[command], f"{flag}={value}", "--output", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: argument {flag}: ")
    assert err[0].endswith(f"{value!r}") and "Fraction(" not in err[0]
    assert list(tmp_path.iterdir()) == []


def test_linearize_cross_check_randomized(tmp_path):
    import random

    from conftest import random_hyperbolic_series

    rng = random.Random(99)
    src = tmp_path / "r.json"
    src.write_text(serialize_series(random_hyperbolic_series(rng)))
    out = tmp_path / "lin"
    assert main(["linearize", "--input", str(src), "--output", str(out),
                 "--cross-check"]) == 0
    report = json.loads((tmp_path / "lin.report.json").read_text())
    assert report["cross_check"]["max_rel_coeff_diff"] <= 1e-9
    assert report["cross_check"]["rounded_bytes_equal"]


def corpus_draw_145(tmp_path) -> Path:
    """Draw 145 of the acceptance-corpus generator (generator 1/2, order 4),
    written as a series file: the level solver's residual is ~5e-16 and
    Picard differs from it by ~1.7e-10, its worst gap over 200 draws."""
    import random

    from conftest import random_hyperbolic_series

    rng = random.Random(20260808)
    for _ in range(145):
        f = random_hyperbolic_series(rng)
    src = tmp_path / "r.json"
    src.write_text(serialize_series(f))
    return src


def test_linearize_cross_check_worst_corpus_draw_agrees(tmp_path):
    src = corpus_draw_145(tmp_path)
    assert main(["linearize", "--input", str(src), "--output", str(tmp_path / "lin"),
                 "--cross-check"]) == 0
    report = json.loads((tmp_path / "lin.report.json").read_text())
    assert report["cross_check"]["max_rel_coeff_diff"] <= 1e-9


def test_linearize_cross_check_disagreement_exits_5(tmp_path, capsys):
    # a --tol below the measured gap: the residual still passes it, so the
    # exit comes from the cross-check alone
    src = corpus_draw_145(tmp_path)
    code = main(["linearize", "--input", str(src), "--output", str(tmp_path / "lin"),
                 "--cross-check", "--tol", "1e-12"])
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cross-check failed: ")
    report = json.loads((tmp_path / "lin.report.json").read_text())
    assert report["max_residual_coeff_rel"] <= 1e-12
    assert report["cross_check"]["max_rel_coeff_diff"] > 1e-12


def test_linearize_cross_check_deep_series(tmp_path):
    # z-chart coefficients reach 2.6e10 at order 4; Picard's answer must
    # still leave the z-chart to within 1e-10 of the level solver
    from conftest import deep_series

    src = tmp_path / "deep.json"
    src.write_text(serialize_series(deep_series()))
    assert main(["linearize", "--input", str(src), "--order", "4",
                 "--output", str(tmp_path / "lin"), "--cross-check"]) == 0
    report = json.loads((tmp_path / "lin.report.json").read_text())
    assert report["cross_check"]["max_rel_coeff_diff"] <= 1e-10


def test_linearize_rejects_parabolic(tmp_path):
    src = write_fixture(tmp_path, {0: [0.0, 1.0], 1: [1.0]})
    assert main(["linearize", "--input", str(src), "--output", str(tmp_path / "x")]) == 2


def test_linearize_rejects_non_unit_slope(tmp_path):
    src = write_fixture(tmp_path, {0: [1.0, 1 + 1e-11], 1: [1.0]})
    assert main(["linearize", "--input", str(src), "--output", str(tmp_path / "x")]) == 2


def test_linearize_rejects_bad_json(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    assert main(["linearize", "--input", str(src), "--output", str(tmp_path / "x")]) == 3


def test_koenigs_grid_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["koenigs", "--expr", "zeta + 1 + exp(-zeta)", "--beta", "1",
            "--eps", "2.5", "--k", "0", "--cut", "8",
            "--grid", "8:20:5,0:2:2", "--tol", "1e-9", "--seed", "7"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[3] == "re_zeta,im_zeta,re_phi,im_phi,n_used,tail_bound,residual,in_region"
    assert lines[-1].startswith("# summary max_residual=")
    assert len([l for l in lines if not l.startswith("#")]) == 11  # header + 10 rows


def test_koenigs_exact_translation_columns(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["koenigs", "--expr", "zeta + 1", "--beta", "1", "--eps", "1",
                 "--k", "0", "--cut", "4", "--grid", "5:7:3,0:0:1",
                 "--tol", "1e-12", "--output", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    for row in rows:
        assert row[0] == row[2] and row[1] == row[3]  # phi = zeta exactly
        assert row[4] == "1" and row[5] == "0.0"      # n_used, tail_bound


def test_koenigs_exact_translation_keeps_negative_zero(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["koenigs", "--expr", "zeta + 1", "--beta", "1", "--eps", "1",
                 "--k", "0", "--cut", "4", "--grid", "5:5:1,-0:-0:1",
                 "--output", str(out)]) == 0
    row = out.read_text().splitlines()[4].split(",")
    # phi = zeta bit for bit: a displacement of 0j would turn -0.0 into 0.0
    assert row[:4] == ["5.0", "-0.0", "5.0", "-0.0"]


def test_koenigs_partial_row_when_only_the_image_fails(tmp_path, monkeypatch, capsys):
    import dulaclin.cli
    from dulaclin.domains import AsymptoticProfile
    from dulaclin.dynamics import AnalyticMap, koenigs_limit

    # steps just under the envelope of the orbit of 8, so above that of its image
    prof = AsymptoticProfile(1 + 0j, 2.5, 0, 8.0)
    rho = prof.rho_minus(8.0)

    def delta(w):
        return complex(prof.M(8.0 + round(w.real - 8.0) * rho) * (1 - 1e-6))
    f = AnalyticMap(delta, prof)
    monkeypatch.setattr(dulaclin.cli, "_load_map", lambda args, profile: f)
    alone = koenigs_limit(f, 8 + 0j, 1e-9)
    out = tmp_path / "k.csv"
    args = ["koenigs", "--expr", "unused", "--eps", "2.5", "--grid", "8:8:1,0:0:1",
            "--output", str(out)]
    assert main(args) == 4
    assert capsys.readouterr().err.startswith(
        f"not converged at (8+0j): Koenigs sequence not certified at {f(8 + 0j)}: ")
    assert main(args + ["--allow-partial"]) == 0
    row = out.read_text().splitlines()[4].split(",")
    assert row == ["8.0", "0.0", repr(alone.value.real), repr(alone.value.imag),
                   str(alone.n_used), "inf", "nan", "1"]


def test_koenigs_divergent_exit_code(tmp_path):
    args = ["koenigs", "--expr", "zeta + 1 + 1/zeta", "--beta", "1",
            "--eps", "1", "--k", "0", "--cut", "10",
            "--grid", "10:12:2,0:0:1", "--tol", "1e-6",
            "--output", str(tmp_path / "d.csv")]
    assert main(args) == 4
    assert main(args + ["--allow-partial"]) == 0


def test_verify_domain_search(tmp_path):
    out = tmp_path / "inv.csv"
    code = main(["verify-domain", "--expr", "zeta + 1 + exp(-zeta)",
                 "--beta", "1", "--eps", "1", "--k", "0", "--cut", "5",
                 "--quad-c", "2", "--samples", "600", "--seed", "3",
                 "--search", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[4] == "re,im,bound_margin,rect_ok,region_ok"
    assert len([l for l in lines if not l.startswith("#")]) == 601


def test_compare_decay(tmp_path):
    src = write_fixture(tmp_path)
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--input", str(src), "--beta", "1", "--eps", "2.5",
                 "--k", "0", "--cut", "8", "--grid", "8:30:45,0:0:1",
                 "--levels", "0,1,5", "--output", str(out)])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "n,exponent,slope,bound,passed,n_points,exact"
    assert len(body) == 4
    # n=5 removes every computed level: residual at the noise floor, "exact"
    assert body[3].split(",")[6] == "1"


def test_compare_grid_with_one_usable_re_exits_1(tmp_path, capsys):
    # at Re 30 the n = 1 residuals are below the noise floor, so every point
    # of that fit has Re 8: there is no slope to report
    src = write_fixture(tmp_path)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--input", str(src), "--beta", "1", "--eps", "2.5", "--k", "0",
                 "--cut", "8", "--grid", "8:30:2,0:7:8", "--levels", "0,1",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: all 8 usable points have Re zeta = 8.0"]
    assert not out.exists()


def test_compare_level_that_no_point_sees_exits_1(tmp_path, capsys):
    # the benchmark's crit6 germ zeta + 1 + exp(-zeta): from Re 60 on, phi's
    # level 1 is below the noise floor at every point, so the n = 0 row
    # would read "exact" and pass without testing that level
    src = tmp_path / "crit6.json"
    src.write_text(serialize_series(ExpPolySeries(3, [1], {0: [1.0, 1.0], 1: [1.0]})))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--input", str(src), "--beta", "1", "--eps", "2.5", "--k", "0",
                 "--cut", "8", "--grid", "60:90:12,0:0:1", "--levels", "0,1",
                 "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: level 0 (next exponent 1): no point of"
                                       " --grid 60:90:12,0:0:1 is above the noise floor\n")
    assert not out.exists()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
@pytest.mark.parametrize("command", ["linearize", "compare"])
def test_bytes_do_not_depend_on_the_blas_kernel(tmp_path, command):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels when numpy loads; no value a
    # command reports goes through BLAS or LAPACK, so each kernel gives the same bytes
    from conftest import deep_series

    if command == "linearize":
        src = tmp_path / "deep.json"
        src.write_text(serialize_series(deep_series()))
        argv = ["linearize", "--input", str(src), "--order", "6"]
    else:
        argv = ["compare", "--input", str(write_fixture(tmp_path)), "--beta", "1", "--eps", "2.5",
                "--k", "0", "--cut", "8", "--grid", "8:30:45,0:0:1", "--levels", "0,1,5"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(dulaclin.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    runs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        run = subprocess.run([sys.executable, "-m", "dulaclin.cli", *argv,
                              "--output", str(tmp_path / "out")],
                             env=env | kernel, capture_output=True, check=False)
        runs.append((run.returncode, run.stdout, run.stderr,
                     sorted((p.name, p.read_bytes()) for p in tmp_path.glob("out*"))))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][3]


def test_solve_homological(tmp_path):
    out = tmp_path / "h.json"
    code = main(["solve-homological", "--expr", "zeta + 1",
                 "--h-expr", "exp(-zeta)", "--alpha", "1",
                 "--beta", "1", "--eps", "1", "--k", "0", "--cut", "4",
                 "--grid", "8:8:1,0:0:1", "--tol", "1e-10",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    psi = complex(*payload["rows"][0]["psi"])
    import math

    assert abs(psi - (-math.exp(-8) / (1 - math.exp(-1)))) < 1e-10


DOMAIN_ARGS = ["verify-domain", "--expr", "zeta + 1 + exp(-zeta)", "--beta", "1", "--eps", "1",
               "--k", "0", "--cut", "5.0", "--samples", "500", "--seed", "1"]
SQRT_MAP = {"kind": "power", "a": 2.0, "r": 0.5}


def write_band(tmp_path, hu, nest=0) -> Path:
    """The band -2 sqrt(x) < Im < hu(x) beyond Re = 5; with `nest` > 0, its
    union with the band under 2 sqrt(x), which holds it, inside nest - 1
    more unions."""
    def band(h):
        return {"band": {"t": 5.0, "hl": {"kind": "neg", "inner": SQRT_MAP}, "hu": h}}
    region = {"union": [band(SQRT_MAP), band(hu)]} if nest else band(hu)
    for _ in range(nest - 1):
        region = {"union": [region]}
    p = tmp_path / "band.json"
    p.write_text(json.dumps(region))
    return p


def test_verify_domain_band_reports_boundary_map_margins(tmp_path):
    out = tmp_path / "band.csv"
    assert main(DOMAIN_ARGS + ["--region", str(write_band(tmp_path, SQRT_MAP)),
                               "--output", str(out)]) == 0
    comments = [l for l in out.read_text().splitlines() if l.startswith("#")]
    # the R line stays last: readers take R from the last comment line
    assert comments[3].startswith("# boundary_maps ") and comments[4].startswith("# R=5.0 ")
    margins = dict(kv.split("=") for kv in comments[3].split()[2:])
    assert sorted(margins) == ["lower_worst_margin", "upper_worst_margin"]
    assert all(0 < float(m) < 2e-3 for m in margins.values())


@pytest.mark.parametrize("nest", [0, 1, 2], ids=["band", "union", "nested-union"])
def test_verify_domain_non_upper_map_exits_5(tmp_path, capsys, nest):
    # the constant 3 is no upper map for real beta, yet no sample shows it;
    # a union nested in a union still has its bands checked
    out = tmp_path / "band.csv"
    region = write_band(tmp_path, {"kind": "power", "a": 3, "r": 0}, nest)
    assert main(DOMAIN_ARGS + ["--region", str(region), "--output", str(out)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("boundary maps failed: upper map (im>=0): ")
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 500
    assert all(float(r[2]) >= 0 and r[3:] == ["1", "1"] for r in rows)


def test_verify_domain_quad_at_a_large_cut(tmp_path):
    assert main(["verify-domain", "--expr", "zeta + 1 + exp(-zeta)", "--quad-c", "2",
                 "--cut", "1e10", "--samples", "10", "--output", str(tmp_path / "v.csv")]) == 0


def write_quad(tmp_path, union: bool) -> Path:
    """The quadratic domain of C = 20; with `union`, united with the band
    -2 sqrt(x) < Im < 2 sqrt(x) beyond Re = 5."""
    region = {"quad": {"C": 20.0}}
    if union:
        region = {"union": [region, json.loads(write_band(tmp_path, SQRT_MAP).read_text())]}
    p = tmp_path / "quad.json"
    p.write_text(json.dumps(region))
    return p


@pytest.mark.parametrize("union", [False, True], ids=["quad", "union"])
def test_verify_domain_cut_below_a_quad_c(tmp_path, capsys, union):
    # the cut 5 lies below C = 20: in a union too, the quad part's rule says so
    region = write_quad(tmp_path, union)
    assert main(DOMAIN_ARGS + ["--region", str(region),
                               "--output", str(tmp_path / "v.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: cut must exceed the quadratic-domain constant C"]


@pytest.mark.parametrize("union", [False, True], ids=["quad", "union"])
def test_verify_domain_search_starts_past_every_quad_c(tmp_path, union):
    out = tmp_path / "v.csv"
    region = write_quad(tmp_path, union)
    assert main(DOMAIN_ARGS + ["--region", str(region), "--search", "--output", str(out)]) == 0
    comments = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert comments[-1].startswith("# R=21.0 ")


@pytest.mark.parametrize("argv", [
    ["koenigs", "--expr", "zeta + 1 + zeta^99999999", "--eps", "2.5", "--grid", "8:8:1,0:0:1"],
    ["solve-homological", "--expr", "zeta + 1", "--h-expr", "exp(zeta*1000)", "--alpha", "1",
     "--cut", "4", "--grid", "8:8:1,0:0:1"],
    # a nonzero base whose power underflows to 0: CPython's ZeroDivisionError
    ["koenigs", "--expr", "zeta + 1 + (1e-300)^-2", "--eps", "2.5", "--grid", "8:8:1,0:0:1"],
    ["solve-homological", "--expr", "zeta + 1 + exp(-zeta)*(1e-170*zeta)^-2",
     "--h-expr", "exp(-zeta)", "--alpha", "1", "--cut", "4", "--grid", "8:8:1,0:0:1"],
], ids=["power", "exp", "negative-power-folded", "negative-power-in-orbit"])
def test_overflow_is_one_line_error(tmp_path, capsys, argv):
    assert main(argv + ["--output", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numeric overflow: ")


def test_picard_overflow_is_one_line_error(tmp_path, capsys):
    # phi's block at exponent 2 is not finite, so the level solver stops
    # there, before Picard's psi overflows at z^3
    src = write_fixture(tmp_path, {0: [0.7, 1.0], 1: [1e200]})
    assert main(["linearize", "--input", str(src), "--order", "2", "--cross-check",
                 "--output", str(tmp_path / "lin")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numeric overflow: ")


def test_picard_overflow_after_a_finite_level_solve_is_one_line_error(tmp_path, capsys):
    # the level solve stays finite; Picard's psi is not finite at z^3
    src = write_fixture(tmp_path, {0: [0.7, 1.0], 1: [1e154]})
    assert main(["linearize", "--input", str(src), "--order", "2", "--cross-check",
                 "--output", str(tmp_path / "lin")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: numeric overflow: Picard block at z^3 is not finite"]


@pytest.mark.parametrize("trunc, terms", [
    ("5", [{"exp": "0/1", "poly": [[0.7, 0], [1, 0]]}, {"exp": "1/1", "poly": [[0.5, 0.1]]},
           {"exp": "2/1", "poly": [[1e200, 0], [0.5, 0.1]]}]),
    ("3", [{"exp": "0/1", "poly": [[0.7, 0], [1, 0]]},
           {"exp": "1/1", "poly": [[1e300, 0], [1e300, 0]]}]),
], ids=["nan-at-4", "nan-at-2"])
def test_level_solver_overflow_is_one_line_error(tmp_path, capsys, trunc, terms):
    # a NaN block of phi passes the back-substitution check, the residual's
    # max_abs and effective_order; the level solver stops at the first one
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"trunc": trunc, "gens": ["1"], "terms": terms}))
    assert main(["linearize", "--input", str(src), "--output", str(tmp_path / "lin")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: numeric overflow: level block at ")
    assert not (tmp_path / "lin.phi.json").exists()


def test_linearize_makes_each_block_product_once(tmp_path, monkeypatch):
    # the report's residual comes from the level solver's own pass; a second
    # conjugacy_residual would make 6,908 products and 769 shifts, and
    # translate(phi, beta) would shift each level's block once more than its check
    from conftest import deep_series

    src = tmp_path / "deep.json"
    src.write_text(serialize_series(deep_series()))
    # every block product goes through block_products, on the loop or in numpy
    # and every block shift through CPoly.shift or the batched pass, counted per block
    calls = {"mul": 0, "shift": 0}
    products, shift, shifts = series.block_products, CPoly.shift, series._batched_shifts

    def counting_products(b1, bs):
        calls["mul"] += len(bs)
        return products(b1, bs)

    def counting_shift(a, c):
        calls["shift"] += 1
        return shift(a, c)

    def counting_shifts(bs, cpow):
        calls["shift"] += len(bs)
        return shifts(bs, cpow)

    monkeypatch.setattr(series, "block_products", counting_products)
    monkeypatch.setattr(CPoly, "shift", counting_shift)
    monkeypatch.setattr(series, "_batched_shifts", counting_shifts)
    assert main(["linearize", "--input", str(src), "--order", "8",
                 "--output", str(tmp_path / "lin")]) == 0
    assert calls == {"mul": 3834, "shift": 363}


def test_cross_check_rounds_a_huge_finite_phi(tmp_path):
    # phi's top coefficient is -1.31e300, which the rounding quantum
    # divides past the largest double: it is compared unrounded
    src = write_fixture(tmp_path, {0: [0.7, 1.0], 1: [1e150]})
    assert main(["linearize", "--input", str(src), "--order", "2", "--cross-check",
                 "--output", str(tmp_path / "lin")]) == 0
    report = json.loads((tmp_path / "lin.report.json").read_text())
    assert report["cross_check"]["max_rel_coeff_diff"] <= 1e-9


def assert_parse_error(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: ")


def test_koenigs_without_map_is_parse_error(tmp_path, capsys):
    assert_parse_error(capsys, ["koenigs", "--grid", "8:9:2,0:0:1",
                                "--output", str(tmp_path / "k.csv")])


@pytest.mark.parametrize("seed, message", [("-1", "must be nonnegative: '-1'"),
                                           ("1.5", "not an integer: '1.5'")],
                         ids=["negative", "not-an-integer"])
def test_verify_domain_bad_seed_is_parse_error_naming_the_flag(tmp_path, capsys, seed, message):
    # a negative seed once reached np.random.default_rng: a ValueError traceback
    out = tmp_path / "v.csv"
    assert main(["verify-domain", "--expr", "zeta + 1 + exp(-zeta)", "--samples", "10",
                 f"--seed={seed}", "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"parse error: argument --seed: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["koenigs", "solve-homological"])
def test_a_negative_seed_is_only_recorded_elsewhere(tmp_path, command):
    argv = KOENIGS_ARGS if command == "koenigs" else HOMOLOGICAL_ARGS + ["--alpha", "1"]
    out = tmp_path / "out"
    assert main(argv + ["--seed=-1", "--output", str(out)]) == 0
    text = out.read_text()
    assert "\n# seed=-1\n" in text if command == "koenigs" else json.loads(text)["seed"] == -1


def test_verify_domain_without_map_is_parse_error(tmp_path, capsys):
    assert_parse_error(capsys, ["verify-domain", "--output", str(tmp_path / "v.csv")])


def test_missing_input_file_is_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert_parse_error(capsys, ["linearize", "--input", missing,
                                "--output", str(tmp_path / "x")])
    assert_parse_error(capsys, ["koenigs", "--input", missing, "--grid", "8:9:2,0:0:1",
                                "--output", str(tmp_path / "k.csv")])


def test_malformed_grid_is_parse_error(tmp_path, capsys):
    assert_parse_error(capsys, ["koenigs", "--expr", "zeta + 1", "--grid", "8:9",
                                "--output", str(tmp_path / "k.csv")])


def test_bad_region_file_is_parse_error(tmp_path, capsys):
    region = tmp_path / "region.json"
    root = '{"kind": "power", "a": 2.0, "r": 0.5}'
    band = '{"band": {"t": %s, "hl": {"kind": "neg", "inner": %s}, "hu": %s}}'
    cases = ['{"disk": {}}', '{"union": []}', '{"quad": {"C": "x"}}', '{"quad": {"C": NaN}}',
             '{"quad": {"C": 2.0, "R": Infinity}}', band % ("NaN", root, root),
             band % ("5.0", root, '{"kind": "power", "a": -Infinity, "r": 0.5}'),
             band % ("5.0", root, '{"kind": "power", "a": 2.0, "r": NaN}'),
             band % ("5.0", root, '{"kind": "log", "delta": Infinity}'),
             band % ("5.0", root, '{"kind": "linear", "a": 1.0, "t": NaN}'),
             band % ("5.0", '{"kind": "quad", "C": Infinity}', root),
             band % ("5.0", root, "[]"),
             '{"quad": {"C": 0}}', '{"quad": {"C": -1.0, "R": 5.0}}',
             band % ("0.5", root, '{"kind": "log", "delta": 1.0}'),
             *(band % ("5.0", root, '{"kind": "quad", "C": 2.0, "sign": %s}' % sign)
               for sign in ("NaN", "0.5", "0", "2", "true", '"1"')),
             '{"union": [{"quad": {"C": 2.0}}, %s]}' % (band % ("NaN", root, root))]
    for text in cases:
        region.write_text(text)
        assert_parse_error(capsys, ["verify-domain", "--expr", "zeta + 1",
                                    "--region", str(region), "--output", str(tmp_path / "v.csv")])


@pytest.mark.parametrize("command", [
    ["verify-domain", "--expr", "zeta+1+exp(-zeta)", "--eps", "1", "--cut", "5"],
    ["koenigs", "--expr", "zeta+1+exp(-zeta)", "--eps", "1", "--cut", "5",
     "--grid", "8:9:2,0:0:1"]])
def test_band_map_overflowing_where_its_order_is_sampled_is_parse_error(tmp_path, capsys,
                                                                        command):
    # x ** 400 overflows just above t = 5, inside the sampled range t .. 1000 t
    region = tmp_path / "steep.json"
    region.write_text('{"band":{"t":5.0,"hl":{"kind":"power","a":-1.0,"r":400.0},'
                      '"hu":{"kind":"power","a":1.0,"r":400.0}}}')
    out = tmp_path / "out.csv"
    assert main([*command, "--region", str(region), "--output", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"parse error: bad region file {region}: a boundary map overflows"
                   f" at x = {err[0].rpartition(' ')[2]}"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", '"inf"'])
def test_non_finite_coefficient_is_parse_error(tmp_path, capsys, value):
    src = tmp_path / "f.json"
    src.write_text('{"trunc":"1/1","gens":["1/1"],"terms":[{"exp":"0/1","poly":[[1.0,0.0],'
                   '[1.0,0.0]]},{"exp":"1/1","poly":[[%s,0.0]]}]}' % value)
    assert_parse_error(capsys, ["linearize", "--input", str(src),
                                "--output", str(tmp_path / "x")])


def test_config_hash_identifies_input_contents(tmp_path):
    def config_hash(src):
        assert main(["linearize", "--input", str(src), "--output", str(tmp_path / "lin")]) == 0
        return json.loads((tmp_path / "lin.report.json").read_text())["config_hash"]

    def region_hash(region):
        out = tmp_path / "v.csv"
        assert main(DOMAIN_ARGS + ["--samples", "10", "--region", str(region),
                                   "--output", str(out)]) == 0
        return out.read_text().splitlines()[1]

    src = write_fixture(tmp_path)
    first = config_hash(src)
    write_fixture(tmp_path, {0: [1.0, 1.0], 1: [2.0]})    # the same path, other contents
    assert config_hash(src) != first
    copy = tmp_path / "copy.json"
    copy.write_bytes(src.read_bytes())
    assert config_hash(copy) == config_hash(src)
    band = write_band(tmp_path, SQRT_MAP)
    band_copy = tmp_path / "band_copy.json"
    band_copy.write_bytes(band.read_bytes())
    assert region_hash(band_copy) == region_hash(band)
    band.write_text(band.read_text().replace("5.0", "6.0"))
    assert region_hash(band_copy) != region_hash(band)


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    # the config hash identifies the text the command parsed, not a second read
    import dulaclin.cli

    reads, read = [], dulaclin.cli._read_text
    monkeypatch.setattr(dulaclin.cli, "_read_text", lambda path: reads.append(path) or read(path))
    src = write_fixture(tmp_path)
    assert main(["linearize", "--input", str(src), "--cross-check",
                 "--output", str(tmp_path / "lin")]) == 0
    band = write_band(tmp_path, SQRT_MAP)
    assert main(DOMAIN_ARGS + ["--samples", "10", "--region", str(band),
                               "--output", str(tmp_path / "v.csv")]) == 0
    assert reads == [str(src), str(band)]


KOENIGS_ARGS = ["koenigs", "--expr", "zeta + 1 + exp(-zeta)", "--eps", "2.5",
                "--grid", "8:8:1,0:0:1"]
HOMOLOGICAL_ARGS = ["solve-homological", "--expr", "zeta + 1", "--h-expr", "exp(-zeta)",
                    "--cut", "4", "--grid", "8:8:1,0:0:1"]


@pytest.mark.parametrize("argv", [
    ["linearize", "--tol", "abc"],
    ["koenigs", "--expr", "zeta + 1"],
    ["linearize", "--order", "1/0"],
    ["compare", "--eps", "2.5", "--grid", "8:30:45,0:0:1", "--levels", "0,a"],
    ["compare", "--eps", "2.5", "--grid", "8:30:45,0:0:1", "--levels=-1"],
    ["linearize", "--tol", "nan"],
    KOENIGS_ARGS + ["--tol", "inf"],
    KOENIGS_ARGS + ["--eps", "nan"],
    KOENIGS_ARGS + ["--beta", "1+infi"],
    ["verify-domain", "--expr", "zeta + 1", "--quad-c=-inf"],
    ["verify-domain", "--expr", "zeta + 1", "--quad-c", "0"],
    ["verify-domain", "--expr", "zeta + 1", "--quad-c=-1"],
    ["verify-domain", "--expr", "zeta + 1", "--samples", "-5"],
    KOENIGS_ARGS + ["--tol", "0"],
    ["linearize", "--tol=-1e-9"],
    HOMOLOGICAL_ARGS + ["--alpha", "0"],
    HOMOLOGICAL_ARGS + ["--alpha=-1"],
    KOENIGS_ARGS + ["--eps", "0"],
    KOENIGS_ARGS + ["--eps=-1"],
    KOENIGS_ARGS + ["--k=-1"],
    KOENIGS_ARGS + ["--cut", "1"],
    HOMOLOGICAL_ARGS + ["--alpha", "1e-300"],
    ["solve-homological", "--expr=", "--h-expr", "exp(-zeta)", "--alpha", "1",
     "--grid", "8:8:1,0:0:1"],
    KOENIGS_ARGS + ["--eps", "1" + "0" * 400 + "/1"],
], ids=["tol-abc", "missing-grid", "order-1/0", "levels-non-integer", "levels-negative",
        "tol-nan", "tol-inf", "eps-nan", "beta-inf", "quad-c-inf", "quad-c-zero",
        "quad-c-negative", "samples-negative",
        "tol-zero", "tol-negative", "alpha-zero", "alpha-negative",
        "eps-zero", "eps-negative", "k-negative", "cut-below-rho-minus", "alpha-underflow",
        "homological-expr-empty", "eps-rational-past-the-doubles"])
def test_bad_flag_is_parse_error(tmp_path, capsys, argv):
    src = write_fixture(tmp_path)
    extra = ["--input", str(src)] if argv[0] in ("linearize", "compare") else []
    assert_parse_error(capsys, argv + extra + ["--output", str(tmp_path / "x")])


MALFORMED_SERIES = {
    "gens-zero": ("'gens'", {"trunc": "1", "gens": ["0"], "terms": []}),
    "trunc-negative": ("'trunc'", {"trunc": "-1", "gens": ["1"], "terms": []}),
    "term-above-trunc": ("'terms'", {"trunc": "1", "gens": ["1/2"],
                                     "terms": [{"exp": "3/2", "poly": [[1.0, 0.0]]}]}),
    "gens-a-number": ("'gens'", {"trunc": "1", "gens": 1, "terms": []}),
    "terms-null": ("'terms'", {"trunc": "1", "gens": ["1"], "terms": None}),
    # iterables that are not lists: the generators 1 and 2, and no terms
    "gens-a-string": ("'gens'", {"trunc": "1", "gens": "12", "terms": []}),
    "terms-an-object": ("'terms'", {"trunc": "1", "gens": ["1"], "terms": {}}),
}


@pytest.mark.parametrize("name", list(MALFORMED_SERIES))
@pytest.mark.parametrize("argv", [["linearize"], ["compare", "--grid", "8:30:45,0:0:1"],
                                  KOENIGS_ARGS[:1] + KOENIGS_ARGS[3:], ["verify-domain"]],
                         ids=["linearize", "compare", "koenigs", "verify-domain"])
def test_malformed_series_file_is_parse_error(tmp_path, capsys, argv, name):
    # the series constructor's ValueError names the key it rejects
    key, obj = MALFORMED_SERIES[name]
    src = tmp_path / "f.json"
    src.write_text(json.dumps(obj))
    assert main(argv + ["--input", str(src), "--output", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: series JSON {key} ")
    assert list(tmp_path.iterdir()) == [src]


@pytest.mark.parametrize("command, compiles", [("koenigs", 1), ("compare", 1),
                                               ("verify-domain", 0), ("solve-homological", 0)])
def test_each_map_compiles_its_enclosure_at_most_once(tmp_path, monkeypatch, command, compiles):
    # a 100-point Koenigs grid, whose walks try some 100 skips, compiles the
    # map's enclosure on the first; the commands that never skip compile none
    compiled, compile_ast = [], dulaclin.dynamics.compile_ast

    def recording(node, box=False):
        compiled.extend([node] * box)
        return compile_ast(node, box)
    monkeypatch.setattr(dulaclin.dynamics, "compile_ast", recording)
    grid = ["--grid", "8:30:10,-2:2:10"]
    argv = {"koenigs": KOENIGS_ARGS[:-2] + grid,
            "compare": ["compare", "--input", str(write_fixture(tmp_path)), "--beta", "1",
                        "--eps", "2.5", "--k", "0", "--cut", "8", *grid, "--levels", "0,1"],
            "verify-domain": DOMAIN_ARGS + ["--search"],
            "solve-homological": ["solve-homological", "--expr", "zeta + 1 + exp(-zeta)",
                                  "--h-expr", "exp(-zeta)", "--cut", "4", "--alpha", "1", *grid]
            }[command]
    assert main(argv + ["--output", str(tmp_path / "x")]) == 0
    assert len(compiled) == compiles


@pytest.mark.parametrize("grid", ["inf:inf:1,0:0:1", "8:9:2,nan:0:1", "8:1e309:2,0:0:1",
                                  "-1e308:1e308:3,0:0:1", "8:8:1,0:-inf:1"],
                         ids=["inf", "nan", "1e309", "span-overflow", "ignored-bound"])
@pytest.mark.parametrize("command", ["koenigs", "compare", "solve-homological"])
def test_non_finite_grid_is_parse_error(tmp_path, capsys, command, grid):
    # no point of a grid may be inf or NaN, nor the span hi - lo overflow
    argv = {"koenigs": KOENIGS_ARGS[:3],
            "compare": ["compare", "--input", str(write_fixture(tmp_path))],
            "solve-homological": HOMOLOGICAL_ARGS[:5] + ["--alpha", "1"]}[command]
    assert_parse_error(capsys, argv + [f"--grid={grid}", "--output", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("expr", [
    "zeta + 1 + " + "(" * 220 + "zeta" + ")" * 220,
    "zeta + 1 + " + "-" * 1200 + "exp(-zeta)",
    "zeta + 1 + zeta^" + "9" * 5000,
    "zeta + 1 + zeta^2e3",
], ids=["nested-parens", "negation-chain", "long-exponent", "float-exponent"])
def test_unparsable_expression_is_parse_error(tmp_path, capsys, expr):
    assert_parse_error(capsys, KOENIGS_ARGS[:1] + ["--expr", expr] + KOENIGS_ARGS[3:]
                       + ["--output", str(tmp_path / "x")])


@pytest.mark.parametrize("expr, code, err", [
    # delta = 1200*exp(-zeta) breaks the drift bound M at the first step
    ("zeta + 1" + " + exp(-zeta)" * 1200, 4,
     ["not converged at (8+0j): Koenigs sequence not certified at (8+0j): per-step drift"
      " bound violated, first at step 1: |delta| = 4.026e-01 > M = 6.905e-04; after 1 steps"
      " tail bound 2.105e-03, step 4.026e-01, tol 1.000e-09"]),
    ("zeta + 1 + " + "*".join(["exp(-zeta)"] * 1200), 0, []),
], ids=["long-sum", "long-product"])
def test_long_chain_expression_runs(tmp_path, capsys, expr, code, err):
    # a chain's AST is as deep as it is long, and compiles and walks at any depth
    out = tmp_path / "x"
    assert main(KOENIGS_ARGS[:1] + ["--expr", expr] + KOENIGS_ARGS[3:]
                + ["--output", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == err
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("profile", [["--cut", "0.5"], ["--k", "2", "--cut", "8"],
                                     ["--cut", "8"], ["--k", "1", "--cut", "8"]],
                         ids=["k0", "k2", "k0-overflow", "k1-overflow"])
@pytest.mark.parametrize("command", ["koenigs", "verify-domain", "solve-homological"])
def test_huge_eps_is_parse_error(tmp_path, capsys, command, profile):
    # (log^k R)^(1 + eps) underflows to 0 below 1 and overflows above it:
    # either way M(R) is undefined, not 1/0 or a numeric overflow
    argv = {"koenigs": KOENIGS_ARGS, "verify-domain": DOMAIN_ARGS,
            "solve-homological": HOMOLOGICAL_ARGS + ["--alpha", "1"]}[command]
    assert_parse_error(capsys, argv + ["--eps", "1e300", *profile,
                                       "--output", str(tmp_path / "x")])
    assert not list(tmp_path.iterdir())


def test_calls_in_one_process_share_one_parser(tmp_path, capsys):
    src = write_fixture(tmp_path)
    out = tmp_path / "lin"
    runs = []
    for _ in range(2):
        code = main(["linearize", "--input", str(src), "--cross-check", "--output", str(out)])
        runs.append((code, capsys.readouterr(),
                     [(tmp_path / f"lin.{x}.json").read_bytes() for x in ("report", "phi")]))
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert_parse_error(capsys, ["linearize", "--input", str(src), "--bogus",
                                "--output", str(tmp_path / "x")])
    assert build_parser() is build_parser()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unwritable_output_exits_1(tmp_path, capsys):
    src = write_fixture(tmp_path)
    code = main(["linearize", "--input", str(src),
                 "--output", str(tmp_path / "missing" / "lin")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")


def stale_text(size: int) -> str:
    """Text longer than `size` characters that no report holds."""
    return "stale line\n" * (size // 11 + 100)


class TestOutputFiles:
    """An existing output is written over in place and cut at the end of the
    new text; a pipe or a character device takes the text and is not cut."""

    @pytest.mark.parametrize("command", ["linearize", "koenigs", "solve-homological"])
    def test_stale_outputs_are_overwritten_in_place(self, tmp_path, command):
        argv, names = {
            "linearize": (["linearize", "--input", str(write_fixture(tmp_path)), "--cross-check"],
                          ["out.phi.json", "out.phi.picard.json", "out.report.json"]),
            "koenigs": (KOENIGS_ARGS, ["out"]),
            # 1,200 rows: the report is written in several chunks
            "solve-homological": (["solve-homological", "--expr", "zeta + 1", "--h-expr",
                                   "exp(-zeta)", "--alpha", "1", "--cut", "4",
                                   "--grid", "8:9:40,0:1:30"], ["out"]),
        }[command]
        fresh, stale, ref = tmp_path / "fresh", tmp_path / "stale", tmp_path / "ref"
        fresh.mkdir()
        stale.mkdir()
        ref.write_text("")  # created by open(path, "w"): mode 0o666 & ~umask
        assert main([*argv, "--output", str(fresh / "out")]) == 0
        before = {}
        for name in names:
            assert (fresh / name).stat().st_mode == ref.stat().st_mode
            (stale / name).write_text(stale_text((fresh / name).stat().st_size))
            (stale / name).chmod(0o640)
            before[name] = (stale / name).stat()
        assert main([*argv, "--output", str(stale / "out")]) == 0
        for name in names:
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()
            after = (stale / name).stat()
            assert (after.st_ino, after.st_mode) == (before[name].st_ino, before[name].st_mode)

    def test_a_symlinked_output_writes_through_to_its_target(self, tmp_path):
        fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link"
        assert main([*KOENIGS_ARGS, "--output", str(fresh)]) == 0
        target.write_text(stale_text(fresh.stat().st_size))
        link.symlink_to(target)
        assert main([*KOENIGS_ARGS, "--output", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()

    def test_a_failing_chunk_source_leaves_what_was_written(self, tmp_path):
        from dulaclin.cli import _write_chunks

        out = tmp_path / "out"
        out.write_text(stale_text(100))

        def chunks():
            yield "first chunk\n"
            raise RuntimeError("second chunk")

        with pytest.raises(RuntimeError, match="second chunk"):
            _write_chunks(str(out), chunks())
        assert out.read_text() == "first chunk\n"

    @pytest.mark.parametrize("command", ["linearize", "koenigs"])
    def test_dev_null_output_exits_0(self, tmp_path, capsys, command):
        if command == "linearize":
            # linearize's --output is a prefix: each of its files links to /dev/null
            argv = ["linearize", "--input", str(write_fixture(tmp_path)), "--cross-check"]
            out = tmp_path / "lin"
            links = [tmp_path / f"lin.{name}.json" for name in ("phi", "phi.picard", "report")]
            for link in links:
                link.symlink_to(os.devnull)
        else:
            argv, out, links = KOENIGS_ARGS, os.devnull, []
        assert main([*argv, "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert all(link.is_symlink() for link in links)

    def test_piped_stdout_output_prints_the_file_bytes(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(dulaclin.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        runs = [subprocess.run([sys.executable, "-m", "dulaclin.cli", *KOENIGS_ARGS,
                                "--output", out], env=env, capture_output=True, check=False)
                for out in (str(tmp_path / "k.csv"), "/dev/stdout")]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[1].stderr == b"" and runs[0].stdout.count(b"\n") == 1
        # the report, then the summary line that a file output prints alone
        assert runs[1].stdout == (tmp_path / "k.csv").read_bytes() + runs[0].stdout

    @pytest.mark.parametrize("argv, output", [
        (KOENIGS_ARGS, "k.csv"),
        (["solve-homological", "--expr", "zeta + 1 + exp(-zeta)", "--h-expr", "exp(-zeta)",
          "--alpha", "1", "--cut", "4", "--grid", "8:9:2,0:0:1"], "/dev/stdout")],
        ids=["koenigs-summary", "solve-homological-report"])
    def test_a_closed_stdout_exits_1_on_one_line(self, tmp_path, argv, output):
        # stdout is a pipe whose reader is gone before the run starts: the
        # summary's print or flush, or the report's write through
        # /dev/stdout, fails, with stdout buffered and unbuffered alike
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(dulaclin.__file__).parents[1]),
                                             env.get("PYTHONPATH", "")])
        for buffering in ({}, {"PYTHONUNBUFFERED": "1"}):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "dulaclin.cli", *argv, "--output", output],
                    env=env | buffering, cwd=tmp_path, stdout=write_end,
                    stderr=subprocess.PIPE, check=False)
            finally:
                os.close(write_end)
            err = run.stderr.decode()
            assert run.returncode == 1 and err.count("\n") == 1, (buffering, err)
            assert err.startswith("error: ") and "Traceback" not in err, (buffering, err)
            assert "Exception ignored" not in err, (buffering, err)


# the scalar copies: log is outside the batched walk's node subset
HOMOLOGICAL_H = {"batched": "exp(-zeta)", "scalar": "exp(-zeta) + 0*log(zeta)"}
HOMOLOGICAL_GRID = [8, 8 + 1j, 9, 9 + 1j, 10, 10 + 1j]


def run_homological_grid(tmp_path, h_expr):
    return main(["solve-homological", "--expr", "zeta + 1 + exp(-zeta)",
                 "--h-expr", h_expr, "--alpha", "1", "--beta", "1", "--eps", "1",
                 "--k", "0", "--cut", "4", "--grid", "8:10:3,0:1:2",
                 "--output", str(tmp_path / "h.json")])


def record_lanes(monkeypatch) -> list:
    """(nodes, points) of every call of a lane function the batched walk compiles."""
    import dulaclin.dynamics

    calls, compile_lanes = [], dulaclin.dynamics.compile_lanes

    def recording(*nodes):
        lanes = compile_lanes(*nodes)
        return lanes and (lambda re, im: calls.append(
            (nodes, [complex(a, b) for a, b in zip(re.tolist(), im.tolist())])) or lanes(re, im))

    monkeypatch.setattr(dulaclin.dynamics, "compile_lanes", recording)
    return calls


def count_scalar_solves(monkeypatch) -> list:
    """The start of every solve_homological_numeric call, through either module."""
    import dulaclin.cli
    import dulaclin.dynamics

    calls = []
    solve = dulaclin.dynamics.solve_homological_numeric

    def counting(*args, **kwargs):
        calls.append(args[3])
        return solve(*args, **kwargs)

    # a second walk inside the solver would go through the module global
    monkeypatch.setattr(dulaclin.dynamics, "solve_homological_numeric", counting)
    monkeypatch.setattr(dulaclin.cli, "solve_homological_numeric", counting)
    return calls


def test_solve_homological_two_orbit_sums_per_point(tmp_path, monkeypatch):
    calls, lanes = count_scalar_solves(monkeypatch), record_lanes(monkeypatch)
    assert run_homological_grid(tmp_path, HOMOLOGICAL_H["batched"]) == 0
    h = parse_expression(HOMOLOGICAL_H["batched"])
    # one lane per point, whose one walk sums psi(z) and psi(f(z)): no scalar call
    assert calls == [] and [points for nodes, points in lanes if h in nodes][0] == HOMOLOGICAL_GRID


def test_solve_homological_scalar_two_orbit_sums_per_point(tmp_path, monkeypatch):
    calls, lanes = count_scalar_solves(monkeypatch), record_lanes(monkeypatch)
    assert run_homological_grid(tmp_path, HOMOLOGICAL_H["scalar"]) == 0
    # one call per point sums psi(z) and psi(f(z)) along one orbit
    assert calls == HOMOLOGICAL_GRID and lanes == []


def orbit_terms(h_expr) -> int:
    """The orbit terms the scalar solver sums over HOMOLOGICAL_GRID."""
    f = AnalyticMap.from_expression("zeta + 1 + exp(-zeta)", AsymptoticProfile(1, 1.0, 0, 4.0))
    h, terms = compile_ast(parse_expression(h_expr)), []
    for z in HOMOLOGICAL_GRID:
        solve_homological_numeric(f, lambda w: terms.append(w) or h(w), 1.0, z, 1e-10)
    return len(terms)


def test_solve_homological_evaluates_h_once_per_orbit_term(tmp_path, monkeypatch):
    lanes = record_lanes(monkeypatch)
    assert run_homological_grid(tmp_path, HOMOLOGICAL_H["batched"]) == 0
    h = parse_expression(HOMOLOGICAL_H["batched"])
    # each orbit term is one lane of a call that evaluates the map's delta and
    # h, as the scalar walk takes one step and one h
    assert all(len(nodes) == 2 and nodes[1] == h for nodes, _ in lanes)
    assert sum(len(points) for _, points in lanes) == orbit_terms(HOMOLOGICAL_H["batched"]) > 6


def test_solve_homological_scalar_evaluates_h_once_per_orbit_term(tmp_path, monkeypatch):
    import dulaclin.cli

    h_calls, steps = [], []

    def counted(fn, calls):
        return lambda z: calls.append(z) or fn(z)

    # the CLI compiles only h itself; the map's delta is counted on the loaded map
    compile_ast = dulaclin.cli.compile_ast
    monkeypatch.setattr(dulaclin.cli, "compile_ast", lambda ast: counted(compile_ast(ast), h_calls))
    load_map = dulaclin.cli._load_map

    def load_counted(args, profile):
        f = load_map(args, profile)
        f.delta = counted(f.delta, steps)
        return f

    monkeypatch.setattr(dulaclin.cli, "_load_map", load_counted)
    assert run_homological_grid(tmp_path, HOMOLOGICAL_H["scalar"]) == 0
    # each orbit term takes one h and one step; the residual reuses the first h
    assert len(h_calls) == len(steps) == orbit_terms(HOMOLOGICAL_H["scalar"]) > 6


def test_solve_homological_nan_h_exits_1(tmp_path, capsys):
    # h is NaN at every point, so the decay check fails at the first one
    code = main(HOMOLOGICAL_ARGS[:4] + ["0*(zeta*1e300*1e300)", "--alpha", "1"]
                + HOMOLOGICAL_ARGS[5:] + ["--output", str(tmp_path / "h.json")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: |h| = nan exceeds exp(-alpha Re) at (8+0j)"]


def test_solve_homological_non_finite_orbit_point_blames_the_map(tmp_path, capsys):
    # h = exp(-zeta) is finite; the map's first step is NaN
    code = main(["solve-homological", "--expr", "zeta + 1 + 0*(zeta*1e300*1e300)"]
                + HOMOLOGICAL_ARGS[3:5] + ["--alpha", "1"] + HOMOLOGICAL_ARGS[5:]
                + ["--output", str(tmp_path / "h.json")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: map step 1 from (8+0j) is not finite: (nan+nanj)"]


def test_solve_homological_orbit_point_at_infinity_blames_the_map(tmp_path, capsys):
    # at Re = +inf, h = exp(-zeta) and the bound exp(-alpha Re) are both 0
    out = tmp_path / "h.json"
    code = main(["solve-homological", "--expr", "zeta + 1 + 1e300*1e300"]
                + HOMOLOGICAL_ARGS[3:5] + ["--alpha", "1"] + HOMOLOGICAL_ARGS[5:]
                + ["--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: map step 1 from (8+0j) is not finite: (inf+0j)"]
    assert not out.exists()


def test_complex_flag_parsing():
    from dulaclin.cli import _cnum

    assert _cnum("2+3i") == 2 + 3j
    assert _cnum("1/2-3/4i") == 0.5 - 0.75j
    assert _cnum("2.5") == 2.5 + 0j
    assert _cnum("i") == 1j
    assert _cnum("-i") == -1j
    assert _cnum("3i") == 3j
