"""The CLI's input contract, property-tested through `main(argv)`.

Whatever the flags, expression or series file, `linearize`, `koenigs` and
`solve-homological` end in a documented exit code, 0 to 5, with at most one
line on stderr and no traceback or warning, and on exit 0 every output file
parses whole.

The strategies are steered toward valid input, so that most invocations get
past the parser: a flag takes an edge value one time in 15 and a valid one
(or its default) otherwise, a grid field an edge value one time in 45, a
grid is malformed one time in 8, and a series file or an expression one time
in 5.  Every flag is passed as `--flag=value`, so that a value starting with
'-' reaches the flag's own converter.  The seed is fixed and the examples
few, so that the file adds 2-3 s to tier-1; each command also has one valid
`@example`, so that the check of its outputs runs whatever the draws.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from dulaclin.cli import main
from dulaclin.series import series_from_json

# every numeric flag's edge values: zeros, signs, magnitudes, non-finite
# spellings, rationals (one past the largest double), empty and junk text
EDGE = ["0", "-0", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "1e+300", "nan", "NaN",
        "inf", "-inf", "Infinity", "1/0", "3/2", "-3/2", "1" + "0" * 400 + "/3", "", " ", "abc",
        "1+2i", "0x10", "1_0"]


def mostly(good, other, odds: int):
    """`good`, but `other` one time in `odds`.  one_of would draw its
    distinct branches alike, however often one is repeated.  `other` takes a
    middle draw, so that hypothesis's simplest draws, and its shrinks, which
    go to the ends of a range, go to `good`."""
    return st.integers(0, odds - 1).flatmap(lambda i: other if i == odds // 2 else good)


def value(valid: list, edge: list = EDGE, odds: int = 15):
    """A value from `valid`, but from `edge` one time in `odds`."""
    return mostly(st.sampled_from(valid), st.sampled_from(edge), odds)


def flag(name: str, valid: list, edge: list = EDGE):
    """`--name=value`, the value an edge value one time in 15; None in
    `valid` leaves the flag out."""
    return value(valid, edge).map(lambda v: [] if v is None else [f"--{name}={v}"])


def switch(name: str):
    return st.booleans().map(lambda on: [f"--{name}"] if on else [])


def axis(lo: list, hi: list):
    """A tiny grid axis `lo:hi:n` of 1 or 2 points, each field an edge value
    one time in 45."""
    return st.tuples(value(lo, odds=45), value(hi, odds=45), value(["1", "2"], odds=45)) \
        .map(":".join)


GRID = mostly(
    st.tuples(axis(["8", "9", "12", "8.5"], ["9", "10", "12"]), axis(["0", "-1"], ["0", "1"]))
    .map(lambda a: f"--grid={a[0]},{a[1]}"),
    st.sampled_from(["--grid=", "--grid=8:9:2", "--grid=8:9,0:0:1", "--grid=8:9:2,0:0:1,1:1:1",
                     "--grid=a:b:c,0:0:1"]), 8).map(lambda g: [g])

# the grammar of exprparse's docstring, a few leaves deep
ATOMS = st.sampled_from(["0", "1", "2", "0.5", "3", "1e-3", "1e300", "1e-300", ".5", "2.",
                         "zeta", "pi", "i", "L1", "L2", "L9"])


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join),
        st.tuples(st.sampled_from(["exp", "log", "L1", "L3"]), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda e: f"({e})"),
        children.map(lambda e: f"-{e}"),
        st.tuples(children, st.sampled_from(["2", "-1", "-2", "0", "3"]))
        .map(lambda t: f"({t[0]})^{t[1]}"))


GRAMMAR = st.recursive(ATOMS, _compound, max_leaves=5)
# a well-formed text cut short or with one junk character put in
MALFORMED = st.tuples(GRAMMAR, st.integers(0, 30), st.sampled_from(["", "(", ")", "^", "*", "@",
                                                                      "$", ",", "zeta(", "exp"])) \
    .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])
# germs zeta + 1 + delta whose delta decays, most of them
PERTURBATION = st.one_of(
    st.tuples(st.sampled_from(["1", "0.5", "-2", "1e-3", "3*i"]), st.sampled_from(["1", "2", "0.5"]))
    .map(lambda t: f"{t[0]}*exp(-{t[1]}*zeta)"),
    st.sampled_from(["zeta^-2", "L1*exp(-zeta)", "exp(-zeta)*L1^-1", "zeta^-1 + exp(-zeta)",
                     "1/(zeta*zeta)", "0"]),
    GRAMMAR)
GERM = mostly(PERTURBATION.map(lambda d: f"zeta + 1 + {d}"), st.one_of(GRAMMAR, MALFORMED), 5)
RHS = mostly(st.sampled_from(["exp(-zeta)", "exp(-2*zeta)", "exp(-zeta)*L1", "0"]),
             st.one_of(GRAMMAR, MALFORMED), 5)

GENS = ["1", "1/2", "2/3", "3/2", "2", "1/3"]
COEFFS = st.one_of(st.floats(-2.0, 2.0, allow_subnormal=False),
                   st.sampled_from([0.0, -0.0, 1e-300, -1e300, 1e300, 0.5]))
# defects of a series file: the three the constructor rejects (a generator
# that is not positive, a negative trunc, a term above trunc), gens or terms
# that are not lists, non-finite coefficients, duplicate exponents, and more
DEFECTS = ["gen-zero", "gen-negative", "trunc-negative", "term-above-trunc", "gens-number",
           "gens-null", "gens-string", "gens-object", "terms-number", "terms-null",
           "terms-object", "coeff-nan", "coeff-inf", "coeff-text", "coeff-huge-text",
           "duplicate-exp", "exp-junk", "exp-zero-denominator", "poly-short", "poly-number",
           "term-not-object", "missing-trunc", "not-object", "truncated-text", "no-head"]


def _lattice(gens, trunc):
    """The semigroup points of `gens` up to `trunc`, 0 left out."""
    pts, frontier = set(), {Fraction(0)}
    while frontier:
        frontier = {p + g for p in frontier for g in gens if p + g <= trunc} - pts
        pts |= frontier
    return sorted(pts)


@st.composite
def series_text(draw) -> str:
    """A series file on a random semigroup, with one defect one time in five."""
    gens = draw(st.lists(st.sampled_from(GENS), min_size=1, max_size=2, unique=True))
    trunc = draw(st.sampled_from(["1", "3/2", "2", "5/2"]))
    points = _lattice([Fraction(g) for g in gens], Fraction(trunc))
    exps = draw(st.lists(st.sampled_from(points), max_size=3, unique=True)) if points else []
    head = [[draw(st.sampled_from([1.0, 1.0, 2.0, 0.0, -1.0])), 0.0], [1.0, 0.0]]
    terms = [{"exp": "0", "poly": head}]
    for e in exps:
        poly = draw(st.lists(st.tuples(COEFFS, COEFFS).map(list), min_size=1, max_size=2))
        terms.append({"exp": str(e), "poly": poly})
    obj = {"trunc": trunc, "gens": gens, "terms": terms}
    defect = draw(st.sampled_from([None] * 4 * len(DEFECTS) + DEFECTS))
    term = terms[-1]
    if defect == "gen-zero":
        obj["gens"] = ["0"]
    elif defect == "gen-negative":
        obj["gens"] = gens + ["-1/2"]
    elif defect == "trunc-negative":
        obj["trunc"] = "-1"
    elif defect == "term-above-trunc":
        terms.append({"exp": str(Fraction(trunc) + Fraction(gens[0])), "poly": [[1.0, 0.0]]})
    elif defect and defect.startswith(("gens-", "terms-")):
        key, kind = defect.split("-")
        obj[key] = {"number": 1, "null": None, "string": "12", "object": {}}[kind]
    elif defect in ("coeff-nan", "coeff-inf"):
        term["poly"] = [[math.nan if defect == "coeff-nan" else -math.inf, 0.0]]
    elif defect in ("coeff-text", "coeff-huge-text"):
        term["poly"] = [["x" if defect == "coeff-text" else "1e400", 0.0]]
    elif defect == "duplicate-exp":
        terms.append(dict(term))
    elif defect == "exp-junk":
        term["exp"] = "a/b"
    elif defect == "exp-zero-denominator":
        term["exp"] = "1/0"
    elif defect == "poly-short":
        term["poly"] = [[1.0]]
    elif defect == "poly-number":
        term["poly"] = 3
    elif defect == "term-not-object":
        terms.append([1, 2])
    elif defect == "missing-trunc":
        del obj["trunc"]
    elif defect == "no-head":
        del terms[0]
    text = json.dumps(obj)  # NaN and -Infinity as Python's json spells them
    if defect == "not-object":
        text = json.dumps(terms)
    elif defect == "truncated-text":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def run(argv: list, series: str = None):
    """(exit code, stderr, warnings, the output files by suffix) of one
    invocation in a fresh directory, with the series text, if any, as
    --input; an exception out of main propagates, so hypothesis reports it
    with its argv."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        if series is not None:
            (Path(tmp) / "f.json").write_text(series)
            argv = [*argv, f"--input={Path(tmp) / 'f.json'}"]
        code = main([*argv, f"--output={Path(tmp) / 'out'}"])
        outputs = {p.name[3:]: p.read_text() for p in Path(tmp).glob("out*")}
    return code, err.getvalue(), [str(w.message) for w in caught], outputs


def assert_contract(code, err, caught):
    assert code in range(6), (code, err)
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), err
    assert "Traceback" not in err, err
    assert not caught, caught  # a warning is a stderr line too


def assert_csv(text: str, columns: int):
    """A koenigs CSV: `#` lines, a column header, then rows of `columns`
    numbers each, every line ended."""
    lines = [line for line in text.split("\n") if not line.startswith("#")]
    assert lines[0].split(",")[:2] == ["re_zeta", "im_zeta"] and lines[-1] == "", lines
    rows = [line.split(",") for line in lines[1:-1]]
    assert rows and all(len(r) == columns for r in rows), rows
    [float(x) for r in rows for x in r]  # raises on a field that is not a number


PROFILE = [flag("beta", [None, "1", "1", "2", "1+0.5i", "1-0.5i"]),
           flag("eps", [None, "1", "2.5"]), flag("k", [None, "0", "0", "1"]),
           flag("cut", [None, "8", "10", "5"]), flag("seed", [None, "0", "7"])]


def flags(*parts):
    return st.tuples(*parts).map(lambda t: [a for part in t for a in part])


CONTRACT = settings(max_examples=70, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@seed(1729)
@CONTRACT
@given(series_text(), flags(flag("order", [None, None, "1", "3/2", "2", "5/2"],
                                 EDGE + ["1e400", "99999999999999999999/3"]),
                            flag("tol", [None, "1e-9", "1e-6", "1e-12"]),
                            switch("cross-check"), flag("seed", [None, "0", "7"])))
@example('{"trunc":"3/1","gens":["1/1"],"terms":[{"exp":"0/1","poly":[[1.0,0.0],[1.0,0.0]]},'
         '{"exp":"1/1","poly":[[1.0,0.0]]}]}', ["--cross-check"])
def test_linearize_keeps_the_contract(series, argv):
    code, err, caught, outputs = run(["linearize", *argv], series)
    assert_contract(code, err, caught)
    if code == 0:
        names = {".phi.json", ".report.json"} | ({".phi.picard.json"} if "--cross-check" in argv
                                                 else set())
        assert set(outputs) == names, outputs
        for name in names - {".report.json"}:
            series_from_json(json.loads(outputs[name])["phi"])
        assert json.loads(outputs[".report.json"])["max_residual_coeff_rel"] >= 0


@seed(1729)
@CONTRACT
@given(st.one_of(GERM.map(lambda e: (f"--expr={e}", None)), series_text().map(lambda s: (None, s))),
       flags(*PROFILE, GRID, flag("tol", [None, "1e-9", "1e-6"]), switch("allow-partial")))
@example(("--expr=zeta + 1 + exp(-zeta)", None), ["--eps=2.5", "--grid=8:9:2,0:1:2"])
def test_koenigs_keeps_the_contract(germ, argv):
    expr, series = germ
    code, err, caught, outputs = run(["koenigs", *argv] + ([expr] if expr else []), series)
    assert_contract(code, err, caught)
    if code == 0:
        assert list(outputs) == [""], outputs
        assert_csv(outputs[""], 8)


@seed(1729)
@CONTRACT
@given(GERM, RHS, flags(*PROFILE, GRID, flag("alpha", ["1", "1", "0.5", "2"]),
                        flag("tol", [None, "1e-10", "1e-8"])))
@example("zeta + 1 + exp(-zeta)", "exp(-zeta)", ["--alpha=1", "--cut=4", "--grid=8:9:2,0:0:1"])
def test_solve_homological_keeps_the_contract(germ, rhs, argv):
    code, err, caught, outputs = run(["solve-homological", f"--expr={germ}", f"--h-expr={rhs}",
                                      *argv])
    assert_contract(code, err, caught)
    if code == 0:
        assert list(outputs) == [""], outputs
        report = json.loads(outputs[""])
        assert report["rows"] and all(set(row) == {"psi", "residual", "zeta"}
                                      for row in report["rows"]), report
