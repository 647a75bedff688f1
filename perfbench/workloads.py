"""The four benchmark workloads: their inputs, CLI invocations and gates.

Every operation is one `dulaclin` CLI invocation.  Its outputs are read
back and gated at the acceptance tolerances, compared with the values pinned
in `pins.json`, and reduced to exact work counters.  The inputs are built
here from the benchmark seed, with the benchmark's own code (no call into
the package), and written to a work directory; the program sees only those
files and the flags.  README.md says why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

# acceptance tolerances, as pinned by the package's acceptance suite
FORMAL_TOL = 1e-9        # criteria 1, 2: relative residual and solver agreement
QUANTUM = 1e-9           # rounding quantum of the CLI's canonical comparison
KOENIGS_TOL = 1e-9       # criterion 5: tolerance, tails and residuals
SLOPE_TOL = 0.1          # criterion 6: slope slack
HOMOLOGICAL_TOL = 1e-10  # criterion 8: the CLI default; residual gate is 10*tol

SMALL_POOL_SEED = 20260808   # with this size, the acceptance corpus itself
SMALL_POOL_SIZE = 100
DEEP_SEED = 8
IM_SHIFTS = (0.0, 0.5, 1.0, 1.5)   # grid variants; the seed picks one

GERM = "zeta + 1 + exp(-zeta)"
GERM2 = "zeta + 1 + 0.5*i + exp(-zeta) + (zeta^2/4 - 1)*exp(-2*zeta)"
KOENIGS_FLAGS = ["--eps", "2.5", "--k", "0", "--cut", "8", "--tol", repr(KOENIGS_TOL)]
DOMAIN_FLAGS = ["--beta", "1", "--eps", "1", "--k", "0"]
QUAD_C = 2.0
DOMAIN_CUT = 5.0
DOMAIN_SAMPLES = 10_000


# ---------------------------------------------------------------------------
# input series, built and written without the package

def _semigroup(gens, bound):
    pts, frontier = {F(0)}, [F(0)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p + g
                if q <= bound and q not in pts:
                    pts.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(pts)


def _fmt(q: F) -> str:
    return f"{q.numerator}/{q.denominator}"


def series_json(trunc, gens, terms, mirror=False) -> str:
    """The package's documented wire format, terms sorted by exponent.

    `mirror` conjugates every coefficient: the mirrored germ is linearized by
    the conjugate series, at exactly the same cost."""
    sign = -1.0 if mirror else 1.0
    return json.dumps({
        "trunc": _fmt(F(trunc)),
        "gens": [_fmt(F(g)) for g in sorted(gens)],
        "terms": [{"exp": _fmt(m), "poly": [[c.real, sign * c.imag] for c in terms[m]]}
                  for m in sorted(terms)],
    }, separators=(",", ":"))


_GEN_CHOICES = [(F(1),), (F(1, 2),), (F(2, 3),), (F(1), F(1, 2)),
                (F(1, 2), F(2, 3)), (F(1), F(1, 2), F(2, 3))]
_ORDER_CHOICES = [F(1), F(3, 2), F(2), F(2), F(5, 2), F(3), F(3), F(4)]


def small_pool() -> list:
    """(trunc, gens, terms) of series of the acceptance-corpus shape: generators within {1, 1/2, 2/3},
    order <= 4, Re(beta) in [0.3, 3], |Im(beta)| <= 10, <= 3 blocks of
    degree <= 3."""
    rng = random.Random(SMALL_POOL_SEED)
    pool = []
    for _ in range(SMALL_POOL_SIZE):
        gens = rng.choice(_GEN_CHOICES)
        trunc = rng.choice(_ORDER_CHOICES)
        pts = [p for p in _semigroup(gens, trunc) if p > 0] or [F(1)]
        beta = complex(0.3 + 2.7 * rng.random(), -10 + 20 * rng.random())
        terms = {F(0): [beta, 1.0 + 0j]}
        for mu in rng.sample(pts, rng.randint(1, min(3, len(pts)))):
            deg = rng.randint(0, 3)
            terms[mu] = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(deg + 1)]
        pool.append((trunc, gens, terms))
    return pool


def deep_series():
    """The ROADMAP baseline shape: generators (1/2, 2/3), four degree-3
    blocks on the lowest exponents, order 8 (45 levels)."""
    rng = random.Random(DEEP_SEED)
    gens, trunc = (F(1, 2), F(2, 3)), F(8)
    beta = complex(1.0, 0.3 * (2 * rng.random() - 1))
    terms = {F(0): [beta, 1.0 + 0j]}
    for mu in [p for p in _semigroup(gens, trunc) if p > 0][:4]:
        terms[mu] = [complex(0.5 * rng.uniform(-1, 1), 0.5 * rng.uniform(-1, 1))
                     for _ in range(4)]
    return trunc, gens, terms


def digest(specs) -> str:
    return hashlib.sha256("\n".join(series_json(*s) for s in specs).encode()).hexdigest()


# ---------------------------------------------------------------------------
# operations

@dataclass
class Op:
    name: str
    argv: list
    outputs: tuple
    pin_key: str | None = None
    expect_points: int = 0     # grid points or samples the report must hold
    extra: dict = field(default_factory=dict)


def _read_linearize(op):
    out = op.outputs
    report = json.loads(Path(out[0]).read_text())
    phi = json.loads(Path(out[1]).read_text())["phi"]
    value = {t["exp"]: [complex(re, im) for re, im in t["poly"]] for t in phi["terms"]}
    problems = []
    if not report["max_residual_coeff_rel"] <= FORMAL_TOL:
        problems.append(f"residual {report['max_residual_coeff_rel']:.3e}")
    cross = report.get("cross_check")
    if "--cross-check" in op.argv and (cross is None or not cross["max_rel_coeff_diff"] <= FORMAL_TOL):
        problems.append(f"solvers disagree: {cross}")
    return value, problems, {"linearize.levels_solved": len(report["levels"])}


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    return comments, rows


def _read_koenigs(op):
    comments, rows = _read_csv(op.outputs[0])
    summary = dict(kv.split("=") for kv in comments[-1].split()[2:])
    problems = []
    if int(summary["n_failed"]) or len(rows) != op.expect_points:
        problems.append(f"{summary['n_failed']} unconverged of {len(rows)} points")
    tails = [float(r["tail_bound"]) for r in rows]
    resids = [float(r["residual"]) for r in rows]
    if not all(t <= KOENIGS_TOL for t in tails):
        problems.append(f"tail bound {max(tails):.3e} above tol")
    if not all(r <= KOENIGS_TOL for r in resids):
        problems.append(f"residual {max(resids):.3e} above tol")
    value = [complex(float(r["re_phi"]), float(r["im_phi"])) for r in rows]
    steps = sum(int(r["n_used"]) for r in rows)
    return value, problems, {"dynamics.koenigs.points": len(rows),
                             "dynamics.koenigs.point_steps": steps}


def _read_compare(op):
    _, rows = _read_csv(op.outputs[0])
    problems = [f"level {r['n']} slope {r['slope']} failed" for r in rows if r["passed"] != "1"]
    value = [float(r["slope"]) if r["slope"] else None for r in rows]
    return value, problems, {}


def _read_verify(op):
    comments, rows = _read_csv(op.outputs[0])
    bad = sum(1 for r in rows if float(r["bound_margin"]) < 0
              or r["rect_ok"] != "1" or r["region_ok"] != "1")
    problems = [f"{bad} invariance violations"] if bad else []
    if len(rows) != op.expect_points:
        problems.append(f"{len(rows)} samples, expected {op.expect_points}")
    counters = {"domains.invariance.samples": len(rows)}
    if "--search" in op.argv:
        R = float(comments[-1].split()[1].split("=")[1])
        rounds = round(math.log2(R / op.extra["R0"])) + 1
        counters = {"domains.search.rounds": rounds,
                    "domains.invariance.samples": rounds * len(rows)}
    return None, problems, counters


def _read_homological(op):
    rows = json.loads(Path(op.outputs[0]).read_text())["rows"]
    worst = max(r["residual"] for r in rows)
    problems = []
    if not worst <= 10 * HOMOLOGICAL_TOL:
        problems.append(f"homological residual {worst:.3e}")
    if len(rows) != op.expect_points:
        problems.append(f"{len(rows)} points, expected {op.expect_points}")
    return None, problems, {"dynamics.homological.points": len(rows)}


READERS = {"linearize": _read_linearize, "koenigs": _read_koenigs,
           "compare": _read_compare, "verify-domain": _read_verify,
           "solve-homological": _read_homological}


def inspect(op):
    """(pinned value, gate failures, work counters) read from the outputs."""
    value, problems, counters = READERS[op.argv[0]](op)
    counters["cli.output_bytes"] = sum(Path(p).stat().st_size for p in op.outputs)
    return value, problems, counters


# ---------------------------------------------------------------------------
# pins: what each value may move before the operation counts as failed

def to_pin(op, value):
    if op.argv[0] == "linearize":
        def q(x):
            return float(f"{round(x / QUANTUM) * QUANTUM:.12g}")
        return {m: [v for c in cs for v in (q(c.real), q(c.imag))] for m, cs in value.items()}
    if op.argv[0] == "koenigs":
        return [v for c in value for v in (round(c.real, 12), round(c.imag, 12))]
    return [None if s is None else float(f"{s:.12g}") for s in value]


def moved(op, value, pin) -> str:
    """Why `value` differs from its pin beyond the acceptance tolerance, or ''."""
    if op.argv[0] == "linearize":
        if op.extra.get("mirror"):
            pin = {m: [v if j % 2 == 0 else -v for j, v in enumerate(cs)] for m, cs in pin.items()}
        worst = 0.0
        for m in set(value) | set(pin):
            got = value.get(m, [])
            ref = [complex(a, b) for a, b in zip(pin.get(m, [])[::2], pin.get(m, [])[1::2])]
            for d in range(max(len(got), len(ref))):
                x = got[d] if d < len(got) else 0j
                y = ref[d] if d < len(ref) else 0j
                worst = max(worst, (abs(x - y) - QUANTUM) / max(1.0, abs(x), abs(y)))
        return f"phi moved {worst:.3e} from its pin" if worst > FORMAL_TOL else ""
    if op.argv[0] == "koenigs":
        ref = [complex(a, b) for a, b in zip(pin[::2], pin[1::2])]
        if len(ref) != len(value):
            return "point count differs from the pin"
        worst = max(abs(x - y) for x, y in zip(value, ref))
        return f"phi moved {worst:.3e} from its pin" if worst > KOENIGS_TOL else ""
    if [s is None for s in value] != [s is None for s in pin]:
        return "exact levels differ from the pin"
    worst = max((abs(a - b) for a, b in zip(value, pin) if a is not None), default=0.0)
    return f"slope moved {worst:.3e} from its pin" if worst > SLOPE_TOL else ""


# ---------------------------------------------------------------------------
# the workloads; each function writes its inputs under `work` and returns
# (timed operations, untimed warm-up operation)

def _linearize(work, name, src, extra=()):
    out = work / name
    return Op(name, ["linearize", "--input", str(src), *extra, "--output", str(out)],
              (f"{out}.report.json", f"{out}.phi.json")
              + ((f"{out}.phi.picard.json",) if "--cross-check" in extra else ()))


def formal_ops(work: Path, picks, pool, mirror_deep=False):
    """`linearize --cross-check` on the picked small series, each given as
    (pool index, mirrored), then the level solver alone on the deep series
    at orders 6 and 8."""
    ops = []
    for i, mirror in picks:
        src = work / f"small{i}.json"
        src.write_text(series_json(*pool[i], mirror=mirror))
        op = _linearize(work, f"small{i}", src, ["--cross-check"])
        op.pin_key, op.extra["mirror"] = f"small/{i}", mirror
        ops.append(op)
    deep = work / "deep.json"
    deep.write_text(series_json(*deep_series(), mirror=mirror_deep))
    for order in (6, 8):
        op = _linearize(work, f"deep{order}", deep, ["--order", str(order)])
        op.pin_key, op.extra["mirror"] = f"deep/{order}", mirror_deep
        ops.append(op)
    return ops


def formal(work: Path, seed: int, pins):
    pool = small_pool()
    if digest(pool) != pins["small_pool_sha256"] or digest([deep_series()]) != pins["deep_sha256"]:
        raise RuntimeError("generated formal inputs differ from the pinned ones")
    # the seed mirrors and orders the series, which leaves the work unchanged
    rng = random.Random(seed)
    picks = [(i, rng.random() < 0.5) for i in range(len(pool))]
    rng.shuffle(picks)
    ops = formal_ops(work, picks, pool, rng.random() < 0.5)
    warm_src = work / "warmup.json"
    warm_src.write_text(series_json(*pool[0]))
    return ops, _linearize(work, "warmup", warm_src, ["--cross-check"])


def koenigs_ops(work: Path, variant: int):
    s = IM_SHIFTS[variant]
    specs = [("k1", ["--expr", GERM, "--beta", "1"], f"8:20:20,{s}:{s + 5}:5"),
             ("k2", ["--expr", GERM2, "--beta", "1+0.5i"], f"8:20:20,{s - 2}:{s + 2}:5")]
    return [Op(name, ["koenigs", *src, *KOENIGS_FLAGS, "--grid", grid,
                      "--output", str(work / f"{name}.csv")],
               (str(work / f"{name}.csv"),), f"koenigs/{variant}/{name}", 100)
            for name, src, grid in specs]


def koenigs(work: Path, seed: int, pins):
    rng = random.Random(seed)
    ops = koenigs_ops(work, rng.randrange(len(IM_SHIFTS)))
    rng.shuffle(ops)
    warm = Op("warmup", ["koenigs", "--expr", GERM, "--beta", "1", *KOENIGS_FLAGS,
                         "--grid", "8:8:1,0:0:1", "--output", str(work / "warmup.csv")],
              (str(work / "warmup.csv"),), None, 1)
    return ops, warm


def compare_ops(work: Path, variant: int):
    s = IM_SHIFTS[variant]
    crit6 = work / "crit6.json"
    crit6.write_text(series_json(3, [1], {F(0): [1 + 0j, 1 + 0j], F(1): [1 + 0j]}))
    half = work / "half.json"
    half.write_text(series_json(4, [F(1, 2)], {F(0): [1 + 0j, 1 + 0j], F(1): [1 + 0j],
                                               F(3, 2): [0.5 + 0j, 0.1 + 0j]}))
    line = f"8:30:45,{s}:{s}:1"
    ops = [Op(name, ["compare", "--input", str(src), "--beta", "1", *KOENIGS_FLAGS,
                     "--grid", line, "--levels", levels, "--output", str(work / f"{name}.csv")],
              (str(work / f"{name}.csv"),), f"compare/{variant}/{name}")
           for name, src, levels in [("c1", crit6, "0,1"), ("c2", half, "0,1,2")]]
    ops.append(Op("c3", ["koenigs", "--input", str(half), "--beta", "1", *KOENIGS_FLAGS,
                         "--grid", f"8:20:10,{s}:{s + 5}:5", "--output", str(work / "c3.csv")],
                  (str(work / "c3.csv"),), f"compare/{variant}/c3", 50))
    return ops


def compare(work: Path, seed: int, pins):
    rng = random.Random(seed)
    ops = compare_ops(work, rng.randrange(len(IM_SHIFTS)))
    rng.shuffle(ops)
    warm = Op("warmup", ["koenigs", "--input", str(work / "half.json"), "--beta", "1",
                         *KOENIGS_FLAGS, "--grid", "8:8:1,0:0:1",
                         "--output", str(work / "warmup.csv")],
              (str(work / "warmup.csv"),), None, 1)
    return ops, warm


def domain(work: Path, seed: int, pins):
    rng = random.Random(seed)
    s = IM_SHIFTS[rng.randrange(len(IM_SHIFTS))]
    band = work / "band.json"
    root = {"kind": "power", "a": 2.0, "r": 0.5}
    band.write_text(json.dumps({"band": {"t": DOMAIN_CUT, "hl": {"kind": "neg", "inner": root},
                                         "hu": root}}))
    verify = ["verify-domain", "--expr", GERM, *DOMAIN_FLAGS, "--cut", repr(DOMAIN_CUT),
              "--samples", str(DOMAIN_SAMPLES), "--seed", str(seed)]
    ops = [
        Op("quad", [*verify, "--quad-c", repr(QUAD_C), "--search",
                    "--output", str(work / "quad.csv")],
           (str(work / "quad.csv"),), None, DOMAIN_SAMPLES,
           {"R0": max(DOMAIN_CUT, QUAD_C + 1.0)}),
        Op("band", [*verify, "--region", str(band), "--output", str(work / "band.csv")],
           (str(work / "band.csv"),), None, DOMAIN_SAMPLES),
        Op("homological", ["solve-homological", "--expr", GERM, "--h-expr", "exp(-zeta)",
                           "--alpha", "1", *DOMAIN_FLAGS, "--cut", "4",
                           "--grid", f"8:28:200,{s - 5}:{s + 5}:100",
                           "--tol", repr(HOMOLOGICAL_TOL),
                           "--output", str(work / "homological.json")],
           (str(work / "homological.json"),), None, 20_000),
    ]
    rng.shuffle(ops)
    warm = Op("warmup", ["verify-domain", "--expr", GERM, *DOMAIN_FLAGS, "--cut",
                         repr(DOMAIN_CUT), "--region", str(band), "--samples", "100",
                         "--output", str(work / "warmup.csv")],
              (str(work / "warmup.csv"),), None, 100)
    return ops, warm


WORKLOADS = {"formal": formal, "koenigs": koenigs, "compare": compare, "domain": domain}
