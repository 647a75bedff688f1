"""Benchmark of the dulaclin CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload formal --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  One
process runs one workload, single-threaded: it sets up (imports the package,
builds the seeded inputs, loads the pinned references, runs one untimed
warm-up invocation) several times and reports the median, then runs timed
passes over the workload's CLI invocations, as many as fit in `--seconds`
(at least three).  While it sets up and measures, it samples the host's
speed with a short fixed probe every 20 ms (see HostSpeed) and reports
every time rescaled to a nominal host speed.  Every invocation's outputs
are gated at the acceptance tolerances and against `pins.json`; work
counters read from the outputs must repeat exactly from pass to pass, and
so must the output bytes.

With `--trace 1` one more pass runs with the package's public functions
wrapped from outside (see tracer.py), and the per-layer metrics are printed
instead of the end-to-end ones.  Traced timings include the wrappers' cost
and are never end-to-end numbers; `trace.overhead_s` says how large it is.

Each metric is printed on its own line with its unit; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import os

# one thread for every numeric library, set before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3
SETUP_REPEATS = 7
TIME_BUDGET_S = 150.0   # timed passes stop early enough to end well inside 180 s
PROBE_EVERY_S = 0.02    # wall-clock interval of the host-speed probe
PROBE_NOMINAL_S = 2e-4  # the probe's time on an unloaded core
MIN_PROBES = 50         # the fewest probes an invocation is rescaled by

PROBE_HEAP = [complex(i, -i) for i in range(50_000)]   # about the size of the L2 cache
PROBE_CALLS = itertools.count()


def probe_work():
    """A fixed piece of work that uses no dulaclin code, made of what the
    workloads spend their time on: complex arithmetic, a small dict,
    Fractions, and reads spread over a heap of objects, each call a
    different slice of it."""
    z, acc, table = 8 + 0.5j, 0j, {}
    for i in range(200):
        z = z + 1 + cmath.exp(-z)
        acc += z * 1e-9
        table[i & 63] = acc
    q = Fraction(0)
    for i in range(1, 20):
        q += Fraction(1, i)
    start = 7919 * next(PROBE_CALLS) % len(PROBE_HEAP)
    return acc, q, sum(x.real for x in PROBE_HEAP[start::25])


class HostSpeed:
    """The speed of the host, sampled while the program runs.

    The host's cores are shared, and its throughput drifts by tens of per
    cent within a second and over minutes; the program's times drift with it.
    Inside `with speed:`, a timer signal interrupts the program every
    PROBE_EVERY_S of wall time and times `probe_work`, so the samples cover
    the program's own run evenly.  `spent` is the time the probes took,
    which the caller takes off its measurements.  `scale(first, last)`
    rescales a time measured while samples[first:last] were taken to the
    nominal host speed, at which the probe takes PROBE_NOMINAL_S.  It uses
    the median of the samples: a probe that the scheduler happens to
    interrupt takes many times its usual time, and would move a mean far
    more than it moves the program."""

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first=0, last=None) -> float:
        """For a time measured while samples[first:last] were taken."""
        return PROBE_NOMINAL_S / statistics.median(self.samples[first:last] or self.samples)


def import_cli():
    """A fresh import of the package, so every set-up pays for it."""
    for name in [n for n in sys.modules if n == "dulaclin" or n.startswith("dulaclin.")]:
        del sys.modules[name]
    return importlib.import_module("dulaclin.cli")


def invoke(cli, op):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
    return code, sink.getvalue()


def check(op, code, log, pins):
    """(gate failures, work counters, output digests) of one invocation."""
    if code != 0:
        return [f"exit {code}: {log.strip()[-300:]}"], {}, {}
    try:
        value, problems, counters = workloads.inspect(op)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}, {}
    if op.pin_key is not None:
        why = workloads.moved(op, value, pins[op.pin_key])
        if why:
            problems.append(why)
    digests = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in op.outputs}
    return problems, counters, digests


class Pass:
    """One timed pass over the operations, then its untimed checks.

    It runs inside `with speed:`.  `measured_s` is the pass's wall time less
    the probes'; `op_s` and `wall_s` are at nominal host speed.  Each
    invocation is rescaled by the probes taken while it ran, widened to the
    MIN_PROBES nearest in time when it ran shorter than that."""

    def __init__(self, cli, ops, pins, speed):
        measured, results = [], []
        for op in ops:
            t0, probes, i = time.perf_counter(), speed.spent, len(speed.samples)
            results.append(invoke(cli, op))
            t = time.perf_counter() - t0 - (speed.spent - probes)
            measured.append((t, i, len(speed.samples)))
        self.measured_s = sum(t for t, _, _ in measured)
        self.failed, self.failures, self.counters, self.digests = 0, [], {}, {}
        for op, (code, log) in zip(ops, results):
            problems, counters, digests = check(op, code, log, pins)
            self.failed += bool(problems)
            self.failures += [f"{op.name}: {p}" for p in problems]
            for key, n in counters.items():
                self.counters[key] = self.counters.get(key, 0) + n
            self.digests.update(digests)
        # rescaled only now, so that the last invocations have probes after them
        half = MIN_PROBES // 2
        self.op_s = [t * speed.scale(max(0, min(i, (i + j) // 2 - half)),
                                     max(j, (i + j) // 2 + half))
                     for t, i, j in measured]
        self.wall_s = sum(self.op_s)


def src_lines() -> int:
    return sum(1 for p in sorted((SRC / "dulaclin").rglob("*.py"))
               for line in p.read_text().splitlines() if line.strip())


def per_op_medians(passes):
    """Each invocation's median time over the passes, ascending.  The median
    filters out bursts of other load on the machine; one pass's wall time
    is taken as the sum of these medians."""
    return sorted(map(statistics.median, zip(*(p.op_s for p in passes))))


def end_to_end(passes, setups):
    per_op = per_op_medians(passes)
    return {
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(per_op, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(tr, traced, passes):
    c = traced.counters
    steps = tr.counters.get("dynamics.koenigs.steps", 0)
    koenigs_s = tr.inclusive_s("dynamics.koenigs_limit")
    samples = tr.counters.get("domains.checked_samples", 0)
    invariance_s = tr.inclusive_s("domains.check_invariance")
    points = c.get("dynamics.koenigs.points", 0)
    m = {}
    for name in ("series.mul", "series.compose", "series.ExpPolySeries.init",
                 "series.evaluate_tail", "linearize.s_apply",
                 "linearize.solve_difference_eq", "dynamics.koenigs_limit",
                 "dynamics.solve_homological_numeric", "exprparse.eval_ast",
                 "domains.check_invariance", "domains.quad_boundary_height"):
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.self_s"] = (tr.self_s(name), "s")
    for name in ("series.add", "series.translate", "series.derivative", "linearize.t_inv"):
        m[f"{name}.self_s"] = (tr.self_s(name), "s")
    for name in ("series.conjugacy_residual", "linearize.level_by_level",
                 "linearize.picard", "dynamics.decay_slope", "domains.find_invariant_cut",
                 "cli.linearize", "cli.koenigs", "cli.verify-domain", "cli.compare",
                 "cli.solve-homological"):
        m[f"{name}.s"] = (tr.inclusive_s(name), "s")
    m["cli.self_s"] = (sum(tr.self_s(n) for n in tr.totals if n.startswith("cli.")), "s")
    m["cli.output_bytes"] = (c.get("cli.output_bytes", 0), "B")
    m["linearize.levels_solved"] = (c.get("linearize.levels_solved", 0), "count")
    m["dynamics.koenigs.steps"] = (steps, "count")
    m["dynamics.koenigs.steps_per_point"] = (
        c.get("dynamics.koenigs.point_steps", 0) / points if points else 0.0, "steps/point")
    m["dynamics.koenigs.steps_per_s"] = (steps / koenigs_s if koenigs_s else 0.0, "1/s")
    m["dynamics.homological.points"] = (c.get("dynamics.homological.points", 0), "count")
    m["domains.invariance.samples"] = (c.get("domains.invariance.samples", 0), "count")
    m["domains.search.rounds"] = (c.get("domains.search.rounds", 0), "count")
    m["domains.samples_per_s"] = (samples / invariance_s if invariance_s else 0.0, "1/s")
    m["trace.overhead_s"] = (traced.wall_s - sum(per_op_medians(passes)), "s")
    m["src.lines"] = (src_lines(), "count")
    return m


def run(args, work: Path) -> int:
    build = workloads.WORKLOADS[args.workload]
    setups, warm_failures, cold_s = [], [], None
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            t0, probes, first = time.perf_counter(), speed.spent, len(speed.samples)
            cli = import_cli()
            pins = json.loads((HERE / "pins.json").read_text())
            ops, warm = build(work, args.seed, pins)
            code, log = invoke(cli, warm)
            setups.append(speed.scale(first) * (time.perf_counter() - t0 - (speed.spent - probes)))
            cold_s = cold_s or time.perf_counter() - T_START
            warm_failures += [f"warm-up: {p}" for p in check(warm, code, log, pins)[0]]

        passes, begin = [], time.perf_counter()
        while True:
            passes.append(Pass(cli, ops, pins, speed))
            elapsed = time.perf_counter() - begin
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
            if elapsed + 2 * passes[-1].measured_s > TIME_BUDGET_S:
                break

        runs = list(passes)
        if args.trace:
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = Pass(cli, ops, pins, speed)
            finally:
                tr.restore()
            tr.dump(HERE / "_out" / f"trace_{args.workload}.json")
            runs.append(traced)

    attempted = SETUP_REPEATS + len(ops) * len(runs)
    failed = len(warm_failures) + sum(p.failed for p in runs)
    counters_repeat = all(p.counters == runs[0].counters for p in runs)
    outputs_repeat = all(p.digests == runs[0].digests for p in runs)
    for f in warm_failures + [f for p in runs for f in p.failures][:20]:
        print(f"FAILED {f}", file=sys.stderr)
    if not counters_repeat:
        print(f"work counters differ between passes: {[p.counters for p in runs]}", file=sys.stderr)
    if not outputs_repeat:
        print("output bytes differ between passes (tracing on/off or repeated runs)",
              file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} timed passes of "
          f"{len(ops)} invocations; set-up repeated {SETUP_REPEATS} times "
          f"(first, cold: {cold_s:.4f} s)")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"host speed: probe median {statistics.median(speed.samples) * 1e3:.4g} ms over "
          f"{len(speed.samples)} samples, nominal {PROBE_NOMINAL_S * 1e3:g} ms; "
          f"measured pass wall time {statistics.median(p.measured_s for p in passes):.6g} s "
          f"(median, not rescaled)")
    for key, n in sorted(runs[0].counters.items()):
        print(f"counter {key} = {n} per pass")
    if not args.trace:
        print(f"src.lines = {src_lines()} count (informational)")
    metrics = per_layer(tr, traced, passes) if args.trace else end_to_end(passes, setups)
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("op_p"):
            note = f" (over {len(ops)} invocations, each the median of {len(passes)} runs)"
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0 and counters_repeat and outputs_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dulaclin" / "cli.py").is_file():
        print(f"no dulaclin sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
