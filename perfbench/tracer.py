"""Outside-in tracing of the dulaclin layers.

The tracer wraps public functions of the package from outside, at every
module attribute that is bound to them, so calls made through any imported
name are seen.  Each wrapped call is a span: its inclusive time is the span
duration and its self time is that duration minus the spans it encloses.
Per-name totals are kept in memory; the coarse boundary spans (one CLI
invocation, one solver run, one Koenigs limit) are also kept individually
with their parent and written out once, by `Tracer.dump`.

Nothing under `src/` knows about the tracer, and `restore` puts every
original binding back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute); a dotted attribute names a method
TARGETS = [
    ("cli.main", "cli", "main"),
    ("cli.linearize", "cli", "cmd_linearize"),
    ("cli.koenigs", "cli", "cmd_koenigs"),
    ("cli.verify-domain", "cli", "cmd_verify_domain"),
    ("cli.compare", "cli", "cmd_compare"),
    ("cli.solve-homological", "cli", "cmd_solve_homological"),
    ("linearize.level_by_level", "linearize", "linearize_level_by_level"),
    ("linearize.picard", "linearize", "linearize_by_picard"),
    ("linearize.solve_difference_eq", "linearize", "solve_difference_eq"),
    ("linearize.s_apply", "linearize", "SchroederOperators.s_apply"),
    ("linearize.t_inv", "linearize", "SchroederOperators.t_inv"),
    ("series.mul", "series", "mul"),
    ("series.add", "series", "add"),
    ("series.compose", "series", "compose"),
    ("series.translate", "series", "translate"),
    ("series.derivative", "series", "derivative"),
    ("series.conjugacy_residual", "series", "conjugacy_residual"),
    ("series.evaluate_tail", "series", "evaluate_tail"),
    ("series.ExpPolySeries.init", "series", "ExpPolySeries.__init__"),
    ("dynamics.koenigs_limit", "dynamics", "koenigs_limit"),
    ("dynamics.decay_slope", "dynamics", "decay_slope"),
    ("dynamics.solve_homological_numeric", "dynamics", "solve_homological_numeric"),
    ("exprparse.eval_ast", "exprparse", "eval_ast"),
    ("domains.check_invariance", "domains", "check_invariance"),
    ("domains.find_invariant_cut", "domains", "find_invariant_cut"),
    ("domains.quad_boundary_height", "domains", "quad_boundary_height"),
]

# eval_ast recurses through its own module global; wrapping only the name
# that dynamics binds counts top-level evaluations, one per map term per step
ONLY_BINDINGS = {"exprparse.eval_ast": ("dynamics",)}

# work counted at the boundary from each call's result
COUNTERS = {
    "dynamics.koenigs_limit": ("dynamics.koenigs.steps", lambda r: r.n_used),
    "domains.check_invariance": ("domains.checked_samples", lambda r: r.n_samples),
}

# spans kept one by one; every other name is only totalled
RECORDED = {
    "cli.main", "cli.linearize", "cli.koenigs", "cli.verify-domain", "cli.compare",
    "cli.solve-homological", "linearize.level_by_level", "linearize.picard",
    "series.conjugacy_residual", "dynamics.koenigs_limit", "dynamics.decay_slope",
    "domains.check_invariance", "domains.find_invariant_cut",
}


class Tracer:
    def __init__(self):
        self.totals = {}      # name -> [calls, inclusive_s, self_s]
        self.counters = {}    # name -> int
        self.spans = []       # [name, start, end, parent index]
        self._stack = []      # open spans: [child_s, recorded index]
        self._active = {}     # name -> open activations, to skip recursion
        self._patched = []    # (owner, attribute, original)

    def _wrap(self, name, fn):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans = self._stack, self._active, self.spans
        counter = COUNTERS.get(name)
        recorded = name in RECORDED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = parent
            if recorded:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                totals[0] += 1
                if not active[name]:
                    totals[1] += dur
                totals[2] += dur - frame[0]
                if recorded:
                    spans[index][1], spans[index][2] = t0, t1
            if counter is not None:
                key, count = counter
                self.counters[key] = self.counters.get(key, 0) + count(result)
            return result

        return wrapper

    def install(self, package: str = "dulaclin"):
        """Wrap every target at each module attribute bound to it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, modname, attr in TARGETS:
            module = sys.modules[f"{package}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(name, owner.__dict__[meth]))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(name, fn)
            allowed = ONLY_BINDINGS.get(name)
            for m in modules:
                if allowed and m.__name__.rsplit(".", 1)[-1] not in allowed:
                    continue
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def calls(self, name) -> int:
        return self.totals.get(name, [0])[0]

    def inclusive_s(self, name) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def self_s(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "totals": {k: {"calls": c, "inclusive_s": i, "self_s": s}
                       for k, (c, i, s) in sorted(self.totals.items())},
            "counters": self.counters,
            "spans": [[n, a - t0, b - t0, p] for n, a, b, p in self.spans],
        }
        path.write_text(json.dumps(payload))
