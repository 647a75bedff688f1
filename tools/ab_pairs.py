"""Alternating base/change benchmark pairs, with the numbers the ten-pair rule reads.

    python3 tools/ab_pairs.py --base HEAD~1 --workload domain --pairs 10 --seconds 25 --seed 1001
    python3 tools/ab_pairs.py --base HEAD~1 --aa --workload formal --pairs 10 --seconds 25

Run from the root of a checkout.  It extracts the base ref's committed files
into a temporary directory (`git archive <ref> | tar -x`, which leaves `.git`
as it is) and runs `perfbench/run.py --trace 0` alternately there (the
base) and in this checkout (the change, uncommitted edits included), the base
first on odd pairs and the change first on even ones.  With `--aa` the
change side is a second extraction of the base ref: an A/A control, whose
spread is what the same code reads against itself.  Pair i runs both sides
at seed `--seed` + i - 1.  Each side runs its own `perfbench/`; this script
only reads it, and reads the metric names and directions from this checkout's
`BENCHMARK.json`.

It prints each pair's end-to-end metrics as the pair ends, then, for every
end-to-end metric: the base's and the change's medians, their ratio, the
base's interquartile range (`statistics.quantiles`, exclusive method), the
number of pairs the change won (better in the metric's direction), and
whether the change's median beats the base's by more than that range.  With
fewer than 4 pairs the range and that verdict read `n/a`: quartiles of so
few runs bound nothing.  A run that is not `correct`, has failed operations
or exits nonzero stops the script.  The temporary directory is removed at
the end, also after an error.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one `perfbench/run.py` run in `root`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode or result is None or not result["correct"] or result["failed"]:
        sys.exit(f"benchmark run failed in {root} (exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(metrics: list, base: list, change: list):
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        mb, mc = statistics.median(b), statistics.median(c)
        won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        iqr = verdict = "n/a"
        if len(b) >= 4:  # the quartiles of fewer runs bound nothing
            q1, _, q3 = statistics.quantiles(b, n=4)
            gain = mb - mc if lower else mc - mb
            iqr, verdict = f"{q3 - q1:.4g}", "yes" if gain > q3 - q1 else "no"
        print(f"{name}: base {mb:.6g} -> change {mc:.6g} {m['unit']} (ratio {mc / mb:.3f}),"
              f" base IQR {iqr}, change won {won}/{len(b)}, gain above IQR: {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the base, e.g. HEAD~1")
    ap.add_argument("--aa", action="store_true",
                    help="run the base against a second copy of itself, not this checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1001, help="seed of the first pair")
    args = ap.parse_args()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    tree, other = tmp / "base", tmp / "aa"
    base, change = [], []
    try:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        for t in (tree, other) if args.aa else (tree,):
            t.mkdir()
            subprocess.run(["tar", "-x", "-C", str(t)], input=archive, check=True)
        for i in range(1, args.pairs + 1):
            seed = args.seed + i - 1
            sides = [("base", tree), ("change", other if args.aa else ROOT)]
            runs = {name: bench(root, args.workload, seed, args.seconds)
                    for name, root in (sides if i % 2 else sides[::-1])}
            base.append(runs["base"])
            change.append(runs["change"])
            print(f"pair {i} seed {seed} ({'base' if i % 2 else 'change'} first): "
                  + ", ".join(f"{m['name']} {runs['base'][m['name']]:.6g}/"
                              f"{runs['change'][m['name']]:.6g}" for m in metrics),
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}, {args.pairs} pairs at {args.seconds:g} s"
          f" ({'A/A: ' if args.aa else ''}base/change above):")
    summarize(metrics, base, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
