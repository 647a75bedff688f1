"""One digest of every benchmark invocation's bytes, to compare two checkouts.

    python3 tools/workload_digest.py 1,2

Run from the root of a checkout: the package is imported from `./src` and the
workloads from `./perfbench/workloads.py`, which is only read.  For each seed
and each workload in `workloads.WORKLOADS`, it builds the inputs in one fixed
work directory, so that every input path is the same from checkout to
checkout, and runs the warm-up and then the operations in-process through
`dulaclin.cli.main`.  It prints one line `<workload> seed <s> sha256 <hex>`
per workload and seed, then a total line: the number of invocations and one
sha256 over every invocation's argv, exit code, stdout, stderr and output
files.  Two checkouts that print the same line wrote the same bytes; the
per-workload lines show which workloads a change moved and which held.  To
check a checkout that predates this script, run this copy from that
checkout's root.

Each invocation then runs a second time over its own outputs, after a stale
tail has been appended to each of them: an output that is overwritten must
not keep any of it.  The script prints the invocation and exits 1 if its exit
code, stdout, stderr or any output file differs from the first run's.

`tools/workload_digest_seeds_1_2.txt` holds this script's output for seeds
1,2 (Python 3.11, numpy 2.4.6, x86-64 Linux, work directory in the system
temp directory), and CI fails when the output of
`python3 tools/workload_digest.py 1,2` differs from it.  A change that moves
bytes on purpose commits the new output with it and says which workloads
moved.

The output does not depend on the BLAS kernel: no reported value goes
through BLAS or LAPACK, so, for example,

    OPENBLAS_CORETYPE=Prescott python3 tools/workload_digest.py 1,2

prints the committed file too, and CI checks that under `Haswell` and
`Prescott` as well as under the default kernel.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
WORK = Path(tempfile.gettempdir()) / "dulaclin-workload-digest"
STALE_TAIL = "stale tail: no output of a rerun may keep it\n" * 100


def invoke(cli, op) -> list:
    """The byte strings of one in-process CLI call: its argv, exit code,
    stdout and stderr, then the contents of each of its outputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
    parts = [s.encode("utf-8", "backslashreplace")
             for s in (repr(op.argv), repr(code), out.getvalue(), err.getvalue())]
    return parts + [Path(p).read_bytes() if Path(p).is_file() else b"<missing>"
                    for p in op.outputs]


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    seeds = [int(s) for s in args[0].split(",")]
    sys.dont_write_bytecode = True  # perfbench/ is only read
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from dulaclin import cli

    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    digest, count = hashlib.sha256(), 0
    for seed in seeds:
        for name, build in workloads.WORKLOADS.items():
            own = hashlib.sha256()
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            ops, warm = build(WORK, seed, pins)
            for op in [warm, *ops]:
                parts = invoke(cli, op)
                for p in op.outputs:
                    if Path(p).is_file():
                        with open(p, "a") as stale:
                            stale.write(STALE_TAIL)
                if invoke(cli, op) != parts:
                    print(f"{name} seed {seed}: {op.argv!r} differs when run again"
                          " over its own outputs", file=sys.stderr)
                    return 1
                for part in parts:
                    digest.update(b"%d:%s" % (len(part), part))
                    own.update(b"%d:%s" % (len(part), part))
                count += 1
            print(f"{name} seed {seed} sha256 {own.hexdigest()}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{count} invocations sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
