"""One digest of every benchmark invocation's bytes, to compare two checkouts.

    python3 tools/workload_digest.py 1,2

Run from the root of a checkout: the package is imported from `./src` and the
workloads from `./perfbench/workloads.py`, which is only read.  For each seed
and each workload in `workloads.WORKLOADS`, it builds the inputs in one fixed
work directory, so that every input path is the same from checkout to
checkout, and runs the warm-up and then the operations in-process through
`dulaclin.cli.main`.  It prints the number of invocations and one sha256 over
each invocation's argv, exit code, stdout, stderr and output files.  Two
checkouts that print the same line wrote the same bytes.  To check a
checkout that predates this script, run this copy from that checkout's root.
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


def invoke(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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
        for build in workloads.WORKLOADS.values():
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            ops, warm = build(WORK, seed, pins)
            for op in [warm, *ops]:
                code, out, err = invoke(cli, op.argv)
                parts = [s.encode("utf-8", "backslashreplace")
                         for s in (repr(op.argv), repr(code), out, err)]
                parts += [Path(p).read_bytes() if Path(p).is_file() else b"<missing>"
                          for p in op.outputs]
                for part in parts:
                    digest.update(b"%d:%s" % (len(part), part))
                count += 1
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{count} invocations sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
