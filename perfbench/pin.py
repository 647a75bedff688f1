"""Regenerate pins.json: the reference outputs every benchmark run is gated on.

    python3 perfbench/pin.py

Runs every operation any seed can select (the whole small-series pool, the
deep series, every grid variant) through the current sources and records
the values the gates compare; an operation that fails its gates stops the
script.  Pins are taken once, from the commit whose
outputs are the reference; re-pinning after a change would hide a moved
value, which the benchmark counts as a failure.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_cli()
    (run.HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.HERE / "_work"))
    pool = workloads.small_pool()
    pins = {"small_pool_sha256": workloads.digest(pool),
            "deep_sha256": workloads.digest([workloads.deep_series()])}
    ops = workloads.formal_ops(work, [(i, False) for i in range(len(pool))], pool)
    for variant in range(len(workloads.IM_SHIFTS)):
        ops += workloads.koenigs_ops(work, variant) + workloads.compare_ops(work, variant)
    bad = 0
    try:
        for op in ops:
            code, log = run.invoke(cli, op)
            problems = [f"exit {code}: {log.strip()}"] if code != 0 else []
            if not problems:
                value, problems, _ = workloads.inspect(op)
            for p in problems:
                print(f"{op.pin_key}: {p}", file=sys.stderr)
            if not problems:
                pins[op.pin_key] = workloads.to_pin(op, value)
            bad += bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        print(f"{bad} operations fail their gates; pins not written", file=sys.stderr)
        return 1
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in pins.items()]
    (run.HERE / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"pinned {len(ops)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
