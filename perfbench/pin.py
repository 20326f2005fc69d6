"""Pin the expected output of every pooled instance from the current code.

    python3 perfbench/pin.py [workload ...]

Runs each instance once, requires its exit code and independent check to
pass, and writes the fingerprints to perfbench/pins.json.  Run it only when
the benchmark's own inputs change; a program change must reproduce the pins.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    os.chdir(run.ROOT)
    run.import_program()
    import workloads
    names = argv or list(workloads.WORKLOADS)
    path = run.HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    workdir = Path("perfbench") / "out" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for name in names:
            wl = workloads.Workload(name, str(workdir))
            table = {}
            for label, ops in wl.instances.items():
                for op in ops:
                    t = time.perf_counter()
                    problem, fp = workloads.observe(op)
                    ms = (time.perf_counter() - t) * 1000
                    if problem is not None:
                        print(f"FAIL {op.key}: {problem}", file=sys.stderr)
                        bad += 1
                    print(f"{ms:9.1f} ms  {op.key}  {fp}", flush=True)
                    table[op.key] = fp
            pins[name] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print(f"{bad} instances failed; pins not written", file=sys.stderr)
        return 1
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
