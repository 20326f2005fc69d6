"""Time the perfbench rows of two checkouts alternately, in one process.

    python3 bench/abtest.py --parent ../parent --change . --workload inverse-search --rounds 9

Each checkout's ``src/oneway`` and ``perfbench/workloads.py`` are loaded
into this one process under their own module objects, and each side builds
its workloads' pooled instances in a temporary directory.  Every instance is
first run once and held to its own checkout's ``perfbench/pins.json``; one
that fails its checks or its pin stops the test.  Then, in each round, each
row (operation class) runs its whole pool on one side and then on the
other, the side that goes first alternating from row to row and round to
round.  Per row it prints the best time per operation of each side over the
rounds, their ratio (change over parent: below 1 where the change is faster)
and the row's share of the parent's cycle (its per-cycle count times its
time); last, the cycle-weighted ratio, the change's cycle time over the
parent's.

Runs of the two checkouts in separate processes on a shared host can move a
row whose code did not change by several percent; side by side in one
process, such rows stay much closer.  This is a tool for looking while a
change is made.  It writes no file: ``bench/record.py``, which runs
``perfbench/run.py`` in separate processes, is the harness of record for
the BENCH files.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("forward-eval", "inverse-search", "reduction-sweep")
SIDES = ("parent", "change")


def _is_loaded_program(name: str) -> bool:
    return name in ("oneway", "workloads") or name.startswith("oneway.")


def load_workloads(checkout: Path):
    """`checkout`'s perfbench `workloads` module over its own `oneway`; the
    modules of that name loaded before are put back afterwards."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _is_loaded_program(name)}
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    try:
        module = importlib.import_module("workloads")
        program = Path(sys.modules["oneway"].__file__).resolve()
        if not program.is_relative_to((checkout / "src").resolve()):
            raise SystemExit(f"abtest: loaded oneway from {program}, not from {checkout}/src")
    finally:
        del sys.path[:2]
        for name in [name for name in sys.modules if _is_loaded_program(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    return module


class Side:
    """One checkout's instances of one workload, checked against its pins."""

    def __init__(self, name: str, checkout: Path, module, workload: str, workdir: str):
        self.name = name
        self.classes = module.WORKLOADS[workload]
        self.instances = module.Workload(workload, workdir).instances
        pins = json.loads((checkout / "perfbench" / "pins.json").read_text())[workload]
        for ops in self.instances.values():
            for op in ops:
                problem, _ = module.execute(op, pins)
                if problem is not None:
                    raise SystemExit(f"abtest: {name} {op.key}: {problem}")

    def time_row(self, label: str) -> float:
        """Seconds per operation of one pass over the row's pool."""
        ops = self.instances[label]
        gc.collect()
        started = time.perf_counter()
        for op in ops:
            op.run()
        return (time.perf_counter() - started) / len(ops)


def compare(sides: dict[str, Side], rounds: int) -> list[tuple[str, int, float, float]]:
    """(label, per-cycle count, parent's best, change's best) per row."""
    parent, change = sides["parent"], sides["change"]
    labels = [c.label for c in parent.classes]
    if labels != [c.label for c in change.classes]:
        raise SystemExit("abtest: the two checkouts' workloads have different rows")
    best = {(side, label): float("inf") for side in SIDES for label in labels}
    turn = 0
    for _ in range(rounds):
        for label in labels:
            for side in (SIDES if turn % 2 == 0 else SIDES[::-1]):
                best[side, label] = min(best[side, label], sides[side].time_row(label))
            turn += 1
    return [(c.label, c.per_cycle, best["parent", c.label], best["change", c.label])
            for c in parent.classes]


def report(workload: str, rounds: int, rows: list[tuple[str, int, float, float]]) -> None:
    cycle = {"parent": sum(n * parent for _, n, parent, _ in rows),
             "change": sum(n * change for _, n, _, change in rows)}
    width = max(len(label) for label, *_ in rows)
    print(f"workload {workload}: {len(rows)} rows, best of {rounds} rounds, pins checked")
    print(f"{'row':<{width}}  {'parent ms':>10}  {'change ms':>10}  {'ratio':>6}  {'share':>6}")
    for label, n, parent, change in rows:
        print(f"{label:<{width}}  {parent * 1000:10.3f}  {change * 1000:10.3f}  "
              f"{change / parent:6.3f}  {n * parent / cycle['parent']:6.3f}")
    print(f"cycle-weighted ratio {cycle['change'] / cycle['parent']:.3f} "
          f"(parent {cycle['parent'] * 1000:.2f} ms, change {cycle['change'] * 1000:.2f} ms "
          f"per cycle)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True  # record.py refuses checkouts that hold bytecode caches
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    modules = {side: load_workloads(path) for side, path in checkouts.items()}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        workdirs = {side: tempfile.mkdtemp(prefix="abtest-") for side in SIDES}
        try:
            if any(":" in path for path in workdirs.values()):  # CLI specs split on ':'
                raise SystemExit(f"abtest: temporary directory names hold ':': {workdirs}")
            sides = {side: Side(side, checkouts[side], modules[side], workload, workdirs[side])
                     for side in SIDES}
            report(workload, args.rounds, compare(sides, args.rounds))
        finally:
            for path in workdirs.values():
                shutil.rmtree(path, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
