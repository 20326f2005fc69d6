"""Record alternating parent/change benchmark runs into a BENCH file.

    python3 bench/record.py --parent ../parent --change . \\
        --workload reduction-sweep --seed 1 --seconds 25 --pairs 10 --out BENCH_7.json

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
once in each checkout; which side goes first alternates from pair to pair.
Then one ``--trace 1`` run per side gives the per-layer metrics.  From every
run the ``row`` lines, the host-slowdown line and the final JSON line are
kept.  Last, each side runs its tier-1 suite once (``python -m pytest -q
--durations=10``, ``PYTHONPATH=src``), and its wall time, summary line and
ten slowest tests are kept beside the runs, with the line count of each
module of its ``src/oneway`` and their total.

The file gets, per side, the median and quartiles of every end-to-end metric
over the pairs; the median of every row's time and sample count ``n``, and
its ``share`` of the run, median_ms·n over that sum for all rows (on the
change side also its ``ratio``, its median over the parent's); the
per-layer metrics, whether every run was correct, and the operations
attempted and failed over all its runs; per metric, the number of pairs the
change won.  Runs
are stored under ``"<workload>@seed<K>"``; an existing ``--out`` file keeps
its other entries, so several workloads and seeds build up one file.
Standard library only; each checkout's perfbench imports its own ``src/``.

``setup_s`` times fresh imports, so a side that loads cached bytecode while
the other compiles its source looks tens of milliseconds faster.  Neither
checkout may hold a ``__pycache__`` under ``src/`` or ``perfbench/``, and
every run is made with ``PYTHONDONTWRITEBYTECODE=1`` so that none appears.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROW = re.compile(r"^row  (.+?)\s+median\s+([\d.]+) ms\s+\(raw ([\d.]+) ms\)\s+n=(\d+)$")
SLOWDOWN = re.compile(r"^host slowdown against the idle probe: median ([\d.]+)$")
DURATION = re.compile(r"^([\d.]+)s (call|setup|teardown)\s+(.+)$")
SUMMARY = re.compile(r"^=*\s*(\d+ \w+.*) in ([\d.]+)s\b")
SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run: its rows, host slowdown and final JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds * 4 + 600,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"record: {' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    rows, slowdown = {}, None
    for line in lines:
        row = ROW.match(line)
        if row:
            rows[row.group(1)] = {"median_ms": float(row.group(2)),
                                  "raw_ms": float(row.group(3)), "n": int(row.group(4))}
        host = SLOWDOWN.match(line)
        if host:
            slowdown = float(host.group(1))
    return {"rows": rows, "host_slowdown": slowdown, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run: wall time, pytest's summary and its ten slowest tests."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--durations=10"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=3600,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                               "PYTHONPATH": "src"})
    wall = round(time.time() - started, 2)
    lines = proc.stdout.splitlines()
    summary = next((m for m in map(SUMMARY.match, reversed(lines)) if m), None)
    return {"wall_s": wall, "exit": proc.returncode,
            "summary": summary.group(1) if summary else None,
            "pytest_s": float(summary.group(2)) if summary else None,
            "slowest": [{"s": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
                        for m in map(DURATION.match, lines) if m]}


def source_lines(checkout: Path) -> dict:
    """Lines per module of the checkout's src/oneway, by stem, and their total."""
    counts = {path.stem: len(path.read_bytes().splitlines())
              for path in sorted((checkout / "src" / "oneway").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def summarise(runs: list[dict], traced: dict) -> dict:
    labels = sorted({label for run in runs for label in run["rows"]})
    rows = {label: {key: statistics.median(r["rows"][label][key]
                                           for r in runs if label in r["rows"])
                    for key in ("median_ms", "raw_ms", "n")}
            for label in labels}
    total = sum(row["median_ms"] * row["n"] for row in rows.values())
    for row in rows.values():
        row["share"] = round(row["median_ms"] * row["n"] / total, 4) if total else 0.0
    return {
        "end_to_end": {name: spread([run["metrics"][name] for run in runs])
                       for name in runs[0]["metrics"]},
        "rows": rows,
        "host_slowdown": [run["host_slowdown"] for run in runs],
        "per_layer": traced["metrics"],
        "correct": all(run["correct"] for run in runs + [traced]),
        "attempted": sum(run["attempted"] for run in runs + [traced]),
        "failed": sum(run["failed"] for run in runs + [traced]),
    }


def add_row_ratios(entry: dict) -> None:
    """Beside each change row's share, its ``ratio``: its median over the
    parent's, below 1 where the change is faster; rows one side lacks get none."""
    parent = entry["parent"]["rows"]
    for label, row in entry["change"]["rows"].items():
        if parent.get(label, {}).get("median_ms"):
            row["ratio"] = round(row["median_ms"] / parent[label]["median_ms"], 4)


def record(args) -> dict:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for path in checkouts.values():
        cached = sorted(str(p) for sub in ("src", "perfbench")
                        for p in (path / sub).rglob("__pycache__"))
        if cached:
            raise SystemExit(f"record: remove the bytecode caches first: {cached}")
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    started = time.time()
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_bench(checkouts[side], args.workload, args.seed,
                                        args.seconds, trace=0))
        print(f"record: {args.workload} seed {args.seed} pair {i + 1}/{args.pairs}: "
              + ", ".join(f"{side} ops_per_s {runs[side][-1]['metrics']['ops_per_s']:.1f}"
                          for side in SIDES), file=sys.stderr)
    traced = {side: run_bench(checkouts[side], args.workload, args.seed, args.seconds,
                              trace=1) for side in SIDES}
    wins = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        wins[name] = sum(
            1 for p, c in zip(runs["parent"], runs["change"])
            if sign * (c["metrics"][name] - p["metrics"][name]) > 0)
    entry = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "pairs": args.pairs, "wall_s": round(time.time() - started, 1),
             "change_wins": wins}
    entry.update({side: summarise(runs[side], traced[side]) for side in SIDES})
    add_row_ratios(entry)
    for side in SIDES:
        entry[side]["tier1"] = run_tier1(checkouts[side])
        entry[side]["src_lines"] = source_lines(checkouts[side])
        print(f"record: {side} tier-1 {entry[side]['tier1']['summary']} "
              f"in {entry[side]['tier1']['wall_s']} s, src/oneway "
              f"{entry[side]['src_lines']['total']} lines", file=sys.stderr)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    entry = record(args)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {
        "about": "alternating parent/change runs of perfbench/run.py, "
                 "written by bench/record.py", "runs": {}}
    doc["python"] = sys.version.split()[0]
    doc["cpus"] = os.cpu_count()
    doc["runs"][f"{args.workload}@seed{args.seed}"] = entry
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
