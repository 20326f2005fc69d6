"""What `bench/record.py` keeps: each row's share of a run and its ratio to
the parent, and the line counts beside each side's tier-1 result."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_source_lines_count_each_module_and_the_total(tmp_path):
    package = tmp_path / "src" / "oneway"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")  # no final newline
    (package / "notes.txt").write_text("not a module\n")
    assert record.source_lines(tmp_path) == {"a": 3, "b": 2, "total": 5}


def test_rows_keep_their_count_and_share_of_the_run():
    def run(rows, ops_per_s):
        return {"rows": {label: {"median_ms": ms, "raw_ms": 2 * ms, "n": n}
                         for label, (ms, n) in rows.items()},
                "metrics": {"ops_per_s": ops_per_s}, "host_slowdown": 1.0,
                "correct": True, "attempted": 10, "failed": 0}

    runs = [run({"a": (1.0, 30), "b": (4.0, 10)}, 5.0),
            run({"a": (3.0, 30), "b": (4.0, 10)}, 6.0),
            run({"a": (2.0, 30)}, 7.0)]
    rows = record.summarise(runs, run({}, 0.0))["rows"]
    # a: median 2.0 ms over 30 samples; b: 4.0 ms over 10, from the runs that have it
    assert rows == {"a": {"median_ms": 2.0, "raw_ms": 4.0, "n": 30, "share": 0.6},
                    "b": {"median_ms": 4.0, "raw_ms": 8.0, "n": 10, "share": 0.4}}


def test_change_rows_carry_their_ratio_to_the_parent():
    entry = {"parent": {"rows": {"a": {"median_ms": 4.0, "share": 0.5},
                                 "b": {"median_ms": 2.0, "share": 0.5},
                                 "gone": {"median_ms": 1.0, "share": 0.0}}},
             "change": {"rows": {"a": {"median_ms": 1.0, "share": 0.2},
                                 "b": {"median_ms": 3.0, "share": 0.8},
                                 "new": {"median_ms": 1.0, "share": 0.0}}}}
    record.add_row_ratios(entry)
    assert entry["change"]["rows"] == {"a": {"median_ms": 1.0, "share": 0.2, "ratio": 0.25},
                                       "b": {"median_ms": 3.0, "share": 0.8, "ratio": 1.5},
                                       "new": {"median_ms": 1.0, "share": 0.0}}
    assert "ratio" not in entry["parent"]["rows"]["a"]
