"""The line counts `bench/record.py` keeps beside each side's tier-1 result."""

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
