"""`bench/abtest.py`, run with this checkout on both sides for one round,
and with a side whose pins its outputs do not match."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def abtest(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "abtest.py"), "--parent", str(parent),
         "--change", str(change), "--workload", "inverse-search", "--rounds", "1"],
        capture_output=True, text=True, timeout=600)


def test_the_repo_against_itself():
    proc = abtest(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    head, columns, *rows, last = proc.stdout.splitlines()
    assert re.fullmatch(r"workload inverse-search: (\d+) rows, best of 1 rounds, pins checked",
                        head).group(1) == str(len(rows))
    assert columns.split() == ["row", "parent", "ms", "change", "ms", "ratio", "share"]
    shares = []
    for row in rows:
        label, parent, change, ratio, share = re.fullmatch(
            r"(.+?)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)", row).groups()
        assert float(parent) > 0 and float(change) > 0, label
        shares.append(float(share))
    assert abs(sum(shares) - 1) < 0.01 * len(rows)
    assert re.fullmatch(r"cycle-weighted ratio [\d.]+ \(parent [\d.]+ ms, change [\d.]+ ms "
                        r"per cycle\)", last)


def test_a_side_that_misses_its_pins_stops_the_test(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    key = sorted(pins["inverse-search"])[0]
    pins["inverse-search"][key] = "corrupted"
    pins_path.write_text(json.dumps(pins))
    proc = abtest(ROOT, tmp_path)
    assert proc.returncode != 0
    assert f"abtest: change {key}: output" in proc.stderr
    assert "'corrupted'" in proc.stderr
