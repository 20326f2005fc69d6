"""Byte identity of `eval`: each call's stdout, stderr and exit code,
hashed, against the corpus in `eval_corpus.json`.

The grid is every selection family (identity, the bit selections, the
witnesses, simple and surj) × every source kind (random, periodic, finite,
zeros, ones, an interleave, a flip stack and a column file) × the bit counts
{0, 1, 2, 16, 31, 64, 300, 16384}.  Beside it, simple and surj over a toy of
horizon 20, whose bound pair(0, 21) = 252 lies below 300: the bit counts
around that bound pin the `HorizonError` text.

The column file is written under `tmp_path` with fixed contents, and its
path is replaced by `<columns>` before hashing.  The corpus records
behaviour, not correctness, and only this file's script writes it:

    PYTHONPATH=src python tests/test_eval_corpus.py

rewrites `eval_corpus.json` from the code as it stands.  A change that
means to change an output reruns it and names every entry that changed.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from oneway.cli import main

CORPUS = Path(__file__).with_name("eval_corpus.json")
COLUMNS = "# fixed contents\n0 1011\n3 111111111111\n5 01\n40 0110100110010110\n"

TOY, SHORT = "collatz:64:1000", "collatz:16:20"
FAMILIES = ["identity", "bitselect:identity", "bitselect:double", "bitselect:shift",
            "witness:identity", "witness:double", "witness:shift",
            f"simple:{TOY}", f"surj:{TOY}"]
SOURCES = ["random:7", "periodic:1101000", "finite:1011001", "zeros", "ones",
           "interleave(random:11,periodic:011)", "flip:5:flip:300:flip:9000:flip:5:random:3",
           "columns:<columns>"]
BITS = [0, 1, 2, 16, 31, 64, 300, 16384]
# the short toy's bound is 252: the last bits it serves, the first it cannot
SHORT_CALLS = [(f"{family}:{SHORT}", source, bits)
               for family in ("simple", "surj")
               for source in ("ones", "random:5", "flip:3:flip:250:periodic:10")
               for bits in (*BITS, 251, 252, 253)]
CALLS = [(fn, source, bits) for fn in FAMILIES for source in SOURCES for bits in BITS] \
    + SHORT_CALLS


def key(fn: str, source: str, bits: int) -> str:
    return f"{fn} {source} {bits}"


def digest(fn: str, source: str, bits: int, columns: str) -> str:
    """sha256 (24 hex digits) of the exit code, stdout and stderr of one
    `eval` call, with the column file's path as a placeholder."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["eval", "--fn", fn, "--input", source.replace("<columns>", columns),
            "--bits", str(bits)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()]).replace(columns, "<columns>")
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def run(calls, directory: Path) -> dict[str, str]:
    columns = directory / "columns.txt"
    columns.write_text(COLUMNS)
    return {key(*call): digest(*call, str(columns)) for call in calls}


@pytest.mark.parametrize("fn", sorted({fn for fn, _, _ in CALLS}))
def test_eval_outputs_match_the_corpus(fn, tmp_path):
    want = json.loads(CORPUS.read_text())
    calls = [call for call in CALLS if call[0] == fn]
    got = run(calls, tmp_path)
    assert [k for k in got if got[k] != want.get(k)] == []


def test_the_corpus_holds_exactly_the_grid():
    assert sorted(json.loads(CORPUS.read_text())) == sorted(key(*call) for call in CALLS)


def test_the_short_toy_pins_the_horizon_error(tmp_path):
    """The short toy's entries: bit 252 is still served, bit 253 is not."""
    columns = tmp_path / "columns.txt"
    columns.write_text(COLUMNS)
    for family in ("simple", "surj"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [main(["eval", "--fn", f"{family}:{SHORT}", "--input", "ones",
                           "--bits", str(bits)]) for bits in (252, 253)]
        assert codes == [0, 2]
        assert err.getvalue() == "error: stage 21 beyond horizon 20\n"


def write() -> int:
    with tempfile.TemporaryDirectory() as directory:
        corpus = run(CALLS, Path(directory))
    CORPUS.write_text(json.dumps(corpus, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(write())
