"""Byte identity of the data-file verbs: each call's stdout, stderr and exit
code, hashed, against the corpus in `data_corpus.json`.

* `measure`: a plain prefix set, with and without `--sigma` (a bad sigma
  word among them), an empty set, sets that are not prefix-free, a bad
  word, horizon lines and an absent file.
* `eval`, `extract` and `fiber` over enumeration, string-enumeration and
  decided-set files, and `eval` and `invert-tree` over column files: one
  good file of each kind, and one file per malformed-line kind: a wrong
  field count, a non-integer, a bad word, a repeated stage, a repeated
  element, comparable words, a negative stage, member or column, a stage
  or member past the horizon, a repeated column, a horizon line where none
  is taken, bad and repeated horizon directives, a bad and a negative
  horizon value, and an absent file.
* `eval` of `inj` over small decided sets, with an enumeration of two
  members: inputs whose set bits are decided, undecided (a divergence) and
  past the horizon, and a set that lacks an enumerated member.

Each key is the call's argv.  The files are written under `tmp_path` with
the fixed contents of `FILES`, and the directory's path is replaced by
`<dir>` in keys and before hashing.  The corpus records behaviour, not
correctness, and only this file's script writes it:

    PYTHONPATH=src python tests/test_data_corpus.py

rewrites `data_corpus.json` from the code as it stands.  A change that
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

CORPUS = Path(__file__).with_name("data_corpus.json")

# horizon lines every data file is tried with: kind -> the line
HORIZONS = {"directive": "horizon\n", "three-fields": "horizon 5 6\n",
            "twice": "horizon 5\nhorizon 6\n", "value": "horizon five\n",
            "negative-horizon": "horizon -5\n"}
# file name -> contents; absent.* files are never written
FILES = {
    "plain.words": "# fixed contents\n0\n10\n\n110  # a comment\n",
    "empty.words": "",
    "comparable.words": "0\n01\n",
    "repeated.words": "10\n10\n",
    "badword.words": "0\n1a\n",
    "horizon.words": "horizon 5\n0\n",
    "small.enum": "# fixed contents\n0 2\n3 5\nhorizon 12\n",
    "fields.enum": "0 2\n1 2 3\n",
    "nonint.enum": "0 2\nx 3\n",
    "stage.enum": "0 2\n0 3\n",
    "element.enum": "0 2\n4 2\n",
    "negative.enum": "-1 2\n",
    "beyond.enum": "horizon 3\n5 1\n",
    "ok.strings": "# fixed contents\n0 1\n4 01\nhorizon 1000\n",
    "fields.strings": "0\n",
    "nonint.strings": "x 01\n",
    "badword.strings": "0 012\n",
    "stage.strings": "0 1\n0 01\n",
    "comparable.strings": "0 01\n1 0\n",
    "beyond.strings": "horizon 3\n5 1\n",
    "ok.decided": "# fixed contents\n2\n5\nhorizon 12\n",
    "exact.decided": "2\n5\n",
    "wide.decided": "0\n2\n5\n7\nhorizon 40\n",
    "lacking.decided": "2\n",
    "fields.decided": "2 5\n",
    "nonint.decided": "two\n",
    "element.decided": "2\n2\n5\n",
    "negative.decided": "-2\n",
    "beyond.decided": "horizon 3\n5\n",
    "ok.columns": "# fixed contents\n0 1011\n3 111\n",
    "fields.columns": "0\n",
    "nonint.columns": "x 01\n",
    "badword.columns": "0 0a1\n",
    "negative.columns": "-1 01\n",
    "repeated.columns": "1 01\n1 11\n",
    "horizon.columns": "horizon 5\n0 1\n",
    **{f"{name}.{kind}": line + body
       for kind, body in (("words", "0\n"), ("enum", "0 2\n"), ("strings", "0 1\n"),
                          ("decided", "2\n"), ("columns", "0 1\n"))
       for name, line in HORIZONS.items()},
}


def files(kind: str) -> list[str]:
    return [f"<dir>/{name}" for name in FILES if name.endswith(f".{kind}")] + \
        [f"<dir>/absent.{kind}"]


SIGMAS = ["", "0", "11", "111", "1101", "12"]  # and "1", with every prefix set
MEASURE_CALLS = \
    [["measure", "--prefixset", "<dir>/plain.words", "--sigma", sigma] for sigma in SIGMAS] + \
    [["measure", "--prefixset", path, *sigma] for path in files("words")
     for sigma in ([], ["--sigma", "1"])]

SMALL = "<dir>/small.enum"
TOY = "collatz:16:1000"
DATA_CALLS = [call for path in files("enum") for call in (
    ["eval", "--fn", f"simple:{path}", "--input", "ones", "--bits", "16"],
    ["extract", "--mode", "simple", "--fn", f"simple:{path}", "--n", "2"],
    ["fiber", "--fn", f"simple:{path}", "--target", "0110", "--depth", "3"])] + \
    [call for path in files("strings") for call in (
        ["eval", "--fn", f"two2:{TOY}:{path}", "--input", "interleave(random:3,ones)",
         "--bits", "16"],
        ["extract", "--mode", "two2", "--fn", f"two2:{TOY}:{path}", "--n", "2"],
        ["fiber", "--fn", f"two2:{TOY}:{path}", "--target", "0110", "--depth", "3"])] + \
    [call for path in files("decided") for call in (
        ["eval", "--fn", f"inj:{SMALL}:{path}", "--input", "finite:0010010", "--bits", "12"],
        ["extract", "--mode", "simple", "--fn", f"inj:{SMALL}:{path}", "--n", "2"],
        ["fiber", "--fn", f"inj:{SMALL}:{path}", "--target", "0110", "--depth", "3"])] + \
    [call for path in files("columns") for call in (
        ["eval", "--fn", "identity", "--input", f"columns:{path}", "--bits", "16"],
        ["eval", "--fn", "bitselect:double", "--input", f"columns:{path}", "--bits", "16"],
        ["invert-tree", "--fn", "identity", "--target", f"columns:{path}", "--bits", "4",
         "--depth", "8"])]

INJ_CALLS = [["eval", "--fn", f"inj:{SMALL}:<dir>/{name}", "--input", source, "--bits", bits]
             for name in ("ok.decided", "exact.decided", "wide.decided", "lacking.decided")
             for source in ("zeros", "ones", "finite:0010010", "finite:00100101",
                            "finite:1000000100000001")
             for bits in ("0", "1", "8", "16", "40", "100")]

CALLS = MEASURE_CALLS + DATA_CALLS + INJ_CALLS


def key(argv: list[str]) -> str:
    return " ".join(arg or "''" for arg in argv)


def digest(argv: list[str], directory: str) -> str:
    """sha256 (24 hex digits) of the exit code, stdout and stderr of one
    call, with the data directory's path as a placeholder."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("<dir>", directory) for arg in argv])
    text = json.dumps([code, out.getvalue(), err.getvalue()]).replace(directory, "<dir>")
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def run(calls, directory: Path) -> dict[str, str]:
    for name, contents in FILES.items():
        (directory / name).write_text(contents)
    return {key(argv): digest(argv, str(directory)) for argv in calls}


@pytest.mark.parametrize("verb", ["measure", "eval", "extract", "fiber", "invert-tree"])
def test_data_outputs_match_the_corpus(verb, tmp_path):
    want = json.loads(CORPUS.read_text())
    got = run([argv for argv in CALLS if argv[0] == verb], tmp_path)
    assert [k for k in got if got[k] != want.get(k)] == []


def test_the_corpus_holds_exactly_the_calls():
    assert sorted(json.loads(CORPUS.read_text())) == sorted(map(key, CALLS))
    assert len(set(map(key, CALLS))) == len(CALLS)


def write() -> int:
    with tempfile.TemporaryDirectory() as directory:
        corpus = run(CALLS, Path(directory))
    CORPUS.write_text(json.dumps(corpus, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(write())
