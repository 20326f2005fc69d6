"""Byte identity of the search verbs: each `fiber`, `invert-tree` and
`extract` call's stdout, stderr and exit code, hashed, against the corpus in
`search_corpus.json`.

* `fiber`: bitselect:double, witness:shift, simple, surj, two1 and two2, each
  on two inputs, at depths 0, 1, 4, 8 and 12, with targets of depth,
  2·depth + 4 and 6·depth + 8 bits that the construction emits on the input,
  each also with its middle bit flipped, and the empty target.  Two1 and
  two2 run on an x half from random:11 and a z half of zeros or ones, and at
  depth 16 also on longer targets, whose surviving classes split below the
  depth while their continuations are probed.
* `invert-tree`: every selection and witness at depths 8 to 40 over five
  targets, a lossy `bitselect:double` (exit 2, no consensus or too many
  survivors) and targets outside the range (exit 2).
* `extract`: the randomized mode with sigma "", "1" and "01" over several n,
  and a few n for simple, two1 and two2.
* Error cases: depth −1 and 4,097, a bad target symbol, negative `--bits`,
  and `--sigma` in a mode that reads none.

Each key is the call's argv.  Targets are the construction's own output,
computed here with `evaluate`, so a changed target changes the key.  The
two2 string enumeration is written under `tmp_path` with fixed contents and
its path is replaced by `<u>` in keys and before hashing.  The corpus
records behaviour, not correctness, and only this file's script writes it:

    PYTHONPATH=src python tests/test_search_corpus.py

rewrites `search_corpus.json` from the code as it stands.  A change that
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
from oneway.constructions import bit_select, double_injection, one_way_surjection, \
    shift_injection, simple_one_way, two_to_one_v1, two_to_one_v2, witness_function
from oneway.enumeration import StagedStringEnumeration, collatz_toy
from oneway.streams import evaluate, interleaved, ones, random_source, zeros

CORPUS = Path(__file__).with_name("search_corpus.json")
U_FILE = "# fixed contents\nhorizon 100000\n0 1\n"

SMALL, BIG = collatz_toy(16, 1000), collatz_toy(32, 10**5)
U = StagedStringEnumeration.from_pairs([(0, "1")], 10**5)
X = random_source(11)
# spec -> (the function the CLI builds from it, its inputs by name)
FIBER_FAMILIES = {
    "bitselect:double": (bit_select(double_injection()),
                         {"x3": random_source(3), "x4": random_source(4)}),
    "witness:shift": (witness_function(shift_injection()),
                      {"x3": random_source(3), "x4": random_source(4)}),
    "simple:collatz:16:1000": (simple_one_way(SMALL),
                               {"x3": random_source(3), "x4": random_source(4)}),
    "surj:collatz:16:1000": (one_way_surjection(SMALL),
                             {"x3": random_source(3), "x4": random_source(4)}),
    "two1:collatz:32:100000": (two_to_one_v1(BIG),
                               {"stuck": interleaved(X, zeros()), "climb": interleaved(X, ones())}),
    "two2:collatz:32:100000:<u>": (two_to_one_v2(BIG, U),
                                   {"stuck": interleaved(X, zeros()),
                                    "climb": interleaved(X, ones())}),
}


def flip_middle(y: str) -> str:
    i = len(y) // 2
    return y[:i] + "10"[int(y[i])] + y[i + 1:]


def fiber_calls() -> list[list[str]]:
    calls = []
    for spec, (fn, inputs) in FIBER_FAMILIES.items():
        for depth in (0, 1, 4, 8, 12):
            targets = [""]
            for x in inputs.values():
                for bits in (depth, 2 * depth + 4, 6 * depth + 8):
                    y = evaluate(fn, x, bits).output
                    targets += [y, flip_middle(y)] if y else []
            calls += [["fiber", "--fn", spec, "--target", y, "--depth", str(depth)]
                      for y in dict.fromkeys(targets)]
        if spec.startswith("two"):
            calls += [["fiber", "--fn", spec, "--target", evaluate(fn, x, bits).output,
                       "--depth", "16"] for x in inputs.values() for bits in (90, 180)]
    return calls


INVERT_CALLS = [["invert-tree", "--fn", fn, "--target", target, "--bits", bits,
                 "--depth", depth]
                for fn in ("identity", "bitselect:identity", "bitselect:shift",
                           "witness:identity", "witness:double", "witness:shift")
                for target in ("random:7", "periodic:10", "zeros", "ones", "finite:0110")
                for bits, depth in (("6", "8"), ("6", "24"), ("12", "40"), ("8", "16"))] + \
    [["invert-tree", "--fn", "bitselect:double", "--target", target, "--bits", "6",
      "--depth", depth] for target in ("random:7", "ones") for depth in ("8", "40")]

EXTRACT_CALLS = \
    [["extract", "--mode", "randomized", "--fn", "surj:collatz:32:100000", "--n", str(n),
      "--sigma", sigma] for sigma in ("", "1", "01") for n in (0, 1, 2, 3, 5, 9, 27, 31)] + \
    [["extract", "--mode", "simple", "--fn", "simple:collatz:16:1000", "--n", str(n)]
     for n in (0, 3, 7, 12)] + \
    [["extract", "--mode", "two1", "--fn", "two1:collatz:32:100000", "--n", str(n)]
     for n in (1, 4, 8, 13)] + \
    [["extract", "--mode", "two2", "--fn", "two2:collatz:32:100000:<u>", "--n", str(n)]
     for n in (0, 3, 7, 12)]

ERROR_CALLS = \
    [[*argv, "--depth", depth] for depth in ("-1", "4097") for argv in (
        ["fiber", "--fn", "bitselect:double", "--target", "01"],
        ["invert-tree", "--fn", "identity", "--target", "zeros", "--bits", "1"])] + \
    [["fiber", "--fn", "bitselect:double", "--target", "012", "--depth", "4"],
     ["invert-tree", "--fn", "identity", "--target", "finite:012", "--bits", "1", "--depth", "4"],
     ["invert-tree", "--fn", "identity", "--target", "zeros", "--bits", "-1", "--depth", "4"],
     ["extract", "--mode", "simple", "--fn", "simple:collatz:16:1000", "--n", "3", "--sigma", "1"],
     ["extract", "--mode", "two1", "--fn", "two1:collatz:32:100000", "--n", "3", "--sigma", "1"]]

CALLS = fiber_calls() + INVERT_CALLS + EXTRACT_CALLS + ERROR_CALLS


def key(argv: list[str]) -> str:
    return " ".join(arg or "''" for arg in argv)


def digest(argv: list[str], u: str) -> str:
    """sha256 (24 hex digits) of the exit code, stdout and stderr of one
    call, with the string enumeration's path as a placeholder."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("<u>", u) for arg in argv])
    text = json.dumps([code, out.getvalue(), err.getvalue()]).replace(u, "<u>")
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def run(calls, directory: Path) -> dict[str, str]:
    u = directory / "u.words"
    u.write_text(U_FILE)
    return {key(argv): digest(argv, str(u)) for argv in calls}


@pytest.mark.parametrize("verb", ["fiber", "invert-tree", "extract"])
def test_search_outputs_match_the_corpus(verb, tmp_path):
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
