"""Read-class inversion against the word-level explorer it replaced.

The reference below is the library's earlier preimage search, kept here as
a test-only copy: `ref_preimage_levels` extends every surviving word by both
bits at every level and maps each word from scratch on a fresh tape
(`ref_map_word`, the earlier `barrier_image` loop), and
`ref_unique_path_invert` takes levelwise consensus over those words.

The library now grows read classes on branches of their tapes and splits
them through `_fork_tree` only where a bit reads an open position.  The
levels must agree word for word, and inversion must return the same word or
raise the same error with the same text, on every invert-tree fixture, on
drawn adaptive emitters and on the stateful two-to-one map.  The library
searches a representation to its depth, so where the reference takes a
shallower `depth` or `depth_cap` the library gets a representation cut there.
"""

import random

from hypothesis import given, settings, strategies as st

from oneway.bitcore import check_word
from oneway.constructions import (
    bit_select,
    double_injection,
    identity_injection,
    shift_injection,
    two_to_one_v1,
    witness_function,
)
from oneway.enumeration import StagedEnumeration, collatz_toy
from oneway.errors import HorizonError, NotInRangeError, NotSingletonError
from oneway.inversion import preimage_tree, unique_path_invert
from oneway.streams import (
    OracleTape,
    RealFunction,
    Representation,
    finite,
    output_source,
    random_source,
)

from test_fork_differential import adaptive_emitters
from test_marker_differential import outcome
from test_streams import prefix_of


# ----------------------------------------------------------------- reference

def ref_map_word(rep, sigma):
    check_word(sigma)
    if len(sigma) > rep.depth:
        raise ValueError(f"word of length {len(sigma)} exceeds depth {rep.depth}")
    tape = OracleTape(finite(sigma), barrier=len(sigma), budget=rep.budget)
    bits = []
    for j in range(rep.out_cap):
        try:
            b = tape.try_emit(rep.f, j)
        except HorizonError:
            break
        if b is None:
            break
        bits.append(str(b))
    return "".join(bits)


def ref_source_agrees(y, word):
    return all(y.bit(i) == int(ch) for i, ch in enumerate(word))


def ref_preimage_levels(rep, y, depth):
    level = [""]
    for _ in range(depth + 1):
        keep = [s for s in level if ref_source_agrees(y, ref_map_word(rep, s))]
        yield keep
        level = [s + b for s in keep for b in "01"]


def ref_preimage_tree(rep, y, depth):
    if depth > rep.depth:
        raise ValueError(f"tree depth {depth} exceeds representation depth {rep.depth}")
    return [s for level in ref_preimage_levels(rep, y, depth) for s in level]


def ref_unique_path_invert(rep, y, n, depth_cap=None, survivor_cap=4096):
    if n < 0:
        raise ValueError(f"bit count must be a natural, got {n}")
    if depth_cap is None:
        depth_cap = rep.depth
    if depth_cap > rep.depth:
        raise ValueError(f"depth cap {depth_cap} exceeds representation depth {rep.depth}")
    for depth, survivors in enumerate(ref_preimage_levels(rep, y, depth_cap)):
        if not survivors:
            raise NotInRangeError(f"target not in range at depth {depth}")
        if depth >= n and len({s[:n] for s in survivors}) == 1:
            return survivors[0][:n]
        if len(survivors) > survivor_cap:
            raise NotSingletonError(
                f"{len(survivors)} surviving words at depth {depth}; "
                f"fiber not provably singleton at desk scale")
    raise NotSingletonError(
        f"no {n}-bit consensus by depth {depth_cap}; "
        f"fiber not provably singleton at desk scale")


# ------------------------------------------------------------------ fixtures

def invert_tree_fixtures():
    """(rep, y, bits) of criterion 08 and the invert-tree benchmark rows: the
    three injective fixtures at depth 40 and lossy bitselect:double."""
    x = random_source(7)
    out = {}
    for name, f, out_cap in [
        ("bitselect:identity", bit_select(identity_injection()), None),
        ("witness:shift", witness_function(shift_injection()), None),
        ("witness:double", witness_function(double_injection()), 80),
    ]:
        out[name] = (Representation(f, 40, out_cap), output_source(f, x), 32)
    lossy = bit_select(double_injection())
    out["bitselect:double lossy"] = (Representation(lossy, 16), output_source(lossy, x), 8)
    return out


def cut(rep, depth):
    """rep searched to `depth`, the reference's `depth` or `depth_cap`
    argument (None: to rep's own depth)."""
    return rep if depth is None else Representation(rep.f, depth, rep.out_cap, rep.budget)


def counting(f):
    """f with a count of its emitter runs."""
    runs = [0]

    def emit(tape, m):
        runs[0] += 1
        return f.emit(tape, m)

    return RealFunction(f.name, emit), runs


# --------------------------------------------------------------------- tests

def test_fixture_levels_match_word_for_word():
    for name, (rep, y, _) in invert_tree_fixtures().items():
        for depth in (0, 1, 7, rep.depth):
            assert preimage_tree(cut(rep, depth), y) == ref_preimage_tree(rep, y, depth), \
                (name, depth)


def test_fixture_inversions_match_across_caps():
    for name, (rep, y, bits) in invert_tree_fixtures().items():
        for n in (0, 3, bits, rep.depth + 1):
            for depth_cap in (0, 2, 9, None):
                for survivor_cap in (0, 3, 4096):
                    assert outcome(unique_path_invert, cut(rep, depth_cap), y, n,
                                   survivor_cap) == \
                        outcome(ref_unique_path_invert, rep, y, n, depth_cap, survivor_cap), \
                        (name, n, depth_cap, survivor_cap)


def test_fixture_errors_are_the_pinned_ones():
    fx = invert_tree_fixtures()
    rep, y, bits = fx["bitselect:double lossy"]
    for inverter in (unique_path_invert, ref_unique_path_invert):
        assert outcome(inverter, rep, y, bits) == (
            NotSingletonError,
            "no 8-bit consensus by depth 16; fiber not provably singleton at desk scale")
    for capped in (lambda: unique_path_invert(rep, y, bits, 100),
                   lambda: ref_unique_path_invert(rep, y, bits, None, 100)):
        assert outcome(capped) == (
            NotSingletonError,
            "128 surviving words at depth 14; fiber not provably singleton at desk scale")
    rep, y, bits = fx["witness:shift"]
    x = random_source(7)
    assert unique_path_invert(rep, y, bits) == prefix_of(x, bits)


def test_lossy_emitter_runs_grow_linearly_in_depth():
    runs_at = []
    for depth in (16, 20, 24, 28):
        f, runs = counting(bit_select(double_injection()))
        rep = Representation(f, depth)
        y = output_source(bit_select(double_injection()), random_source(7))
        assert outcome(unique_path_invert, rep, y, 8, 2**depth) == (
            NotSingletonError, f"no 8-bit consensus by depth {depth}; "
                               f"fiber not provably singleton at desk scale")
        runs_at.append(runs[0])
    steps = {b - a for a, b in zip(runs_at, runs_at[1:])}
    assert len(steps) == 1 and 0 < steps.pop() <= 4 * 4, runs_at
    assert runs_at[-1] < 4 * 28, runs_at


@st.composite
def inversion_cases(draw, f):
    depth = draw(st.integers(0, 8))
    rep = Representation(f, depth, draw(st.integers(1, 12)))
    x = draw(st.text("01", min_size=depth, max_size=depth))
    y = ref_map_word(rep, x)
    if y and draw(st.booleans()):
        i = draw(st.integers(0, len(y) - 1))
        y = y[:i] + str(1 - int(y[i])) + y[i + 1:]
    y += draw(st.text("01", max_size=4))
    n = draw(st.integers(0, depth + 1))
    depth_cap = draw(st.one_of(st.none(), st.integers(0, depth)))
    survivor_cap = draw(st.sampled_from([0, 1, 2, 5, 4096]))
    return rep, finite(y), n, depth_cap, survivor_cap


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_adaptive_emitters_match_reference(data):
    rep, y, n, depth_cap, survivor_cap = data.draw(
        inversion_cases(data.draw(adaptive_emitters())))
    assert preimage_tree(rep, y) == ref_preimage_tree(rep, y, rep.depth)
    assert outcome(unique_path_invert, cut(rep, depth_cap), y, n, survivor_cap) == \
        outcome(ref_unique_path_invert, rep, y, n, depth_cap, survivor_cap)


@st.composite
def small_toys(draw):
    stages = draw(st.lists(st.integers(0, 11), max_size=6, unique=True))
    elements = draw(st.lists(st.integers(0, 7), min_size=len(stages),
                             max_size=len(stages), unique=True))
    horizon = draw(st.integers(max(stages, default=0), 16))
    return StagedEnumeration.from_pairs(zip(stages, elements), horizon=horizon)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_two_to_one_map_matches_reference(data):
    # the marker is kept on the tape and carried into every branch
    rep, y, n, depth_cap, survivor_cap = data.draw(
        inversion_cases(two_to_one_v1(data.draw(small_toys()))))
    assert preimage_tree(rep, y) == ref_preimage_tree(rep, y, rep.depth)
    assert outcome(unique_path_invert, cut(rep, depth_cap), y, n, survivor_cap) == \
        outcome(ref_unique_path_invert, rep, y, n, depth_cap, survivor_cap)


def test_two_to_one_on_small_toys_at_depth_12():
    rng = random.Random(12)
    pairs = list(zip(rng.sample(range(14), 6), rng.sample(range(8), 6)))
    for toy in (StagedEnumeration.from_pairs(pairs, horizon=20), collatz_toy(8, 60)):
        f = two_to_one_v1(toy)
        rep = Representation(f, 12, 16)
        for seed in (5, 6):
            y = output_source(f, random_source(seed))
            assert preimage_tree(rep, y) == ref_preimage_tree(rep, y, 12)
            for n in (0, 1, 2, 6):
                assert outcome(unique_path_invert, rep, y, n) == \
                    outcome(ref_unique_path_invert, rep, y, n), (toy.label, seed, n)
