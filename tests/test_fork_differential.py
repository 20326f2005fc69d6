"""The fork-on-read engine against the explorers it replaced.

The references below are the library's earlier search code, kept here as
test-only copies:

* `ref_fiber_branch_count` lists every depth-bit word level by level through
  a Representation, then probes each survivor with `ref_probe_extension`,
  which keeps its own stack of fork alternatives and opens a fresh tape for
  every output bit it checks;
* `ref_dovetail_leaves` keeps its own stack and reruns the inverter at every
  fork node.

The library now runs every one of these searches on one fork tree.  Fiber
counts and dovetail leaves must agree exactly.

The two fiber probes check output bits in different orders.  After a fork
the reference checks the forking bit, then the guessed position, then every
bit it had still to check, older guesses included: the newest guess first.
The library checks the forking bit, then the guesses oldest first, then the
rest.  The order decides which passing continuation is found first, whose
reads give `branches`, so the counts must still agree.

The reference takes up to two seconds per depth-16 two-to-one fixture and
about six at depth 20, so the default run checks the library against
PINNED, the reference's counts recorded from the reference, and reruns the
reference itself only up to depth 8.  Depth 20 and the benchmark fixtures
on its second and third x seeds are left to
`PYTHONPATH=src python tests/test_fork_differential.py`, which runs
the reference and the library once on every fixture, the 1,200-position
scanner included, and checks them and PINNED against each other.  It also
prints the library's probe emitter runs on each fixture, and on the two2
hit fixture at depths 8 to 32 its runs per target bit.
"""

import functools
import random
import sys

from hypothesis import assume, given, settings, strategies as st

from oneway.bitcore import PartialAssignment, comparable, pair
from oneway.constructions import (
    Marker,
    bit_select,
    double_injection,
    identity_injection,
    marker_run_v1,
    marker_run_v2,
    one_way_surjection,
    partial_injection,
    shift_injection,
    simple_one_way,
    two_to_one_v1,
    two_to_one_v2,
    witness_function,
)
from oneway.enumeration import DecidedSet, StagedEnumeration, StagedStringEnumeration, \
    collatz_toy
from oneway.errors import DeskError, DivergenceError, HorizonError, MeasureThresholdError, \
    _BudgetExhausted, _ReadBeyondBarrier
from oneway.inversion import DovetailLeaf, FiberCount, Representation, _class_levels, \
    _dovetail_leaves, _Fork, _fork_source, fiber_branch_count, reference_inverter_surjection
from oneway.streams import (
    DEFAULT_BUDGET,
    BitSource,
    OracleTape,
    RealFunction,
    barrier_image,
    evaluate,
    finite,
    identity_function,
    interleaved,
    ones,
    random_source,
    zeros,
)

from test_acceptance import calibrated_len, seeded_enumeration, \
    seeded_string_enumeration
from test_marker_differential import outcome
from test_properties import marker_maps, reference_inverters, toys


# ----------------------------------------------------------------- reference

# the reference's name for the one constructor, whose `out_cap` it passes
representation_of = Representation

class _RefFork(Exception):
    def __init__(self, position):
        self.position = position
        super().__init__(str(position))


def ref_fiber_branch_count(f, y_prefix, depth, probe_len=None, budget=1000000):
    if probe_len is None:
        probe_len = max(2 * pair(depth + 2, depth + 2) + 4,
                        2 * len(y_prefix) + 2)
    probe_len = max(probe_len, depth)
    rep = representation_of(f, depth, out_cap=max(len(y_prefix), 1))

    def compatible(word):
        return comparable(rep.map_word(word), y_prefix)

    level = [""]
    for _ in range(depth):
        level = [s + b for s in level if compatible(s) for b in "01"]
    survivors = [s for s in level if compatible(s)]
    if not survivors:
        return FiberCount(0, 0)

    reads_budget = [budget]
    witness_reads = None
    classes = set()
    extendable = 0
    for word in survivors:
        reads = ref_probe_extension(f, word, y_prefix, probe_len, reads_budget)
        if reads is None:
            continue
        extendable += 1
        if witness_reads is None:
            witness_reads = reads
        inside = [p for p in witness_reads if p < depth]
        classes.add(tuple(word[p] for p in sorted(inside)))
    if extendable == 0:
        return FiberCount(0, len(survivors))
    free = depth - len([p for p in witness_reads if p < depth])
    return FiberCount(len(classes) * 2 ** free, len(survivors))


def ref_probe_extension(f, word, y_prefix, probe_len, budget):
    n_out = len(y_prefix)

    def probe_source(assign):
        def bit_at(i):
            if i >= probe_len:
                raise _ReadBeyondBarrier(i)
            if i < len(word):
                return int(word[i])
            if i in assign:
                return int(assign[i])
            raise _RefFork(i)
        return BitSource("fiber-probe", bit_at)

    alternatives = []
    pending = tuple(range(n_out))
    assign = {}
    reads = frozenset()
    idx = 0
    while True:
        if idx == len(pending):
            return tuple(sorted(reads))
        j = pending[idx]
        if budget[0] <= 0:
            raise DeskError("fiber probe budget exhausted")
        budget[0] -= 1
        tape = OracleTape(probe_source(assign))
        failed = False
        try:
            b = f.emit(tape, j)
        except _RefFork as fork:
            rest = pending[idx:idx + 1]
            if fork.position < n_out:
                rest = rest + (fork.position,)
            rest = rest + pending[idx + 1:]
            alternatives.append((rest, {**assign, fork.position: "1"}, reads))
            pending, assign, idx = rest, {**assign, fork.position: "0"}, 0
            continue
        except (_ReadBeyondBarrier, _BudgetExhausted, DivergenceError):
            idx += 1
            continue
        else:
            if b != int(y_prefix[j]):
                failed = True
            else:
                reads = reads | frozenset(tape.positions_read())
                idx += 1
        if failed:
            if not alternatives:
                return None
            pending, assign, reads = alternatives.pop()
            idx = 0


def ref_dovetail_leaves(g, sigma, bit_index, node_budget, run_budget):
    leaves = []
    stack = [{}]
    nodes = 0
    while stack:
        assign = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise MeasureThresholdError(
                f"dovetail fork tree exceeded {node_budget} nodes; "
                f"inverter reads do not settle over ⟦{sigma or 'ε'}⟧")

        def bit_at(i, assign=assign):
            if i < len(sigma):
                return int(sigma[i])
            if i in assign:
                return int(assign[i])
            raise _RefFork(i)

        tape = OracleTape(BitSource("dovetail-candidate", bit_at), budget=run_budget)
        try:
            g.emit(tape, bit_index)
        except _RefFork as fork:
            stack.extend({**assign, fork.position: b} for b in "10")
            continue
        except (DivergenceError, _BudgetExhausted):
            continue
        length = max(tape.use, len(sigma))
        pattern = PartialAssignment(tuple(assign.items()))
        leaves.append(DovetailLeaf(
            assignment=pattern,
            use=tape.use,
            length=length,
            words=2 ** (length - len(sigma) - len(pattern.constraints))))
    return leaves


# ------------------------------------------------------------ fiber fixtures

W_EMPTY = StagedEnumeration.from_pairs([], horizon=10**6)
U_HIT = StagedStringEnumeration.from_pairs([(0, "1")], horizon=10**6)
U_EMPTY = StagedStringEnumeration.from_pairs([], horizon=10**6)
PERF_SEEDS = (101, 202, 303)


def _two1_target(w, x, z, depth, bare=False):
    ylen, _ = calibrated_len(marker_run_v1(w, z, 512), depth)
    return evaluate(two_to_one_v1(w), interleaved(x, z), depth if bare else ylen).output


def _two2_target(w, u, x, z, depth, word_len):
    ylen, _ = calibrated_len(marker_run_v2(w, u, z, 512), depth, word_lens=(word_len,))
    return evaluate(two_to_one_v2(w, u), interleaved(x, z), ylen).output


@functools.cache
def fiber_fixtures():
    """id -> (f, y_prefix, depth): the fiber counts of the test suite, of
    criterion 07, of the benchmark's inverse-search workload, and more."""
    fx = {}
    # unit tests of fiber_branch_count, the CLI and the marker differential
    fx["identity 1011 d4"] = (bit_select(identity_injection()), "1011", 4)
    fx["identity-fn 1011 d4"] = (identity_function(), "1011", 4)
    fx["double 11 d4"] = (bit_select(double_injection()), "11", 4)
    fx["far 0 d2"] = (RealFunction("far", lambda tape, m: tape.read(4) * 0 + 1), "0", 2)
    for name, z, ylen in (("stuck", zeros(), 30), ("climb", ones(), 68)):
        y = evaluate(two_to_one_v1(W_EMPTY), interleaved(random_source(11), z), ylen).output
        fx[f"two1 {name} y{ylen} d8"] = (two_to_one_v1(W_EMPTY), y, 8)
    y = evaluate(two_to_one_v2(W_EMPTY, U_EMPTY),
                 interleaved(random_source(11), zeros()), 94).output
    fx["two2 stuck y94 d16"] = (two_to_one_v2(W_EMPTY, U_EMPTY), y, 16)
    w = StagedEnumeration.from_pairs([(1, 0), (4, 3), (6, 1)], horizon=10**4)
    y = evaluate(two_to_one_v1(w), interleaved(random_source(1), random_source(2)),
                 64).output
    fx["two1 marker-differential d8"] = (two_to_one_v1(w), y, 8)

    # criterion 07
    for name, z in (("stuck", zeros()), ("climb", ones())):
        for depth in (8, 16):
            y = _two1_target(W_EMPTY, random_source(11), z, depth)
            fx[f"c07 two1 {name} d{depth}"] = (two_to_one_v1(W_EMPTY), y, depth)
    for name, u, z in (("hit", U_HIT, ones()), ("empty", U_EMPTY, zeros())):
        y = _two2_target(W_EMPTY, u, random_source(11), z, 16, 1)
        fx[f"c07 two2 {name} d16"] = (two_to_one_v2(W_EMPTY, u), y, 16)
    for trial in range(4):
        rng = random.Random(900 + trial)
        wp, seen_e, seen_s = [], set(), set()
        for _ in range(4):
            e, s = rng.randrange(20), rng.randrange(40)
            if e not in seen_e and s not in seen_s:
                wp.append((e, s))
                seen_e.add(e)
                seen_s.add(s)
        w = StagedEnumeration.from_pairs([(s, e) for e, s in wp], horizon=10**6)
        for depth in (8, 12, 16):
            y = _two1_target(w, random_source(600 + trial), random_source(500 + trial),
                             depth)
            fx[f"c07 random {trial} d{depth}"] = (two_to_one_v1(w), y, depth)
    for trial in range(2):
        rng = random.Random(950 + trial)
        w = seeded_enumeration(rng, elements=20, stages=40, draws=4, horizon=10**6)
        u = seeded_string_enumeration(rng, stages=40, draws=4, horizon=10**6)
        y = _two2_target(w, u, random_source(800 + trial), random_source(700 + trial),
                         8, 5)
        fx[f"c07 two2 seeded {trial} d8"] = (two_to_one_v2(w, u), y, 8)

    # the inverse-search workload's fiber operations, on three x seeds
    for seed in PERF_SEEDS:
        x = random_source(seed)
        for name, z in (("stuck", zeros()), ("climb", ones())):
            for depth in (8, 12, 16, 20):
                fx[f"perf two1 {name} d{depth} x{seed}"] = \
                    (two_to_one_v1(W_EMPTY), _two1_target(W_EMPTY, x, z, depth), depth)
        for name, u, z in (("hit", U_HIT, ones()), ("nohit", U_EMPTY, zeros())):
            fx[f"perf two2 {name} d16 x{seed}"] = \
                (two_to_one_v2(W_EMPTY, u), _two2_target(W_EMPTY, u, x, z, 16, 1), 16)
        for depth in (16, 18, 20):
            f = bit_select(double_injection())
            fx[f"perf double d{depth} x{seed}"] = (f, evaluate(f, x, depth).output, depth)

    # bare depth-bit two1 targets leave later selections free to wander
    for name, z in (("stuck", zeros()), ("climb", ones())):
        for depth in (8, 12, 16):
            y = _two1_target(W_EMPTY, random_source(11), z, depth, bare=True)
            fx[f"bare two1 {name} d{depth}"] = (two_to_one_v1(W_EMPTY), y, depth)

    toy = collatz_toy(16, 10**3)
    for name, f in (("simple", simple_one_way(toy)), ("surj", one_way_surjection(toy)),
                    ("witness-shift", witness_function(shift_injection()))):
        for depth in (6, 10):
            y = evaluate(f, random_source(depth), 3 * depth).output
            fx[f"{name} d{depth}"] = (f, y, depth)
    return fx


# FiberCount (branches, surviving) of the reference on every fixture above
PINNED = {
    "identity 1011 d4": (1, 1),
    "identity-fn 1011 d4": (1, 1),
    "double 11 d4": (4, 4),
    "far 0 d2": (0, 4),
    "two1 stuck y30 d8": (2, 16),
    "two1 climb y68 d8": (1, 64),
    "two2 stuck y94 d16": (2, 4),
    "two1 marker-differential d8": (1, 64),
    "c07 two1 stuck d8": (2, 16),
    "c07 two1 stuck d16": (2, 3072),
    "c07 two1 climb d8": (1, 64),
    "c07 two1 climb d16": (1, 4096),
    "c07 two2 hit d16": (1, 128),
    "c07 two2 empty d16": (2, 4),
    "c07 random 0 d8": (1, 64),
    "c07 random 0 d12": (1, 256),
    "c07 random 0 d16": (1, 4096),
    "c07 random 1 d8": (1, 64),
    "c07 random 1 d12": (1, 256),
    "c07 random 1 d16": (1, 4096),
    "c07 random 2 d8": (1, 64),
    "c07 random 2 d12": (1, 256),
    "c07 random 2 d16": (1, 4096),
    "c07 random 3 d8": (1, 16),
    "c07 random 3 d12": (1, 192),
    "c07 random 3 d16": (1, 3072),
    "c07 two2 seeded 0 d8": (2, 4),
    "c07 two2 seeded 1 d8": (2, 4),
    "perf two1 stuck d8 x101": (2, 16),
    "perf two1 stuck d12 x101": (2, 192),
    "perf two1 stuck d16 x101": (2, 3072),
    "perf two1 stuck d20 x101": (2, 43008),
    "perf two1 climb d8 x101": (1, 64),
    "perf two1 climb d12 x101": (1, 256),
    "perf two1 climb d16 x101": (1, 4096),
    "perf two1 climb d20 x101": (1, 40960),
    "perf two2 hit d16 x101": (1, 128),
    "perf two2 nohit d16 x101": (2, 4),
    "perf double d16 x101": (256, 256),
    "perf double d18 x101": (512, 512),
    "perf double d20 x101": (1024, 1024),
    "perf two1 stuck d8 x202": (2, 16),
    "perf two1 stuck d12 x202": (2, 192),
    "perf two1 stuck d16 x202": (2, 3072),
    "perf two1 stuck d20 x202": (2, 43008),
    "perf two1 climb d8 x202": (1, 64),
    "perf two1 climb d12 x202": (1, 256),
    "perf two1 climb d16 x202": (1, 4096),
    "perf two1 climb d20 x202": (1, 40960),
    "perf two2 hit d16 x202": (1, 128),
    "perf two2 nohit d16 x202": (2, 4),
    "perf double d16 x202": (256, 256),
    "perf double d18 x202": (512, 512),
    "perf double d20 x202": (1024, 1024),
    "perf two1 stuck d8 x303": (2, 16),
    "perf two1 stuck d12 x303": (2, 192),
    "perf two1 stuck d16 x303": (2, 3072),
    "perf two1 stuck d20 x303": (2, 43008),
    "perf two1 climb d8 x303": (1, 64),
    "perf two1 climb d12 x303": (1, 256),
    "perf two1 climb d16 x303": (1, 4096),
    "perf two1 climb d20 x303": (1, 40960),
    "perf two2 hit d16 x303": (1, 128),
    "perf two2 nohit d16 x303": (2, 4),
    "perf double d16 x303": (256, 256),
    "perf double d18 x303": (512, 512),
    "perf double d20 x303": (1024, 1024),
    "bare two1 stuck d8": (4, 16),
    "bare two1 stuck d12": (6, 192),
    "bare two1 stuck d16": (18, 3072),
    "bare two1 climb d8": (6, 64),
    "bare two1 climb d12": (8, 256),
    "bare two1 climb d16": (20, 4096),
    "simple d6": (16, 16),
    "simple d10": (128, 128),
    "surj d6": (4, 8),
    "surj d10": (8, 32),
    "witness-shift d6": (1, 1),
    "witness-shift d10": (1, 1),
}


def test_pinned_covers_every_fixture():
    assert sorted(PINNED) == sorted(fiber_fixtures())


def run_once(name):
    """Fixtures left to the full check: depth 20, and repeats on other x."""
    return "d20" in name or name.endswith(("x202", "x303"))


def test_library_matches_pinned_reference_counts():
    for name, (f, y, depth) in fiber_fixtures().items():
        if not run_once(name):
            assert fiber_branch_count(f, y, depth) == FiberCount(*PINNED[name]), name


def test_library_matches_live_reference_to_depth_8():
    for name, (f, y, depth) in fiber_fixtures().items():
        if depth <= 8:
            want = ref_fiber_branch_count(f, y, depth)
            assert want == FiberCount(*PINNED[name]), name
            assert fiber_branch_count(f, y, depth) == want, name


def test_explicit_probe_len_and_shallow_depths_match():
    f, y, depth = fiber_fixtures()["c07 two1 stuck d8"]
    for probe_len in (0, 8, 12, 20, 40):
        assert outcome(fiber_branch_count, f, y, depth, probe_len) == \
            outcome(ref_fiber_branch_count, f, y, depth, probe_len), probe_len
    for depth in (0, 1, 3):
        assert fiber_branch_count(f, y, depth) == ref_fiber_branch_count(f, y, depth)
    assert fiber_branch_count(f, "", 4) == ref_fiber_branch_count(f, "", 4)


# the c07 two2 hit fixture at more depths: (branches, surviving) of the reference
TWO2_HIT = {8: (1, 4), 16: (1, 128), 24: (1, 4096)}
RUNS_PER_TARGET_BIT = 10


def two2_hit(depth):
    f = two_to_one_v2(W_EMPTY, U_HIT)
    return f, _two2_target(W_EMPTY, U_HIT, random_source(11), ones(), depth, 1)


def test_two2_hit_probe_runs_stay_linear_in_the_target():
    # checking guesses oldest first takes about 6 probe runs per target bit
    # at every depth; checking the newest first took 14 at depth 8, 22 at
    # 16 and 28 at 24
    for depth, want in TWO2_HIT.items():
        f, y = two2_hit(depth)
        assert fiber_branch_count(f, y, depth, budget=RUNS_PER_TARGET_BIT * len(y)) == \
            FiberCount(*want), depth


def test_bit_failing_after_a_fork_leaves_no_witness_reads():
    # class {0:'0'}: the guess 1 -> '0' sends bit 0 to position 5, past the
    # barrier at 3, after the fork on 1; the reads of 0 must not outlive it
    def emit(tape, m):
        a, c = tape.read(0), tape.read(1)
        if a == 0 and c == 0:
            tape.read(5)
        return a

    f = RealFunction("late-barrier", emit)
    assert fiber_branch_count(f, "0", 1, 3) == ref_fiber_branch_count(f, "0", 1, 3) \
        == FiberCount(2, 2)


def test_fiber_count_branches_a_tape_at_most_once_per_surviving_class(monkeypatch):
    # the searches roll one tape back at every fork; only a class that
    # survives a forked level tree takes a copy, so thousands of forks here
    # make no more copies than there are classes
    f, y, depth = fiber_fixtures()["c07 two2 hit d16"]
    branch, copies = OracleTape.branch, []
    monkeypatch.setattr(OracleTape, "branch",
                        lambda tape, source: copies.append(tape) or branch(tape, source))
    assert fiber_branch_count(f, y, depth) == FiberCount(*PINNED["c07 two2 hit d16"])
    made = len(copies)
    levels = _class_levels(Representation(f, depth, len(y)), finite(y))
    assert 0 < made <= sum(len(level) for level in levels)


# -------------------------------------------------------- property: fibers

@st.composite
def adaptive_emitters(draw):
    """A deterministic emitter whose next read depends on the bits read so
    far, reading up to `span` positions, sometimes diverging."""
    span = draw(st.integers(1, 20))
    table = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 19), st.integers(1, 7),
                  st.integers(0, 1), st.integers(0, 15)),
        min_size=16, max_size=16))

    def emit(tape, m):
        reads, start, step, flip, spin = table[m % 16]
        pos, acc = start % span, flip
        for r in range(reads):
            b = tape.read(pos)
            acc ^= b
            pos = (pos + step + b * (r + 1)) % span
        if reads and acc == 1 and spin == 0:
            raise DivergenceError(m, "spun out")
        return acc

    return RealFunction(f"adaptive{span}", emit)


@st.composite
def fiber_cases(draw):
    """An adaptive emitter, or two1/two2 over a drawn toy at depth ≤ 6, with
    a target it emits on a drawn word, sometimes with one bit flipped."""
    stateful = draw(st.booleans())
    f = draw(marker_maps() if stateful else adaptive_emitters())
    depth = draw(st.integers(0, 6 if stateful else 8))
    x = draw(st.text("01", min_size=24, max_size=24))
    tape = OracleTape(finite(x))
    bits = []
    for m in range(draw(st.integers(4, 24) if stateful else st.integers(0, 16))):
        try:
            bits.append(str(f.emit(tape, m)))
        except DivergenceError:
            break
    y = "".join(bits)
    if y and draw(st.booleans()):
        i = draw(st.integers(0, len(y) - 1))
        y = y[:i] + str(1 - int(y[i])) + y[i + 1:]
    probe_len = draw(st.one_of(st.none(), st.integers(0, 24)))
    return f, y, depth, probe_len


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fiber_cases())
def test_fiber_counts_match_brute_force_and_reference(case):
    f, y, depth, probe_len = case
    got = fiber_branch_count(f, y, depth, probe_len)
    rep = Representation(f, depth, max(len(y), 1))
    words = (format(i, f"0{depth}b") if depth else "" for i in range(2 ** depth))
    assert got.surviving == sum(comparable(rep.map_word(w), y) for w in words)
    assert got == ref_fiber_branch_count(f, y, depth, probe_len)


# ------------------------------------------- property: rollback is a branch

def guarded_maps():
    """The partial injection over drawn toys: its guard count is an int on the tape."""
    return st.builds(lambda w, extra: partial_injection(
        w, DecidedSet(w.limit_members() | extra, horizon=64)),
        toys(), st.frozensets(st.integers(0, 63), max_size=8) | st.just(frozenset(range(64))))


def _image_answering_forks(f, tape, n, assign, x, forks=None):
    """barrier_image of f to n bits, answering forks from x: all of them, or
    all but the one after the first `forks`, which is left open.  Returns
    (the open fork or None, forks answered)."""
    answered = 0
    while True:
        try:
            barrier_image(f, tape, n)
            return None, answered
        except _Fork as fork:
            if answered == forks:
                return fork, answered
            assign[fork.position] = x.bit(fork.position)
            answered += 1


def _tape_state(tape):
    return (list(tape._reads), tape.use, tape._open, tape._budget_left,
            [(key, (value.rows, value.k, value.d, value.kept) if isinstance(value, Marker)
              else value) for key, value in tape.state.items()])


def _resumed(f, tape, m):
    try:
        bit = tape.try_emit(f, m)
    except _Fork as fork:
        bit = ("fork", fork.position)
    except HorizonError:
        bit = "horizon"
    return bit, list(tape._reads), tape.use


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_rollback_to_a_fork_restores_the_branch_taken_there(data):
    """Run an emitter on a fork source until a bit forks; take a branch and a
    checkpoint there.  After any later work on the tape, the rollback must
    leave it equal to the branch, and both must resume alike."""
    f = data.draw(st.one_of(adaptive_emitters(), marker_maps(), reference_inverters(),
                            guarded_maps(), st.integers(1, 40).map(_scanner)))
    x = data.draw(st.one_of(st.integers(0, 10**6).map(random_source), st.just(zeros()),
                            st.text("01", max_size=12).map(finite)))
    # the source answers below `known` but at the holes; forks answer the rest from x
    known = data.draw(st.integers(0, 12) | st.integers(0, 700))
    holes = data.draw(st.sets(st.integers(0, known)))
    barrier, n = data.draw(st.none() | st.integers(1, 400)), data.draw(st.integers(1, 24))

    def fork_source_tape():
        assign = {p: x.bit(p) for p in range(known) if p not in holes}
        return assign, OracleTape(_fork_source("probe", (), assign), barrier=barrier)

    assign, tape = fork_source_tape()
    _, forks = _image_answering_forks(f, tape, n, assign, x)
    assume(forks > 0)
    assign, tape = fork_source_tape()
    fork, _ = _image_answering_forks(f, tape, n, assign, x,
                                     data.draw(st.sampled_from(range(forks))))
    m, at_fork = tape._open[0], dict(assign)
    checkpoint = tape.checkpoint()
    twin_assign = dict(assign)
    twin = tape.branch(_fork_source("probe", (), twin_assign))

    def fails(t, j):
        for p in list(reversed(assign))[:j]:
            t.read(p)
        raise DivergenceError(j, "forgets its reads")

    for work in data.draw(st.lists(st.sampled_from(["bits", "fail", "undo", "key"]),
                                   max_size=6)):
        if work == "bits":
            more = len(tape.state[f]) + data.draw(st.integers(1, 16))
            _image_answering_forks(f, tape, more, assign, x, data.draw(st.integers(0, 12)))
        elif work == "fail":
            # failing, an open bit drops the reads it made before its fork
            j = tape._open[0] if tape._open and data.draw(st.booleans()) \
                else data.draw(st.integers(0, 30))
            assert tape.try_emit(RealFunction("fails", fails), j) is None
        elif work == "undo":
            for value in tape.state.values():
                if isinstance(value, Marker):
                    value.undo()
        else:
            tape.state[object()] = data.draw(st.sampled_from([int, list, Marker]))()
    tape.rollback(checkpoint)
    while len(assign) > len(at_fork):
        assign.popitem()
    assert assign == at_fork
    assert _tape_state(tape) == _tape_state(twin)
    assign[fork.position] = twin_assign[fork.position] = data.draw(st.integers(0, 1))
    assert _resumed(f, tape, m) == _resumed(f, twin, m)


# ---------------------------------------------------------- dovetail leaves

def _enum(pairs, horizon):
    return StagedEnumeration.from_pairs(pairs, horizon=horizon)


def _scanner(width):
    def emit(tape, m):
        for i in range(width):
            if tape.read(i):
                return 1
        return 0
    return RealFunction(f"scan{width}", emit)


def _half(tape, m):
    if tape.read(0) == 1:
        raise DivergenceError(m, "spun out")
    return 0


def _deep(tape, m):
    i = 0
    while True:
        tape.read(i)
        i += 1


@functools.cache
def dovetail_fixtures():
    """id -> (g, sigma, bit_index, node_budget, run_budget): the randomized
    extractions of the test suite, criterion 04, the demo and the
    reduction-sweep workload."""
    fx = {}
    g = reference_inverter_surjection(_enum([(1, 2)], 20)).g
    for sigma, n in (("", 2), ("", 3), ("1", 2)):
        fx[f"surj w12 sigma={sigma} n={n}"] = (g, sigma, 2 * n, 100000, DEFAULT_BUDGET)
    fx["surj w00 n=0"] = (reference_inverter_surjection(_enum([(0, 0)], 20)).g,
                          "", 0, 100000, DEFAULT_BUDGET)
    fx["half n=1"] = (RealFunction("half", _half), "", 2, 100000, DEFAULT_BUDGET)
    fx["deep budget 50"] = (RealFunction("deep", _deep), "", 2, 50, 10**4)
    g = reference_inverter_surjection(collatz_toy(32, 10**5)).g
    for n in range(32):
        fx[f"collatz32 n={n}"] = (g, "", 2 * n, 100000, DEFAULT_BUDGET)
    for trial in range(6):
        rng = random.Random(3100 + trial)
        w = seeded_enumeration(rng, elements=32, stages=100, draws=8, horizon=10**5)
        sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        n = rng.randrange(32)
        fx[f"sweep {trial}"] = (reference_inverter_surjection(w).g, sigma, 2 * n,
                                100000, DEFAULT_BUDGET)
    fx["scanner 300"] = (_scanner(300), "", 0, 100000, DEFAULT_BUDGET)
    return fx


def test_dovetail_leaves_match():
    for name, args in dovetail_fixtures().items():
        assert outcome(_dovetail_leaves, *args) == outcome(ref_dovetail_leaves, *args), name


# ----------------------------------------------------------- the full check

def probe_runs(f, y, depth):
    """fiber_branch_count(f, y, depth) and its probe emitter runs."""
    runs = 0

    def emit(tape, m):
        nonlocal runs
        runs += tape.source.spec == "fiber-probe"
        return f.emit(tape, m)

    return fiber_branch_count(RealFunction(f.name, emit), y, depth), runs


def main() -> int:
    """Rerun the reference on every fixture and print its counts and the
    library's probe emitter runs, then the runs on the two2 hit fixture as
    its target grows."""
    bad = 0
    for name, (f, y, depth) in fiber_fixtures().items():
        want = ref_fiber_branch_count(f, y, depth)
        got, runs = probe_runs(f, y, depth)
        ok = got == want and PINNED.get(name) == (want.branches, want.surviving)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name!r}: ({want.branches}, {want.surviving}),"
              f"  # {runs} probe runs")
    print("two2 hit: depth, target bits, probe runs, runs per target bit")
    for depth in (8, 16, 24, 32):
        f, y = two2_hit(depth)
        _, runs = probe_runs(f, y, depth)
        print(f"  {depth:>2} {len(y):>6} {runs:>7} {runs / len(y):>6.2f}")
    args = (_scanner(1200), "", 0, 100000, DEFAULT_BUDGET)
    ok = _dovetail_leaves(*args) == ref_dovetail_leaves(*args)
    bad += not ok
    print(f"{'ok ' if ok else 'BAD'} scanner 1200 leaves")
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
