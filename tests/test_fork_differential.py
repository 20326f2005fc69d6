"""The fork-on-read engine against the explorers it replaced.

The references below are the library's earlier search code, kept here as
test-only copies:

* `ref_fiber_branch_count` lists every depth-bit word level by level through
  a Representation, then probes each survivor with `ref_probe_extension`,
  which keeps its own stack of fork alternatives and opens a fresh tape for
  every output bit it checks;
* `ref_dovetail_leaves` keeps its own stack and reruns the inverter at every
  fork node;
* `ref_fork_tree` and `ref_fork_source` are the library's engine before a
  split went on in place: an open read raises `RefFork` and unwinds the
  run, and both children roll the tape back and redo the read's bit.
  `ref_class_levels`, `ref_engine_fiber_branch_count` and
  `ref_engine_dovetail_leaves` are the library's three searches on it;
* `restart_fiber_branch_count` is the library's fiber count before a class
  split below the depth carried its probe search on: each half grows a
  fresh probe tree from output bit 0, replaying every run the split search
  made before it read the split position.  It runs on the exception-based
  engine.

The library now runs every one of these searches on one fork tree, in
which a probe's read below the depth splits its class like any other read.
Fiber counts and dovetail leaves must agree exactly.  Against the
exception-based engine, every fork tree of the class levels and of the
dovetail leaves must have the same nodes, splits and leaves in the same
order.  A fiber count must give the same count, the same class-level trees,
the same extendable (class below the depth, witness reads) pairs in order
and the same number of class splits as the exception-based engine and the
restart, and the same probe splits as the former.  The library may make no
more emitter runs than the exception-based engine and no more probe runs
than the restart.  `FIBER_WORK` and `DOVETAIL_WORK` pin the library's work
on every fixture from before a class split went on in place; no fixture may
take more.

The two fiber probes check output bits in different orders.  After a fork
the reference checks the forking bit, then the guessed position, then every
bit it had still to check, older guesses included: the newest guess first.
The library checks the forking bit, then the guesses oldest first, then the
rest but the guesses.  The order decides which passing continuation is
found first, whose reads give `branches`, so the counts must still agree.

The reference takes up to two seconds per depth-16 two-to-one fixture and
about six at depth 20, so the default run checks the library against
PINNED, the reference's counts recorded from the reference, and reruns the
reference itself only up to depth 8.  Depth 20 and the benchmark fixtures
on its second and third x seeds are left to
`PYTHONPATH=src python tests/test_fork_differential.py`, which runs
the reference and the library once on every fixture, the 1,200-position
scanner included, and checks them and PINNED against each other.  The
restart and the exception-based engine cost about what the library does,
so the default run compares them with the library on every fixture; the
full check does so too, and checks the pinned work on every fixture (the
default run leaves out the depth-20 and second and third seed rows).  It
also prints, on each fixture, the class splits, the probe splits and the
emitter runs of the library and of the exception-based engine and the
probe runs of the library, the restart and the pinned table, and on the
two2 hit fixture at depths 8 to 32 and the two1 stuck and climb fixtures
at depths 8 to 20 the library's probe runs per target bit.
"""

import collections
import functools
import itertools
import random
import sys
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from oneway.bitcore import PartialAssignment, check_word, comparable, pair
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
import oneway.inversion as inversion
from oneway.enumeration import DecidedSet, StagedEnumeration, StagedStringEnumeration, \
    collatz_toy
from oneway.errors import DeskError, DivergenceError, HorizonError, MeasureThresholdError, \
    _BudgetExhausted, _ReadBeyondBarrier
from oneway.inversion import DovetailLeaf, FiberCount, Representation, _class_levels, \
    _dovetail_leaves, _pattern, fiber_branch_count, reference_inverter_surjection, \
    unique_path_invert
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


# ------------------------------------------------ the exception-based engine

class RefFork(Exception):
    def __init__(self, position):
        self.position = position
        self.resume = None  # a checkpoint the run hands to both children
        super().__init__(str(position))


def ref_fork_tree(run, node_budget=float("inf"), exhausted=None, owned_from=0, roots=None):
    """The library's fork tree before a split went on in place: an open read
    raises RefFork and unwinds the run, and both children rerun the read
    from the resume the run attached to the fork."""
    nodes = 0
    for root, resume in [({}, None)] if roots is None else roots:
        base, assign = len(root), dict(root)
        stack = [*resume] if resume.__class__ is list else [(0, {}, resume)]
        while stack:
            size, guess, resume = stack.pop()
            while len(assign) > base + size:
                assign.popitem()
            assign.update(guess)
            nodes += 1
            if nodes > node_budget:
                raise exhausted
            try:
                result = run(assign, resume)
            except RefFork as fork:
                size, p, resume = len(assign) - base, fork.position, fork.resume
                if p < owned_from:
                    fork.resume = [*stack, (0, dict([*assign.items()][base:]), resume)]
                    raise
                stack += (size, {p: 1}, resume), (size, {p: 0}, resume)
                continue
            if result is not None:
                yield dict(assign), result


def ref_fork_source(spec, prefix, assign):
    def bit_at(i):
        if i < len(prefix):
            return prefix[i]
        b = assign.get(i)
        if b is None:
            raise RefFork(i)
        return b

    return BitSource(spec, bit_at)


def ref_class_levels(rep, y):
    def grow(assign, resume):
        tape, checkpoint = resume
        if checkpoint is None:
            tape.source, tape.barrier = ref_fork_source("preimage-class", (), assign), barrier
        else:
            tape.rollback(checkpoint)
        try:
            image = barrier_image(rep.f, tape, rep.out_cap, y)
        except RefFork as fork:
            fork.resume = (tape, tape.checkpoint())
            raise
        return None if image is None else tape if checkpoint is None else tape.branch(tape.source)

    level = [({}, OracleTape(zeros(), budget=rep.budget))]
    for barrier in range(rep.depth + 1):
        level = list(ref_fork_tree(grow, roots=((assign, (tape, None)) for assign, tape in level)))
        yield level


def ref_engine_fiber_branch_count(f, y_prefix, depth, probe_len=None, budget=1000000):
    """The library's fiber count on the exception-based engine: both halves
    of a probe split roll the tape back and redo the forking bit."""
    check_word(y_prefix)
    rep = Representation(f, depth, len(y_prefix))
    if probe_len is None:
        probe_len = max(2 * pair(depth + 2, depth + 2) + 4, 2 * len(y_prefix) + 2)
    probe_len = max(probe_len, depth)
    n_out, target = len(y_prefix), tuple(map(int, y_prefix))
    exhausted = DeskError("fiber probe budget exhausted")
    runs = iter(range(budget))
    tape = bound = None

    def continuation(assign, resume):
        nonlocal bound
        if assign is not bound:
            tape.source, bound = ref_fork_source("fiber-probe", (), assign), assign
        checkpoint, queue, tail = resume or (None, (), 0)
        if checkpoint:
            tape.rollback(checkpoint)
        while queue or tail < n_out:
            if queue:
                j, queue = queue[0], queue[1:]
            else:
                j, tail = tail, tail + 1
                if j >= depth and j in assign:
                    continue
            if next(runs, None) is None:
                raise exhausted
            try:
                b = tape.try_emit(f, j)
            except RefFork as fork:
                p = fork.position
                queue = (j, *queue, p) if depth <= p < n_out else (j, *queue)
                fork.resume = tape.checkpoint(), queue, tail
                raise
            if b is not None and b != target[j]:
                return None
        return tape.positions_read()

    def witness_reads(word_class, resume):
        nonlocal tape
        pending, tapes = resume or (None, [OracleTape(zeros(), barrier=probe_len)])
        tape = tapes.pop()
        deep = ref_fork_tree(continuation, budget, exhausted, depth, roots=[(word_class, pending)])
        try:
            return next((reads for _, reads in deep), None)
        except RefFork as fork:
            fork.resume = fork.resume, [tape.branch(tape.source), tape]
            raise

    *_, level = ref_class_levels(rep, finite(y_prefix))
    surviving = sum(2 ** (depth - len(assign)) for assign, _ in level)
    extendable = [(tuple(word_class.get(p, 0) for p in range(depth)), word_class, reads)
                  for word_class, reads in ref_fork_tree(witness_reads, roots=(
                      (assign, None) for assign, _ in level))]
    return _patterns(extendable, depth, surviving)


def _patterns(extendable, depth, surviving):
    """The FiberCount of the extendable (least word, class, witness reads) triples."""
    if not extendable:
        return FiberCount(0, surviving)
    inside = [p for p in min(extendable, key=lambda e: e[0])[2] if p < depth]
    patterns = {pattern for _, word_class, _ in extendable
                for pattern in itertools.product(*((word_class[p],) if p in word_class else (0, 1)
                                                   for p in inside))}
    return FiberCount(len(patterns) * 2 ** (depth - len(inside)), surviving)


def ref_engine_dovetail_leaves(g, sigma, bit_index, node_budget, run_budget):
    prefix = tuple(map(int, sigma))

    def run(assign, _resume):
        tape = OracleTape(ref_fork_source("dovetail-candidate", prefix, assign), budget=run_budget)
        return None if tape.try_emit(g, bit_index) is None else tape.use

    exhausted = MeasureThresholdError(
        f"dovetail fork tree exceeded {node_budget} nodes; "
        f"inverter reads do not settle over ⟦{sigma or 'ε'}⟧")
    leaves = []
    for assign, use in ref_fork_tree(run, node_budget, exhausted):
        length = max(use, len(sigma))
        leaves.append(DovetailLeaf(_pattern(assign), use, length,
                                   2 ** (length - len(sigma) - len(assign))))
    return leaves


def restart_fiber_branch_count(f, y_prefix, depth, probe_len=None, budget=1000000):
    """The library's fiber count as it was when a split class restarted its
    probe search.  A probe tree that reads an open position below `depth`
    is dropped, whatever it hands over, and each half of the split class
    starts a fresh tape and tree at output bit 0."""
    check_word(y_prefix)
    rep = Representation(f, depth, len(y_prefix))
    if probe_len is None:
        probe_len = max(2 * pair(depth + 2, depth + 2) + 4, 2 * len(y_prefix) + 2)
    probe_len = max(probe_len, depth)
    n_out, target = len(y_prefix), tuple(map(int, y_prefix))
    exhausted = DeskError("fiber probe budget exhausted")
    runs = iter(range(budget))

    def continuation(assign, resume):
        if resume is None:
            tape = OracleTape(ref_fork_source("fiber-probe", (), assign), barrier=probe_len)
            queue, tail = (), 0
        else:
            tape, checkpoint, j, queue, tail = resume
            tape.rollback(checkpoint)
            guessed = next(reversed(assign))
            queue = (j, *queue, guessed) if guessed < n_out else (j, *queue)
        while queue or tail < n_out:
            if queue:
                j, queue = queue[0], queue[1:]
            else:
                j, tail = tail, tail + 1
            if next(runs, None) is None:
                raise exhausted
            try:
                b = tape.try_emit(f, j)
            except RefFork as fork:
                fork.resume = (tape, tape.checkpoint(), j, queue, tail)
                raise
            if b is not None and b != target[j]:
                return None
        return tape.positions_read()

    def witness_reads(word_class, _handed_over):
        deep = ref_fork_tree(continuation, budget, exhausted, depth, roots=[(word_class, None)])
        return next((reads for _, reads in deep), None)

    *_, level = ref_class_levels(rep, finite(y_prefix))
    surviving = sum(2 ** (depth - len(assign)) for assign, _ in level)
    extendable = [(tuple(word_class.get(p, 0) for p in range(depth)), word_class, reads)
                  for word_class, reads in ref_fork_tree(witness_reads, roots=(
                      (assign, None) for assign, _ in level))]
    return _patterns(extendable, depth, surviving)


ENGINES = {"library": (fiber_branch_count, _dovetail_leaves),
           "reference": (ref_engine_fiber_branch_count, ref_engine_dovetail_leaves)}


def levels(engine):
    """The class levels of one engine, as a search: each level's classes
    with the positions their tapes read, and the tapes' use."""
    class_levels = _class_levels if engine == "library" else ref_class_levels

    def search(f, rep, y):
        return [[(assign, tape.positions_read(), tape.use) for assign, tape in level]
                for level in class_levels(Representation(f, rep.depth, rep.out_cap), y)]

    return search


def emitter_runs(search, fn, *args):
    """search(fn, *args) with its emitter runs: (its outcome, runs by tape source)."""
    runs = collections.Counter()

    def emit(tape, m):
        runs[tape.source.spec] += 1
        return fn.emit(tape, m)

    return outcome(search, RealFunction(fn.name, emit), *args), runs


def engine_work(search, fn, *args):
    """search(fn, *args) with the work it did: (its outcome, per fork tree in
    the order grown its run's name, nodes, splits at or past `owned_from`,
    class splits below it and leaves, emitter runs by tape source).  A
    library node is a run or a split that went on in place; a reference
    node is a run, and a reference class split is a fork that leaves its
    tree."""
    trees = []
    library, reference = inversion._fork_tree, ref_fork_tree

    def recorded(run, grown):
        tree = {"run": run.__name__, "nodes": 0, "splits": 0, "class splits": 0, "leaves": []}
        trees.append(tree)
        for assign, result in grown(tree):
            tree["leaves"].append(
                (assign, (result.positions_read(), result.use) if isinstance(result, OracleTape)
                 else result))
            yield assign, result

    def split_kind(p, owned_from):
        return "splits" if p >= owned_from else "class splits"

    def library_tree(run, roots, node_budget=float("inf"), exhausted=None, owned_from=0):
        def grown(tree):
            def counted(assign, tape, continuation, split):
                tree["nodes"] += 1

                def in_place(p, continuation):
                    tree[split_kind(p, owned_from)] += 1
                    bit = split(p, continuation)
                    tree["nodes"] += 1
                    return bit

                return run(assign, tape, continuation, in_place)

            return library(counted, roots, node_budget, exhausted, owned_from)

        return recorded(run, grown)

    def reference_tree(run, node_budget=float("inf"), exhausted=None, owned_from=0, roots=None):
        def grown(tree):
            def counted(assign, resume):
                tree["nodes"] += 1
                try:
                    return run(assign, resume)
                except RefFork as fork:
                    tree[split_kind(fork.position, owned_from)] += 1
                    raise

            return reference(counted, node_budget, exhausted, owned_from, roots)

        return recorded(run, grown)

    with mock.patch.object(inversion, "_fork_tree", library_tree), \
            mock.patch.dict(globals(), ref_fork_tree=reference_tree):
        got, runs = emitter_runs(search, fn, *args)
    return got, trees, runs


def fiber_work(count, f, y, depth, probe_len=None):
    """count(f, y, depth, probe_len), a fiber count, with what it did: (the
    count, its class-level trees, the extendable (class below the depth,
    witness reads) pairs in order, class splits, probe splits, emitter runs
    by tape source).  Every engine's probe trees yield the first passing
    leaf of a class, so the pairs are their leaves."""
    got, trees, runs = engine_work(count, f, y, depth, probe_len)
    probes = [tree for tree in trees if tree["run"] == "continuation"]
    pairs = [({p: b for p, b in assign.items() if p < depth}, reads)
             for tree in probes for assign, reads in tree["leaves"]]
    return (got, [tree for tree in trees if tree["run"] == "grow"], pairs,
            sum(tree["class splits"] for tree in probes), sum(tree["splits"] for tree in probes),
            runs)


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


# the library's work before a class split below the depth went on in place
# in the probe's one tree: (probe emitter runs, all emitter runs) on every
# fiber fixture, and emitter runs on every dovetail fixture.  No fixture may
# take more.
FIBER_WORK = {
    'identity 1011 d4': (0, 12),
    'identity-fn 1011 d4': (0, 12),
    'double 11 d4': (0, 7),
    'far 0 d2': (2, 5),
    'two1 stuck y30 d8': (111, 137),
    'two1 climb y68 d8': (168, 184),
    'two2 stuck y94 d16': (161, 206),
    'two1 marker-differential d8': (152, 168),
    'c07 two1 stuck d8': (111, 137),
    'c07 two1 stuck d16': (404, 457),
    'c07 two1 climb d8': (168, 184),
    'c07 two1 climb d16': (641, 680),
    'c07 two2 hit d16': (615, 676),
    'c07 two2 empty d16': (161, 206),
    'c07 random 0 d8': (255, 271),
    'c07 random 0 d12': (335, 366),
    'c07 random 0 d16': (749, 788),
    'c07 random 1 d8': (192, 208),
    'c07 random 1 d12': (267, 298),
    'c07 random 1 d16': (745, 784),
    'c07 random 2 d8': (196, 212),
    'c07 random 2 d12': (422, 453),
    'c07 random 2 d16': (681, 720),
    'c07 random 3 d8': (87, 113),
    'c07 random 3 d12': (443, 484),
    'c07 random 3 d16': (609, 662),
    'c07 two2 seeded 0 d8': (335, 356),
    'c07 two2 seeded 1 d8': (332, 353),
    'perf two1 stuck d8 x101': (112, 138),
    'perf two1 stuck d12 x101': (408, 449),
    'perf two1 stuck d16 x101': (410, 463),
    'perf two1 stuck d20 x101': (1295, 1369),
    'perf two1 climb d8 x101': (168, 184),
    'perf two1 climb d12 x101': (387, 418),
    'perf two1 climb d16 x101': (637, 676),
    'perf two1 climb d20 x101': (967, 1025),
    'perf two2 hit d16 x101': (612, 673),
    'perf two2 nohit d16 x101': (161, 206),
    'perf double d16 x101': (11, 44),
    'perf double d18 x101': (12, 49),
    'perf double d20 x101': (13, 54),
    'perf two1 stuck d8 x202': (114, 140),
    'perf two1 stuck d12 x202': (411, 452),
    'perf two1 stuck d16 x202': (408, 461),
    'perf two1 stuck d20 x202': (1301, 1375),
    'perf two1 climb d8 x202': (165, 181),
    'perf two1 climb d12 x202': (385, 416),
    'perf two1 climb d16 x202': (640, 679),
    'perf two1 climb d20 x202': (969, 1027),
    'perf two2 hit d16 x202': (613, 674),
    'perf two2 nohit d16 x202': (161, 206),
    'perf double d16 x202': (13, 46),
    'perf double d18 x202': (14, 51),
    'perf double d20 x202': (15, 56),
    'perf two1 stuck d8 x303': (111, 137),
    'perf two1 stuck d12 x303': (411, 452),
    'perf two1 stuck d16 x303': (405, 458),
    'perf two1 stuck d20 x303': (1302, 1376),
    'perf two1 climb d8 x303': (168, 184),
    'perf two1 climb d12 x303': (390, 421),
    'perf two1 climb d16 x303': (642, 681),
    'perf two1 climb d20 x303': (971, 1029),
    'perf two2 hit d16 x303': (631, 692),
    'perf two2 nohit d16 x303': (161, 206),
    'perf double d16 x303': (13, 46),
    'perf double d18 x303': (14, 51),
    'perf double d20 x303': (16, 57),
    'bare two1 stuck d8': (43, 69),
    'bare two1 stuck d12': (174, 215),
    'bare two1 stuck d16': (729, 782),
    'bare two1 climb d8': (109, 125),
    'bare two1 climb d12': (347, 378),
    'bare two1 climb d16': (1602, 1641),
    'simple d6': (0, 23),
    'simple d10': (0, 38),
    'surj d6': (25, 38),
    'surj d10': (37, 58),
    'witness-shift d6': (27, 47),
    'witness-shift d10': (47, 79),
}

DOVETAIL_WORK = {
    'surj w12 sigma= n=2': 2,
    'surj w12 sigma= n=3': 1,
    'surj w12 sigma=1 n=2': 2,
    'surj w00 n=0': 2,
    'half n=1': 2,
    'deep budget 50': 1,
    'collatz32 n=0': 1,
    'collatz32 n=1': 2,
    'collatz32 n=2': 2,
    'collatz32 n=3': 2,
    'collatz32 n=4': 2,
    'collatz32 n=5': 2,
    'collatz32 n=6': 2,
    'collatz32 n=7': 2,
    'collatz32 n=8': 2,
    'collatz32 n=9': 2,
    'collatz32 n=10': 2,
    'collatz32 n=11': 2,
    'collatz32 n=12': 2,
    'collatz32 n=13': 2,
    'collatz32 n=14': 2,
    'collatz32 n=15': 2,
    'collatz32 n=16': 2,
    'collatz32 n=17': 2,
    'collatz32 n=18': 2,
    'collatz32 n=19': 2,
    'collatz32 n=20': 2,
    'collatz32 n=21': 2,
    'collatz32 n=22': 2,
    'collatz32 n=23': 2,
    'collatz32 n=24': 2,
    'collatz32 n=25': 2,
    'collatz32 n=26': 2,
    'collatz32 n=27': 2,
    'collatz32 n=28': 2,
    'collatz32 n=29': 2,
    'collatz32 n=30': 2,
    'collatz32 n=31': 2,
    'sweep 0': 1,
    'sweep 1': 2,
    'sweep 2': 1,
    'sweep 3': 1,
    'sweep 4': 1,
    'sweep 5': 1,
    'scanner 300': 301,
}


def assert_within_pinned_work(names):
    """The library's work on the fiber fixtures `names` and on every dovetail
    fixture, against the pinned table."""
    for name in names:
        f, y, depth = fiber_fixtures()[name]
        _, runs = emitter_runs(fiber_branch_count, f, y, depth)
        probe, total = FIBER_WORK[name]
        assert runs["fiber-probe"] <= probe and sum(runs.values()) <= total, name
    for name, (g, *args) in dovetail_fixtures().items():
        _, runs = emitter_runs(_dovetail_leaves, g, *args)
        assert sum(runs.values()) <= DOVETAIL_WORK[name], name


def test_pinned_work_covers_every_fixture():
    assert sorted(FIBER_WORK) == sorted(fiber_fixtures())
    assert sorted(DOVETAIL_WORK) == sorted(dovetail_fixtures())


def test_library_work_stays_within_the_pinned_table():
    assert_within_pinned_work(name for name in fiber_fixtures() if not run_once(name))


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


# c07 two1 fixtures at depth 16 and the probe runs per target bit they may take
TWO1_RUNS_PER_TARGET_BIT = {"c07 two1 stuck d16": 8, "c07 two1 climb d16": 5}


def test_two1_probe_search_resumes_at_a_class_split():
    # both halves of a class split below the depth carry on with its probe
    # search: about 6 and 3 runs per target bit; restarting each half at
    # output bit 0 took 1,768 runs on stuck (90 target bits) and 1,837 on
    # climb (260)
    for name, per_bit in TWO1_RUNS_PER_TARGET_BIT.items():
        f, y, depth = fiber_fixtures()[name]
        assert fiber_branch_count(f, y, depth, budget=per_bit * len(y)) == \
            FiberCount(*PINNED[name]), name


def test_two2_hit_split_goes_on_in_place():
    # the 0 half of a probe split goes on in place, so only the 1 half
    # reruns its bit: about 2.4 probe runs per target bit at depths 16 and
    # 24, where rerunning both halves took 3.4 (881 and 1,948 runs)
    for depth in (16, 24):
        f, y = two2_hit(depth)
        assert fiber_branch_count(f, y, depth, budget=3 * len(y)) == FiberCount(*TWO2_HIT[depth])


def assert_engines_agree(searches, fn, *args):
    """The library and the exception-based engine on one search: the same
    outcome, the same fork trees (run, nodes, splits, leaves in order) and
    at least as many emitter runs in the reference.  Returns both works."""
    lib, ref = (engine_work(search, fn, *args) for search in searches)
    assert lib[:2] == ref[:2]
    assert sum(lib[2].values()) <= sum(ref[2].values())
    return lib, ref


def test_engines_agree_on_class_levels():
    from test_preimage_differential import invert_tree_fixtures  # it imports this module
    fixtures = [(rep.f, rep, y) for rep, y, _ in invert_tree_fixtures().values()]
    fixtures += [(f, Representation(f, depth, len(y)), finite(y))
                 for f, y, depth in fiber_fixtures().values()]
    reruns = 0
    for f, rep, y in fixtures:
        lib, ref = assert_engines_agree((levels("library"), levels("reference")), f, rep, y)
        reruns += sum(ref[2].values()) - sum(lib[2].values())
    assert reruns > 0


def fibers_agree(count, f, y, depth, probe_len=None):
    """The library's fiber count and `count`'s on one fixture: the same
    count, class-level trees, extendable (class below the depth, witness
    reads) pairs in order and class splits.  Returns both works."""
    lib, ref = (fiber_work(c, f, y, depth, probe_len) for c in (fiber_branch_count, count))
    assert lib[:4] == ref[:4]
    return lib, ref


def assert_engines_agree_on_fiber(f, y, depth, probe_len=None):
    """fibers_agree with the exception-based engine, which also makes the
    same probe splits and at least as many emitter runs."""
    lib, ref = fibers_agree(ref_engine_fiber_branch_count, f, y, depth, probe_len)
    assert lib[4] == ref[4]
    assert sum(lib[5].values()) <= sum(ref[5].values())
    return lib, ref


def assert_resuming_matches_restart(f, y, depth, probe_len=None):
    """fibers_agree with the restart, which makes at least as many probe runs."""
    lib, restart = fibers_agree(restart_fiber_branch_count, f, y, depth, probe_len)
    assert lib[5]["fiber-probe"] <= restart[5]["fiber-probe"]
    return lib, restart


def test_engines_agree_on_pinned_fibers():
    fewer = 0
    for name, (f, y, depth) in fiber_fixtures().items():
        lib, ref = assert_engines_agree_on_fiber(f, y, depth)
        assert lib[0] == FiberCount(*PINNED[name]), name
        fewer += lib[5]["fiber-probe"] < ref[5]["fiber-probe"]
    assert fewer > 0


def test_engines_agree_on_dovetail_leaves():
    for name, (g, *args) in dovetail_fixtures().items():
        assert_engines_agree((ENGINES["library"][1], ENGINES["reference"][1]), g, *args)


def test_resumed_probe_search_matches_restart_on_every_fixture():
    # the restart reruns every probe run a split class made before its split
    class_splits = fewer = 0
    for f, y, depth in fiber_fixtures().values():
        lib, restart = assert_resuming_matches_restart(f, y, depth)
        class_splits += lib[3]
        fewer += lib[5]["fiber-probe"] < restart[5]["fiber-probe"]
    assert class_splits > 0 and fewer > 0


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
    # make no more copies than there are classes.  A probe tape is copied
    # once per class split below the depth, for its 1 half.
    f, y, depth = fiber_fixtures()["c07 two2 hit d16"]
    branch, copies = OracleTape.branch, []
    monkeypatch.setattr(OracleTape, "branch",
                        lambda tape, source: copies.append(tape.source.spec) or
                        branch(tape, source))
    got, _, _, class_splits, _, _ = fiber_work(fiber_branch_count, f, y, depth)
    assert got == FiberCount(*PINNED["c07 two2 hit d16"])
    made = copies.count("preimage-class")
    assert 0 < copies.count("fiber-probe") == class_splits == len(copies) - made
    levels = _class_levels(Representation(f, depth, len(y)), finite(y))
    assert 0 < made <= sum(len(level) for level in levels)


def fork_sources(search, fn, *args):
    """engine_work(search, fn, *args) with the specs of the fork sources the
    search built, in order."""
    specs, build = [], inversion._fork_source

    def counted(spec, *rest):
        specs.append(spec)
        return build(spec, *rest)

    with mock.patch.object(inversion, "_fork_source", counted):
        return engine_work(search, fn, *args), specs


def test_a_search_builds_one_fork_source():
    # a node sets what the source reads on entry, so a search of many nodes
    # and trees builds one source per engine it runs, not one per node
    from test_preimage_differential import invert_tree_fixtures  # it imports this module
    rep, y, bits = invert_tree_fixtures()["witness:double"]  # depth 40
    (word, trees, _), specs = fork_sources(
        lambda f, y: unique_path_invert(Representation(f, rep.depth, rep.out_cap), y, bits),
        rep.f, y)
    assert len(word) == bits and specs == ["preimage-class"]
    assert sum(tree["nodes"] for tree in trees) > 40
    name = "c07 two1 stuck d16"
    f, y, depth = fiber_fixtures()[name]
    (got, trees, _), specs = fork_sources(fiber_branch_count, f, y, depth)
    assert got == FiberCount(*PINNED[name]) and sorted(specs) == ["fiber-probe", "preimage-class"]
    assert sum(tree["nodes"] for tree in trees if tree["run"] == "continuation") > 40  # probes
    for name, (g, *args) in dovetail_fixtures().items():
        (_, trees, _), specs = fork_sources(_dovetail_leaves, g, *args)
        assert specs == ["dovetail-candidate"] and len(trees) == 1, name


def tuple_order(assign, depth):
    """The key fiber counts sorted classes by before: the least depth-bit
    word of the class, 0 where open, as a depth-long tuple."""
    return tuple(assign.get(p, 0) for p in range(depth))


def assert_orders_agree(classes, depth):
    """Every pair of classes compares alike under the library's key and the
    tuple key, ties included."""
    def sign(a, b):
        return (a > b) - (a < b)

    lib = [inversion._word_order(c, depth) for c in classes]
    ref = [tuple_order(c, depth) for c in classes]
    for i, j in itertools.combinations(range(len(classes)), 2):
        assert sign(lib[i], lib[j]) == sign(ref[i], ref[j]), (classes[i], classes[j])


def test_least_word_order_matches_the_tuple_key_on_pinned_fixtures():
    # the extendable classes of each fixture, as the count's `min` keys them
    order, seen = inversion._word_order, collections.defaultdict(list)

    def recording(assign, depth):
        seen[name, depth].append(dict(assign))
        return order(assign, depth)

    with mock.patch.object(inversion, "_word_order", recording):
        for name, (f, y, depth) in fiber_fixtures().items():
            assert fiber_branch_count(f, y, depth) == FiberCount(*PINNED[name]), name
    for (name, depth), classes in seen.items():
        assert_orders_agree(classes, depth)
        assert min(classes, key=lambda c: order(c, depth)) is \
            min(classes, key=lambda c: tuple_order(c, depth)), name
    assert sum(len(classes) > 1 for classes in seen.values()) > 0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 12).flatmap(lambda depth: st.tuples(st.just(depth), st.lists(
    st.dictionaries(st.integers(0, depth + 3), st.integers(0, 1), max_size=depth + 4),
    max_size=12))))
def test_least_word_order_matches_the_tuple_key_on_drawn_classes(case):
    # positions past the depth are drawn too: neither key may look at them
    depth, classes = case
    assert_orders_agree(classes, depth)


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


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fiber_cases())
def test_resumed_probe_search_matches_restart(case):
    assert_resuming_matches_restart(*case)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(fiber_cases())
def test_engines_agree_on_drawn_fibers(case):
    assert_engines_agree_on_fiber(*case)


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
        except RefFork as fork:
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
    except RefFork as fork:
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
        return assign, OracleTape(ref_fork_source("probe", (), assign), barrier=barrier)

    assign, tape = fork_source_tape()
    _, forks = _image_answering_forks(f, tape, n, assign, x)
    assume(forks > 0)
    assign, tape = fork_source_tape()
    fork, _ = _image_answering_forks(f, tape, n, assign, x,
                                     data.draw(st.sampled_from(range(forks))))
    m, at_fork = tape._open[0], dict(assign)
    checkpoint = tape.checkpoint()
    twin_assign = dict(assign)
    twin = tape.branch(ref_fork_source("probe", (), twin_assign))

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

def two1(z, depth):
    """The c07 two1 fixture on z (stuck: zeros, climb: ones) at any depth."""
    return two_to_one_v1(W_EMPTY), _two1_target(W_EMPTY, random_source(11), z, depth)


def main() -> int:
    """Rerun the reference, the restart and the exception-based engine on
    every fixture, and check the library against them, PINNED and the
    pinned work; print the reference's counts and, for the library and the
    exception-based engine, the class splits, probe splits and emitter
    runs.  Then the library's probe runs on the two2 hit and two1 fixtures
    as their targets grow."""
    bad = 0
    print("fixture: (branches, surviving), class splits, probe splits, "
          "emitter runs library/reference engine, probe runs library/restart/pinned")
    for name, (f, y, depth) in fiber_fixtures().items():
        want = ref_fiber_branch_count(f, y, depth)
        lib, ref, restart = (fiber_work(count, f, y, depth) for count in (
            fiber_branch_count, ref_engine_fiber_branch_count, restart_fiber_branch_count))
        runs = [sum(work[5].values()) for work in (lib, ref)]
        probe_runs = [work[5]["fiber-probe"] for work in (lib, restart)]
        ok = lib[0] == want and PINNED.get(name) == (want.branches, want.surviving) and \
            lib[:4] == ref[:4] == restart[:4] and lib[4] == ref[4] and runs[0] <= runs[1] and \
            probe_runs[0] <= probe_runs[1]
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name!r}: ({want.branches}, {want.surviving}),"
              f"  # {lib[3]} class splits, {lib[4]} probe splits, {runs[0]}/{runs[1]} runs,"
              f" {probe_runs[0]}/{probe_runs[1]}/{FIBER_WORK[name][0]} probe runs")
    for label, fixture, depths in (("two2 hit", two2_hit, (8, 16, 24, 32)),
                                   ("two1 stuck", functools.partial(two1, zeros()),
                                    (8, 12, 16, 20)),
                                   ("two1 climb", functools.partial(two1, ones()),
                                    (8, 12, 16, 20))):
        print(f"{label}: depth, target bits, probe runs, runs per target bit")
        for depth in depths:
            f, y = fixture(depth)
            runs = emitter_runs(fiber_branch_count, f, y, depth)[1]["fiber-probe"]
            print(f"  {depth:>2} {len(y):>6} {runs:>7} {runs / len(y):>6.2f}")
    try:
        assert_within_pinned_work(fiber_fixtures())
    except AssertionError as exc:
        bad += 1
        print(f"BAD pinned work: {exc}")
    args = (_scanner(1200), "", 0, 100000, DEFAULT_BUDGET)
    lib, ref = (engine_work(ENGINES[engine][1], *args) for engine in ENGINES)
    ok = lib[0] == ref_dovetail_leaves(*args) and lib[:2] == ref[:2]
    bad += not ok
    print(f"{'ok ' if ok else 'BAD'} scanner 1200 leaves: {lib[1][0]['splits']} splits,"
          f" {sum(lib[2].values())}/{sum(ref[2].values())} runs")
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
