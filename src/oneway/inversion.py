"""Inverters, the adversaries that exploit them, and fiber evidence.

The extraction procedures turn any working inverter of the shipped one-way
maps into a decision procedure for the driving enumeration: the oracle-use
of finitely many inverter queries bounds the stage at which membership must
show up.  Reference inverters built from full knowledge of the toy set make
the reductions executable end to end; the toy stands where no computable
inverter could.

No search here lists oracle words: one fork-on-read engine, `_fork_tree`,
splits a computation at the first open position it reads, so a leaf stands
for every word that agrees with its read pattern.  The read answers 0 and
that half goes on in place; the other half later redoes the read's bit with
a 1 there, on the search's one tape rolled back to the read.  Every node
reads through its search's one fork source.  `_class_levels` grows such read
classes one barrier position at a time, to its `Representation`'s depth;
unique-path inversion, `preimage_tree` and fiber counts read its levels, the
last probing the surviving classes, on their level tapes, as the roots of
one more tree, in which a read below the depth splits the class itself.  The
randomized extraction collects halting patterns in (length, lex) order until
they cover over half the cylinder.

Inside the engine a bit is the int 0 or 1 and an assignment is a dict
position → bit.  Words and `PartialAssignment`s are built only at the API
edge: the words `preimage_tree` and `unique_path_invert` return and the
patterns of `preimage_tree` and `DovetailLeaf`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional

from .bitcore import (
    PartialAssignment,
    PrefixFreeSet,
    Word,
    check_natural,
    check_word,
    pair,
)
from .constructions import Marker, PermissionFn, _marker_map, d_keyed, k_keyed, marker_run_v1, \
    simple_one_way, stage_where_counter_reaches, surjection_injection, two_to_one_v1, \
    two_to_one_v2, z_builder_v1, z_builder_v2
from .enumeration import StagedEnumeration, StagedStringEnumeration
from .errors import (
    ConsistencyError,
    DeskError,
    DivergenceError,
    MeasureThresholdError,
    NotInRangeError,
    NotSingletonError,
    UseSoundnessError,
)
from .streams import (
    DEFAULT_BUDGET,
    MAX_BITS,
    BitSource,
    OracleTape,
    RealFunction,
    Representation,
    barrier_image,
    evaluate_bit,
    finite,
    flipped_at,
    interleaved,
    mutate_beyond_use,
    output_source,
    selection,
    zeros,
)


@dataclass(frozen=True)
class ExtractionVerdict:
    """Membership verdict with the certificate the argument rests on."""

    element: int
    member: bool
    use: int
    stage_bound: Optional[int]
    via: str
    evidence: object = None

    def line(self) -> str:
        sb = "-" if self.stage_bound is None else str(self.stage_bound)
        return f"n={self.element} member={str(self.member).lower()} use={self.use} stagebound={sb}"


@dataclass(frozen=True)
class InverterUnderTest:
    """An inverter handed to an extraction procedure.

    `binary` marks inverters over joined inputs y⊕r (randomized extraction
    feeds those); unary inverters read y alone.
    """

    g: RealFunction
    binary: bool = False


def _class_levels(rep: Representation,
                  y: BitSource) -> Iterator[list[tuple[dict[int, int], OracleTape]]]:
    """Level d = 0..rep.depth: the read classes of the length-d words whose image
    under rep is a prefix of y, as (assignment, tape holding the image).  A
    class reruns on its own tape with the barrier at d+1 and splits only
    where a bit reads an open position: the 0 half goes on in place, the 1
    half later reruns the bit on the tape rolled back to the split.  A
    surviving half takes a branch of the tape to the next level while a
    half is still pending on it.  All classes read through one fork source."""
    pending = 0  # halves of the current tree waiting on its tape
    node = _Node()

    def guess(p: int) -> int:
        nonlocal pending
        pending += 1
        return node.split(p, True)

    source = _fork_source("preimage-class", (), node, guess)

    def grow(assign: dict[int, int], tape: OracleTape, rerun: bool,
             split: Callable[[int, Any], int]) -> Optional[OracleTape]:
        nonlocal pending
        node.assign, node.split = assign, split
        if rerun:
            pending -= 1
        else:
            tape.barrier = barrier
        image = barrier_image(rep.f, tape, rep.out_cap, y)
        return None if image is None else tape.branch(source) if pending else tape

    level = [({}, OracleTape(source, budget=rep.budget))]  # class tapes: it or branches
    for barrier in range(rep.depth + 1):
        level = list(_fork_tree(grow, [(assign, tape, [(0, {}, (None, False))])
                                       for assign, tape in reversed(level)]))
        yield level


def preimage_tree(rep: Representation, y: BitSource) -> list[Word]:
    """All words σ, |σ| ≤ rep.depth, whose image under rep is a prefix of y,
    sorted (length, lex)."""
    return [word for d, level in enumerate(_class_levels(rep, y)) for word in
            sorted(w for assign, _ in level for w in _pattern(assign).words(d))]


def unique_path_invert(rep: Representation, y: BitSource, n: int,
                       survivor_cap: int = 4096) -> Word:
    """First n bits of the unique preimage of y, by levelwise consensus:
    breadth-first over the read classes compatible with y, until all classes
    of a level assign every position below n alike.  An empty level means y
    is not in the range at that depth; no consensus by rep.depth (or more
    than `survivor_cap` words surviving) means the fiber is not provably a
    singleton at desk scale."""
    check_natural(n, "bit count", MAX_BITS)  # evaluate's limit: each class level holds n-bit heads
    check_natural(survivor_cap, "survivor cap")
    for depth, level in enumerate(_class_levels(rep, y)):
        if not level:
            raise NotInRangeError(f"target not in range at depth {depth}")
        if depth >= n:  # level d reads nothing from d on, so below n a head holds None
            heads = {tuple(assign.get(p) for p in range(n)) for assign, _ in level}
            if len(heads) == 1 and None not in (head := heads.pop()):
                return "".join(map(str, head))
        survivors = sum(2 ** (depth - len(assign)) for assign, _ in level)
        if survivors > survivor_cap:
            raise NotSingletonError(
                f"{survivors} surviving words at depth {depth}; "
                f"fiber not provably singleton at desk scale")
    raise NotSingletonError(
        f"no {n}-bit consensus by depth {rep.depth}; "
        f"fiber not provably singleton at desk scale")


def reference_inverter_simple(w: StagedEnumeration) -> InverterUnderTest:
    """g(y; n) = y(⟨n,s⟩) when n enters w at s, else 0.

    Inverts the simple one-way map on its range: the output copies each
    entering element's bit back from the position that published it.
    """

    def sel(m: int) -> Optional[int]:
        s = w.entry_stage(m)
        return None if s is None else pair(m, s)

    return InverterUnderTest(selection(f"refinv-simple({w.label})", sel))


def reference_inverter_surjection(w: StagedEnumeration) -> InverterUnderTest:
    """Binary inverter for the one-way surjection; ignores the r half.

    Candidate bit j is y at the selection preimage of j, read at input
    position 2·(that index) because the input interleaves (y, r).
    """
    p = surjection_injection(w)

    def sel(m: int) -> Optional[int]:
        idx = p.inverse(m)
        return None if idx is None else 2 * idx

    return InverterUnderTest(selection(f"refinv-surj({w.label})", sel), binary=True)


def reference_inverter_two_to_one(w: StagedEnumeration, *,
                                  u: Optional[StagedStringEnumeration] = None
                                  ) -> InverterUnderTest:
    """Inverter of the k-keyed two-to-one map, or with U the d-keyed one, from all of w.

    It is the map's own emitter with another index.  Odd candidate bits copy
    y (the z half is public).  Even bit 2q copies y(2t) for the marker stage
    t that selected position q, or answers 0 (the unread bit) when the scan
    shows the marker parked on q.  Stage q-1 selects q, or else the marker
    parks on q from stage q with its key (k = q, or the counter d) fixed,
    and the first stage from q on that updates it is the one that selects
    q: the scan is `Marker.first_update`, the marker's own stage loop
    stopped there.  w releases the marker no later than the key's entry
    stage: the scan runs that far, exactly.  A key that never enters leaves
    only z-permissions, watched for through stage max(256, q), a desk
    limit: 256 keeps every query below it scanning the stages it always
    has, and the answer 0 past it is right whenever the parked column stays
    silent, as on each extractor's adversarial z.
    """

    def selecting_stage(marker: Marker, permission: PermissionFn, q: int) -> Optional[int]:
        k, d = marker.state_at(q, permission)
        if k != q:
            return q - 1  # p_{q-1} = q exactly when k_q is not q
        entry = w.entry_stage(q if u is None else d)
        return marker.first_update(q, max(256, q) if entry is None else max(q, entry) + 1,
                                   permission)

    rule = (lambda tape: k_keyed(w, tape.read)) if u is None else \
        (lambda tape: d_keyed(w, u, tape.read))
    return InverterUnderTest(_marker_map(
        f"refinv-two{1 if u is None else 2}({w.label})", rule, selecting_stage))


def extract_simple(g: InverterUnderTest, w: StagedEnumeration, n: int) -> ExtractionVerdict:
    """Decide membership of n from the inverter's behavior on the zero real.

    Let x = g(0^ω).  A set bit x(n) certifies non-membership outright: were
    n enumerated at some stage s, any preimage of 0^ω would carry 0 at
    position n.  A zero bit reduces membership to the finite question
    n ∈ W at stage u_n, the oracle-use of that single bit.  Validation
    audits f(g(0^ω)) at the positions the argument consults: 0..n and ⟨n,s⟩.
    """
    _check_unary(g, "extract_simple")
    s = w.entry_stage(n)
    top = n if s is None else pair(n, s)  # ⟨n,0⟩ = n for n ≤ 1
    return _extract(g, w, n, "simple", zeros(), n, simple_one_way(w),
                    range(n + 1) if top == n else [*range(n + 1), top],
                    lambda bit, use: (None, "positive witness bit") if bit else (use, None),
                    "inverter fails on the zero real: f(g(0^ω)) has 1")


def _check_unary(g: InverterUnderTest, extractor: str) -> None:
    if g.binary:
        raise ValueError(f"{extractor} takes a unary inverter")


# the offsets past an extracted bit's use that its six spot checks flip: the
# positions the first six mutation draws of random.Random(0) place past use 0
_SPOT_CHECKS = tuple(mutate_beyond_use(zeros(), 0, rng)[0]
                     for rng in itertools.repeat(random.Random(0), 6))


def _extract(g: InverterUnderTest, w: StagedEnumeration, n: int, via: str, y: BitSource,
             q: int, f: RealFunction, positions: Iterable[int],
             bound: Callable[[int, int], tuple[Optional[int], object]],
             failure: str = "inverter fails on the constructed input: f(g(y)) differs from y"
             ) -> ExtractionVerdict:
    """What the unary extractors share: g's bit q on the adversarial y, its
    use spot-checked by six mutations beyond it and the audit of f(g(y)) at
    `positions`; bound(bit, use) then gives the stage bound (None: a
    non-member outright) and the evidence.  The six mutations flip use +
    offset for the fixed offset sets `_SPOT_CHECKS`, the positions
    `mutate_beyond_use` draws from random.Random(0)."""
    bit, use = evaluate_bit(g.g, y, q)
    for offsets in _SPOT_CHECKS:
        got, _ = evaluate_bit(g.g, flipped_at(y, *(use + offset for offset in offsets)), q)
        if got != bit:
            raise UseSoundnessError(f"{g.g.name} bit {q} changed from {bit} to {got} "
                                    f"after mutation beyond use {use}")
    _audit(f, g, y, positions, failure)
    stage, evidence = bound(bit, use)
    member = stage is not None and w.member_at_stage(n, stage)
    return ExtractionVerdict(n, member, use, stage, via, evidence)


def _fork_tree(run: Callable[[dict[int, int], OracleTape, Any, Callable[[int, Any], int]],
                        object],
               roots: list, node_budget: float = float("inf"),
               exhausted: Optional[DeskError] = None, owned_from: int = 0
               ) -> Iterator[tuple[dict[int, int], Any]]:
    """The leaves of the fork-on-read trees of `run`, lazily, depth first.

    `roots` is a stack of (assignment, tape, pending nodes), the last popped
    first; a node is (its size past the root, its guess, its resume) and a
    fresh root has the one node (0, {}, (None, continuation)).  The tree
    owns the tapes: it takes the checkpoint at each split and rolls the
    root's tape back to it before the split's other half runs, so a resume
    is (checkpoint, the run's own continuation).
    `run(assignment, tape, continuation, split)` reads through its search's
    one `_fork_source`, pointed at the run's node on entry; a first read of
    a position p the assignment leaves open calls split(p, continuation),
    with what the other half needs to redo the read's bit.
    The node splits on p, 0 before 1.  Child 0 goes on in place: split
    counts it as a node, pushes child 1, sets p to 0 in the assignment, and
    the read returns 0, so a split costs one rerun, child 1's.  Child 0's
    bit keeps the step budget it started with and pays for all of its reads
    once, as an unforked run does; child 1's rerun gets a fresh budget on a
    tape that keeps the marker stages committed before the read, and pays
    only for the reads after them.  A root's one assignment dict grows and
    shrinks in place; leaves with a result other than None are yielded as
    (a copy of it, result).  Past `node_budget` nodes the tree raises
    `exhausted`.

    A split on p below `owned_from` splits the root itself.  Its 1 half is
    pushed onto `roots`: the root with p = 1, a branch of the tape, and the
    pending nodes followed by the node that read p with its whole path.
    Its 0 half goes on in place with p moved in front of that path, so the
    root grows by one and the pending nodes keep their sizes.
    """
    nodes = 0

    def split(p: int, continuation: Any) -> int:  # the root, assignment and stack are the loop's
        nonlocal nodes, base
        if p < owned_from:
            path = [assign.popitem() for _ in range(len(assign) - base)][::-1]
            roots.append(({**assign, p: 1}, tape.branch(tape.source),
                          [*stack, (0, dict(path), (None, continuation))]))
            assign[p] = 0
            assign.update(path)
            base += 1
        else:
            stack.append((len(assign) - base, {p: 1}, (tape.checkpoint(), continuation)))
            assign[p] = 0
        nodes += 1
        if nodes > node_budget:
            raise exhausted
        return 0

    while roots:
        root, tape, stack = roots.pop()
        base, assign = len(root), dict(root)
        while stack:
            size, guess, (checkpoint, continuation) = stack.pop()
            while len(assign) > base + size:
                assign.popitem()  # the positions a finished subtree assigned
            assign.update(guess)
            if checkpoint is not None:
                tape.rollback(checkpoint)
            nodes += 1
            if nodes > node_budget:
                raise exhausted
            result = run(assign, tape, continuation, split)
            if result is not None:
                yield dict(assign), result


class _Node:
    """The running node of a search, as its one fork source reads it: a run sets
    `assign` and `split` on entry, a probe also `at`."""


def _fork_source(spec: str, prefix: tuple[int, ...], node: _Node,
                 guess: Callable[[int], int]) -> BitSource:
    """The bits of `prefix`, then the running node's assignment; a read
    anywhere else is guess(i).  A search builds one, not one per node."""
    k = len(prefix)

    def bit_at(i: int) -> int:
        b = prefix[i] if i < k else node.assign.get(i)
        return guess(i) if b is None else b

    return BitSource(spec, bit_at)


def _pattern(assign: dict[int, int]) -> PartialAssignment:
    """An engine assignment as the public, word-bit PartialAssignment."""
    return PartialAssignment(tuple((p, "01"[b]) for p, b in assign.items()))


@dataclass(frozen=True)
class DovetailLeaf:
    """One read pattern of the inverter: every candidate word consistent
    with `assignment` halts with the same oracle-use."""

    assignment: PartialAssignment  # constraints at positions >= |sigma|
    use: int
    length: int  # max(use, |sigma|): recorded word length for this pattern
    words: int   # number of collected words of this pattern

    def pattern(self, sigma: Word) -> Word:
        return PartialAssignment.of_word(sigma).union(self.assignment).filled_word(self.length)


@dataclass(frozen=True)
class DovetailRecord:
    """The collected prefix-free set at the crossing point, symbolically.

    Full leaves plus a count of words taken from the crossing length class
    describe W_t exactly; `materialize` expands it when small enough.
    """

    sigma: Word
    leaves: tuple[DovetailLeaf, ...]  # canonical (length, pattern) order
    k: int
    words_collected: int
    measure: Fraction
    threshold: Fraction

    def assert_prefix_free(self) -> None:
        """Exact structural check: distinct leaves conflict on a shared
        position, so no collected word extends another."""
        for i, a in enumerate(self.leaves):
            for b in self.leaves[i + 1:]:
                if a.assignment.consistent_with(b.assignment):
                    raise ConsistencyError(
                        f"leaves {a} and {b} do not conflict; collection not prefix-free")

    def materialize(self, cap: int = 4096) -> PrefixFreeSet:
        """The literal W_t, when it fits under `cap` words."""
        if self.words_collected > check_natural(cap, "word cap"):
            raise ValueError(f"W_t holds {self.words_collected} words, over cap {cap}")
        base = PartialAssignment.of_word(self.sigma)
        # lazily, one length class at a time: classes past the crossing stay unexpanded
        words = (word for ell, group in itertools.groupby(self.leaves, lambda leaf: leaf.length)
                 for word in sorted(w for leaf in group
                                    for w in base.union(leaf.assignment).words(ell)))
        return PrefixFreeSet(itertools.islice(words, self.words_collected))


def _dovetail_leaves(g: RealFunction, sigma: Word, bit_index: int,
                     node_budget: int, run_budget: int) -> list[DovetailLeaf]:
    """Fork tree of g's computation of one output bit over ⟦sigma⟧.

    Reads below |sigma| are answered by sigma; the first unassigned read at
    or beyond |sigma| splits the cylinder in two, the 1 half rolling the one
    tape back to it.  Diverging paths are dropped: their words never halt.
    """
    node = _Node()
    tape = OracleTape(_fork_source("dovetail-candidate", tuple(map(int, sigma)), node,
                                   lambda p: node.split(p, None)), budget=run_budget)

    def run(assign: dict[int, int], tape: OracleTape, _continuation: None,
            split: Callable[[int, Any], int]) -> Optional[int]:
        node.assign, node.split = assign, split
        return None if tape.try_emit(g, bit_index) is None else tape.use

    exhausted = MeasureThresholdError(
        f"dovetail fork tree exceeded {node_budget} nodes; "
        f"inverter reads do not settle over ⟦{sigma or 'ε'}⟧")
    leaves: list[DovetailLeaf] = []
    for assign, use in _fork_tree(run, [({}, tape, [(0, {}, (None, None))])],
                                  node_budget, exhausted):
        length = max(use, len(sigma))
        leaves.append(DovetailLeaf(_pattern(assign), use, length,
                                   2 ** (length - len(sigma) - len(assign))))
    return leaves


def extract_randomized(g: InverterUnderTest, f: RealFunction, sigma: Word,
                       w: StagedEnumeration, n: int,
                       node_budget: int = 100000,
                       run_budget: int = DEFAULT_BUDGET) -> ExtractionVerdict:
    """Decide membership of n from a total inverter over the cylinder ⟦sigma⟧.

    Dovetail the inverter's bit 2n over all words compatible with sigma in
    (length, lex) order, collecting minimal halting prefixes (a halt with
    use below |sigma| is recorded at length |sigma|).  Words arrive in
    non-decreasing length, so the first collection whose measure inside
    ⟦sigma⟧ strictly exceeds half of μ(⟦sigma⟧) is crossed inside a single
    length class k, and membership reduces to n ∈ W at stage k.
    """
    check_word(sigma)
    if not g.binary:
        raise ValueError("extract_randomized takes a binary inverter over y⊕r")
    check_natural(n, "element")  # before the audit and the search, which would name g's bit 2n
    check_natural(node_budget, "node budget")  # the run budget: the audit's tape, before any run
    _audit(f, g, interleaved(finite(sigma), zeros()), range(max(len(sigma), n) + 1),
           f"inverter fails over ⟦{sigma or 'ε'}⟧: f(g(y,r)) differs from y", run_budget)
    leaves = _dovetail_leaves(g.g, sigma, 2 * n, node_budget, run_budget)
    leaves.sort(key=lambda leaf: (leaf.length, leaf.pattern(sigma)))
    threshold = Fraction(1, 2 ** (len(sigma) + 1))
    collected, words_collected, crossing = Fraction(0), 0, None
    for ell, group in itertools.groupby(leaves, lambda leaf: leaf.length):
        group = list(group)
        group_measure = sum(Fraction(1, 2 ** (len(sigma) + len(leaf.assignment.constraints)))
                            for leaf in group)
        if collected + group_measure > threshold:
            word_measure = Fraction(1, 2 ** ell)
            need = (threshold - collected) // word_measure + 1
            collected += need * word_measure
            words_collected += need
            crossing = ell
            break
        collected += group_measure
        words_collected += sum(leaf.words for leaf in group)
    if crossing is None:
        raise MeasureThresholdError(
            f"halting prefixes cover only {collected} of ⟦{sigma or 'ε'}⟧, "
            f"never exceeding {threshold}")
    record = DovetailRecord(sigma, tuple(leaves), crossing, words_collected,
                            collected, threshold)
    record.assert_prefix_free()
    member = w.member_at_stage(n, crossing)
    use = max((leaf.use for leaf in leaves if leaf.length <= crossing), default=0)
    return ExtractionVerdict(n, member, use, crossing, "randomized", record)


def extract_two_to_one(g: InverterUnderTest, w: StagedEnumeration, n: int,
                       upsilon: Word = "", zeta: Word = "") -> ExtractionVerdict:
    """Decide membership of n from an inverter of the k-keyed two-to-one map.

    Build the adversarial z that parks the marker on n (after the verbatim
    prefix zeta), feed the inverter y = υ0^ω ⊕ z, and take u = the use of
    candidate bit 2n.  The marker reaches n exactly at stage n, so with
    s that stage, membership reduces to n ∈ W at stage max(u, s): a later
    enumeration would move the marker and flip the bit the inverter already
    committed to.
    """
    _check_unary(g, "extract_two_to_one")
    check_natural(n, "element")  # before z is built, whose builder would name its column instead
    check_word(upsilon)
    check_word(zeta)
    if zeta and n <= len(zeta):
        # the verbatim prefix may overwrite column n below |zeta|; past it
        # the built z is pure formula and any n works
        raise ValueError(f"need n > |zeta| = {len(zeta)}, got n = {n}")
    z = z_builder_v1(n, zeta)

    def bound(bit: int, use: int) -> tuple:
        trace = marker_run_v1(w, z, n)
        s = trace.least_stage_with_k(n)
        if s is None:
            raise ConsistencyError(f"marker never reached {n} against its own adversarial z")
        return max(use, s), trace

    return _extract(g, w, n, "two1", interleaved(finite(upsilon), z), 2 * n, two_to_one_v1(w),
                    range(2 * n + 2), bound)


def extract_two_to_one_v2(g: InverterUnderTest, w: StagedEnumeration,
                          u: StagedStringEnumeration, n: int) -> ExtractionVerdict:
    """Decide membership of n from an inverter of the d-keyed two-to-one map.

    Against z = z_builder_v2(u, n) the counter first reaches n at a stage s,
    the marker then sits on k* = k_s = s, and only n entering W moves it on.
    Take the use of g's bit 2k* on y = 0^ω⊕z.  Were n to enter W at a stage
    t past s and that use, f's bit 2t would copy input bit k*: y with bit 2t
    set is f of an input with bit k* set, g gives it and y one bit 2k*, and
    f(g(·)) fails at bit 2t on one of them.  So n ∈ W iff n ∈ W_max(use, s).
    """
    _check_unary(g, "extract_two_to_one_v2")
    check_natural(n, "element")  # before z is built, as in extract_two_to_one
    z = z_builder_v2(u, n)
    s = stage_where_counter_reaches(w, u, z, n)
    return _extract(g, w, n, "two2", interleaved(zeros(), z), 2 * s, two_to_one_v2(w, u),
                    range(2 * s + 2), lambda bit, use: (max(use, s), None))


@dataclass(frozen=True)
class FiberCount:
    """branches: surviving words counted at read resolution (positions the
    map never reads do not multiply); surviving: the plain count."""

    branches: int
    surviving: int


def fiber_branch_count(f: RealFunction, y_prefix: Word, depth: int,
                       probe_len: Optional[int] = None,
                       budget: int = 1000000) -> FiberCount:
    """Count depth-`depth` input words still consistent with the target.

    `surviving` counts the words whose image under a read barrier at
    `depth` (what `Representation` computes) is comparable with `y_prefix`,
    2^(open positions) for each class on the last level of `_class_levels`.

    `branches` counts at read resolution, so bits f has not read do not
    inflate a two-element fiber.  A surviving class is extendable when the
    probe, one fork tree whose roots are the classes, finds a continuation
    passing every bit of `y_prefix` in its root: it goes on on the class's
    level tape, barrier moved to `probe_len`, from the first image bit the
    class lacks, and each root's first passing leaf ends its search.  A read
    of an open position q below `depth` splits the class on q: its 0 half
    goes on in place and its 1 half, a new root on a branch of the tape,
    carries on with the search from that read, which no earlier run made, so
    both find the continuation a fresh search of each half would.  The
    extendable classes' distinct patterns on the positions below `depth`
    read by the passing bits of the least extendable word, times two per
    other position below `depth`, give `branches`; a target through the
    outputs publishing each selection made below `depth` pins this to the
    true fiber.

    A continuation checks the output bits from 0 up.  A guess made during
    bit j joins the end of the queue of guessed positions to check when it
    is an output bit; the guess's second half checks j, then that queue,
    oldest first, then the bits past the last one it reached, skipping
    guesses.  Where output bit p copies input bit p, as in the marker
    maps, a wrong guess at p thus fails before the guesses made after it
    run on: the probe makes a few runs per target bit at every depth.

    A bit that reads from `probe_len` on (default: past the prefix and the
    pairings consulted near `depth`), runs out of steps or diverges passes
    without reads; its step budget pays only for marker stages and guard
    positions new to its tape.  A probed bit needing enumeration stages
    past the horizon raises HorizonError (the image check truncates there).
    More than `budget` probe emitter runs raise DeskError.
    """
    check_word(y_prefix)
    rep = Representation(f, depth, len(y_prefix))  # checks depth before any work
    if probe_len is None:
        probe_len = max(2 * pair(depth + 2, depth + 2) + 4, 2 * len(y_prefix) + 2)
    probe_len = max(check_natural(probe_len, "probe length"), depth)
    n_out, target = len(y_prefix), tuple(map(int, y_prefix))
    exhausted = DeskError("fiber probe budget exhausted")
    runs = iter(range(check_natural(budget, "probe budget")))
    probe = _Node()  # at: the running bit, queue, tail

    def guess(p: int) -> int:
        j, queue, tail = probe.at
        probe.at = j, (queue := (*queue, p) if depth <= p < n_out else queue), tail
        return probe.split(p, ((j, *queue), tail))

    source = _fork_source("fiber-probe", (), probe, guess)

    def continuation(assign: dict[int, int], tape: OracleTape, resume: tuple,
                     split: Callable[[int, Any], int]) -> Optional[tuple[int, ...]]:
        """Positions the passing bits read under one guess; None on a mismatch.
        It checks the output bits `queue`, then `tail` to n_out-1, skipping
        guesses; at an open read during bit j, `guess` queues the position
        and hands the 1 half j, that queue and the tail."""
        queue, tail = resume
        probe.assign, probe.split = assign, split
        while queue or tail < n_out:
            if queue:
                j, queue = queue[0], queue[1:]
            else:
                j, tail = tail, tail + 1
                if j >= depth and j in assign:  # a guess: the queue checked it
                    continue
            if next(runs, None) is None:
                raise exhausted
            probe.at = j, queue, tail
            b = tape.try_emit(f, j)
            queue = probe.at[1]  # with the guesses bit j made
            if b is not None and b != target[j]:
                return None
        return tape.positions_read()

    *_, level = _class_levels(rep, finite(y_prefix))
    surviving = sum(2 ** (depth - len(assign)) for assign, _ in level)
    roots = []
    for assign, tape in reversed(level):
        # the image list goes (each rollback and branch would carry it); the probe starts past it
        tape.source, tape.barrier = source, probe_len
        roots.append((assign, tape, [(0, {}, (None, ((), len(tape.state.pop(f)))))]))
    extendable = []
    while roots:  # the first passing leaf of a root: its class is extendable
        extendable += itertools.islice(_fork_tree(continuation, roots, budget, exhausted, depth), 1)
    if not extendable:
        return FiberCount(0, surviving)
    inside = [p for p in min(extendable, key=lambda e: _word_order(e[0], depth))[1] if p < depth]
    patterns = {pattern for word_class, _ in extendable
                for pattern in itertools.product(*((word_class[p],) if p in word_class else (0, 1)
                                                   for p in inside))}
    return FiberCount(len(patterns) * 2 ** (depth - len(inside)), surviving)


def _word_order(assign: dict[int, int], depth: int) -> list[int]:
    """Sorts classes as their least depth-bit words (0 where open) do: by their 1s, negated."""
    return sorted((-p for p, b in assign.items() if b and p < depth), reverse=True)


@dataclass(frozen=True)
class FiniteStageOutcome:
    state: str  # "consistent" | "refuted" | "diverged"
    index: Optional[int] = None

    def __str__(self) -> str:
        if self.index is None:
            return self.state
        return f"{self.state} at bit {self.index}"


def inverts_at_finite_stage(f: RealFunction, g: InverterUnderTest,
                            y: BitSource, n: int,
                            budget: int = DEFAULT_BUDGET) -> FiniteStageOutcome:
    """Does f(g(y)) agree with y on the first n bits, within budget?

    A binary inverter reads a joined input y⊕r, so for it `y` is that join
    and f(g(y⊕r)) is compared with its even half, the y it inverts.  A
    divergence is reported at the first bit of f(g(y)) that has no value.
    Consistent runs may still hide failures past n; refutation is final and
    monotone in n (the same first disagreement refutes every deeper check).
    """
    return _agreement(f, g, y, range(n), budget)


def _agreement(f: RealFunction, g: InverterUnderTest, y: BitSource,
               positions: Iterable[int], budget: int) -> FiniteStageOutcome:
    """f(g(y)) against y at `positions` in order, up to the first bit that
    differs or has no value (a divergence of g or of f).  f runs on one tape
    over x = g(y), which keeps its bits: f may read one twice."""
    x = output_source(g.g, y, budget=budget)
    tape = OracleTape(x, budget=budget)
    stride = 2 if g.binary else 1
    for m in positions:
        try:
            b = tape.emit(f, m)
        except DivergenceError:
            return FiniteStageOutcome("diverged", m)
        if b.__class__ is not int or b not in (0, 1):
            raise ValueError(f"source {f.name}({x.spec}) produced non-bit {b!r} at {m}")
        if b != y.bit(stride * m):
            return FiniteStageOutcome("refuted", m)
    return FiniteStageOutcome("consistent")


def _audit(f: RealFunction, g: InverterUnderTest, y: BitSource, positions: Iterable[int],
           failure: str, budget: int = DEFAULT_BUDGET) -> None:
    """An extractor's premise that g inverts f at y, checked at `positions`:
    `failure` and the bit where f(g(y)) differs from y is a ConsistencyError,
    a bit without a value a DivergenceError."""
    outcome = _agreement(f, g, y, positions, budget)
    if outcome.state == "refuted":
        raise ConsistencyError(f"{failure} at bit {outcome.index}")
    if outcome.state == "diverged":
        raise DivergenceError(outcome.index, "inverter validation diverged")
