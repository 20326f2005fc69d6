"""Inverters, the adversaries that exploit them, and fiber evidence.

The extraction procedures turn any working inverter of the shipped one-way
maps into a decision procedure for the driving enumeration: the oracle-use
of finitely many inverter queries bounds the stage at which membership must
show up.  Reference inverters built from full knowledge of the toy set make
the reductions executable end to end; the toy stands where no computable
inverter could.

No search here lists oracle words: one fork-on-read engine, `_fork_tree`,
splits a computation at the first open position it reads and resumes both
halves on one tape rolled back there, so a leaf stands for every word that
agrees with its read pattern.  `_class_levels` grows such read classes one
barrier position at a time, to the depth of the `Representation` it is
given; unique-path inversion, `preimage_tree` and fiber counts read its
levels, the last probing each surviving class.  The randomized extraction
collects halting patterns in (length, lex) order until they cover more than
half of the conditioning cylinder.

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
    check_word,
    pair,
)
from .constructions import Marker, PermissionFn, _marker_map, k_keyed, marker_run_v1, \
    odd_half, simple_one_way, surjection_injection, two_to_one_v1, z_builder_v1
from .enumeration import StagedEnumeration
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
    BitSource,
    OracleTape,
    RealFunction,
    Representation,
    barrier_image,
    evaluate_bit,
    finite,
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
        member = "true" if self.member else "false"
        return f"n={self.element} member={member} use={self.use} stagebound={sb}"


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
    where a bit reads an open position; both halves roll the tape back to
    the split, and a surviving half takes a branch of it to the next level."""

    def grow(assign: dict[int, int], resume: tuple) -> Optional[OracleTape]:
        tape, checkpoint = resume
        if checkpoint is None:
            tape.source, tape.barrier = _fork_source("preimage-class", (), assign), barrier
        else:
            tape.rollback(checkpoint)
        try:
            image = barrier_image(rep.f, tape, rep.out_cap, y)
        except _Fork as fork:
            fork.resume = (tape, tape.checkpoint())
            raise
        return None if image is None else tape if checkpoint is None else tape.branch(tape.source)

    level = [({}, OracleTape(zeros(), budget=rep.budget))]
    for barrier in range(rep.depth + 1):
        level = list(_fork_tree(grow, roots=((assign, (tape, None)) for assign, tape in level)))
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
    if n < 0:
        raise ValueError(f"bit count must be a natural, got {n}")
    if survivor_cap < 0:
        raise ValueError(f"survivor cap must be a natural, got {survivor_cap}")
    for depth, level in enumerate(_class_levels(rep, y)):
        if not level:
            raise NotInRangeError(f"target not in range at depth {depth}")
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
        idx = p.invert(m)
        return None if idx is None else 2 * idx

    return InverterUnderTest(selection(f"refinv-surj({w.label})", sel), binary=True)


def reference_inverter_two_to_one(w: StagedEnumeration,
                                  search_stages: int = 256) -> InverterUnderTest:
    """Inverter for the k-keyed two-to-one map, built from full knowledge of w.

    It is the map's own emitter with another index.  Odd candidate bits copy
    y (the z half is public).  Even bit 2q scans the marker run for the
    stage t that selected position q and copies y(2t); when the scan instead
    shows the marker parked on q through every searched stage, the bit is
    the unread one and the witness answers 0.
    """

    def selecting_stage(marker: Marker, permission: PermissionFn, q: int) -> Optional[int]:
        # p_t is t+1 or k_t <= t, so no stage before q-1 selects q
        for t in range(max(q - 1, 0), search_stages):
            if marker.advance_to(t + 1, permission).rows[t][2] == q:
                return t
        # this marker never runs past search_stages, so k is k_{search_stages}
        if marker.advance_to(search_stages, permission).k != q:
            raise DivergenceError(2 * q, f"position {q} not selected within {search_stages} stages")
        return None

    return InverterUnderTest(_marker_map(f"refinv-two1({w.label},{search_stages})",
                                         lambda tape: k_keyed(w, odd_half(tape)),
                                         selecting_stage))


def _bit_use_soundness(g: RealFunction, x: BitSource, m: int, bit: int, use: int,
                       trials: int = 6, seed: int = 0) -> None:
    """Spot-check that output bit m on x, `bit` with oracle-use `use`,
    survives mutations beyond that use."""
    rng = random.Random(seed)
    for _ in range(trials):
        _, mutated = mutate_beyond_use(x, use, rng)
        got, _ = evaluate_bit(g, mutated, m)
        if got != bit:
            raise UseSoundnessError(
                f"{g.name} bit {m} changed from {bit} to {got} "
                f"after mutation beyond use {use}")


def extract_simple(g: InverterUnderTest, w: StagedEnumeration, n: int,
                   validate: bool = True) -> ExtractionVerdict:
    """Decide membership of n from the inverter's behavior on the zero real.

    Let x = g(0^ω).  A set bit x(n) certifies non-membership outright: were
    n enumerated at some stage s, any preimage of 0^ω would carry 0 at
    position n.  A zero bit reduces membership to the finite question
    n ∈ W at stage u_n, the oracle-use of that single bit.  Validation
    audits f(g(0^ω)) at the positions the argument consults: 0..n and ⟨n,s⟩.
    """
    if g.binary:
        raise ValueError("extract_simple takes a unary inverter")
    y = zeros()
    bit, use = evaluate_bit(g.g, y, n)
    if validate:
        _bit_use_soundness(g.g, y, n, bit, use)
        s = w.entry_stage(n)
        top = n if s is None else pair(n, s)  # ⟨n,0⟩ = n for n ≤ 1
        _audit(simple_one_way(w), g, y, range(n + 1) if top == n else [*range(n + 1), top],
               "inverter fails on the zero real: f(g(0^ω)) has 1")
    if bit == 1:
        return ExtractionVerdict(n, False, use, None, "simple", "positive witness bit")
    member = w.member_at_stage(n, use)
    return ExtractionVerdict(n, member, use, use, "simple")


class _Fork(Exception):
    def __init__(self, position: int):
        self.position = position
        self.resume: Any = None  # a checkpoint the run hands to both children
        super().__init__(str(position))


def _fork_tree(run: Callable[[dict[int, int], Any], object], node_budget: float = float("inf"),
               exhausted: Optional[DeskError] = None, owned_from: int = 0,
               roots: Optional[Iterable] = None) -> Iterator[tuple[dict[int, int], Any]]:
    """The leaves of the fork-on-read trees of `run`, lazily, depth first.

    `run(assignment, resume)` raises `_Fork(p)` at the first position p it
    reads that the assignment leaves open, and the node splits on p, 0
    before 1; both children get the fork's `resume`, a tape and the
    checkpoint to roll it back to.  The trees grow from `roots`,
    (assignment, resume) pairs in order (default: the empty assignment
    without a checkpoint).  A tree's one assignment dict grows and shrinks
    in place; leaves with a result other than None are yielded as (a copy
    of it, result).  A fork below `owned_from` propagates to an enclosing
    tree, without its checkpoint; past `node_budget` nodes the tree raises
    `exhausted`.
    """
    nodes = 0
    for root, resume in [({}, None)] if roots is None else roots:
        assign, stack = dict(root), [(len(root), {}, resume)]  # (parent's size, guess, resume)
        while stack:
            size, guess, resume = stack.pop()
            while len(assign) > size:
                assign.popitem()  # the positions a finished subtree assigned
            assign.update(guess)
            nodes += 1
            if nodes > node_budget:
                raise exhausted
            try:
                result = run(assign, resume)
            except _Fork as fork:
                if fork.position < owned_from:
                    fork.resume = None
                    raise
                size, p, resume = len(assign), fork.position, fork.resume
                stack += (size, {p: 1}, resume), (size, {p: 0}, resume)
                continue
            if result is not None:
                yield dict(assign), result


def _fork_source(spec: str, prefix: tuple[int, ...], assign: dict[int, int]) -> BitSource:
    """The bits of `prefix`, then the assignment; a read anywhere else forks."""

    def bit_at(i: int) -> int:
        if i < len(prefix):
            return prefix[i]
        b = assign.get(i)
        if b is None:
            raise _Fork(i)
        return b

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
        if self.words_collected > cap:
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
    or beyond |sigma| splits the cylinder in two.  Paths that diverge are
    dropped (their candidate words never halt, so they are never collected).
    """

    prefix = tuple(map(int, sigma))

    def run(assign: dict[int, int], _resume: None) -> Optional[int]:
        tape = OracleTape(_fork_source("dovetail-candidate", prefix, assign), budget=run_budget)
        return None if tape.try_emit(g, bit_index) is None else tape.use

    exhausted = MeasureThresholdError(
        f"dovetail fork tree exceeded {node_budget} nodes; "
        f"inverter reads do not settle over ⟦{sigma or 'ε'}⟧")
    leaves: list[DovetailLeaf] = []
    for assign, use in _fork_tree(run, node_budget, exhausted):
        length = max(use, len(sigma))
        leaves.append(DovetailLeaf(_pattern(assign), use, length,
                                   2 ** (length - len(sigma) - len(assign))))
    return leaves


def extract_randomized(g: InverterUnderTest, f: RealFunction, sigma: Word,
                       w: StagedEnumeration, n: int,
                       validate: bool = True,
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
    if validate:
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
                       upsilon: Word = "", zeta: Word = "",
                       validate: bool = True) -> ExtractionVerdict:
    """Decide membership of n from an inverter of the k-keyed two-to-one map.

    Build the adversarial z that parks the marker on n (after the verbatim
    prefix zeta), feed the inverter y = υ0^ω ⊕ z, and take u = the use of
    candidate bit 2n.  The marker reaches n exactly at stage n, so with
    s that stage, membership reduces to n ∈ W at stage max(u, s): a later
    enumeration would move the marker and flip the bit the inverter already
    committed to.
    """
    check_word(upsilon)
    check_word(zeta)
    if g.binary:
        raise ValueError("extract_two_to_one takes a unary inverter")
    if zeta and n <= len(zeta):
        # the verbatim prefix may overwrite column n below |zeta|; past it
        # the built z is pure formula and any n works
        raise ValueError(f"need n > |zeta| = {len(zeta)}, got n = {n}")
    z = z_builder_v1(n, zeta)
    y = interleaved(finite(upsilon), z)
    bit, use = evaluate_bit(g.g, y, 2 * n)
    if validate:
        _bit_use_soundness(g.g, y, 2 * n, bit, use)
        _audit(two_to_one_v1(w), g, y, range(2 * n + 2),
               "inverter fails on the constructed input: f(g(y)) differs from y")
    trace = marker_run_v1(w, z, n)
    s = trace.least_stage_with_k(n)
    if s is None:
        raise ConsistencyError(
            f"marker never reached {n} against its own adversarial z")
    bound = max(use, s)
    member = w.member_at_stage(n, bound)
    return ExtractionVerdict(n, member, use, bound, "two1", trace)


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
    inflate a two-element fiber.  A surviving class is extendable when a
    nested fork tree over the positions from `depth` on, rolling one probe
    tape back at each split, finds a continuation passing every bit of
    `y_prefix`; one that reads an open position below `depth` splits its
    class first.  The extendable classes' distinct patterns on the
    positions below `depth` read by the passing bits of the least
    extendable word, times two per other position below `depth`, give
    `branches`; a target through the outputs publishing each selection made
    below `depth` pins this to the true fiber.

    A continuation checks the output bits from 0 up.  After a fork at bit j
    it checks j, then the guessed positions that are output bits, oldest
    first, then the bits past the last one it reached.  Where output bit p
    copies input bit p, as in the marker maps, a wrong guess at p thus
    fails before the guesses made after it run on: the probe makes a few
    runs per target bit at every depth, where checking the newest guess
    first walked the whole target once per wrong guess.

    A bit that reads from `probe_len` on (default: past the prefix and the
    pairings consulted near `depth`), runs out of steps or diverges passes
    without reads; its step budget pays only for marker stages and guard
    positions new to its tape.  A probed bit needing enumeration stages
    past the horizon raises HorizonError (the image check
    truncates there).  More than `budget` probe emitter runs raise DeskError.
    """
    check_word(y_prefix)
    rep = Representation(f, depth, len(y_prefix))  # checks depth before any work
    if probe_len is None:
        probe_len = max(2 * pair(depth + 2, depth + 2) + 4, 2 * len(y_prefix) + 2)
    probe_len = max(probe_len, depth)
    n_out, target = len(y_prefix), tuple(map(int, y_prefix))
    exhausted = DeskError("fiber probe budget exhausted")
    runs = iter(range(budget))

    def continuation(assign: dict[int, int], resume: Optional[tuple]) -> Optional[tuple[int, ...]]:
        """Positions the passing bits read under one guess; None on a mismatch.
        The bits to check are `queue`, a tuple of output bits, then `tail`,
        tail+1, …, n_out-1.  A run that forks at a read of bit j hands its
        tape, a checkpoint, j, its queue and its tail to both children: they
        roll back and check j, the queue, the guessed position if it is an
        output bit, then the tail.  The queue is first in, first out, so
        the oldest guess is checked first and a wrong one fails before the
        guesses made after it run on to the end of the target."""
        if resume is None:
            tape = OracleTape(_fork_source("fiber-probe", (), assign), barrier=probe_len)
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
            except _Fork as fork:
                fork.resume = (tape, tape.checkpoint(), j, queue, tail)
                raise
            if b is not None and b != target[j]:
                return None
        return tape.positions_read()

    def witness_reads(word_class: dict[int, int], _resume: None) -> Optional[tuple[int, ...]]:
        deep = _fork_tree(continuation, budget, exhausted, depth, roots=[(word_class, None)])
        return next((reads for _, reads in deep), None)

    *_, level = _class_levels(rep, finite(y_prefix))
    surviving = sum(2 ** (depth - len(assign)) for assign, _ in level)
    # a split class keeps its image, so this tree reruns none
    extendable = [(tuple(word_class.get(p, 0) for p in range(depth)), word_class, reads)
                  for word_class, reads in _fork_tree(witness_reads, roots=(
                      (assign, None) for assign, _ in level))]
    if not extendable:
        return FiberCount(0, surviving)
    inside = [p for p in min(extendable, key=lambda e: e[0])[2] if p < depth]
    patterns = {pattern for _, word_class, _ in extendable
                for pattern in itertools.product(*((word_class[p],) if p in word_class else (0, 1)
                                                   for p in inside))}
    return FiberCount(len(patterns) * 2 ** (depth - len(inside)), surviving)


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
