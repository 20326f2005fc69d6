"""Infinite bit sources, oracle tapes with use accounting, and
representations.

A BitSource is a total deterministic map position → bit.  A read is checked
once, at the outermost call: `BitSource.bit` checks a direct read, and
`OracleTape.read` makes the same checks inline around the raw map.
Composite sources (flips, interleaves and column sources) call their
children's raw bit functions, and a stack of flips collapses into one set of
flipped positions over its base, so a read through it is one set lookup.
Sources built here, over such sources only, carry a `prefix` kernel: their
first P bits as bytes.  An OracleTape wraps a source and records exactly how
much of it a computation reads; the oracle-use of an evaluation is (max
position read) + 1.  A RealFunction emits output bits one at a time through
a tape, so use accounting and read barriers apply to every construction
uniformly.  The one exception: `evaluate` of a built-in `selection` (bit m
copies input bit sel(m)) over a kernel slices its bits from one prefix by
its map as data, a `Gather`, where that map holds; the rest emit bit by bit.

Partiality is desk-scale: `OracleTape.emit` gives each output bit a step
budget (one step per tape read, default 10^6), and budget exhaustion
surfaces as a divergence error, never nontermination.  Work an emitter keeps
on the tape across bits is paid for once, by the bit that does it: an even
bit 2s of a two-to-one map pays only for the marker stages no earlier bit
that succeeded on that tape has run, and an odd bit 2j+1 of the partial
injection only for the guard positions no earlier bit on that tape has
checked.  `barrier_image` keeps its output bits on the tape, so moving the
barrier reruns only the rest.  A search over the words of a `Representation`
runs to its depth; at each split one half goes on in place and the other
later rolls the tape back to a `checkpoint` taken at the read, at the cost
of the open bit's work alone.  The checkpoint also rolls back a `branch`
taken after it, so the halves of a split can go on on two tapes.

Sources, tapes, emitters and images carry bits as the ints 0 and 1.  A
`Word` (a str of '0'/'1') appears only at the API edge: words that build
sources, `evaluate`'s output and `Representation`'s maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate, count, islice, takewhile
from typing import Callable, ClassVar, Mapping, NamedTuple, Optional

from .bitcore import Word, check_natural, check_word, data_records, unpair
from .errors import _NO_VALUE, DeskError, DivergenceError, HorizonError, SpecParseError, \
    _BudgetExhausted, _ReadBeyondBarrier

DEFAULT_BUDGET = 10**6
MAX_DEPTH = 4096  # deepest Representation: fiber counts up to 2**MAX_DEPTH still print
MAX_BITS = 1 << 20  # most output bits one `evaluate` call emits
RANDOM_POSITIONS = 1 << 24  # random_source caches a byte per position below this


@dataclass(frozen=True)
class BitSource:
    """A total map from positions to bits, with a printable descriptor:
    `bit` is the checked read, `_bit` the raw map composite sources call.
    `prefix`, only on sources built here, maps P to bytes starting bits 0..P-1."""

    spec: str
    _bit: Callable[[int], int]
    prefix: ClassVar[Optional[Callable[[int], bytes]]] = None  # a field of `_Built` only

    def bit(self, i: int) -> int:
        if i < 0:
            raise ValueError(f"source position must be a natural, got {i}")
        b = self._bit(i)
        if b.__class__ is not int or b not in (0, 1):
            raise ValueError(f"source {self.spec} produced non-bit {b!r} at {i}")
        return b

    def __repr__(self) -> str:
        return f"BitSource({self.spec})"


@dataclass(frozen=True, repr=False)
class _Built(BitSource):
    prefix: Optional[Callable[[int], bytes]] = field(compare=False, kw_only=True)


@dataclass(frozen=True, repr=False)
class _Flipped(BitSource):
    """`base` with the bits at `flips` negated: a stack of flips is one set
    over the first base that is not a flip; its kernel flips the base's."""

    base: BitSource
    flips: frozenset[int]

    @property
    def prefix(self) -> Optional[Callable[[int], bytes]]:
        return self._flipped_prefix if self.flips and self.base.prefix else self.base.prefix

    def _flipped_prefix(self, P: int) -> bytearray:
        out = bytearray(self.base.prefix(P)[:P])
        for i in filter(P.__gt__, self.flips):
            out[i] ^= 1
        return out


# a word's bytes translated by _BITS, indexed, are its bits; _DIGITS maps back
_BITS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def zeros() -> BitSource:
    return _Built("zeros", lambda i: 0, prefix=bytes)


def ones() -> BitSource:
    return _Built("ones", lambda i: 1, prefix=lambda P: b"\1" * P)


def periodic(word: Word) -> BitSource:
    check_word(word)
    if not word:
        raise ValueError("periodic source needs a nonempty word")
    bits, k = word.encode().translate(_BITS), len(word)
    return _Built(f"periodic:{word}", lambda i: bits[i % k], prefix=lambda P: bits * (P // k + 1))


def finite(word: Word) -> BitSource:
    """`word` followed by zeros (an eventually-zero real)."""
    check_word(word)
    bits, k = word.encode().translate(_BITS), len(word)
    return _Built(f"finite:{word}", lambda i: bits[i] if i < k else 0,
                  prefix=lambda P: bits.ljust(P, b"\0"))


def flipped_at(base: BitSource, *positions: int) -> BitSource:
    """`base` with the bit at each of `positions` negated, one flip layer per
    position in order.  Flipping a flip source merges into its set (a second
    flip at one position cancels the first), so a read costs one set lookup
    however deep the stack; the spec still names every layer."""
    root, flips = (base.base, base.flips) if isinstance(base, _Flipped) else (base, frozenset())
    spec = base.spec
    for position in positions:
        if position < 0:
            raise ValueError("flip position must be a natural")
        flips ^= {position}
        spec = f"flip:{position}:{spec}"
    raw = root._bit

    def bit(i: int) -> int:
        b = raw(i)
        # a non-bit passes through unflipped, for the outer check to refuse
        return b ^ 1 if i in flips and b.__class__ is int and b in (0, 1) else b

    return _Flipped(spec, bit if flips else raw, root, flips)


def interleaved(even: BitSource, odd: BitSource) -> BitSource:
    """The join: bit 2n from `even`, bit 2n+1 from `odd`."""
    even_bit, odd_bit, even_prefix, odd_prefix = even._bit, odd._bit, even.prefix, odd.prefix

    def prefix(P: int) -> bytearray:
        out, half = bytearray(P), (P + 1) // 2
        out[0::2], out[1::2] = even_prefix(half)[:half], odd_prefix(P - half)[:P - half]
        return out

    return _Built(
        f"interleave({even.spec},{odd.spec})",
        lambda i: odd_bit(i >> 1) if i & 1 else even_bit(i >> 1),
        prefix=prefix if even_prefix and odd_prefix else None,
    )


def column_source(assignments: dict[int, BitSource], default: BitSource) -> BitSource:
    """Bit at pair(c,i) comes from assignments[c] at i, or from `default` at
    the absolute position when column c is not assigned."""
    cols = {c: s._bit for c, s in assignments.items()}
    default_bit, kernels = default._bit, {c: s.prefix for c, s in assignments.items()}

    def bit(m: int) -> int:
        c, i = unpair(m)
        src = cols.get(c)
        return src(i) if src is not None else default_bit(m)

    def prefix(P: int) -> bytearray:  # column c sits at pair(c, i): T(c), then steps c+2, c+3, ...
        out = bytearray(default.prefix(P)[:P])
        for c, column_prefix in kernels.items():
            spots = list(takewhile(P.__gt__, accumulate(count(c + 2), initial=c * (c + 1) // 2)))
            for at, b in zip(spots, column_prefix(len(spots))):
                out[at] = b
        return out

    inner = ",".join(f"{c}:{s.spec}" for c, s in sorted(assignments.items()))
    return _Built(f"columns({inner};default={default.spec})", bit,
                  prefix=prefix if default.prefix and all(kernels.values()) else None)


_TOP_BIT = bytes(b >> 7 for b in range(256))


def random_source(seed: int) -> BitSource:
    """Bit i is the i-th draw of random.Random(seed).getrandbits(1): the top
    bit of the i-th 32-bit word, which getrandbits(32·n) packs little-endian.
    Reads draw batches doubling from 64 to 32K words, `prefix(P)` only the
    words it lacks; positions from RANDOM_POSITIONS on raise DeskError first."""
    rng = random.Random(seed)
    cache = bytearray()
    words = 64

    def draw(i: int, k: int) -> None:  # k more words, for a read at position i
        if i >= RANDOM_POSITIONS:
            raise DeskError(f"random source position {i} past the {RANDOM_POSITIONS}-bit bound")
        cache.extend(rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4].translate(_TOP_BIT))

    def bit(i: int) -> int:
        nonlocal words
        while len(cache) <= i:
            draw(i, words)
            words = min(2 * words, 1 << 15)
        return cache[i]

    def prefix(P: int) -> bytearray:
        while len(cache) < P:
            draw(P - 1, min(P - len(cache), 1 << 15))
        return cache  # the cache itself, not a copy

    return _Built(f"random:{seed}", bit, prefix=prefix)


def columns_from_file(path: str) -> BitSource:
    """Column file: lines `COL WORD`; column COL carries WORD then zeros;
    unlisted columns are all zero.  '#' comments and blank lines ignored;
    a column file takes no `horizon N` line."""
    horizon, records = data_records(path, "column file ", "`COL WORD`", (int, check_word))
    if horizon is not None:
        raise SpecParseError(f"{path}: a column file takes no horizon")
    assignments: dict[int, BitSource] = {}
    for lineno, (col, word) in records:
        if col < 0:
            raise SpecParseError(f"{path}:{lineno}: negative column {col}")
        if col in assignments:
            raise SpecParseError(f"{path}:{lineno}: column {col} listed twice")
        assignments[col] = finite(word)
    return column_source(assignments, zeros())


class OracleTape:
    """Read head over a BitSource with use accounting.

    One tape per evaluation; never share across concurrent evaluations.
    `use` is (max position read) + 1, monotone over the tape's lifetime.
    An optional barrier turns reads at positions ≥ barrier into the internal
    barrier exception.  `emit` and `try_emit` run one output bit under a
    fresh step budget and turn the internal exceptions into outcomes.
    `checkpoint` and `rollback` let a search try continuations in turn;
    `branch` copies a tape that must outlive them.
    """

    def __init__(self, source: BitSource, barrier: Optional[int] = None,
                 budget: int = DEFAULT_BUDGET):
        self.source = source
        self.barrier = barrier
        self.use = 0
        self._budget_limit = self._budget_left = check_natural(budget, "step budget")
        self._reads: dict[int, None] = {}  # distinct positions, first-read order
        self._open: Optional[tuple[int, int]] = None  # (bit, read count) try_emit left
        # per-map state kept across output bits (markers, guard progress)
        self.state: dict[object, object] = {}

    def read(self, i: int) -> int:
        """Input bit i, in one frame down to the raw source: the position,
        barrier and budget checks, then `BitSource.bit`'s non-bit check
        inline; the read counts toward `use` and `positions_read()`."""
        if i < 0:
            raise ValueError(f"tape position must be a natural, got {i}")
        if self.barrier is not None and i >= self.barrier:
            raise _ReadBeyondBarrier(i)
        if self._budget_left <= 0:
            raise _BudgetExhausted()
        self._budget_left -= 1
        b = self.source._bit(i)
        if b.__class__ is not int or b not in (0, 1):
            raise ValueError(f"source {self.source.spec} produced non-bit {b!r} at {i}")
        if i + 1 > self.use:
            self.use = i + 1
        self._reads[i] = None
        return b

    def emit(self, f: RealFunction, m: int) -> int:
        """Output bit m of f, under a fresh step budget; running out of steps
        is a DivergenceError for bit m."""
        if m < 0:
            raise ValueError(f"output bit must be a natural, got {m}")
        self._budget_left = self._budget_limit
        try:
            return f.emit(self, m)
        except _BudgetExhausted:
            raise DivergenceError(m, "step budget exhausted") from None

    def try_emit(self, f: RealFunction, m: int) -> Optional[int]:
        """Output bit m of f, or None when it reads past the barrier or
        diverges (budget included).  It runs `f.emit` itself, with `emit`'s
        check of m and fresh budget, and takes budget exhaustion as any
        other divergence.  A failed bit's reads are forgotten, also
        before a HorizonError propagates, so positions_read() covers exactly
        the bits emitted; use stays monotone.  Any other exception passes
        through untouched and leaves bit m open, as does a bit still
        running, say at a read that splits a search: rerun after a rollback
        or on a branch, a failing bit m also forgets the reads made before
        it."""
        mark = self._open[1] if self._open and self._open[0] == m else len(self._reads)
        self._open = (m, mark)
        if m < 0:
            raise ValueError(f"output bit must be a natural, got {m}")
        self._budget_left = self._budget_limit
        try:
            b = f.emit(self, m)
        except _NO_VALUE as exc:  # budget exhaustion among them
            self._open = None
            while len(self._reads) > mark:
                self._reads.popitem()  # dicts pop the latest insertion
            if isinstance(exc, HorizonError):
                raise
            return None
        self._open = None
        return b

    def branch(self, source: BitSource) -> "OracleTape":
        """A copy over a source that agrees on every read, with copies of the
        per-map state: an int as it is, a list or a `Marker` by its `copy`."""
        twin = object.__new__(type(self))
        twin.__dict__ = {**self.__dict__, "source": source, "_reads": dict(self._reads),
                         "state": {key: value if value.__class__ is int else value.copy()
                                   for key, value in self.state.items()}}
        return twin

    def checkpoint(self) -> tuple:
        """What `rollback` needs: the open bit's reads (none before its first,
        as at a split; no later run drops an earlier bit's) and per-map state,
        by key: an int, a list that only grows (held as its length) or a
        `Marker` (its checkpoint).  It holds no object of the tape, so it
        also rolls back a branch taken from the tape after it."""
        reads, mark = self._reads, self._open[1] if self._open else len(self._reads)
        tail = tuple(islice(reversed(reads), len(reads) - mark)) if len(reads) > mark else ()
        state = [(key, len(value) if value.__class__ is list else
                  value if value.__class__ is int else value.checkpoint())
                 for key, value in self.state.items()]
        return self.use, self._open, self._budget_left, mark, tail, state

    def rollback(self, checkpoint: tuple) -> None:
        """Undo all work since `checkpoint`, taken on this tape or, before
        the branch, on the tape it branched from; reads keep first-read order."""
        self.use, self._open, self._budget_left, mark, tail, saved = checkpoint
        reads, state = self._reads, self.state
        while len(reads) > mark:
            reads.popitem()
        reads.update(dict.fromkeys(reversed(tail)))  # the tail is held newest first
        while len(state) > len(saved):
            state.popitem()  # keys are never deleted, so the newest come last
        for key, kept in saved:
            value = state[key]
            if value.__class__ is list:
                del value[kept:]
            elif value.__class__ is int:
                state[key] = kept
            else:
                value.restore(kept)

    def positions_read(self) -> tuple[int, ...]:
        return tuple(sorted(self._reads))


class Gather(NamedTuple):
    """A selection's map as data, for n ≤ `bound` bits: bit o + k·os copies
    input bit i + k·is (`run` (o, os, i, is), or None), bit m of `table`
    ({m: position}) copies its position instead, any other is 0."""

    run: Optional[tuple[int, int, int, int]]
    table: Mapping[int, int] = {}  # never mutated
    bound: int = MAX_BITS

    def take(self, prefix: Callable[[int], bytes], n: int) -> tuple[bytearray, int]:
        """Output bits 0..n-1 from one `prefix` of `use` bits, and that use: the
        run's bits below n, less the tail that table entries replace (not add
        to), then the table's bits below n."""
        table = self.table
        o, os, i, step = self.run or (n, 1, 0, 1)  # no run: none of bits 0..n-1 on it
        k = len(range(o, n, os))
        while k and o + (k - 1) * os in table:
            k -= 1
        below = [m for m in table if m < n]
        use = max([i + (k - 1) * step if k else -1, *map(table.__getitem__, below)]) + 1
        bits, got = bytearray(n), prefix(use)
        bits[o:o + k * os:os] = got[i:i + k * step:step]
        for m in below:
            bits[m] = got[table[m]]
        return bits, use


@dataclass(frozen=True, eq=False)
class RealFunction:
    """A function on Cantor space presented as a bit emitter.

    `emit(tape, m)` produces output bit m, reading the input only through
    the tape.  Determinism and use-soundness (output depends only on the
    prefix actually read) are the contract; useSoundnessCheck spot-checks
    the latter.  `gather`, set only by `selection` and only on the built-in
    ones, is the emitter's position map as data.  It compares by identity.
    """

    name: str
    emit: Callable[[OracleTape, int], int]
    gather: Optional[Gather] = field(default=None, compare=False)

    def __repr__(self) -> str:
        return f"RealFunction({self.name})"


@dataclass(frozen=True)
class EvalResult:
    output: Word
    use: int

    def __iter__(self):
        return iter((self.output, self.use))


def evaluate(f: RealFunction, x: BitSource, n: int,
             budget: int = DEFAULT_BUDGET) -> EvalResult:
    """First n output bits of f on x, plus the exact oracle-use.

    One tape serves all n bits, so `use` covers the whole prefix
    computation; the step budget is per output bit.  A built-in selection's
    bits come from its `gather` when it applies (x has a kernel, budget > 0,
    n ≤ bound); any other function's, and theirs otherwise, from n `emit` calls.
    An emitted value other than 0 or 1 (False and True count as those) is a ValueError.
    """
    check_natural(n, "bit count", MAX_BITS)
    tape, g = OracleTape(x, budget=budget), f.gather
    if g and x.prefix and budget > 0 and n <= g.bound:
        bits, tape.use = g.take(x.prefix, n)
    else:
        bits = [tape.emit(f, m) for m in range(n)]
    try:
        raw = bytes(bits)
    except (TypeError, ValueError):
        raw = b"?"  # not a byte string of bits either
    if raw.translate(None, b"\0\1"):
        raise ValueError(f"{f.name} emitted a non-bit among its first {n} bits")
    return EvalResult(raw.translate(_DIGITS).decode(), tape.use)


def evaluate_bit(f: RealFunction, x: BitSource, m: int,
                 budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Output bit m on a fresh tape: (bit, oracle-use of that bit alone)."""
    tape = OracleTape(x, budget=budget)
    return tape.emit(f, m), tape.use


def selection(name: str, sel: Callable[[int], Optional[int]],
              gather: Optional[Gather] = None) -> RealFunction:
    """Output bit m is input bit sel(m), or 0 where sel(m) is None; `gather`,
    that map as data, rides on the function for `evaluate`."""

    def emit(tape: OracleTape, m: int) -> int:
        i = sel(m)
        return 0 if i is None else tape.read(i)

    return RealFunction(name, emit, gather)


def identity_function() -> RealFunction:
    return selection("identity", lambda m: m, Gather((0, 1, 0, 1)))


def output_source(f: RealFunction, x: BitSource,
                  budget: int = DEFAULT_BUDGET) -> BitSource:
    """f(x) as a lazy memoized BitSource (divergence surfaces on access)."""
    tape = OracleTape(x, budget=budget)
    cache: dict[int, int] = {}

    def bit(i: int) -> int:
        if i not in cache:
            cache[i] = tape.emit(f, i)
        return cache[i]

    return BitSource(f"{f.name}({x.spec})", bit)


def barrier_image(f: RealFunction, tape: OracleTape, n: int,
                  target: Optional[BitSource] = None) -> Optional[list[int]]:
    """Output bits 0..n-1 of f on `tape` up to the first one that is missing
    (read past the barrier, divergence, horizon overrun); None as soon as a
    bit differs from `target`, which is read only where a bit is emitted.
    The bits found stay on the tape, keyed by f, so a later call on it or on
    a branch of it starts at the first missing bit."""
    bits = tape.state.setdefault(f, [])
    while len(bits) < n:
        try:
            b = tape.try_emit(f, len(bits))
        except HorizonError:
            break
        if b is None:
            break
        if target is not None and b != target.bit(len(bits)):
            return None
        bits.append(b)
    return bits[:n]


class Representation:
    """Finite-depth view of the monotone word map of a RealFunction.

    map_word(σ) is the longest output computable from the prefix σ alone:
    the `barrier_image` of the emitter under a read barrier at |σ|, which
    any failure to produce the next bit (barrier, budget, genuine
    divergence, horizon overrun) truncates; monotone by construction.
    Images stop at `out_cap` bits, by default max(2·depth + 8, 48).  The
    depth is at most MAX_DEPTH and the cap at most MAX_BITS, checked here
    for every search, as the step budget is.
    """

    def __init__(self, f: RealFunction, depth: int, out_cap: Optional[int] = None,
                 budget: int = DEFAULT_BUDGET):
        self.f, self.depth = f, check_natural(depth, "depth", MAX_DEPTH)
        out_cap = max(2 * depth + 8, 48) if out_cap is None else out_cap
        self.out_cap = check_natural(out_cap, "out_cap", MAX_BITS)  # evaluate's limit, per image
        self.budget = check_natural(budget, "step budget")

    def map_word(self, sigma: Word) -> Word:
        check_word(sigma)
        if len(sigma) > self.depth:
            raise ValueError(f"word of length {len(sigma)} exceeds depth {self.depth}")
        tape = OracleTape(finite(sigma), barrier=len(sigma), budget=self.budget)
        return "".join(map(str, barrier_image(self.f, tape, self.out_cap)))


@dataclass(frozen=True)
class UseSoundnessReport:
    function: str
    bits: int
    use: int
    trials: int
    violations: tuple[tuple[tuple[int, ...], Word, Word], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def mutate_beyond_use(x: BitSource, use: int,
                      rng: random.Random) -> tuple[tuple[int, ...], BitSource]:
    """One mutation draw: 1 to 3 positions in [use, use + 256), and x with
    those positions flipped."""
    count = rng.randint(1, 3)
    positions = tuple(sorted({use + rng.randrange(256) for _ in range(count)}))
    return positions, flipped_at(x, *positions)


def use_soundness_check(f: RealFunction, x: BitSource, n: int,
                        trials: int, seed: int = 0) -> UseSoundnessReport:
    """Mutate positions beyond the reported use; the output must not move.

    Each trial flips 1 to 3 positions in [use, use + 256) and re-evaluates
    the same n bits.  Violations carry the flipped positions and both
    outputs as a witness.
    """
    base = evaluate(f, x, n)
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        positions, mutated = mutate_beyond_use(x, base.use, rng)
        got = evaluate(f, mutated, n)
        if got.output != base.output:
            violations.append((positions, base.output, got.output))
    return UseSoundnessReport(f.name, n, base.use, trials, tuple(violations))
