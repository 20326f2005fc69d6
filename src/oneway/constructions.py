"""The function constructions: simple one-way maps, bit selections, the
one-way surjection, the partial injection, and the marker-based two-to-one
maps, each parameterized by staged enumerations.

Most of them copy one chosen input bit: `streams.selection(name, sel)` is
that emitter, and the simple map, bit selections, witness maps, the
surjection and the partial injection's even half only supply `sel`; all but
the last also supply it as data, a `Gather` that `evaluate` slices by.  Both
two-to-one maps and the k-keyed map's reference inverter are
`_marker_map(name, rule, index)`, which differ only in their permission rule
and in the index i whose input bit 2i an even bit copies.

The movable-marker recursion is shared between both two-to-one variants:

    k_0 = 0;  k_{s+1} = s+1 if stage s grants permission, else k_s
    p_s  = k_s on an update (the vacated position), else s+1
    d_s  = number of updates before stage s

Variant 1 keys permissions on the marker k_s (halting: k_s enumerated by
stage s; z-permission: z(⟨k_s,s⟩) = 1).  Variant 2 keys them on the update
counter d_s (halting: d_s enumerated; z-permission: column d_s of z has a
prefix in the word enumeration).  The halting clause is checked first and
short-circuits, so a halting stage reads nothing from z.

`Marker` runs the recursion; `k_keyed` and `d_keyed` are the permission
rules.  A rule reads bit ⟨·,·⟩ of z at input position 2⟨·,·⟩+1, computed
inline, through the reader it is given: on a two-to-one map that is
`OracleTape.read`, whose inline checks are the only ones a stage's read
passes.  `_marker_map` keeps one marker per map on the evaluation's tape, so
output bit 2s runs (and its step budget pays for) only the stages that no
earlier bit that succeeded on that tape has run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .bitcore import Word, check_word, pair, unpair
from .enumeration import (
    DecidedSet,
    StagedEnumeration,
    StagedStringEnumeration,
    _check_stage,
    column_hit,
)
from .errors import _NO_VALUE, DivergenceError, HorizonError, InjectivityError
from .streams import BitSource, Gather, OracleTape, RealFunction, column_source, finite, selection


@dataclass(frozen=True)
class ConstructionHandle:
    """A shipped construction with the data it was built from.

    The descriptor is the CLI spec string; parsing and rendering live in the
    cli module, and parse(descriptor) reproduces the same handle.
    """

    family: str
    descriptor: str
    fn: RealFunction
    w: Optional[StagedEnumeration] = None
    u: Optional[StagedStringEnumeration] = None


@dataclass(frozen=True)
class MarkerStep:
    s: int
    k: int
    d: int
    p: int
    permission: Optional[str]  # None, "halting", or "z"


@dataclass(frozen=True)
class MarkerTrace:
    """Per-stage record of the marker recursion over some number of stages.

    steps[s] carries the values before stage s acts plus the position p_s
    selected at that stage; k_final and d_final are the values after the
    last stage.
    """

    steps: tuple[MarkerStep, ...]
    k_final: int
    d_final: int

    def k_at(self, s: int) -> int:
        if s == len(self.steps):
            return self.k_final
        return self.steps[s].k

    def d_at(self, s: int) -> int:
        if s == len(self.steps):
            return self.d_final
        return self.steps[s].d

    def p_values(self) -> tuple[int, ...]:
        return tuple(step.p for step in self.steps)

    def least_stage_with_k(self, value: int) -> Optional[int]:
        for s in range(len(self.steps) + 1):
            if self.k_at(s) == value:
                return s
        return None

    def stuck_report(self) -> str:
        """Human-readable terminal state: never a claim about the limit."""
        S = len(self.steps)
        last_move = max((step.s + 1 for step in self.steps if step.permission), default=0)
        if last_move < S:
            return f"k={self.k_final} stuck through stage {S} (last update at {last_move})"
        return f"k={self.k_final} updated at the final stage {S}"

    def assert_invariants(self) -> None:
        """Check every promised trace identity, raising AssertionError with
        the failing stage on violation."""
        S = len(self.steps)
        ks = [self.k_at(s) for s in range(S + 1)]
        ds = [self.d_at(s) for s in range(S + 1)]
        ps = self.p_values()
        for s in range(S):
            assert ks[s + 1] in (ks[s], s + 1), f"k jump at stage {s}: {ks[s]}->{ks[s+1]}"
            assert ks[s + 1] >= ks[s], f"k decreased at stage {s}"
            updated = ks[s + 1] != ks[s]
            assert ds[s + 1] == ds[s] + (1 if updated else 0), f"d miscount at stage {s}"
            if self.steps[s].permission is None:
                assert not updated, f"update without permission at stage {s}"
                assert ps[s] == s + 1, f"p should be s+1 at idle stage {s}"
            else:
                assert updated, f"permission without update at stage {s}"
                assert ps[s] == ks[s], f"p should vacate k at update stage {s}"
        assert len(set(ps)) == len(ps), "p not injective"
        # range identity: {p_t : t < s} = {0..s} − {k_s}.  p is injective, so
        # the left side has s elements, and equality holds exactly when the
        # newest p and k_s lie in 0..s and k_s is not among the p values.
        seen: set[int] = set()
        for s in range(S + 1):
            if s > 0:
                seen.add(ps[s - 1])
            assert (s == 0 or 0 <= ps[s - 1] <= s) and 0 <= ks[s] <= s \
                and ks[s] not in seen, (
                f"range identity fails at stage {s}: {sorted(seen)} != "
                f"{sorted(set(range(s + 1)) - {ks[s]})}")


PermissionFn = Callable[[int, int, int], Optional[str]]


class Marker:
    """The movable-marker recursion, run forward one stage at a time.

    rows[s] = (k_s, d_s, p_s, permission at stage s); k, d follow the last
    stage.  A stage commits only after its permission is decided, so a read
    that raises mid-stage leaves the marker as it was.  The first `kept`
    rows belong to output bits that succeeded; a bit that fails drops the
    rest (`undo`), as the tape forgets their reads, and one that forks
    leaves them open.  The permission rule is passed in, never stored: a
    marker kept on a tape holds no reference back to the tape.

    `advance_to` runs the stages below a count; `first_update` stops early,
    after the first stage from a given one on that moves k.  Both run the
    one stage loop, `_run`.
    """

    def __init__(self):
        self.k = self.d = self.kept = 0
        self.rows: list[tuple[int, int, int, Optional[str]]] = []

    def copy(self) -> "Marker":
        twin = Marker()
        twin.k, twin.d, twin.kept, twin.rows = self.k, self.d, self.kept, list(self.rows)
        return twin

    def checkpoint(self) -> tuple:
        return self.k, self.d, self.kept, self.rows[self.kept:]

    def restore(self, checkpoint: tuple) -> None:
        self.k, self.d, self.kept, open_rows = checkpoint
        self.rows[self.kept:] = open_rows

    @staticmethod
    def on(tape: OracleTape, key: object) -> "Marker":
        """The marker of map `key` over this tape, created on first use."""
        return tape.state.get(key) or tape.state.setdefault(key, Marker())

    def advance_to(self, stages: int, permission: PermissionFn) -> "Marker":
        """Run the stages below `stages` that have not run yet."""
        if stages < 0:
            raise ValueError("stages must be a natural")
        self._run(stages, permission, stages)
        return self

    def first_update(self, start: int, stop: int, permission: PermissionFn) -> Optional[int]:
        """The first stage t with start <= t < stop that updates the marker,
        running the stages below `stop` only up to it; None when none does."""
        rows = self.rows
        for t in range(start, min(stop, len(rows))):
            if rows[t][3] is not None:
                return t
        return self._run(stop, permission, start)

    def _run(self, stages: int, permission: PermissionFn, watch: int) -> Optional[int]:
        """The stage loop: run the stages below `stages` that have not run
        yet, stopping after the first one from `watch` on that updates the
        marker and returning it."""
        rows, k, d = self.rows, self.k, self.d
        for s in range(len(rows), stages):
            perm = permission(k, d, s)
            if perm is None:
                rows.append((k, d, s + 1, None))
            else:
                rows.append((k, d, k, perm))
                self.k, self.d = k, d = s + 1, d + 1
                if s >= watch:
                    return s
        return None

    def state_at(self, s: int, permission: PermissionFn) -> tuple[int, int]:
        """(k_s, d_s), the values before stage s acts; runs no stage from s on."""
        rows = self.advance_to(s, permission).rows
        return rows[s][:2] if s < len(rows) else (self.k, self.d)

    def undo(self) -> None:
        """Drop the stages past `kept`; rows hold k and d, so they come back."""
        if len(self.rows) > self.kept:
            self.k, self.d = self.rows[self.kept][:2]
            del self.rows[self.kept:]

    def trace(self) -> MarkerTrace:
        return MarkerTrace(tuple(MarkerStep(s, *row) for s, row in enumerate(self.rows)),
                           self.k, self.d)


def k_keyed(w: StagedEnumeration, read: Callable[[int], int]) -> PermissionFn:
    """Variant 1 over an input x⊕z that `read` reads: halting when k_s is
    enumerated by stage s, else z(⟨k_s,s⟩), input bit 2⟨k_s,s⟩+1.  The stage
    is checked against the horizon, as `member_at_stage` checks it, then k
    looked up in W's entry table; ⟨k,s⟩ is computed inline."""
    entry_stage, horizon = w._by_element.get, w.horizon

    def permission(k: int, d: int, s: int) -> Optional[str]:
        if not 0 <= s <= horizon:
            _check_stage(s, horizon)
        entry = entry_stage(k)
        if entry is not None and entry <= s:
            return "halting"
        t = k + s
        if read(t * (t + 1) + 2 * s + 1) == 1:  # 2⟨k,s⟩+1
            return "z"
        return None

    return permission


def d_keyed(w: StagedEnumeration, u: StagedStringEnumeration,
            read: Callable[[int], int]) -> PermissionFn:
    """Variant 2 over an input x⊕z that `read` reads: halting when d_s is
    enumerated by stage s (`member_at_stage`), else column d_s of z hitting
    U_s, its bit i read at input position 2⟨d_s,i⟩+1, computed inline."""

    def permission(k: int, d: int, s: int) -> Optional[str]:
        if w.member_at_stage(d, s):
            return "halting"
        if column_hit(u, lambda i: read((d + i) * (d + i + 1) + 2 * i + 1), s):
            return "z"
        return None

    return permission


def _as_odd_half(z: BitSource) -> Callable[[int], int]:
    """A reader of an input whose odd half is z, for a rule run on z alone:
    input bit 2i+1 is z(i)."""
    bit = z.bit
    return lambda i: bit(i >> 1)


def marker_run_v1(w: StagedEnumeration, z: BitSource, stages: int) -> MarkerTrace:
    """Marker recursion with permissions keyed on k_s."""
    if stages > w.horizon:
        raise HorizonError(f"marker run of {stages} stages beyond horizon {w.horizon}")
    return Marker().advance_to(stages, k_keyed(w, _as_odd_half(z))).trace()


def marker_run_v2(w: StagedEnumeration, u: StagedStringEnumeration,
                  z: BitSource, stages: int) -> MarkerTrace:
    """Marker recursion with permissions keyed on the update counter d_s."""
    if stages > w.horizon or stages > u.horizon:
        raise HorizonError(
            f"marker run of {stages} stages beyond horizons ({w.horizon}, {u.horizon})")
    return Marker().advance_to(stages, d_keyed(w, u, _as_odd_half(z))).trace()


@dataclass(frozen=True)
class Injection:
    """A position map claimed injective, with its inverse, which returns
    None for values outside the range; `check_injective` tests the claim
    over a stated range; `gather` is its bit selection's map as data.  A
    tape read refuses a negative value of `fn`."""

    name: str
    fn: Callable[[int], int]
    inverse: Callable[[int], Optional[int]]
    gather: Optional[Gather] = field(default=None, compare=False)

    def check_injective(self, limit: int) -> None:
        """Raise InjectivityError if two arguments below `limit` share a value."""
        seen: dict[int, int] = {}
        for n in range(limit):
            v = self.fn(n)
            prior = seen.setdefault(v, n)
            if prior != n:
                raise InjectivityError(f"{self.name} maps {prior} and {n} both to {v}")


def identity_injection() -> Injection:
    return Injection("identity", lambda n: n, lambda m: m, Gather((0, 1, 0, 1)))


def double_injection() -> Injection:
    return Injection("double", lambda n: 2 * n,
                     lambda m: m // 2 if m % 2 == 0 else None, Gather((0, 1, 0, 2)))


def shift_injection() -> Injection:
    return Injection("shift", lambda n: n + 1,
                     lambda m: m - 1 if m >= 1 else None, Gather((0, 1, 1, 1)))


def surjection_injection(w: StagedEnumeration) -> Injection:
    """p(⟨n,s⟩) = 2n when n enters w at s, else 2⟨n,s⟩+1.

    Injective because each element enters at most once: entries land on
    distinct even values, everything else on distinct odd values.  Both
    directions ask `w.entrant`, a table lookup below pair(0, horizon+1), so
    neither unpairs an index whose stage is known to lie within the horizon;
    the forward map, called once per output bit, looks in that table itself.
    """
    entries, table_below, entrant = w._entries, w._unpair_from, w.entrant

    def fn(m: int) -> int:
        n = entries.get(m) if 0 <= m < table_below else entrant(m)
        return 2 * m + 1 if n is None else 2 * n

    def inverse(v: int) -> Optional[int]:
        if v % 2 == 0:
            s = w.entry_stage(v // 2)
            return None if s is None else pair(v // 2, s)
        m = v // 2
        return m if w.entrant(m) is None else None

    # the run 2m+1, but an entry ⟨n,s⟩ reads 2n: valid where `entrant` needs only the table
    return Injection(f"surj-p({w.label})", fn, inverse, Gather(
        (0, 1, 1, 2), {m: 2 * n for m, n in entries.items()}, w._unpair_from))


def bit_select(p: Injection, name: Optional[str] = None) -> RealFunction:
    """Output bit n = input bit p(n)."""
    return selection(name or f"bitselect({p.name})", p.fn, p.gather)


def witness_function(p: Injection) -> RealFunction:
    """The canonical preimage under bitSelect(p) as a function on reals:
    output bit m is input bit n where p(n) = m, and 0 off the range of p."""
    g = p.gather  # a plain run out[o::os] ← in[i::is] inverts to out[i::is] ← in[o::os]
    return selection(f"witness({p.name})", p.inverse,
                     Gather(g.run[2:] + g.run[:2]) if g and g == Gather(g.run) else None)


def simple_one_way(w: StagedEnumeration) -> RealFunction:
    """Output bit ⟨n,s⟩ = input bit n when n enters w at stage s, else 0."""
    return selection(f"simple({w.label})", w.entrant, Gather(None, w._entries, w._unpair_from))


def one_way_surjection(w: StagedEnumeration) -> RealFunction:
    return bit_select(surjection_injection(w), name=f"surj({w.label})")


def partial_injection(w: StagedEnumeration, d: DecidedSet) -> RealFunction:
    """The join of the simple map with the divergence guard q.

    Output bit 2j is the simple map's bit j; output bit 2j+1 is 0 when every
    set input bit at positions ≤ j lies in the decided set, and diverges
    otherwise.  On its domain (reals whose 1-bits are all decided) the map
    is injective once the enumeration has listed every decided member.

    The guard keeps on the evaluation's tape how many leading positions
    passed, and bit 2j+1 checks only the positions from there to j, so n
    output bits make O(n) reads and an odd bit's step budget pays only for
    positions no earlier bit on that tape checked.  The count moves only
    after a whole scan passes, so a bit that stops mid-scan (divergence,
    barrier, horizon, a search's handover) leaves it as it was.
    """
    for n in sorted(w.limit_members()):
        if n > d.horizon or not d.contains(n):
            raise ValueError(
                f"enumeration lists {n} but the decided set does not contain it")
    # the simple map's selection, not its factory: a traced run attributes
    # emits to families by factory
    even = selection(f"simple({w.label})", w.entrant).emit
    key = object()

    def emit(tape: OracleTape, m: int) -> int:
        j, odd = divmod(m, 2)
        if not odd:
            return even(tape, j)
        checked = tape.state.get(key, 0)
        if j < checked:
            return 0
        for i in range(checked, j + 1):
            if tape.read(i) == 1 and not d.contains(i):
                raise DivergenceError(m, f"input bit {i} is set but undecided")
        tape.state[key] = j + 1
        return 0

    return RealFunction(f"inj({w.label},{d.label})", emit)


def _marker_map(name: str, rule: Callable[[OracleTape], PermissionFn],
                index: Callable[[Marker, PermissionFn, int], Optional[int]]) -> RealFunction:
    """f(x⊕z) = h(x)⊕z with odd output bits copying z through and even bit
    2s the input bit 2·index(marker, rule(tape), s), or 0 where the index is
    None; `index` runs the map's marker on the tape as far as bit 2s needs.
    A bit that succeeds keeps the stages it ran; one that fails with an
    `errors._NO_VALUE` failure drops them, as `try_emit` makes the tape
    forget its reads; any other exception, such as a search handing over
    its split, leaves them open for a rerun."""
    key = object()

    def emit(tape: OracleTape, m: int) -> int:
        if m % 2 == 1:
            return tape.read(m)
        marker = Marker.on(tape, key)
        try:
            i = index(marker, rule(tape), m // 2)
            b = 0 if i is None else tape.read(2 * i)
        except _NO_VALUE:
            marker.undo()
            raise
        marker.kept = len(marker.rows)
        return b

    return RealFunction(name, emit)


def _selected_position(cap: int) -> Callable[[Marker, PermissionFn, int], int]:
    """A two-to-one map's index: p_s, which needs marker stage s+1 within `cap`."""

    def index(marker: Marker, permission: PermissionFn, s: int) -> int:
        if s + 1 > cap:
            raise HorizonError(
                f"output bit {2 * s} needs marker stage {s + 1} beyond horizon {cap}")
        return marker.advance_to(s + 1, permission).rows[s][2]

    return index


def two_to_one_v1(w: StagedEnumeration) -> RealFunction:
    """The marker map with permissions keyed on the marker k_s; they read z
    at input positions 2⟨k,t⟩+1."""
    return _marker_map(f"two1({w.label})", lambda tape: k_keyed(w, tape.read),
                       _selected_position(w.horizon))


def two_to_one_v2(w: StagedEnumeration, u: StagedStringEnumeration) -> RealFunction:
    """The marker map with permissions keyed on the update counter: halting
    on d_t entering w, z-permission when column d_t of z extends a word of
    U_t."""
    return _marker_map(f"two2({w.label},{u.label})", lambda tape: d_keyed(w, u, tape.read),
                       _selected_position(min(w.horizon, u.horizon)))


def z_builder_v1(n: int, zeta: Word = "") -> BitSource:
    """The adversarial z: zeta verbatim, then bit ⟨i,s⟩ = 0 iff i = n.

    Against the k-keyed marker this grants permission at every stage where
    the marker sits below or above n, and never once it reaches n, so k
    gets stuck on n unless the enumeration itself releases it.
    """
    if n < 0:
        raise ValueError("column index must be a natural")
    check_word(zeta)
    prefix, k = tuple(map(int, zeta)), len(zeta)

    def bit(m: int) -> int:
        if m < k:
            return prefix[m]
        i, _ = unpair(m)
        return 0 if i == n else 1

    return BitSource(f"zbuild:{n}:{zeta or 'e'}", bit)


def z_builder_v2(u: StagedStringEnumeration, n: int) -> BitSource:
    """The d-keyed adversarial z: each column is U's first word then zeros,
    but column n is v0^ω for the first v, depth first, that no word of U is a
    prefix of: z-permissions move the counter past each column but n."""
    if n < 0:
        raise ValueError("column index must be a natural")
    words = [word for _, word in u.pairs()] or [""]  # no word: every column is 0^ω
    free = [""]
    while free and any(word.startswith(free[-1]) for word in words):
        v = free.pop()
        free += [v + b for b in "10" if v + b not in words]
    if not free:
        raise ValueError(f"every column extends a word of {u.label}")
    hit = finite(words[0]).bit
    return column_source({n: finite(free[-1])},
                         BitSource(f"zbuild2:{words[0]}", lambda m: hit(unpair(m)[1])))


def stage_where_counter_reaches(w: StagedEnumeration, u: StagedStringEnumeration,
                                z: BitSource, n: int) -> int:
    """Least s with d_s = n in the d-keyed marker run, which stops there
    after n `Marker.first_update` passes: each update moves d by one.

    Errors out when some counter value below n never receives permission
    within the joint horizon; the caller supplies enumerations rich enough
    to drive the counter that far.  With no word in U only W enumerating d
    moves the counter, so a d that W never enumerates ends the run at once.
    """
    if n < 0:
        raise ValueError("counter target must be a natural")
    cap = min(w.horizon, u.horizon)
    marker, permission = Marker(), d_keyed(w, u, _as_odd_half(z))
    wordless = not u.pairs()
    while marker.d < n:
        if wordless and w.entry_stage(marker.d) is None:
            break  # the counter stays at d through the horizon
        if marker.first_update(len(marker.rows), cap, permission) is None:
            break
    if marker.d < n:
        raise HorizonError(f"counter reached {marker.d}, not {n}, within horizon {cap}")
    return len(marker.rows)
