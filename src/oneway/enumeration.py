"""Staged enumerations: finite stand-ins for c.e. sets.

A StagedEnumeration presents a set as stage → element with at most one new
element per stage and no repetitions, up to a hard horizon; queries past
the horizon are errors, never silent truncations.  StagedStringEnumeration
does the same for prefix-free word sets.  DecidedSet is a total membership
predicate, a separate capability kept distinct from enumerations because
one construction needs absolute membership answers, not stage-bounded ones.

The three file loaders read through `bitcore.data_records`; each keeps only
its field parsers and prefixes its constructor's errors with the path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Optional

from .bitcore import Word, check_natural, check_word, comparable, data_records, pair, unpair
from .errors import HorizonError, SpecParseError


def _check_stage(s: int, horizon: int) -> None:
    if s < 0:
        raise ValueError(f"stage must be a natural, got {s}")
    if s > horizon:
        raise HorizonError(f"stage {s} beyond horizon {horizon}")


class StagedEnumeration:
    """A finite schedule stage → element, injective both ways."""

    def __init__(self, schedule: Mapping[int, int], horizon: int, label: str = "enum"):
        check_natural(horizon, "horizon")
        by_stage: dict[int, int] = {}
        by_element: dict[int, int] = {}
        for s, n in sorted(schedule.items()):
            if s < 0 or n < 0:
                raise SpecParseError(f"stage and element must be naturals, got ({s}, {n})")
            if s > horizon:
                raise SpecParseError(f"stage {s} beyond horizon {horizon} in schedule")
            if n in by_element:
                raise SpecParseError(f"element {n} repeated (stages {by_element[n]} and {s})")
            by_stage[s] = n
            by_element[n] = s
        self._by_stage = by_stage
        self._by_element = by_element
        # ⟨n,s⟩ ↦ n for every entry; below pair(0, horizon+1) every m has a
        # stage within the horizon, so `entrant` needs no unpair there
        self._entries = {pair(n, s): n for s, n in by_stage.items()}
        self._unpair_from = pair(0, horizon + 1)
        self.horizon = horizon
        self.label = label

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]],
                   horizon: Optional[int] = None,
                   label: str = "enum") -> "StagedEnumeration":
        schedule: dict[int, int] = {}
        for s, n in pairs:
            if s in schedule:
                raise SpecParseError(f"stage {s} repeated (pair ({s}, {n}))")
            schedule[s] = n
        if horizon is None:
            horizon = max(schedule, default=0)
        return cls(schedule, horizon, label)

    def new_element_at(self, s: int) -> Optional[int]:
        """The unique element entering at stage s, if any."""
        _check_stage(s, self.horizon)
        return self._by_stage.get(s)

    def entrant(self, m: int) -> Optional[int]:
        """n when m = ⟨n,s⟩ and n enters at stage s, else None.

        A table lookup for 0 ≤ m < pair(0, horizon+1): s > h forces
        m ≥ T(h+1) + h+1 = pair(0, h+1), so every such m has its stage within
        the horizon.  Any other m is unpaired and its stage checked, so a
        stage past the horizon is a HorizonError.
        """
        if 0 <= m < self._unpair_from:
            return self._entries.get(m)
        n, s = unpair(m)
        return n if self.new_element_at(s) == n else None

    def member_at_stage(self, n: int, s: int) -> bool:
        """n ∈ W_s, the accumulated set at stage s."""
        if not 0 <= s <= self.horizon:
            _check_stage(s, self.horizon)
        entry = self._by_element.get(n)
        return entry is not None and entry <= s

    def entry_stage(self, n: int) -> Optional[int]:
        return self._by_element.get(n)

    def limit_members(self) -> frozenset[int]:
        return frozenset(self._by_element)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._by_stage.items()))

    def __repr__(self) -> str:
        return f"StagedEnumeration({self.label}, {len(self._by_element)} elements, horizon={self.horizon})"


def _collatz_lengths(starts: Iterable[int]) -> dict[int, int]:
    """Collatz steps down to 1 from every start and every number its
    trajectory passes; a tail shared with an earlier trajectory is walked once."""
    lengths = {1: 0}
    for n in starts:
        if n < 1:
            raise ValueError("collatz trajectories start at positive integers")
        path = []
        while n not in lengths:
            path.append(n)
            n = n // 2 if n % 2 == 0 else 3 * n + 1
        steps = lengths[n]
        for k in reversed(path):
            steps += 1
            lengths[k] = steps
    return lengths


MAX_COLLATZ_ELEMENT = 1 << 16  # largest collatz_toy; it builds in 0.1 s on a 2-vCPU Xeon


def collatz_toy(max_element: int, max_stage: int) -> StagedEnumeration:
    """A deterministic, irregular-looking toy halting set.

    Element n < max_element enters at its Collatz trajectory length, with
    ties pushed to the next free stage, smaller n first.  Elements forced
    past max_stage are omitted: they model non-halting at desk scale.

    Each trajectory length is computed once, sharing tails between
    trajectories, and one table serves both the ranking and the stages.
    max_element is at most MAX_COLLATZ_ELEMENT, checked before any work;
    max_stage sizes no allocation.
    """
    check_natural(max_element, "max element", MAX_COLLATZ_ELEMENT)
    lengths = _collatz_lengths(range(1, max_element))
    # a stable sort of ascending n: ties keep the smaller n first
    ranked = sorted(range(1, max_element), key=lengths.__getitem__)
    schedule: dict[int, int] = {}
    prev = -1
    for n in ranked:
        stage = max(lengths[n], prev + 1)
        if stage > max_stage:
            break
        schedule[stage] = n
        prev = stage
    return StagedEnumeration(schedule, max_stage, f"collatz:{max_element}:{max_stage}")


class StagedStringEnumeration:
    """Stage → word schedule whose accumulated set stays prefix-free.

    Empty words are rejected outright: an empty word would be a prefix of
    everything, making every membership test trivially true.
    """

    def __init__(self, schedule: Mapping[int, Word], horizon: int, label: str = "strenum"):
        check_natural(horizon, "horizon")
        ordered: list[tuple[int, Word]] = []
        for s, word in sorted(schedule.items()):
            check_word(word)
            if s < 0:
                raise SpecParseError(f"stage must be a natural, got {s}")
            if s > horizon:
                raise SpecParseError(f"stage {s} beyond horizon {horizon} in schedule")
            if word == "":
                raise SpecParseError(f"empty word at stage {s} not permitted")
            for t, earlier in ordered:
                if comparable(word, earlier):
                    raise SpecParseError(
                        f"word {word!r} at stage {s} comparable with {earlier!r} at stage {t}")
            ordered.append((s, word))
        self._ordered = tuple(ordered)
        # U_s is a leading slice of the words; column_hit compares their bits
        self._stages = [s for s, _ in ordered]
        self._words = tuple(word for _, word in ordered)
        self._bits = {word: tuple(map(int, word)) for word in self._words}
        self.horizon = horizon
        self.label = label

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Word]],
                   horizon: Optional[int] = None,
                   label: str = "strenum") -> "StagedStringEnumeration":
        schedule: dict[int, Word] = {}
        for s, word in pairs:
            if s in schedule:
                raise SpecParseError(f"stage {s} repeated (word {word!r})")
            schedule[s] = word
        if horizon is None:
            horizon = max(schedule, default=0)
        return cls(schedule, horizon, label)

    def words_at(self, s: int) -> tuple[Word, ...]:
        """Accumulated prefix-free set U_s, in stage order: the schedule is
        in stage order, so U_s is its leading words, found by bisection."""
        if not 0 <= s <= self.horizon:
            _check_stage(s, self.horizon)
        return self._words[:bisect_right(self._stages, s)]

    def pairs(self) -> tuple[tuple[int, Word], ...]:
        return self._ordered

    def __repr__(self) -> str:
        return f"StagedStringEnumeration({self.label}, {len(self._ordered)} words, horizon={self.horizon})"


def column_hit(u: StagedStringEnumeration, col: Callable[[int], int], s: int) -> bool:
    """Whether some word of U_s is a prefix of the column, a bit function.

    Reads exactly the column bits needed for the comparisons, in schedule
    order, so tape-backed columns see a deterministic read sequence: the
    reads comparing `words_at(s)` character by character would make.  Each
    word's bits are converted to ints once, when U is built, so a stage
    neither filters U nor converts a character.
    """
    bits = u._bits
    for word in u.words_at(s):
        for i, b in enumerate(bits[word]):
            if col(i) != b:
                break
        else:
            return True
    return False


class DecidedSet:
    """Total membership predicate on naturals up to a horizon."""

    def __init__(self, members: Iterable[int], horizon: int, label: str = "decided"):
        check_natural(horizon, "horizon")
        self._members = frozenset(members)
        for n in self._members:
            if n < 0:
                raise SpecParseError(f"member must be a natural, got {n}")
            if n > horizon:
                raise SpecParseError(f"member {n} beyond horizon {horizon}")
        self.horizon = horizon
        self.label = label

    @classmethod
    def from_enumeration(cls, w: StagedEnumeration) -> "DecidedSet":
        members = w.limit_members()
        horizon = max(max(members, default=0), w.horizon)
        return cls(members, horizon, f"decided({w.label})")

    def contains(self, n: int) -> bool:
        if n < 0:
            raise ValueError(f"membership query must be a natural, got {n}")
        if n > self.horizon:
            raise HorizonError(f"membership of {n} undecided beyond horizon {self.horizon}")
        return n in self._members

    def __repr__(self) -> str:
        return f"DecidedSet({self.label}, {len(self._members)} members, horizon={self.horizon})"


def _integer(text: str) -> int:
    """An integer field of an enumeration or decided-set file."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("expected integers") from None


def enumeration_from_file(path: str) -> StagedEnumeration:
    """Lines `s n` (stage, element); optional `horizon N`; '#' comments.

    Without a horizon directive the horizon is the largest listed stage.
    """
    horizon, records = data_records(path, "", "`s n`", (_integer, _integer))
    try:
        return StagedEnumeration.from_pairs((entry for _, entry in records), horizon, label=path)
    except SpecParseError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc


def string_enum_from_file(path: str) -> StagedStringEnumeration:
    """Lines `s WORD`; optional `horizon N`; '#' comments."""
    horizon, records = data_records(path, "", "`s WORD`", (_integer, check_word))
    try:
        return StagedStringEnumeration.from_pairs((entry for _, entry in records), horizon,
                                                  label=path)
    except SpecParseError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc


def decided_set_from_file(path: str) -> DecidedSet:
    """Lines `n` (one member per line); optional `horizon N`; '#' comments."""
    horizon, records = data_records(path, "", "a single natural", (_integer,))
    members = [n for _, (n,) in records]
    if horizon is None:
        horizon = max(members, default=0)
    try:
        return DecidedSet(members, horizon, label=path)
    except SpecParseError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
