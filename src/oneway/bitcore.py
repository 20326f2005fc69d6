"""Finite combinatorics of Cantor space.

Bit words, the pairing bijection, partial assignments, prefix-free word
sets, and exact rational cylinder measures.  Everything here is immutable
and pure; measures are `fractions.Fraction` throughout, never floats,
because downstream threshold comparisons (strictly more than half a
cylinder) must be exact.

`data_records` is the one reader of the line-based data files: every loader
gets its parsed fields and its optional `horizon N` line from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import ConsistencyError, PrefixFreeError, SpecParseError

Word = str


def check_word(word: str) -> str:
    """Validate that every symbol of `word` is '0' or '1' and return it."""
    if not isinstance(word, str):
        raise ValueError(f"expected a bit word, got {type(word).__name__}")
    for ch in word:
        if ch not in "01":
            raise ValueError(f"bad symbol {ch!r} in bit word {word!r}")
    return word


def check_natural(value: int, what: str, at_most: Optional[int] = None) -> int:
    """Refuse a negative `value`, or one past `at_most`, naming it as `what`; return it."""
    if value < 0 or at_most is not None and value > at_most:
        bound = "" if at_most is None else f" at most {at_most}"
        raise ValueError(f"{what} must be a natural{bound}, got {value}")
    return value


def pair(n: int, s: int) -> int:
    """Cantor pairing ⟨n,s⟩ = (n+s)(n+s+1)/2 + s.

    Bijective on ℕ×ℕ and satisfies pair(n,s) ≥ s, the property every
    stage-bound argument downstream leans on.
    """
    if n < 0 or s < 0:
        raise ValueError("pair is defined on naturals only")
    t = n + s
    return t * (t + 1) // 2 + s


def unpair(m: int) -> tuple[int, int]:
    """Inverse of pair: unpair(pair(n,s)) = (n,s)."""
    if m < 0:
        raise ValueError("unpair is defined on naturals only")
    # largest t with t(t+1)/2 <= m, via integer sqrt of 8m+1
    t = (math.isqrt(8 * m + 1) - 1) // 2
    s = m - t * (t + 1) // 2
    return t - s, s


def comparable(a: Word, b: Word) -> bool:
    """Whether one word is a prefix of the other (cylinders intersect)."""
    if len(a) <= len(b):
        return b.startswith(a)
    return a.startswith(b)


@dataclass(frozen=True)
class PartialAssignment:
    """A finite map position → bit, i.e. a finite intersection of subcylinders.

    Stored as a tuple of (position, bit) pairs sorted by position.  The class
    of reals satisfying the constraints has measure exactly 2^(−|domain|).
    """

    constraints: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        seen = set()
        for pos, bit in self.constraints:
            if pos < 0:
                raise ValueError(f"negative position {pos} in assignment")
            if bit not in ("0", "1"):
                raise ValueError(f"bad bit {bit!r} at position {pos}")
            if pos in seen:
                raise ValueError(f"position {pos} constrained twice")
            seen.add(pos)
        ordered = tuple(sorted(self.constraints))
        if ordered != self.constraints:
            object.__setattr__(self, "constraints", ordered)

    @classmethod
    def of_word(cls, word: Word) -> "PartialAssignment":
        check_word(word)
        return cls(tuple(enumerate(word)))

    def measure(self) -> Fraction:
        return Fraction(1, 2 ** len(self.constraints))

    def consistent_with(self, other: "PartialAssignment") -> bool:
        theirs = dict(other.constraints)
        return all(theirs.get(p, b) == b for p, b in self.constraints)

    def union(self, other: "PartialAssignment") -> "PartialAssignment":
        merged = dict(self.constraints)
        for p, b in other.constraints:
            if merged.setdefault(p, b) != b:
                raise ConsistencyError(f"assignments disagree at position {p}")
        return PartialAssignment(tuple(merged.items()))

    def filled_word(self, length: int) -> Word:
        """The length-`length` word matching the constraints, zeros elsewhere."""
        bits = ["0"] * length
        for p, b in self.constraints:
            if p >= length:
                raise ValueError(f"constraint at {p} does not fit in length {length}")
            bits[p] = b
        return "".join(bits)

    def words(self, length: int) -> Iterator[Word]:
        """The length-`length` words matching the constraints, in lex order."""
        fixed = dict(self.constraints)
        return ("".join(bits) for bits in
                itertools.product(*(fixed.get(p, "01") for p in range(length))))


class PrefixFreeSet:
    """A finite set of pairwise prefix-incomparable words.

    Construction canonicalizes to (length, lexicographic) order and rejects
    any comparable pair, since overlapping cylinders would break the additive
    measure computations.
    """

    def __init__(self, words: Iterable[Word]):
        members = sorted(set(check_word(w) for w in words), key=lambda w: (len(w), w))
        lex = sorted(members)
        for a, b in zip(lex, lex[1:]):
            if b.startswith(a):
                raise PrefixFreeError(f"{a!r} is a prefix of {b!r}")
        self._members: tuple[Word, ...] = tuple(members)

    def __iter__(self) -> Iterator[Word]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, word: Word) -> bool:
        return word in self._members

    def __eq__(self, other) -> bool:
        return isinstance(other, PrefixFreeSet) and self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        return f"PrefixFreeSet({list(self._members)!r})"

    def measure(self) -> Fraction:
        """Exact Σ 2^(−|τ|) over members (cylinders are disjoint)."""
        return sum((Fraction(1, 2 ** len(w)) for w in self._members), Fraction(0))

    def intersect_measure(self, sigma: Word) -> Fraction:
        """Exact μ(⟦members⟧ ∩ ⟦sigma⟧).

        Two cylinders intersect iff the words are comparable, and then the
        intersection is the cylinder of the longer word.
        """
        check_word(sigma)
        total = Fraction(0)
        for w in self._members:
            if comparable(w, sigma):
                total += Fraction(1, 2 ** max(len(w), len(sigma)))
        return total


def data_records(path: str, what: str, usage: str, fields: tuple[Callable[[str], Any], ...]
                 ) -> tuple[Optional[int], list[tuple[int, tuple]]]:
    """The `horizon N` value of a data file (None without one), and its other
    data lines as (line number, fields parsed by `fields`).  '#' starts a
    comment; blank lines are dropped.  A failure to read raises
    SpecParseError("cannot read <what><path>: ..."); the first bad line in
    file order raises SpecParseError("<path>:<line>: expected <usage>") for a
    wrong field count, "<path>:<line>: <message>" for a parser's ValueError,
    or a bad horizon directive or value."""
    try:
        with open(path) as fh:
            lines = list(enumerate(fh, 1))
    except OSError as exc:
        raise SpecParseError(f"cannot read {what}{path}: {exc}") from exc
    horizon, records = None, []
    for lineno, raw in lines:
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] != "horizon":
            if len(parts) != len(fields):
                raise SpecParseError(f"{path}:{lineno}: expected {usage}")
            try:
                records.append((lineno, tuple(parse(part) for parse, part in zip(fields, parts))))
            except ValueError as exc:
                raise SpecParseError(f"{path}:{lineno}: {exc}") from exc
        elif len(parts) != 2 or horizon is not None:
            raise SpecParseError(f"{path}:{lineno}: bad horizon directive")
        else:
            try:
                horizon = int(parts[1])
            except ValueError as exc:
                raise SpecParseError(f"{path}:{lineno}: bad horizon value") from exc
    return horizon, records


def prefix_set_from_file(path: str) -> PrefixFreeSet:
    """Load one word per line; '#' starts a comment, blank lines ignored.
    A prefix set takes no `horizon N` line."""
    horizon, records = data_records(path, "prefix set ", "`WORD`", (check_word,))
    if horizon is not None:
        raise SpecParseError(f"{path}: a prefix set takes no horizon")
    try:
        return PrefixFreeSet(word for _, (word,) in records)
    except PrefixFreeError as exc:
        raise SpecParseError(f"{path}: not prefix-free: {exc}") from exc
