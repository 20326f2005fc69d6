"""Exception taxonomy.

Two public families:

* ``SpecParseError`` covers everything wrong with user-supplied text before
  any computation starts: malformed spec strings, bad file syntax, schedules
  that violate the one-new-element-per-stage discipline on ingestion.
* ``DeskError`` covers failures of a well-formed computation: a transducer
  that diverges on a bit, a stage query past an enumeration's horizon, an
  inverter that turns out not to invert.

The CLI maps SpecParseError to exit code 1 and DeskError (plus ValueError
from argument misuse) to exit code 2.

The private exceptions leave ``streams`` only through ``OracleTape.read``;
``OracleTape.emit`` and ``try_emit`` turn them into outcomes.
"""

from __future__ import annotations


class SpecParseError(Exception):
    """A spec string or input file could not be parsed or validated."""


class DeskError(Exception):
    """Base class for runtime failures of a well-formed computation."""


class DivergenceError(DeskError):
    """A transducer failed to produce a requested output bit.

    Carries the bit index so callers can report exactly where the
    computation stopped being total.
    """

    def __init__(self, bit_index: int, reason: str = ""):
        self.bit_index = bit_index
        self.reason = reason
        msg = f"no output bit at index {bit_index}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class HorizonError(DeskError):
    """A query needed enumeration stages beyond the finite horizon."""


class MeasureThresholdError(DeskError):
    """A dovetailed search never accumulated more than half the cylinder."""


class NotSingletonError(DeskError):
    """Path-based inversion found no consensus prefix at some depth."""


class NotInRangeError(DeskError):
    """Path-based inversion pruned every candidate: target not in range."""


class InjectivityError(DeskError):
    """Two distinct arguments of a claimed injection produced one value."""


class UseSoundnessError(DeskError):
    """An output changed after mutating input bits beyond the reported use."""


class ConsistencyError(DeskError):
    """Two partial assignments disagree on a shared position."""


class PrefixFreeError(DeskError):
    """A word set that must be prefix-free contains a comparable pair."""


class _ReadBeyondBarrier(Exception):
    """Internal: an oracle read at position args[0] crossed the read barrier."""

    position = property(lambda self: self.args[0])

    def __str__(self) -> str:
        return f"read at position {self.args[0]} crossed the barrier"


class _BudgetExhausted(Exception):
    """Internal: per-bit oracle read budget ran out (treated as divergence)."""


# the failures that leave an output bit without a value; try_emit and _marker_map catch them
_NO_VALUE = (_ReadBeyondBarrier, _BudgetExhausted, DivergenceError, HorizonError)
