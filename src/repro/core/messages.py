"""Interval messages exchanged between interval-vertices (paper Sec. VI).

A message is a payload tagged with the time-interval for which it is valid.
Payloads are opaque to the engine; algorithms choose plain ints, tuples or
small dataclasses.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from .interval import Interval

#: A message on the engine's internal path, from the moment ``scatter``
#: returns to the moment ``compute`` is handed its group: a plain
#: ``(start, end, value)`` tuple.  The combiner passes, the send sink, the
#: inboxes, the routed-batch codec and the warp sweep all carry rows;
#: :class:`IntervalMessage` exists at the program boundary only.
Row = tuple[int, int, Any]

#: Sort key of rows: interval order ``(start, end)``, compared in C.
row_interval = itemgetter(0, 1)


class IntervalMessage:
    """An immutable ``(interval, value)`` pair addressed to a vertex."""

    __slots__ = ("interval", "value")

    def __init__(self, interval: Interval, value: Any):
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("IntervalMessage is immutable")

    def __reduce__(self):
        # Same pickling story as Interval: the immutability guard blocks
        # default slot restoration, so rebuild through the constructor.
        return (IntervalMessage, (self.interval, self.value))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntervalMessage)
            and self.interval == other.interval
            and self.value == other.value
        )

    def __hash__(self) -> int:
        try:
            return hash((self.interval, self.value))
        except TypeError:  # unhashable payload
            return hash(self.interval)

    def __repr__(self) -> str:
        return f"Msg({self.interval}, {self.value!r})"


def message(start: int, end: int, value: Any) -> IntervalMessage:
    """Convenience constructor used heavily by algorithms and tests."""
    return IntervalMessage(Interval(start, end), value)


def unit_message_fraction(messages: list[IntervalMessage]) -> float:
    """Fraction of messages whose interval covers exactly one time-point.

    Drives warp suppression (paper Sec. VI): when most inbound messages are
    unit-length there is nothing to share and warp's overhead is skipped.
    """
    if not messages:
        return 0.0
    units = sum(1 for m in messages if m.interval.is_unit)
    return units / len(messages)
