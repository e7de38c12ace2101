"""Message combiners (paper Sec. VI, "Inline Warp Combiner").

A combiner is an associative, commutative binary fold over message payloads.
GRAPHITE applies it in two places:

* **receiver-side**, merging messages with *identical* intervals before warp
  runs, shrinking warp's input; and
* **inline in warp** ("warp combiner"), folding each warped message group to
  a single value in the same pass that forms the group, so ``compute`` never
  scans a message list.

All the paper's algorithms except LCC and TC are commutative/associative and
define combiners; the engine enables both applications whenever the program
provides one.
"""

from __future__ import annotations

from typing import Any, Callable

from .interval import Interval
from .messages import IntervalMessage


class MessageCombiner:
    """Wraps an associative, commutative fold over message payloads.

    ``selective`` marks folds that *choose* one operand (min, max, or):
    for those, a message whose interval is contained in another's and loses
    the fold contributes nothing to any warp group, and may be eliminated
    before transmission or warping (the paper's receiver-side combiner,
    extended with the interval-containment condition).  Aggregating folds
    like ``sum`` must keep every message and set ``selective=False``.
    """

    def __init__(self, fn: Callable[[Any, Any], Any], name: str = "combiner",
                 *, selective: bool = False):
        self._fn = fn
        self.name = name
        self.selective = selective

    def __call__(self, a: Any, b: Any) -> Any:
        return self._fn(a, b)

    def combine_dominated(
        self, messages: list[IntervalMessage]
    ) -> list[IntervalMessage]:
        """Drop messages dominated by another (selective combiners only).

        ``b`` is dominated by ``a`` when ``a.interval ⊇ b.interval`` and the
        fold of the two values is ``a``'s: every warp group containing ``b``
        then also contains ``a``, and the folded value is unchanged, so the
        compute outcomes are identical with ``b`` removed.
        """
        if not self.selective or len(messages) < 2:
            return messages
        keep: list[IntervalMessage] = []
        for i, msg in enumerate(messages):
            dominated = False
            for j, other in enumerate(messages):
                if i == j:
                    continue
                if not other.interval.contains(msg.interval):
                    continue
                folded = self._fn(other.value, msg.value)
                if folded != other.value:
                    continue
                # Ties on both interval and value: keep only the first.
                if (
                    other.interval == msg.interval
                    and other.value == msg.value
                    and j > i
                ):
                    continue
                dominated = True
                break
            if not dominated:
                keep.append(msg)
        return keep

    def combine_identical_intervals(
        self, messages: list[IntervalMessage]
    ) -> list[IntervalMessage]:
        """Receiver-side pass: fold messages sharing the exact same interval.

        This is safe for any payloads because it never changes the temporal
        extent of a message, only collapses duplicates of one extent.
        """
        # Keyed by the (start, end) ints: tuple hashing and equality stay in
        # C, where Interval's are Python-level calls per probe.
        fn = self._fn
        folded: dict[tuple[int, int], Any] = {}
        first: list[IntervalMessage] = []
        for msg in messages:
            interval = msg.interval
            key = (interval.start, interval.end)
            if key in folded:
                folded[key] = fn(folded[key], msg.value)
            else:
                folded[key] = msg.value
                first.append(msg)
        if len(first) == len(messages):
            return messages
        return [IntervalMessage(msg.interval, value)
                for msg, value in zip(first, folded.values())]

    def __repr__(self) -> str:
        return f"MessageCombiner({self.name})"


def coalesce_messages(
    messages: list[IntervalMessage], *, allow_overlap: bool
) -> list[IntervalMessage]:
    """Merge equal-valued messages with adjacent (or overlapping) intervals.

    Merging messages whose intervals *meet* is safe for any algorithm: at
    every time-point the visible message group is unchanged.  Merging
    *overlapping* equal values collapses duplicates, which is only safe for
    selective combiners (``allow_overlap=True``); aggregating folds like
    ``sum`` must preserve multiplicity.
    """
    if len(messages) < 2:
        return messages
    ordered = sorted(messages, key=lambda m: (m.interval.start, m.interval.end))
    out: list[IntervalMessage] = [ordered[0]]
    for msg in ordered[1:]:
        last = out[-1]
        joined = last.interval.end >= msg.interval.start
        overlapping = last.interval.end > msg.interval.start
        if joined and (allow_overlap or not overlapping) and last.value == msg.value:
            if msg.interval.end > last.interval.end:
                out[-1] = IntervalMessage(
                    Interval(last.interval.start, msg.interval.end), last.value
                )
        else:
            out.append(msg)
    return out


def min_combiner() -> MessageCombiner:
    """Keep the minimum payload — SSSP, EAT, BFS, WCC and friends."""
    return MessageCombiner(min, "min", selective=True)


def max_combiner() -> MessageCombiner:
    """Keep the maximum payload — LD (latest departure)."""
    return MessageCombiner(max, "max", selective=True)


def sum_combiner() -> MessageCombiner:
    """Sum payloads — PageRank rank mass (must keep every message)."""
    return MessageCombiner(lambda a, b: a + b, "sum", selective=False)


def or_combiner() -> MessageCombiner:
    """Boolean OR — reachability flags."""
    return MessageCombiner(lambda a, b: a or b, "or", selective=True)


def tuple_min_combiner() -> MessageCombiner:
    """Lexicographic min over tuple payloads — TMST (cost, parent) pairs."""
    return MessageCombiner(min, "tuple-min", selective=True)
