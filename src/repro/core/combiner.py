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

import operator
from typing import Any, Callable

from .messages import Row, row_interval


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

    def combine_dominated(self, messages: list[Row]) -> list[Row]:
        """Drop messages dominated by another (selective combiners only).

        ``b`` is dominated by ``a`` when ``a``'s interval contains ``b``'s
        and the fold of the two values is ``a``'s: every warp group
        containing ``b`` then also contains ``a``, and the folded value is
        unchanged, so the compute outcomes are identical with ``b`` removed.
        """
        if not self.selective or len(messages) < 2:
            return messages
        fn = self._fn
        keep: list[Row] = []
        for i, msg in enumerate(messages):
            start, end, value = msg
            for j, (o_start, o_end, o_value) in enumerate(messages):
                if o_start > start or end > o_end or i == j:
                    continue  # not contained in the other (or itself)
                if fn(o_value, value) != o_value:
                    continue
                # Ties on both interval and value: keep only the first.
                if o_start == start and o_end == end and o_value == value and j > i:
                    continue
                break  # dominated
            else:
                keep.append(msg)
        return keep

    def combine_identical_intervals(self, messages: list[Row]) -> list[Row]:
        """Receiver-side pass: fold messages sharing the exact same interval.

        This is safe for any payloads because it never changes the temporal
        extent of a message, only collapses duplicates of one extent.  The
        folded rows keep the order in which each interval first appeared.
        """
        fn = self._fn
        folded: dict[tuple[int, int], Any] = {}
        for start, end, value in messages:
            key = (start, end)
            if key in folded:
                folded[key] = fn(folded[key], value)
            else:
                folded[key] = value
        if len(folded) == len(messages):
            return messages
        return [(start, end, value) for (start, end), value in folded.items()]

    def __repr__(self) -> str:
        return f"MessageCombiner({self.name})"


def coalesce_messages(messages: list[Row], *, allow_overlap: bool) -> list[Row]:
    """Merge equal-valued messages with adjacent (or overlapping) intervals.

    Merging messages whose intervals *meet* is safe for any algorithm: at
    every time-point the visible message group is unchanged.  Merging
    *overlapping* equal values collapses duplicates, which is only safe for
    selective combiners (``allow_overlap=True``); aggregating folds like
    ``sum`` must preserve multiplicity.
    """
    if len(messages) < 2:
        return messages
    ordered = sorted(messages, key=row_interval)
    out: list[Row] = [ordered[0]]
    for msg in ordered[1:]:
        start, end, value = msg
        l_start, l_end, l_value = out[-1]
        if (l_end == start or (allow_overlap and l_end > start)) and l_value == value:
            if end > l_end:
                out[-1] = (l_start, end, l_value)
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
    return MessageCombiner(operator.add, "sum", selective=False)


def _or(a: Any, b: Any) -> Any:
    return a or b


def or_combiner() -> MessageCombiner:
    """Boolean OR — reachability flags."""
    return MessageCombiner(_or, "or", selective=True)


def tuple_min_combiner() -> MessageCombiner:
    """Lexicographic min over tuple payloads — TMST (cost, parent) pairs."""
    return MessageCombiner(min, "tuple-min", selective=True)
