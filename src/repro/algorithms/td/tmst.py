"""Time-minimum spanning tree (TD) — Huang et al. [9], paper Sec. V.

"To find the TMST from a given source, we add the parent vertex ID to the
state and the message value, in addition to replacing travel cost with
arrival time, to rebuild the tree."  The result is the tree of earliest
time-respecting arrivals, with parent pointers for reconstruction; ties on
arrival time break towards the smaller parent id so all platforms agree.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.combiner import tuple_min_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState

#: ``(arrival, parent)`` for "not reached"; compares greater than any real
#: arrival, and the parent slot is a string so tuple comparison stays valid
#: when real parents are strings.
UNREACHED = (FOREVER, "")


class TemporalTMST(IntervalProgram):
    """Interval-centric TMST: earliest arrival plus parent pointer."""

    name = "TMST"
    incremental_safe = True

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label
        self.combiner = tuple_min_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, UNREACHED)

    def compute(self, ctx, interval: Interval, state, messages: list[tuple]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, (ctx.lifespan.start, ctx.vertex_id))
            return
        best = min(messages, default=UNREACHED)
        if best < state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state, piece):
        if state[0] >= FOREVER:
            return None
        arrival = start + piece.get(self.time_label, 1)
        return (arrival, FOREVER, (arrival, ctx.vertex_id))


def tmst_parent(state: PartitionedState) -> Optional[tuple[int, Any]]:
    """``(arrival, parent)`` of the earliest arrival, or ``None``."""
    best = min(value for _, value in state)
    return None if best[0] >= FOREVER else best


def tmst_tree(states: dict[Any, PartitionedState], source: Any) -> dict[Any, tuple[int, Any]]:
    """Rebuild the spanning tree: vid → (arrival, parent), source excluded."""
    tree: dict[Any, tuple[int, Any]] = {}
    for vid, state in states.items():
        if vid == source:
            continue
        entry = tmst_parent(state)
        if entry is not None:
            tree[vid] = entry
    return tree
