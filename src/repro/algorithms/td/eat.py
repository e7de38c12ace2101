"""Earliest arrival time (TD) — Wu et al. [6], paper Sec. V.

Derived from temporal SSSP by "just replacing the travel cost in the
message with the vertex departure time instead": the state tracks the
earliest time-respecting arrival at a vertex, and the algorithm cares only
about the first arrival, not subsequent arrival intervals.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.combiner import min_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState

#: Arrival sentinel for "not reachable".
NEVER = FOREVER


class TemporalEAT(IntervalProgram):
    """Interval-centric earliest arrival time from ``source``."""

    name = "EAT"
    incremental_safe = True

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, NEVER)

    def compute(self, ctx, interval: Interval, state: int, messages: list[int]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, ctx.lifespan.start)
            return
        best = min(messages, default=NEVER)
        if best < state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state: int, piece):
        if state >= NEVER:
            return None
        arrival = start + piece.get(self.time_label, 1)
        return (arrival, FOREVER, arrival)


def earliest_arrival(state: PartitionedState) -> Optional[int]:
    """Project a final EAT state to the single earliest arrival time."""
    best = min(value for _, value in state)
    return None if best >= NEVER else best
