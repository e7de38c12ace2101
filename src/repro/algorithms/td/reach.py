"""Time-respecting reachability (TD) — Wu et al. [21], paper Sec. V.

"For RH, we replace the travel-cost in the message with a flag to help test
if a vertex-pair is reachable."  The state per interval answers: is there a
time-respecting journey from the source arriving at or before this
interval?
"""

from __future__ import annotations

from typing import Any

from repro.core.combiner import or_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState


class TemporalReachability(IntervalProgram):
    """Interval-centric time-respecting reachability from ``source``."""

    name = "RH"
    incremental_safe = True

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label
        self.combiner = or_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, False)

    def compute(self, ctx, interval: Interval, state: bool, messages: list[bool]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, True)
            return
        if not state and any(messages):
            ctx.set_state(interval, True)

    def transfer(self, ctx, edge, start: int, end: int, state: bool, piece):
        if not state:
            return None
        return (start + piece.get(self.time_label, 1), FOREVER, True)


def is_reachable(state: PartitionedState) -> bool:
    """Whether the vertex is reachable at any time."""
    return any(value for _, value in state)
