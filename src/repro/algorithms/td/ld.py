"""Latest departure time (TD) — Wu et al. [6], paper Sec. V.

"LD lets one depart late and reach within a bound.  Unlike SSSP, it
reverse-traverses from sink to source, in space and time" — the ICM program
therefore runs on the *reversed* graph, and its messages extend backwards,
``[0, t_max + 1)``: being at the upstream vertex at or before ``t_max``
suffices to catch the departure.  Warp ensures the temporal bounds are not
violated.

``LD(v)`` is the latest time one can depart vertex ``v`` and still reach
the target by the deadline.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.combiner import max_combiner
from repro.core.interval import Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState
from repro.graph.model import TemporalGraph

#: Departure sentinel for "cannot reach the target in time".
IMPOSSIBLE = -1


class TemporalLD(IntervalProgram):
    """Interval-centric latest departure towards ``target`` by ``deadline``.

    Run this program on ``graph.reversed()`` — each reversed edge piece
    still describes the *original* departure window and travel time.
    """

    name = "LD"
    incremental_safe = True

    def __init__(self, target: Any, deadline: int, time_label: str = "travel-time"):
        self.target = target
        self.deadline = deadline
        self.time_label = time_label
        self.combiner = max_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, IMPOSSIBLE)

    def compute(self, ctx, interval: Interval, state: int, messages: list[int]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.target:
                # A target that dies before the deadline must be reached
                # while it lives: the bound is its last time-point.
                horizon = min(self.deadline + 1, ctx.lifespan.end)
                if ctx.lifespan.start < horizon:
                    ctx.set_state(Interval(ctx.lifespan.start, horizon), horizon - 1)
            return
        best = max(messages, default=IMPOSSIBLE)
        if best > state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state: int, piece):
        if state <= IMPOSSIBLE:
            return None
        travel_time = piece.get(self.time_label, 1)
        # Original departures in this piece land at t + travel_time, which
        # must be no later than the downstream latest departure.
        t_max = min(end - 1, state - travel_time)
        if t_max < start:
            return None
        return (0, t_max + 1, t_max)


def latest_departure(state: PartitionedState) -> Optional[int]:
    """Project a final LD state to the overall latest departure."""
    best = max(value for _, value in state)
    return None if best <= IMPOSSIBLE else best
