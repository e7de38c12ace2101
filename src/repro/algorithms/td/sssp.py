"""Temporal single-source shortest path (paper Alg. 1, Wu et al. [6]).

Finds time-respecting paths with the least travel cost from a source vertex
to every other vertex, *per interval of arrival*: multiple solutions may
exist for one destination, each minimal for its own arrival interval.

The ICM formulation is near-identical to non-temporal Pregel SSSP — warp
guarantees that every message cost in ``compute`` applies to the whole
active sub-interval, so the user logic is a plain ``min``.
"""

from __future__ import annotations

from typing import Any

from repro.core.combiner import min_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram

#: Cost sentinel for "not (yet) reachable".
INFINITY = FOREVER


class TemporalSSSP(IntervalProgram):
    """Interval-centric temporal SSSP (Alg. 1; its scatter as a row ``transfer``).

    Parameters
    ----------
    source:
        Source vertex id; the journey starts at the beginning of the
        source's lifespan.
    cost_label / time_label:
        Edge property labels for the travel cost and travel time; missing
        labels default to cost 1 and travel time 1.
    """

    name = "SSSP"
    incremental_safe = True

    def __init__(self, source: Any, cost_label: str = "travel-cost", time_label: str = "travel-time"):
        self.source = source
        self.cost_label = cost_label
        self.time_label = time_label
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, INFINITY)

    def compute(self, ctx, interval: Interval, state: int, messages: list[int]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, 0)
            return
        best = min(messages, default=INFINITY)
        if best < state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state: int, piece):
        if state >= INFINITY:
            return None
        travel_time = piece.get(self.time_label, 1)
        travel_cost = piece.get(self.cost_label, 1)
        # The journey departs no earlier than the start of the overlap of
        # the updated state and the edge piece, arriving travel_time later;
        # the cost is valid from that arrival time onwards.
        return (start + travel_time, FOREVER, state + travel_cost)
