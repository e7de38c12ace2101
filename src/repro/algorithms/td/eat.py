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
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram

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


class TgbEAT(ChainForwardingProgram):
    """EAT on the transformed graph: replica value = min arrival time."""

    name = "EAT"

    def __init__(self, source: Any):
        self.source = source
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        ctx.value = NEVER

    def absorb(self, ctx, messages: list[int]) -> bool:
        if ctx.superstep == 1:
            if ctx.vertex_id[0] == self.source:
                ctx.value = ctx.vertex_id[1]
                return True
            return False
        best = min(messages, default=NEVER)
        if best < ctx.value:
            ctx.value = best
            return True
        return False

    def emit(self, ctx, edge) -> Any:
        # The application edge targets replica (v, t_arr): arriving *is*
        # the payload.
        return edge.dst[1]


class GoffishEAT(GoffishProgram):
    """GoFFish-TS earliest arrival: temporal messages carry arrivals."""

    name = "EAT"

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label

    def init(self, ctx) -> None:
        ctx.value = NEVER

    def compute(self, ctx, messages: list[int]) -> None:
        if ctx.vertex_id == self.source and ctx.value >= NEVER:
            ctx.value = ctx.time
        best = min(messages, default=NEVER)
        if best < ctx.value:
            ctx.value = best
        if ctx.value >= NEVER or ctx.time < ctx.value:
            return
        for edge, props in ctx.temporal_out_edges():
            travel_time = props.get(self.time_label, 1)
            ctx.send_temporal(edge.dst, ctx.time + travel_time, ctx.time + travel_time)
        ctx.keep_alive()
        ctx.send_temporal(ctx.vertex_id, ctx.time + 1, ctx.value)
