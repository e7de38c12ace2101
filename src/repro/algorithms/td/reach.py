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
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram


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


class TgbReachability(ChainForwardingProgram):
    """Reachability flags over the transformed graph."""

    name = "RH"

    def __init__(self, source: Any):
        self.source = source
        self.combiner = or_combiner()

    def init(self, ctx) -> None:
        ctx.value = False

    def absorb(self, ctx, messages: list[bool]) -> bool:
        if ctx.superstep == 1:
            if ctx.vertex_id[0] == self.source:
                ctx.value = True
                return True
            return False
        if not ctx.value and any(messages):
            ctx.value = True
            return True
        return False

    def emit(self, ctx, edge) -> Any:
        return True


class GoffishReachability(GoffishProgram):
    """GoFFish-TS reachability with explicit state passing."""

    name = "RH"

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label

    def init(self, ctx) -> None:
        ctx.value = False

    def compute(self, ctx, messages: list[bool]) -> None:
        if ctx.vertex_id == self.source:
            ctx.value = True
        if any(messages):
            ctx.value = True
        if not ctx.value:
            return
        for edge, props in ctx.temporal_out_edges():
            travel_time = props.get(self.time_label, 1)
            ctx.send_temporal(edge.dst, ctx.time + travel_time, True)
        ctx.keep_alive()
        ctx.send_temporal(ctx.vertex_id, ctx.time + 1, True)
