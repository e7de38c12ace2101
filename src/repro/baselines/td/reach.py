"""Time-respecting reachability on the TGB and GoFFish platforms.

The ICM program is `repro.algorithms.td.reach.TemporalReachability`.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram
from repro.core.combiner import or_combiner


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
