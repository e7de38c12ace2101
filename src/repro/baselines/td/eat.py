"""Earliest arrival time on the TGB and GoFFish platforms.

The ICM program is `repro.algorithms.td.eat.TemporalEAT`.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.td.eat import NEVER
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram
from repro.core.combiner import min_combiner


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
