"""Time-minimum spanning tree on the TGB and GoFFish platforms.

The ICM program is `repro.algorithms.td.tmst.TemporalTMST`.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.td.tmst import UNREACHED
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram
from repro.core.combiner import tuple_min_combiner
from repro.core.interval import FOREVER


class TgbTMST(ChainForwardingProgram):
    """TMST on the transformed graph: replica value = (arrival, parent)."""

    name = "TMST"

    def __init__(self, source: Any):
        self.source = source
        self.combiner = tuple_min_combiner()

    def init(self, ctx) -> None:
        ctx.value = UNREACHED

    def absorb(self, ctx, messages: list[tuple]) -> bool:
        if ctx.superstep == 1:
            vid, t = ctx.vertex_id
            if vid == self.source:
                ctx.value = (t, vid)
                return True
            return False
        best = min(messages, default=UNREACHED)
        if best < ctx.value:
            ctx.value = best
            return True
        return False

    def emit(self, ctx, edge) -> Any:
        # The application edge lands on replica (v, t_arr).
        return (edge.dst[1], ctx.vertex_id[0])


class GoffishTMST(GoffishProgram):
    """GoFFish-TS TMST: earliest arrival with parent, explicit state pass."""

    name = "TMST"

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label

    def init(self, ctx) -> None:
        ctx.value = UNREACHED

    def compute(self, ctx, messages: list[tuple]) -> None:
        if ctx.vertex_id == self.source and ctx.value == UNREACHED:
            ctx.value = (ctx.time, ctx.vertex_id)
        best = min((tuple(m) for m in messages), default=UNREACHED)
        if best < ctx.value:
            ctx.value = best
        if ctx.value[0] >= FOREVER or ctx.time < ctx.value[0]:
            return
        for edge, props in ctx.temporal_out_edges():
            travel_time = props.get(self.time_label, 1)
            arrival = ctx.time + travel_time
            ctx.send_temporal(edge.dst, arrival, (arrival, ctx.vertex_id))
        ctx.keep_alive()
