"""Fastest path duration on the TGB and GoFFish platforms.

The ICM program is `repro.algorithms.td.fast.TemporalFAST`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algorithms.td.fast import NO_JOURNEY
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram
from repro.core.combiner import max_combiner


class TgbFAST(ChainForwardingProgram):
    """FAST on the transformed graph.

    Replica value = latest journey start reaching the replica; the duration
    at replica ``(v, t)`` is then ``t - value``.  Source replicas seed their
    own time as the start.
    """

    name = "FAST"

    def __init__(self, source: Any):
        self.source = source
        self.combiner = max_combiner()

    def init(self, ctx) -> None:
        ctx.value = -1

    def absorb(self, ctx, messages: list[int]) -> bool:
        if ctx.superstep == 1:
            if ctx.vertex_id[0] == self.source:
                ctx.value = ctx.vertex_id[1]
                return True
            return False
        best = max(messages, default=-1)
        if best > ctx.value:
            ctx.value = best
            return True
        return False

    def emit(self, ctx, edge) -> Any:
        return ctx.value


def tgb_fastest_duration(result, vid: Any) -> Optional[int]:
    """Minimum duration over a vertex's replicas in a TGB FAST result."""
    best = None
    for t, start in result.replicas_of(vid):
        if start is not None and start >= 0:
            duration = t - start
            if best is None or duration < best:
                best = duration
    return best


class GoffishFAST(GoffishProgram):
    """GoFFish-TS fastest path: state = (latest_start, best_duration)."""

    name = "FAST"

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label

    def init(self, ctx) -> None:
        ctx.value = NO_JOURNEY

    def compute(self, ctx, messages: list[tuple[int, int]]) -> None:
        latest_start, best_duration = ctx.value
        for s, a in messages:
            if s > latest_start:
                latest_start = s
            if a - s < best_duration:
                best_duration = a - s
        is_source = ctx.vertex_id == self.source
        if is_source:
            best_duration = 0
        ctx.value = (latest_start, best_duration)
        if not is_source and latest_start < 0:
            return
        for edge, props in ctx.temporal_out_edges():
            travel_time = props.get(self.time_label, 1)
            # The source originates a fresh journey at this departure
            # point; other vertices continue their latest-started journey.
            start = ctx.time if is_source else latest_start
            ctx.send_temporal(
                edge.dst, ctx.time + travel_time, (start, ctx.time + travel_time)
            )
        ctx.keep_alive()
