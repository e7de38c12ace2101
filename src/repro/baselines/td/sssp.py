"""Temporal SSSP on the TGB and GoFFish platforms (paper Sec. VII-A3).

The ICM program is `repro.algorithms.td.sssp.TemporalSSSP`.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.td.sssp import INFINITY
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram
from repro.core.combiner import min_combiner


class TgbSSSP(ChainForwardingProgram):
    """Vertex-centric SSSP on the time-expanded transformed graph.

    Replica values are min travel costs; chain edges forward the value to
    later replicas of the same vertex (waiting costs nothing), application
    edges add the travel cost.  ``TgbResult.pointwise`` then matches the ICM
    state at every time-point.
    """

    name = "SSSP"

    def __init__(self, source: Any):
        self.source = source
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        ctx.value = INFINITY

    def absorb(self, ctx, messages: list[int]) -> bool:
        if ctx.superstep == 1:
            if ctx.vertex_id[0] == self.source:
                ctx.value = 0
                return True
            return False
        best = min(messages, default=INFINITY)
        if best < ctx.value:
            ctx.value = best
            return True
        return False

    def emit(self, ctx, edge) -> Any:
        return ctx.value + edge.get("cost", 1)


class GoffishSSSP(GoffishProgram):
    """GoFFish-TS temporal SSSP: per-snapshot compute, temporal messages.

    Vertex state persists across snapshots on disk (``keep_alive``), and —
    since the model shares neither compute nor messages across snapshots —
    a reached vertex re-sends its cost along every alive out-edge at every
    snapshot.  That per-time-point messaging is exactly the overhead the
    paper's evaluation charges to this platform.
    """

    name = "SSSP"

    def __init__(self, source: Any, cost_label: str = "travel-cost", time_label: str = "travel-time"):
        self.source = source
        self.cost_label = cost_label
        self.time_label = time_label

    def init(self, ctx) -> None:
        ctx.value = INFINITY

    def compute(self, ctx, messages: list[int]) -> None:
        if ctx.vertex_id == self.source and ctx.value > 0:
            ctx.value = 0
        best = min(messages, default=INFINITY)
        if best < ctx.value:
            ctx.value = best
        if ctx.value >= INFINITY:
            return
        for edge, props in ctx.temporal_out_edges():
            travel_time = props.get(self.time_label, 1)
            travel_cost = props.get(self.cost_label, 1)
            ctx.send_temporal(edge.dst, ctx.time + travel_time, ctx.value + travel_cost)
        ctx.keep_alive()
