"""Per-snapshot WCC: the MSB / Chlonos user logic.

The ICM program is `repro.algorithms.ti.wcc.TemporalWCC`.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.vcm import VcmContext, VertexProgram
from repro.core.combiner import min_combiner


class SnapshotWCC(VertexProgram):
    """Per-snapshot vertex-centric WCC; run on undirected snapshots."""

    name = "WCC"

    def __init__(self) -> None:
        self.combiner = min_combiner()

    def init(self, ctx: VcmContext) -> None:
        ctx.value = ctx.vertex_id

    def compute(self, ctx: VcmContext, messages: list[Any]) -> None:
        if ctx.superstep == 1:
            ctx.send_to_neighbors(ctx.value)
            return
        best = min(messages)
        if best < ctx.value:
            ctx.value = best
            ctx.send_to_neighbors(best)
