"""Per-snapshot BFS: the MSB / Chlonos user logic.

The ICM program is `repro.algorithms.ti.bfs.TemporalBFS`.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.ti.bfs import UNREACHED
from repro.baselines.vcm import VcmContext, VertexProgram
from repro.core.combiner import min_combiner


class SnapshotBFS(VertexProgram):
    """Per-snapshot vertex-centric BFS (the MSB / Chlonos user logic)."""

    name = "BFS"

    def __init__(self, source: Any):
        self.source = source
        self.combiner = min_combiner()

    def init(self, ctx: VcmContext) -> None:
        ctx.value = UNREACHED

    def compute(self, ctx: VcmContext, messages: list[int]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.value = 0
                ctx.send_to_neighbors(1)
            return
        best = min(messages, default=UNREACHED)
        if best < ctx.value:
            ctx.value = best
            ctx.send_to_neighbors(best + 1)
