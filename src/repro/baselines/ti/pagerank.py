"""Per-snapshot PageRank: the MSB / Chlonos user logic.

The ICM program is `repro.algorithms.ti.pagerank.TemporalPageRank`.
"""

from __future__ import annotations

from repro.algorithms.ti.pagerank import DAMPING, DEFAULT_SUPERSTEPS
from repro.baselines.vcm import VcmContext, VertexProgram
from repro.core.combiner import sum_combiner


class SnapshotPageRank(VertexProgram):
    """Per-snapshot vertex-centric PageRank (MSB / Chlonos user logic)."""

    name = "PR"

    def __init__(self, supersteps: int = DEFAULT_SUPERSTEPS, damping: float = DAMPING):
        self.fixed_supersteps = supersteps
        self.damping = damping
        self.combiner = sum_combiner()

    def init(self, ctx: VcmContext) -> None:
        ctx.value = 1.0 / ctx.num_vertices

    def compute(self, ctx: VcmContext, messages: list[float]) -> None:
        if ctx.superstep > 1:
            total = sum(messages)
            ctx.value = (1.0 - self.damping) / ctx.num_vertices + self.damping * total
        if ctx.superstep < self.fixed_supersteps:
            degree = ctx.out_degree()
            if degree > 0:
                share = ctx.value / degree
                for edge in ctx.out_edges():
                    ctx.send(edge.dst, share)
