"""PageRank (TI) — per-snapshot rank over the evolving topology.

The fixed-superstep Pregel formulation (10 rounds, damping 0.85):

    ``rank = (1 - d) / N_t + d * Σ_in rank_nbr / deg_nbr(t)``

Both ``N_t`` (vertices alive at ``t``) and out-degrees vary over time; the
ICM variant handles this by splitting state updates at vertex-count change
points and message emission at out-degree change points
(:meth:`VertexContext.out_degree_rows`), so one interval-graph run
matches the per-snapshot baseline pointwise.
"""

from __future__ import annotations

from repro.core.combiner import sum_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.graph.model import TemporalGraph

DAMPING = 0.85
DEFAULT_SUPERSTEPS = 10


def vertex_count_timeline(graph: TemporalGraph) -> list[tuple[Interval, int]]:
    """Piecewise-constant count of alive vertices over the graph lifespan."""
    deltas: dict[int, int] = {}
    for v in graph.vertices():
        deltas[v.lifespan.start] = deltas.get(v.lifespan.start, 0) + 1
        if not v.lifespan.is_unbounded:
            deltas[v.lifespan.end] = deltas.get(v.lifespan.end, 0) - 1
    bounds = sorted(deltas)
    timeline: list[tuple[Interval, int]] = []
    count = 0
    for idx, b in enumerate(bounds):
        count += deltas[b]
        end = bounds[idx + 1] if idx + 1 < len(bounds) else FOREVER
        if count > 0 and b < end:
            timeline.append((Interval(b, end), count))
    return timeline


class TemporalPageRank(IntervalProgram):
    """Interval-centric PageRank over every snapshot at once."""

    name = "PR"

    def __init__(self, graph: TemporalGraph, supersteps: int = DEFAULT_SUPERSTEPS,
                 damping: float = DAMPING):
        self.fixed_supersteps = supersteps
        self.damping = damping
        self.combiner = sum_combiner()
        self._counts = vertex_count_timeline(graph)

    def _count_segments(self, interval: Interval) -> list[tuple[Interval, int]]:
        out = []
        for iv, n in self._counts:
            common = iv.intersect(interval)
            if common is not None:
                out.append((common, n))
        return out

    def compute(self, ctx, interval: Interval, state, messages: list[float]) -> None:
        if ctx.superstep == 1:
            for seg, n in self._count_segments(interval):
                ctx.set_state(seg, 1.0 / n)
            return
        total = sum(messages)
        for seg, n in self._count_segments(interval):
            ctx.set_state(seg, (1.0 - self.damping) / n + self.damping * total)

    def transfer(self, ctx, edge, start: int, end: int, state: float, piece):
        if ctx.superstep >= self.fixed_supersteps:
            return None
        return [
            (lo, hi, state / degree)
            for lo, hi, degree in ctx.out_degree_rows(start, end)
            if degree > 0
        ]
