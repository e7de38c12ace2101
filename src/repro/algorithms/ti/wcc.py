"""Weakly connected components (TI) — per-snapshot min-label propagation.

WCC treats edges as undirected; since ICM (like Pregel) scatters along
directed out-edges only, the algorithm runs over an *undirected view* of
the graph that mirrors every edge.  Component labels are the minimum vertex
id in the component, per time-point.
"""

from __future__ import annotations

from typing import Any

from repro.core.combiner import min_combiner
from repro.core.interval import Interval
from repro.core.program import IntervalProgram
from repro.graph.model import TemporalEdge, TemporalGraph, TemporalVertex


def make_undirected(graph: TemporalGraph) -> TemporalGraph:
    """Mirror every edge so min-label floods both directions.

    Reverse edges reuse the original's lifespan and share its property set;
    their ids get a ``~rev`` suffix to keep constraint 1.
    """
    out = TemporalGraph()
    for v in graph.vertices():
        nv = TemporalVertex(v.vid, v.lifespan)
        nv.properties = v.properties
        out._add_vertex(nv)
    for e in graph.edges():
        fwd = TemporalEdge(e.eid, e.src, e.dst, e.lifespan)
        fwd.properties = e.properties
        out._add_edge(fwd)
        rev = TemporalEdge(f"{e.eid}~rev", e.dst, e.src, e.lifespan)
        rev.properties = e.properties
        out._add_edge(rev)
    return out


class TemporalWCC(IntervalProgram):
    """Interval-centric WCC; run it on ``make_undirected(graph)``."""

    name = "WCC"
    incremental_safe = True

    def __init__(self) -> None:
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, ctx.vertex_id)

    def compute(self, ctx, interval: Interval, state: Any, messages: list[Any]) -> None:
        if ctx.superstep == 1:
            # Re-assert the label so every vertex scatters in superstep 1.
            ctx.set_state(interval, ctx.vertex_id)
            return
        best = min(messages)
        if best < state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state: Any, piece):
        # Forward the updated label over the overlap (the default scatter).
        return (start, end, state)
