"""Temporal k-core decomposition (extension algorithm).

The k-core of a graph is the maximal subgraph in which every vertex has
degree ≥ k; on a temporal graph, membership varies per time-point as edges
appear and disappear.  The interval-centric formulation peels per
*interval*: a vertex that drops below ``k`` over some sub-interval dies
there and notifies its neighbours over exactly the overlap of that
sub-interval with each incident edge — warp alignment then decrements the
neighbours' per-interval degrees, cascading until stable.

Run on an *undirected view* (``make_undirected``); degree is the out-degree
of that view (multi-edges count, as everywhere else in the library).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro import api
from repro.core.combiner import sum_combiner
from repro.core.config import EngineConfig
from repro.core.engine import IcmResult
from repro.core.interval import Interval
from repro.core.program import IntervalProgram
from repro.graph.model import TemporalGraph
from repro.runtime.cluster import SimulatedCluster

if TYPE_CHECKING:
    from repro.graph.snapshots import StaticGraph

#: Marker for intervals where the vertex has left the core.
DEAD = "__dead__"


class TemporalKCore(IntervalProgram):
    """Interval-centric k-core peeling; state = live degree or ``DEAD``."""

    name = "KCORE"

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.combiner = sum_combiner()

    def compute(self, ctx, interval: Interval, state, messages: list[int]) -> None:
        if ctx.superstep == 1:
            for segment, degree in ctx.out_degree_segments(interval):
                ctx.set_state(segment, DEAD if degree < self.k else degree)
            return
        if state == DEAD:
            return
        drops = sum(messages)
        remaining = state - drops
        ctx.set_state(interval, DEAD if remaining < self.k else remaining)

    def transfer(self, ctx, edge, start: int, end: int, state, piece):
        # Only deaths propagate; surviving-degree updates are local.
        if state == DEAD:
            return (start, end, 1)
        return None


def in_core(state_value) -> bool:
    """Whether a per-interval state value denotes core membership."""
    return state_value != DEAD and state_value is not None


def run_temporal_kcore(
    graph: TemporalGraph,
    k: int,
    *,
    cluster: Optional[SimulatedCluster] = None,
    graph_name: str = "",
    config: Optional[EngineConfig] = None,
    observe: Any = None,
) -> IcmResult:
    """Convenience driver: mirrors edges, runs the peeling, returns states.

    ``result.value_at(vid, t)`` is the vertex's remaining degree at ``t``
    (≥ k) or :data:`DEAD`.
    """
    from repro.algorithms.ti.wcc import make_undirected

    undirected = make_undirected(graph)
    return api.run(
        undirected, TemporalKCore(k),
        cluster=cluster or SimulatedCluster(), graph_name=graph_name,
        config=config, observe=observe,
    )


def snapshot_kcore(snapshot: StaticGraph, k: int) -> set[Any]:
    """Reference: iterative peeling of one (already-undirected) snapshot."""
    degree = {vid: len(snapshot.out_edges(vid)) for vid in snapshot.vertex_ids()}
    alive = {vid for vid, d in degree.items() if d >= k}
    changed = True
    while changed:
        changed = False
        for vid in list(alive):
            live_degree = sum(
                1 for e in snapshot.out_edges(vid) if e.dst in alive
            )
            if live_degree < k:
                alive.discard(vid)
                changed = True
    return alive
