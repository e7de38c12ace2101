"""SCC on the MSB and Chlonos platforms: the ICM peeling, per snapshot.

The same forward / backward min-label rounds as
`repro.algorithms.ti.scc.run_icm_scc`, run independently per snapshot
(MSB) or over batched snapshot replicas with message sharing (Chlonos).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algorithms.ti.scc import BLOCKED
from repro.baselines.vcm import VcmContext, VertexCentricEngine, VertexProgram
from repro.core.combiner import min_combiner
from repro.graph.model import TemporalGraph
from repro.graph.snapshots import StaticGraph, snapshot_at
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.metrics import RunMetrics


class SnapshotMinLabelPass(VertexProgram):
    """One VCM flooding pass over a snapshot's unassigned vertices."""

    name = "SCC-pass"

    def __init__(self, assigned: dict[Any, Any]):
        self.assigned = assigned
        self.combiner = min_combiner()

    def init(self, ctx: VcmContext) -> None:
        ctx.value = BLOCKED if self.assigned.get(ctx.vertex_id) is not None else ctx.vertex_id

    def compute(self, ctx: VcmContext, messages: list[Any]) -> None:
        if ctx.value == BLOCKED:
            return
        if ctx.superstep == 1:
            ctx.send_to_neighbors(ctx.value)
            return
        best = min(messages)
        if best < ctx.value:
            ctx.value = best
            ctx.send_to_neighbors(best)


def scc_on_snapshot(
    snapshot: StaticGraph,
    *,
    cluster: Optional[SimulatedCluster] = None,
    platform: str = "MSB",
    graph_name: str = "",
) -> tuple[dict[Any, Any], RunMetrics]:
    """Peeling SCC on one static snapshot; returns vid → component id."""
    cluster = cluster or SimulatedCluster()
    reversed_snap = snapshot.reversed()
    assigned: dict[Any, Any] = {vid: None for vid in snapshot.vertex_ids()}
    total = RunMetrics(platform=platform, algorithm="SCC", graph=graph_name)
    while any(comp is None for comp in assigned.values()):
        fwd = VertexCentricEngine(
            snapshot, SnapshotMinLabelPass(assigned), cluster=cluster,
            platform=platform, graph_name=graph_name,
        ).run()
        bwd = VertexCentricEngine(
            reversed_snap, SnapshotMinLabelPass(assigned), cluster=cluster,
            platform=platform, graph_name=graph_name,
        ).run()
        total.merge(fwd.metrics)
        total.merge(bwd.metrics)
        progressed = False
        for vid, comp in assigned.items():
            if comp is None and fwd.values[vid] == bwd.values[vid] != BLOCKED:
                assigned[vid] = fwd.values[vid]
                progressed = True
        if not progressed:
            raise RuntimeError("snapshot SCC peeling made no progress")
    total.platform, total.algorithm = platform, "SCC"
    return assigned, total


class ChlonosMinLabelPass(VertexProgram):
    """Min-label pass for Chlonos replicas: blocked status is per (vid, t)."""

    name = "SCC-pass"

    def __init__(self, assigned: dict[tuple[Any, int], Any]):
        self.assigned = assigned
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        key = (ctx.vertex_id, ctx.time)
        ctx.value = BLOCKED if self.assigned.get(key) is not None else ctx.vertex_id

    def compute(self, ctx, messages: list[Any]) -> None:
        if ctx.value == BLOCKED:
            return
        if ctx.superstep == 1:
            ctx.send_to_neighbors(ctx.value)
            return
        best = min(messages)
        if best < ctx.value:
            ctx.value = best
            ctx.send_to_neighbors(best)


def run_chlonos_scc(
    graph: TemporalGraph,
    *,
    batch_size: Optional[int] = None,
    horizon: Optional[int] = None,
    cluster: Optional[SimulatedCluster] = None,
    graph_name: str = "",
    max_rounds: int = 10_000,
) -> tuple[dict[int, dict[Any, Any]], RunMetrics]:
    """Chlonos-style SCC: batched peeling passes with message sharing."""
    from repro.baselines.chlonos import run_chlonos

    if horizon is None:
        horizon = graph.time_horizon()
    cluster = cluster or SimulatedCluster()
    reversed_graph = graph.reversed()
    assigned: dict[tuple[Any, int], Any] = {}
    for t in range(horizon):
        for v in graph.vertices():
            if v.lifespan.contains_point(t):
                assigned[(v.vid, t)] = None
    total = RunMetrics(platform="Chlonos", algorithm="SCC", graph=graph_name)
    rounds = 0
    while any(comp is None for comp in assigned.values()) and rounds < max_rounds:
        rounds += 1
        fwd = run_chlonos(
            graph, lambda t: ChlonosMinLabelPass(assigned), batch_size=batch_size,
            horizon=horizon, cluster=cluster, graph_name=graph_name,
        )
        bwd = run_chlonos(
            reversed_graph, lambda t: ChlonosMinLabelPass(assigned), batch_size=batch_size,
            horizon=horizon, cluster=cluster, graph_name=graph_name,
        )
        total.merge(fwd.metrics)
        total.merge(bwd.metrics)
        progressed = False
        for (vid, t), comp in assigned.items():
            if comp is None:
                f_label = fwd.value_at(vid, t)
                b_label = bwd.value_at(vid, t)
                if f_label == b_label and f_label != BLOCKED:
                    assigned[(vid, t)] = f_label
                    progressed = True
        if not progressed:
            raise RuntimeError("Chlonos SCC peeling made no progress")
    values: dict[int, dict[Any, Any]] = {}
    for (vid, t), comp in assigned.items():
        values.setdefault(t, {})[vid] = comp
    total.platform, total.algorithm, total.graph = "Chlonos", "SCC", graph_name
    return values, total


def run_snapshot_scc(
    graph: TemporalGraph,
    *,
    horizon: Optional[int] = None,
    cluster: Optional[SimulatedCluster] = None,
    platform: str = "MSB",
    graph_name: str = "",
) -> tuple[dict[int, dict[Any, Any]], RunMetrics]:
    """MSB-style SCC: independent peeling per snapshot."""
    if horizon is None:
        horizon = graph.time_horizon()
    cluster = cluster or SimulatedCluster()
    values: dict[int, dict[Any, Any]] = {}
    total = RunMetrics(platform=platform, algorithm="SCC", graph=graph_name)
    for t in range(horizon):
        snap = snapshot_at(graph, t)
        if snap.num_vertices == 0:
            values[t] = {}
            continue
        comp, metrics = scc_on_snapshot(
            snap, cluster=cluster, platform=platform, graph_name=graph_name
        )
        values[t] = comp
        total.merge(metrics)
    total.platform, total.algorithm, total.graph = platform, "SCC", graph_name
    return values, total
