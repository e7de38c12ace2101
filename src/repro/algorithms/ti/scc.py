"""Strongly connected components (TI) — per-snapshot, via min-label peeling.

The distributed SCC algorithm (after Yan et al., "Pregel algorithms for
graph connectivity problems") peels components in rounds:

1. **Forward pass** — every unassigned vertex floods the minimum vertex id
   that can reach it along out-edges (``fwd``);
2. **Backward pass** — likewise along in-edges (``bwd``);
3. **Assignment** — vertices with ``fwd == bwd == c`` form the SCC of ``c``
   (``c`` reaches them and they reach ``c``); they are removed, and the next
   round runs on the remainder.

Every round assigns at least the SCC of the minimum unassigned vertex in
each weakly connected region, so the loop terminates.

Temporally, all of the above holds *per time-point*: the ICM passes run
once over the interval graph, and the blocked/unassigned status lives in a
partitioned state, so one round of passes advances every snapshot at once.
The per-snapshot baselines run the same peeling independently per snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro import api
from repro.core.combiner import min_combiner
from repro.core.config import EngineConfig
from repro.core.interval import Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState
from repro.baselines.vcm import VcmContext, VertexCentricEngine, VertexProgram
from repro.graph.model import TemporalGraph
from repro.graph.snapshots import StaticGraph, snapshot_at
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.metrics import RunMetrics

#: Marker for intervals already assigned to a component (they neither
#: propagate nor absorb labels in later passes).
BLOCKED = "__blocked__"


class MinLabelPass(IntervalProgram):
    """One ICM flooding pass of minimum labels over unassigned intervals.

    ``assigned`` maps vid → PartitionedState whose values are either a
    component id or ``None`` (unassigned); assigned sub-intervals act as
    removed vertices.
    """

    name = "SCC-pass"

    def __init__(self, assigned: dict[Any, PartitionedState]):
        self.assigned = assigned
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        for interval, comp in self.assigned[ctx.vertex_id]:
            ctx.set_state(interval, BLOCKED if comp is not None else ctx.vertex_id)

    def compute(self, ctx, interval: Interval, state: Any, messages: list[Any]) -> None:
        if state == BLOCKED:
            return
        if ctx.superstep == 1:
            ctx.set_state(interval, state)  # trigger the initial flood
            return
        best = min(messages)
        if best < state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state: Any, piece):
        if state == BLOCKED:
            return None
        return (start, end, state)


@dataclass
class SccResult:
    """Per-vertex partitioned component ids (``None`` = degenerate/absent)."""

    components: dict[Any, PartitionedState]
    metrics: RunMetrics
    rounds: int = 0

    def component_at(self, vid: Any, t: int) -> Any:
        return self.components[vid].value_at(t)


def run_icm_scc(
    graph: TemporalGraph,
    *,
    cluster: Optional[SimulatedCluster] = None,
    graph_name: str = "",
    max_rounds: int = 10_000,
    icm_options: Optional[dict] = None,
    config: Optional[EngineConfig] = None,
    observe: Any = None,
) -> SccResult:
    """Peeling driver running paired forward/backward ICM passes.

    ``observe`` is shared by every pass: a trace path collects one
    ``run_start``-delimited segment per engine run, which ``repro
    report`` aggregates back into a single SCC row.
    """
    cluster = cluster or SimulatedCluster()
    icm_options = icm_options or {}
    reversed_graph = graph.reversed()
    assigned = {
        v.vid: PartitionedState(v.lifespan, None) for v in graph.vertices()
    }
    total = RunMetrics(platform="GRAPHITE", algorithm="SCC", graph=graph_name)
    rounds = 0
    while _has_unassigned(assigned) and rounds < max_rounds:
        rounds += 1
        fwd = api.run(
            graph, MinLabelPass(assigned), cluster=cluster,
            graph_name=graph_name, config=config, options=icm_options,
            observe=observe,
        )
        bwd = api.run(
            reversed_graph, MinLabelPass(assigned), cluster=cluster,
            graph_name=graph_name, config=config, options=icm_options,
            observe=observe,
        )
        total.merge(fwd.metrics)
        total.merge(bwd.metrics)
        progressed = _assign_matching(assigned, fwd.states, bwd.states)
        if not progressed:
            raise RuntimeError("SCC peeling made no progress (invariant violated)")
    total.platform, total.algorithm, total.graph = "GRAPHITE", "SCC", graph_name
    return SccResult(components=assigned, metrics=total, rounds=rounds)


def _has_unassigned(assigned: dict[Any, PartitionedState]) -> bool:
    for state in assigned.values():
        for _, comp in state:
            if comp is None:
                return True
    return False


def _assign_matching(
    assigned: dict[Any, PartitionedState],
    fwd_states: dict[Any, PartitionedState],
    bwd_states: dict[Any, PartitionedState],
) -> bool:
    """Assign intervals where forward and backward labels agree."""
    progressed = False
    for vid, comp_state in assigned.items():
        fwd = fwd_states[vid]
        bwd = bwd_states[vid]
        for interval, comp in list(comp_state):
            if comp is not None:
                continue
            for sub, f_label in fwd.slices(interval):
                for sub2, b_label in bwd.slices(sub):
                    if f_label == BLOCKED or b_label == BLOCKED:
                        continue
                    if f_label == b_label:
                        comp_state.set(sub2, f_label)
                        progressed = True
    return progressed


# -- per-snapshot baseline -----------------------------------------------------


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
