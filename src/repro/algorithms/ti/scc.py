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

from dataclasses import dataclass
from typing import Any, Optional

from repro import api
from repro.core.combiner import min_combiner
from repro.core.config import EngineConfig
from repro.core.interval import Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState
from repro.graph.model import TemporalGraph
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
