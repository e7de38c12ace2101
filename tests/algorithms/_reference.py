"""Brute-force reference implementations the test-suite checks against.

These are deliberately *independent* of the ICM engine, the warp operator,
and the transformed-graph machinery: snapshot algorithms work on adjacency
sets, temporal algorithms on a dense ``(vertex, time)`` dynamic-programming
grid with explicit waiting and edge relaxations.  Slow but obviously
correct on the small graphs tests use.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.interval import FOREVER, Interval
from repro.graph.model import TemporalGraph
from repro.graph.snapshots import StaticGraph

INF = FOREVER


# -- per-snapshot (TI) references ---------------------------------------------


def snapshot_bfs(snap: StaticGraph, source: Any) -> dict[Any, int]:
    """Hop distances from ``source`` (INF when unreachable or absent)."""
    dist = {vid: INF for vid in snap.vertex_ids()}
    if not snap.has_vertex(source):
        return dist
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for edge in snap.out_edges(u):
                if dist[edge.dst] > dist[u] + 1:
                    dist[edge.dst] = dist[u] + 1
                    nxt.append(edge.dst)
        frontier = nxt
    return dist


def snapshot_wcc(snap: StaticGraph) -> dict[Any, Any]:
    """Weakly connected component labels (minimum vid per component)."""
    parent = {vid: vid for vid in snap.vertex_ids()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in snap.edges():
        ra, rb = find(edge.src), find(edge.dst)
        if ra != rb:
            parent[ra] = rb
    groups: dict[Any, list[Any]] = {}
    for vid in snap.vertex_ids():
        groups.setdefault(find(vid), []).append(vid)
    labels = {}
    for members in groups.values():
        label = min(members)
        for vid in members:
            labels[vid] = label
    return labels


def snapshot_scc(snap: StaticGraph) -> dict[Any, Any]:
    """Strongly connected component labels via iterative Tarjan."""
    index: dict[Any, int] = {}
    lowlink: dict[Any, int] = {}
    on_stack: set[Any] = set()
    stack: list[Any] = []
    components: list[list[Any]] = []
    counter = [0]

    for root in snap.vertex_ids():
        if root in index:
            continue
        work = [(root, iter(snap.out_edges(root)))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for edge in edges:
                w = edge.dst
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(snap.out_edges(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent_node = work[-1][0]
                lowlink[parent_node] = min(lowlink[parent_node], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)

    labels: dict[Any, Any] = {}
    for comp in components:
        label = min(comp)
        for vid in comp:
            labels[vid] = label
    return labels


def snapshot_pagerank(
    snap: StaticGraph, supersteps: int = 10, damping: float = 0.85
) -> dict[Any, float]:
    """PageRank matching the Pregel schedule exactly.

    Superstep 1 initialises ranks to ``1/N``; supersteps 2..K apply
    ``rank = (1-d)/N + d * Σ_in rank/deg`` using the sender's rank from the
    previous superstep.  Dangling mass is dropped, as in the paper's
    fixed-superstep formulation.
    """
    n = snap.num_vertices
    if n == 0:
        return {}
    rank = {vid: 1.0 / n for vid in snap.vertex_ids()}
    for _ in range(2, supersteps + 1):
        incoming = {vid: 0.0 for vid in snap.vertex_ids()}
        for vid in snap.vertex_ids():
            degree = len(snap.out_edges(vid))
            if degree == 0:
                continue
            share = rank[vid] / degree
            for edge in snap.out_edges(vid):
                incoming[edge.dst] += share
        rank = {
            vid: (1.0 - damping) / n + damping * incoming[vid]
            for vid in snap.vertex_ids()
        }
    return rank


def snapshot_lcc(snap: StaticGraph) -> dict[Any, float]:
    """Directed LCC: edges within the out-neighbour set over ``d (d-1)``.

    ``d`` is the out-*edge* count (multigraph convention shared with the
    platform implementations); membership in ``N(v)`` is by distinct
    neighbour, edges within ``N(v)`` are counted per edge instance.
    """
    out_sets = {vid: {e.dst for e in snap.out_edges(vid)} for vid in snap.vertex_ids()}
    lcc = {}
    for vid in snap.vertex_ids():
        neighbours = out_sets[vid]
        degree = len(snap.out_edges(vid))
        possible = degree * (degree - 1)
        if possible == 0:
            lcc[vid] = 0.0
            continue
        count = 0
        for w in neighbours:
            for edge in snap.out_edges(w):
                if edge.dst in neighbours and edge.dst != w:
                    count += 1
        lcc[vid] = count / possible
    return lcc


def snapshot_tc(snap: StaticGraph) -> dict[Any, int]:
    """Per-vertex directed-3-cycle closing counts (each cycle seen at each
    of its three rotations, i.e. the global count is ``sum/3``)."""
    counts = {vid: 0 for vid in snap.vertex_ids()}
    for u in snap.vertex_ids():
        for e1 in snap.out_edges(u):
            v = e1.dst
            for e2 in snap.out_edges(v):
                w = e2.dst
                for e3 in snap.out_edges(w):
                    if e3.dst == u:
                        counts[w] += 1
    return counts


# -- temporal (TD) references: dense (vertex, time) DP grids --------------------


def _alive(graph: TemporalGraph, vid: Any, t: int) -> bool:
    return graph.vertex(vid).lifespan.contains_point(t)


def _edge_relaxations(graph: TemporalGraph, horizon: int, time_label: str):
    """Yield ``(src, t_dep, dst, t_arr, props)`` for every departure point."""
    window = Interval(0, horizon)
    for e in graph.edges():
        for piece_iv, piece in e.pieces(window):
            travel = piece.get(time_label, 1)
            for t in piece_iv.points():
                yield e.src, t, e.dst, t + travel, piece


def temporal_sssp_grid(
    graph: TemporalGraph,
    source: Any,
    *,
    horizon: Optional[int] = None,
    cost_label: str = "travel-cost",
    time_label: str = "travel-time",
) -> dict[Any, list[int]]:
    """``cost[vid][t]`` = min travel cost of a journey arriving by ``t``."""
    if horizon is None:
        horizon = graph.time_horizon()
    cost = {v.vid: [INF] * horizon for v in graph.vertices()}
    for t in range(horizon):
        if _alive(graph, source, t):
            cost[source][t] = 0
    changed = True
    while changed:
        changed = False
        for vid, row in cost.items():
            for t in range(1, horizon):
                if row[t] > row[t - 1] and _alive(graph, vid, t) and _alive(graph, vid, t - 1):
                    row[t] = row[t - 1]
                    changed = True
        for src, t_dep, dst, t_arr, piece in _edge_relaxations(graph, horizon, time_label):
            if t_arr >= horizon or cost[src][t_dep] >= INF or not _alive(graph, dst, t_arr):
                continue
            candidate = cost[src][t_dep] + piece.get(cost_label, 1)
            if candidate < cost[dst][t_arr]:
                cost[dst][t_arr] = candidate
                changed = True
    return cost


def temporal_eat(
    graph: TemporalGraph,
    source: Any,
    *,
    horizon: Optional[int] = None,
    time_label: str = "travel-time",
) -> dict[Any, Optional[int]]:
    """Earliest time-respecting arrival per vertex, or ``None``."""
    if horizon is None:
        horizon = graph.time_horizon()
    reach = temporal_reach_grid(graph, source, horizon=horizon, time_label=time_label)
    out: dict[Any, Optional[int]] = {}
    for vid, row in reach.items():
        out[vid] = next((t for t in range(horizon) if row[t]), None)
    return out


def temporal_reach_grid(
    graph: TemporalGraph,
    source: Any,
    *,
    horizon: Optional[int] = None,
    time_label: str = "travel-time",
) -> dict[Any, list[bool]]:
    """``reach[vid][t]`` = a journey from the source can be at ``vid`` at ``t``."""
    if horizon is None:
        horizon = graph.time_horizon()
    reach = {v.vid: [False] * horizon for v in graph.vertices()}
    for t in range(horizon):
        if _alive(graph, source, t):
            reach[source][t] = True
    changed = True
    while changed:
        changed = False
        for vid, row in reach.items():
            for t in range(1, horizon):
                if not row[t] and row[t - 1] and _alive(graph, vid, t) and _alive(graph, vid, t - 1):
                    row[t] = True
                    changed = True
        for src, t_dep, dst, t_arr, _ in _edge_relaxations(graph, horizon, time_label):
            if (t_arr < horizon and reach[src][t_dep] and not reach[dst][t_arr]
                    and _alive(graph, dst, t_arr)):
                reach[dst][t_arr] = True
                changed = True
    return reach


def temporal_fast(
    graph: TemporalGraph,
    source: Any,
    *,
    horizon: Optional[int] = None,
    time_label: str = "travel-time",
) -> dict[Any, Optional[int]]:
    """Minimum journey duration per destination: enumerate every start.

    For each possible start time ``s`` the source can depart at, compute
    earliest arrivals of journeys starting no earlier than ``s``; duration
    is ``arrival - s``; take the minimum over ``s``.
    """
    if horizon is None:
        horizon = graph.time_horizon()
    best: dict[Any, Optional[int]] = {v.vid: None for v in graph.vertices()}
    src_life = graph.vertex(source).lifespan
    for s in range(src_life.start, min(src_life.end, horizon)):
        reach = {v.vid: [False] * horizon for v in graph.vertices()}
        for t in range(s, horizon):
            if _alive(graph, source, t):
                reach[source][t] = True
        changed = True
        while changed:
            changed = False
            for vid, row in reach.items():
                for t in range(1, horizon):
                    if not row[t] and row[t - 1] and _alive(graph, vid, t) and _alive(graph, vid, t - 1):
                        row[t] = True
                        changed = True
            for src, t_dep, dst, t_arr, _ in _edge_relaxations(graph, horizon, time_label):
                if (t_arr < horizon and reach[src][t_dep] and not reach[dst][t_arr]
                        and _alive(graph, dst, t_arr)):
                    reach[dst][t_arr] = True
                    changed = True
        for vid, row in reach.items():
            if vid == source:
                continue
            arrival = next((t for t in range(horizon) if row[t]), None)
            if arrival is not None and arrival >= s:
                duration = arrival - s
                if best[vid] is None or duration < best[vid]:
                    best[vid] = duration
    best[source] = 0 if any(_alive(graph, source, t) for t in range(horizon)) else None
    return best


def temporal_ld(
    graph: TemporalGraph,
    target: Any,
    deadline: int,
    *,
    horizon: Optional[int] = None,
    time_label: str = "travel-time",
) -> dict[Any, Optional[int]]:
    """Latest departure per vertex to reach ``target`` by ``deadline``.

    Backward DP: ``ok[vid][t]`` = being at ``vid`` at ``t`` allows reaching
    the target by the deadline; LD = max ``t`` with a *departure* at ``t``
    (or the deadline itself for the target).
    """
    if horizon is None:
        horizon = graph.time_horizon()
    ok = {v.vid: [False] * horizon for v in graph.vertices()}
    for t in range(min(deadline + 1, horizon)):
        if _alive(graph, target, t):
            ok[target][t] = True
    departures: dict[Any, set[int]] = {v.vid: set() for v in graph.vertices()}
    changed = True
    while changed:
        changed = False
        for vid, row in ok.items():
            for t in range(horizon - 2, -1, -1):
                if not row[t] and row[t + 1] and _alive(graph, vid, t) and _alive(graph, vid, t + 1):
                    row[t] = True
                    changed = True
        for src, t_dep, dst, t_arr, _ in _edge_relaxations(graph, horizon, time_label):
            if t_arr < horizon and _alive(graph, dst, t_arr) and ok[dst][t_arr]:
                if t_dep not in departures[src]:
                    departures[src].add(t_dep)
                    changed = True
                if not ok[src][t_dep]:
                    ok[src][t_dep] = True
                    changed = True
    out: dict[Any, Optional[int]] = {}
    for vid in ok:
        if vid == target:
            out[vid] = deadline if any(ok[target]) else None
        else:
            out[vid] = max(departures[vid]) if departures[vid] else None
    return out


def temporal_tmst_arrivals(
    graph: TemporalGraph,
    source: Any,
    *,
    horizon: Optional[int] = None,
    time_label: str = "travel-time",
) -> dict[Any, Optional[int]]:
    """Earliest arrivals (the TMST tree's node labels)."""
    return temporal_eat(graph, source, horizon=horizon, time_label=time_label)
