"""Structural and temporal subgraph operators (TGA-style σ and τ).

These produce new :class:`TemporalGraph` values:

* :func:`temporal_slice` — clip every lifespan and property interval to a
  window (temporal selection);
* :func:`vertex_subgraph` / :func:`edge_subgraph` — keep entities
  satisfying a predicate, preserving referential integrity;
* :func:`between` — the subgraph induced by a set of vertex ids.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.interval import Interval
from repro.graph.model import (
    TemporalEdge,
    TemporalGraph,
    TemporalVertex,
)


def temporal_slice(graph: TemporalGraph, window: Interval) -> TemporalGraph:
    """Clip the graph to ``window``: entities outside it disappear,
    lifespans and property intervals are intersected with it."""
    out = TemporalGraph()
    for v in graph.vertices():
        lifespan = v.lifespan.intersect(window)
        if lifespan is None:
            continue
        nv = TemporalVertex(v.vid, lifespan)
        nv.properties = v.properties.clipped(window)
        out._add_vertex(nv)
    for e in graph.edges():
        lifespan = e.lifespan.intersect(window)
        if lifespan is None or not (out.has_vertex(e.src) and out.has_vertex(e.dst)):
            continue
        ne = TemporalEdge(e.eid, e.src, e.dst, lifespan)
        ne.properties = e.properties.clipped(window)
        out._add_edge(ne)
    out.validate()
    return out


def vertex_subgraph(
    graph: TemporalGraph, predicate: Callable[[TemporalVertex], bool]
) -> TemporalGraph:
    """Keep vertices passing ``predicate`` and the edges between them."""
    keep = {v.vid for v in graph.vertices() if predicate(v)}
    return between(graph, keep)


def edge_subgraph(
    graph: TemporalGraph, predicate: Callable[[TemporalEdge], bool]
) -> TemporalGraph:
    """Keep every vertex but only edges passing ``predicate``."""
    out = TemporalGraph()
    for v in graph.vertices():
        nv = TemporalVertex(v.vid, v.lifespan)
        _clone_properties(v.properties, nv.properties)
        out._add_vertex(nv)
    for e in graph.edges():
        if predicate(e):
            ne = TemporalEdge(e.eid, e.src, e.dst, e.lifespan)
            _clone_properties(e.properties, ne.properties)
            out._add_edge(ne)
    out.validate()
    return out


def between(graph: TemporalGraph, vertex_ids: Iterable[Any]) -> TemporalGraph:
    """The subgraph induced by ``vertex_ids``."""
    keep = set(vertex_ids)
    out = TemporalGraph()
    # Sorted, not set order: the result graph's vertex enumeration order
    # feeds engine runs, so it must not vary with PYTHONHASHSEED.
    for vid in sorted(keep, key=repr):
        if graph.has_vertex(vid):
            v = graph.vertex(vid)
            nv = TemporalVertex(v.vid, v.lifespan)
            _clone_properties(v.properties, nv.properties)
            out._add_vertex(nv)
    for e in graph.edges():
        if e.src in keep and e.dst in keep:
            ne = TemporalEdge(e.eid, e.src, e.dst, e.lifespan)
            _clone_properties(e.properties, ne.properties)
            out._add_edge(ne)
    out.validate()
    return out


def _clone_properties(src, dst) -> None:
    # Deep-copy into the entity's own property map: sharing the source's
    # object would let a subgraph mutation corrupt the original graph.
    for label in src:
        for iv, value in src.timeline(label):
            dst.add(label, iv, value)
