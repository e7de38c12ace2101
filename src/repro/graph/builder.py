"""Validating builder for temporal graphs.

The builder is the public construction path: it enforces the paper's three
soundness constraints eagerly, gives friendly errors, and supports both
scalar ("constant over the lifespan") and timeline property specifications.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional, Union

from repro.core.interval import FOREVER, Interval
from .model import EdgeId, TemporalEdge, TemporalGraph, TemporalVertex, VertexId

#: A property spec: scalar (constant over the owner's lifespan) or a list of
#: ``(start, end, value)`` triples.
PropertySpec = Union[Any, list[tuple[int, int, Any]]]


class TemporalGraphBuilder:
    """Incrementally assemble and validate a :class:`TemporalGraph`.

    Example
    -------
    >>> b = TemporalGraphBuilder()
    >>> _ = b.add_vertex("A", 0)
    >>> _ = b.add_vertex("B", 0)
    >>> _ = b.add_edge("A", "B", 3, 6, props={"cost": [(3, 5, 4), (5, 6, 3)]})
    >>> g = b.build()
    >>> g.num_edges
    1
    """

    def __init__(self) -> None:
        self._graph = TemporalGraph()
        self._eid_counter = itertools.count()
        self._built = False

    # -- vertices ------------------------------------------------------------

    def add_vertex(
        self,
        vid: VertexId,
        start: int = 0,
        end: int = FOREVER,
        props: Optional[dict[str, PropertySpec]] = None,
    ) -> "TemporalGraphBuilder":
        """Add vertex ``⟨vid, [start, end)⟩``; returns self for chaining."""
        self._check_open()
        if self._graph.has_vertex(vid):
            raise ValueError(f"vertex {vid!r} already exists (constraint 1)")
        vertex = TemporalVertex(vid, Interval(start, end))
        self._attach_properties(vertex.properties, vertex.lifespan, props, f"vertex {vid!r}")
        self._graph._add_vertex(vertex)
        return self

    def add_vertices(self, vids: Iterable[VertexId], start: int = 0, end: int = FOREVER) -> "TemporalGraphBuilder":
        for vid in vids:
            self.add_vertex(vid, start, end)
        return self

    # -- edges ---------------------------------------------------------------

    def add_edge(
        self,
        src: VertexId,
        dst: VertexId,
        start: int = 0,
        end: int = FOREVER,
        *,
        eid: Optional[EdgeId] = None,
        props: Optional[dict[str, PropertySpec]] = None,
    ) -> EdgeId:
        """Add a directed edge; returns its (possibly generated) edge id."""
        self._check_open()
        if eid is None:
            eid = f"e{next(self._eid_counter)}"
        elif self._graph.has_edge(eid):
            raise ValueError(f"edge {eid!r} already exists (constraint 1)")
        for endpoint in (src, dst):
            if not self._graph.has_vertex(endpoint):
                raise ValueError(f"edge {eid!r} references unknown vertex {endpoint!r}")
        lifespan = Interval(start, end)
        src_life = self._graph.vertex(src).lifespan
        dst_life = self._graph.vertex(dst).lifespan
        if not lifespan.within(src_life) or not lifespan.within(dst_life):
            raise ValueError(
                f"edge {eid!r} lifespan {lifespan} not contained in endpoint "
                f"lifespans {src_life}, {dst_life} (constraint 2)"
            )
        edge = TemporalEdge(eid, src, dst, lifespan)
        self._attach_properties(edge.properties, lifespan, props, f"edge {eid!r}")
        self._graph._add_edge(edge)
        return eid

    # -- finalisation ----------------------------------------------------------

    def build(self, validate: bool = True) -> TemporalGraph:
        """Freeze and return the graph; the builder cannot be reused."""
        self._check_open()
        self._built = True
        if validate:
            self._graph.validate()
        return self._graph

    # -- internals ---------------------------------------------------------

    def _attach_properties(
        self,
        props_target,
        lifespan: Interval,
        props: Optional[dict[str, PropertySpec]],
        owner: str,
    ) -> None:
        if not props:
            return
        for label, spec in props.items():
            for iv, value in _normalise_spec(spec, lifespan):
                if not iv.within(lifespan):
                    raise ValueError(
                        f"{owner} property {label!r} interval {iv} exceeds "
                        f"lifespan {lifespan} (constraint 3)"
                    )
                props_target.add(label, iv, value)

    def _check_open(self) -> None:
        if self._built:
            raise RuntimeError("builder already consumed by build()")


def _normalise_spec(spec: PropertySpec, lifespan: Interval) -> list[tuple[Interval, Any]]:
    if isinstance(spec, list) and spec and isinstance(spec[0], tuple) and len(spec[0]) == 3:
        return [(Interval(s, e), v) for s, e, v in spec]
    return [(lifespan, spec)]
