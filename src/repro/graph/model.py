"""The temporal property graph data model (paper Sec. III, Def. 1).

A temporal graph is a directed multi-graph ``G = (V, E, L, A_V, A_E)`` where
vertices and edges carry a *lifespan* interval and interval-valued
properties.  Three soundness constraints are enforced by the
:class:`~repro.graph.builder.TemporalGraphBuilder` (the first also by
:class:`TemporalGraph` itself, whoever builds it):

1. **Unique vertices and edges** — an id exists at most once, for one
   contiguous interval, and never re-occurs.
2. **Referential integrity of edges** — an edge's lifespan is contained in
   the lifespans of both endpoints.
3. **Referential integrity of properties** — a property interval is
   contained in its owner's lifespan.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.core.interval import FOREVER, Interval
from . import properties
from .properties import PieceIndex, PropertySet

VertexId = Any
EdgeId = Any


class TemporalVertex:
    """A vertex ``⟨vid, τ⟩`` with optional interval-valued properties."""

    __slots__ = ("vid", "lifespan", "properties")

    def __init__(self, vid: VertexId, lifespan: Interval):
        self.vid = vid
        self.lifespan = lifespan
        self.properties = PropertySet()

    def __repr__(self) -> str:
        return f"Vertex({self.vid!r}, {self.lifespan})"


class _PiecewiseEdge:
    """``pieces(window)`` for both stores' edge types: one body, slicing the
    edge's resident :class:`~repro.graph.properties.PieceIndex`."""

    __slots__ = ()

    def pieces(self, window: Interval) -> list[tuple[Interval, "EdgePiece"]]:
        """Partition ``lifespan ∩ window`` by property change points.

        Each piece carries the property values constant over its interval.
        Scatter is invoked once per piece per overlapping updated state
        (paper: "scatter is called once for each overlapping interval of its
        out-edges having a distinct property").  Property-free edges yield a
        single piece.
        """
        span = self.lifespan
        start = span.start if span.start > window.start else window.start
        end = span.end if span.end < window.end else window.end
        if start >= end:
            return []
        return [
            (iv, EdgePiece(self, iv, values))
            for iv, values in self.piece_index().pieces(start, end)
        ]


class TemporalEdge(_PiecewiseEdge):
    """A directed edge ``⟨eid, src, dst, τ⟩`` with interval properties."""

    __slots__ = ("eid", "src", "dst", "lifespan", "properties")

    def __init__(self, eid: EdgeId, src: VertexId, dst: VertexId, lifespan: Interval):
        self.eid = eid
        self.src = src
        self.dst = dst
        self.lifespan = lifespan
        self.properties = PropertySet()

    def piece_index(self) -> PieceIndex:
        return self.properties.piece_index()

    def __repr__(self) -> str:
        return f"Edge({self.eid!r}: {self.src!r}->{self.dst!r}, {self.lifespan})"


class EdgePiece:
    """A maximal sub-interval of an edge with constant property values."""

    __slots__ = ("edge", "interval", "values")

    def __init__(self, edge: TemporalEdge, interval: Interval, values: dict[str, Any]):
        self.edge = edge
        self.interval = interval
        self.values = values

    def get(self, label: str, default: Any = None) -> Any:
        return self.values.get(label, default)

    def __repr__(self) -> str:
        return f"EdgePiece({self.edge.eid!r}, {self.interval}, {self.values})"


class TemporalGraph:
    """An immutable-by-convention temporal property multi-graph.

    Construct through :class:`~repro.graph.builder.TemporalGraphBuilder`,
    which validates the soundness constraints; direct construction is for
    internal use (generators that produce valid graphs by design).
    """

    def __init__(self) -> None:
        self._vertices: dict[VertexId, TemporalVertex] = {}
        self._edges: dict[EdgeId, TemporalEdge] = {}
        self._out: dict[VertexId, list[TemporalEdge]] = {}
        self._in: dict[VertexId, list[TemporalEdge]] = {}
        #: Graph-lifetime derived tables (DESIGN.md §7): the pool that
        #: interns piece ``values`` dicts (the piece tables themselves hang
        #: off the property sets), the raw ``time_horizon()`` memo and the
        #: placement statistics per (workers, partitioner fingerprint).
        self._values: dict = {}
        self._horizon: Optional[int] = None
        self._placement: dict = {}
        #: The ``reversed()`` memo: ``(generation, graph, its generation)``.
        self._reversed: Optional[tuple] = None

    # -- accessors ---------------------------------------------------------

    def vertex(self, vid: VertexId) -> TemporalVertex:
        return self._vertices[vid]

    def edge(self, eid: EdgeId) -> TemporalEdge:
        return self._edges[eid]

    def has_vertex(self, vid: VertexId) -> bool:
        return vid in self._vertices

    def has_edge(self, eid: EdgeId) -> bool:
        return eid in self._edges

    def vertices(self) -> Iterator[TemporalVertex]:
        return iter(self._vertices.values())

    def edges(self) -> Iterator[TemporalEdge]:
        return iter(self._edges.values())

    def vertex_ids(self) -> list[VertexId]:
        return list(self._vertices)

    def out_edges(self, vid: VertexId) -> list[TemporalEdge]:
        return self._out.get(vid, [])

    def in_edges(self, vid: VertexId) -> list[TemporalEdge]:
        return self._in.get(vid, [])

    def out_degree(self, vid: VertexId) -> int:
        """``len(out_edges(vid))`` — on every store without building the
        edges (part of the graph read protocol)."""
        return len(self._out.get(vid, ()))

    def in_degree(self, vid: VertexId) -> int:
        return len(self._in.get(vid, ()))

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def lifespan(self) -> Interval:
        """Hull of all vertex lifespans (the graph's lifespan)."""
        if not self._vertices:
            raise ValueError("empty graph has no lifespan")
        start = min(v.lifespan.start for v in self._vertices.values())
        end = max(v.lifespan.end for v in self._vertices.values())
        return Interval(start, end)

    def time_horizon(self, default: int = 1) -> int:
        """Largest *bounded* end time across entities; snapshot count.

        Graphs whose entities all extend to :data:`FOREVER` report
        ``default`` — they are effectively non-temporal.
        """
        horizon = self._horizon
        if horizon is None:
            horizon = 0
            for v in self._vertices.values():
                if not v.lifespan.is_unbounded:
                    horizon = max(horizon, v.lifespan.end)
            for e in self._edges.values():
                if not e.lifespan.is_unbounded:
                    horizon = max(horizon, e.lifespan.end)
                for label in e.properties:
                    span = e.properties.timeline(label).span()
                    if span is not None and not span.is_unbounded:
                        horizon = max(horizon, span.end)
            self._horizon = horizon
        return horizon if horizon > 0 else default

    @property
    def generation(self) -> tuple[int, int, int]:
        """Changes whenever this graph may have: a vertex or an edge added
        to it (none is ever removed, so the counts only grow), or a property
        added to any set in the process.  What was derived from an equal
        generation (the ``reversed()`` memo, a resident worker group's copy
        of the graph) is still exact."""
        return (len(self._vertices), len(self._edges), properties.ADDS)

    def piece_indexes(self, vid: VertexId) -> list[tuple[TemporalEdge, PieceIndex]]:
        """``(edge, piece index)`` per out-edge of ``vid`` — what scatter
        walks.  Indexes are built on first touch and stay on the property
        sets for the graph's lifetime, so every later run (and
        :meth:`reversed`) reuses them."""
        pool = self._values
        return [(e, e.properties.piece_index(pool)) for e in self._out.get(vid, ())]

    # -- mutation (builder / generator use only) ----------------------------

    def _add_vertex(self, vertex: TemporalVertex) -> None:
        if vertex.vid in self._vertices:
            raise ValueError(f"vertex {vertex.vid!r} already exists (constraint 1)")
        self._horizon = None
        self._placement.clear()
        self._vertices[vertex.vid] = vertex
        self._out.setdefault(vertex.vid, [])
        self._in.setdefault(vertex.vid, [])

    def _add_edge(self, edge: TemporalEdge) -> None:
        if edge.eid in self._edges:
            raise ValueError(f"edge {edge.eid!r} already exists (constraint 1)")
        self._horizon = None
        self._placement.clear()
        self._edges[edge.eid] = edge
        self._out.setdefault(edge.src, []).append(edge)
        self._in.setdefault(edge.dst, []).append(edge)

    # -- derived views -------------------------------------------------------

    def reversed(self) -> "TemporalGraph":
        """A copy with every edge direction flipped (shares property sets).

        Used by reverse-traversing algorithms such as Latest Departure.
        Memoised: the same object comes back while neither graph's
        :attr:`generation` has moved since it was built.
        """
        memo = self._reversed
        if (
            memo is not None
            and memo[0] == self.generation
            and memo[1].generation == memo[2]
        ):
            return memo[1]
        rev = TemporalGraph()
        rev._values = self._values
        for v in self._vertices.values():
            rv = TemporalVertex(v.vid, v.lifespan)
            rv.properties = v.properties
            rev._add_vertex(rv)
        for e in self._edges.values():
            re = TemporalEdge(e.eid, e.dst, e.src, e.lifespan)
            re.properties = e.properties
            rev._add_edge(re)
        self._reversed = (self.generation, rev, rev.generation)
        return rev

    def window(self, start: int, end: int = FOREVER) -> "GraphWindow":
        """This graph during ``[start, end)``: a zero-copy, read-only view
        (:class:`~repro.graph.window.GraphWindow`) — lifespans clipped,
        entities outside dropped, this graph's piece indexes shared."""
        from .window import GraphWindow

        return GraphWindow(self, Interval(start, end))

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_values": {}, "_reversed": None}

    def validate(self) -> None:
        """Check constraints 2 and 3 (``_add_vertex`` / ``_add_edge`` refuse
        a repeated id, so constraint 1 holds for every graph built)."""
        for e in self._edges.values():
            self._check_endpoints(e)
            _check_property_containment(e.properties, e.lifespan, f"edge {e.eid!r}")
        for v in self._vertices.values():
            _check_property_containment(v.properties, v.lifespan, f"vertex {v.vid!r}")

    def _check_endpoints(self, e: TemporalEdge) -> None:
        """Constraint 2 for one edge (the text loader reports it per row)."""
        src = self._vertices.get(e.src)
        dst = self._vertices.get(e.dst)
        if src is None or dst is None:
            raise ValueError(f"edge {e.eid!r} references missing vertex")
        if not e.lifespan.within(src.lifespan):
            raise ValueError(
                f"edge {e.eid!r} lifespan {e.lifespan} exceeds source {src.lifespan}"
            )
        if not e.lifespan.within(dst.lifespan):
            raise ValueError(
                f"edge {e.eid!r} lifespan {e.lifespan} exceeds sink {dst.lifespan}"
            )

    def __repr__(self) -> str:
        return f"TemporalGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


def _check_property_containment(props: PropertySet, lifespan: Interval, owner: str) -> None:
    for label in props:
        for iv, _ in props.timeline(label):
            if not iv.within(lifespan):
                raise ValueError(
                    f"{owner} property {label!r} interval {iv} exceeds lifespan {lifespan}"
                )
