"""Zero-copy temporal windows over a resident graph.

``graph.window(start, end)`` answers "the graph as it was during
``[start, end)``" without building a second graph — Raphtory's
``graph.window(a, b)`` (arXiv:2306.16309): one frozen store, any number of
clipped *views* over it.  A :class:`GraphWindow` implements the read
protocol the engine, executors, partitioners and runners use, over either
store:

* entities whose lifespan misses the window are dropped; an entity that
  lies inside it is handed out **as is** (the resident object), and one
  that straddles a window end is wrapped in a stand-in carrying the clipped
  lifespan — built on demand, a few words each, gone with the view;
* :meth:`GraphWindow.piece_indexes` pairs each (clipped) out-edge with the
  **resident** graph's :class:`~repro.graph.properties.PieceIndex`, whose
  ``pieces(start, end)`` clips by bisection — no property is copied and no
  index is rebuilt, however many windows are open;
* a stand-in's ``properties`` are clipped only if somebody asks for them
  (the scatter path never does).

The view is equivalent to :func:`repro.query.slice.temporal_slice` — same
entities in the same enumeration order, same lifespans, same pieces, same
``time_horizon()`` — for graphs that honour the model's containment
constraints (an edge lives within both endpoints, a property within its
owner): the constraints are what lets an edge be judged by its own
lifespan alone.  ``tests/graph/test_window_view.py`` holds it to the
materialised slice for all 12 algorithms.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.interval import FOREVER, Interval
from .model import _PiecewiseEdge
from .properties import PieceIndex, PropertySet

__all__ = ["GraphWindow"]


class _Clipped:
    """An entity that straddles a window end, seen through the window: the
    resident entity's identity, the clipped lifespan, and — only if asked
    for — its properties clipped to match."""

    __slots__ = ("_resident", "lifespan", "_properties")

    @property
    def properties(self) -> PropertySet:
        props = self._properties
        if props is None:
            props = self._properties = self._resident.properties.clipped(self.lifespan)
        return props


class _ClippedVertex(_Clipped):
    __slots__ = ("vid",)

    def __init__(self, vertex, lifespan: Interval):
        self._resident = vertex
        self.lifespan = lifespan
        self._properties = None
        self.vid = vertex.vid

    def __repr__(self) -> str:
        return f"Vertex({self.vid!r}, {self.lifespan})"


class _ClippedEdge(_Clipped, _PiecewiseEdge):
    """``piece_index()`` is the resident edge's own: ``pieces()`` clips it
    to this stand-in's lifespan."""

    __slots__ = ("eid", "src", "dst")

    def __init__(self, edge, lifespan: Interval):
        self._resident = edge
        self.lifespan = lifespan
        self._properties = None
        self.eid = edge.eid
        self.src = edge.src
        self.dst = edge.dst

    def piece_index(self) -> PieceIndex:
        return self._resident.piece_index()

    def __repr__(self) -> str:
        return f"Edge({self.eid!r}: {self.src!r}->{self.dst!r}, {self.lifespan})"


class GraphWindow:
    """A read-only view of ``base`` clipped to ``window``.

    Reached as ``graph.window(start, end)`` on
    :class:`~repro.graph.model.TemporalGraph` and
    :class:`~repro.graph.compact.CompactGraph`.  Building one costs
    nothing; the first vertex enumeration scans the resident vertices once
    (the only table the view keeps), edges are clipped as they are handed
    out.  Pickles as ``(base, window)``.
    """

    def __init__(self, base, window: Interval):
        self.base = base
        self.interval = window
        self._table: Optional[dict[Any, Any]] = None

    def __reduce__(self):
        return (GraphWindow, (self.base, self.interval))

    def __repr__(self) -> str:
        return f"GraphWindow({self.base!r}, {self.interval})"

    # -- clipping ------------------------------------------------------------

    def _clip(self, entity, stand_in):
        """``entity`` as the window shows it: itself when it lies inside,
        a clipped stand-in when it straddles an end, ``None`` outside."""
        span = entity.lifespan
        start, end = span.start, span.end
        w_start, w_end = self.interval.start, self.interval.end
        if start >= w_start and end <= w_end:
            return entity
        if start >= w_end or end <= w_start:
            return None
        return stand_in(
            entity,
            Interval._unchecked(  # the branches above leave start < end
                start if start > w_start else w_start,
                end if end < w_end else w_end,
            ),
        )

    def _vertices(self) -> dict[Any, Any]:
        table = self._table
        if table is None:
            clip = self._clip
            table = {}
            for v in self.base.vertices():
                v = clip(v, _ClippedVertex)
                if v is not None:
                    table[v.vid] = v
            self._table = table
        return table

    def _edges(self, edges) -> list:
        clip = self._clip
        return [c for e in edges if (c := clip(e, _ClippedEdge)) is not None]

    # -- the graph read protocol ----------------------------------------------

    def vertex(self, vid: Any):
        return self._vertices()[vid]

    def has_vertex(self, vid: Any) -> bool:
        """O(1): asks the resident graph, never scans."""
        base = self.base
        return base.has_vertex(vid) and base.vertex(vid).lifespan.overlaps(self.interval)

    def vertices(self) -> Iterator:
        return iter(self._vertices().values())

    def vertex_ids(self) -> list:
        return list(self._vertices())

    @property
    def num_vertices(self) -> int:
        return len(self._vertices())

    def out_edges(self, vid: Any) -> list:
        return self._edges(self.base.out_edges(vid))

    def in_edges(self, vid: Any) -> list:
        return self._edges(self.base.in_edges(vid))

    def out_degree(self, vid: Any) -> int:
        """Out-edges alive in the window (their lifespans decide; no
        stand-in is built)."""
        window = self.interval
        return sum(1 for e in self.base.out_edges(vid) if e.lifespan.overlaps(window))

    def in_degree(self, vid: Any) -> int:
        window = self.interval
        return sum(1 for e in self.base.in_edges(vid) if e.lifespan.overlaps(window))

    def edges(self) -> Iterator:
        clip = self._clip
        for e in self.base.edges():
            e = clip(e, _ClippedEdge)
            if e is not None:
                yield e

    def edge_records(self) -> Iterator[tuple[Any, Any, int, int]]:
        """``(src_vid, dst_vid, start, end)`` per edge alive in the window,
        its bounds clipped — what :meth:`edges` hands out, read off the
        resident graph's own records with no edge object or stand-in."""
        w_start, w_end = self.interval.start, self.interval.end
        records = getattr(self.base, "edge_records", None)
        if records is not None:
            records = records()
        else:
            records = (
                (e.src, e.dst, e.lifespan.start, e.lifespan.end)
                for e in self.base.edges()
            )
        for src, dst, start, end in records:
            if start < w_end and end > w_start:
                yield (src, dst, start if start > w_start else w_start,
                       end if end < w_end else w_end)

    @property
    def num_edges(self) -> int:
        window = self.interval
        return sum(1 for e in self.base.edges() if e.lifespan.overlaps(window))

    def piece_indexes(self, vid: Any) -> list[tuple[Any, PieceIndex]]:
        """``(edge, piece index)`` per out-edge of ``vid`` alive in the
        window — the resident graph's own indexes, shared by every view."""
        clip = self._clip
        return [
            (c, index)
            for e, index in self.base.piece_indexes(vid)
            if (c := clip(e, _ClippedEdge)) is not None
        ]

    def lifespan(self) -> Interval:
        """Hull of the (clipped) vertex lifespans."""
        spans = [v.lifespan for v in self._vertices().values()]
        if not spans:
            raise ValueError("empty graph has no lifespan")
        return Interval(min(s.start for s in spans), max(s.end for s in spans))

    def time_horizon(self, default: int = 1) -> int:
        """Largest bounded end time across the clipped entities.

        A bounded window bounds every entity it shows, and edges and their
        properties end no later than their endpoints, so the vertices
        decide; an unbounded window shows every bounded end past its start
        unclipped, so the resident graph's own (memoized) horizon decides.
        """
        w_start, w_end = self.interval.start, self.interval.end
        if w_end >= FOREVER:
            horizon = self.base.time_horizon(0)
            return horizon if horizon > w_start else default
        horizon = max(
            (v.lifespan.end for v in self._vertices().values()), default=0
        )
        return horizon if horizon > 0 else default

    def reversed(self) -> "GraphWindow":
        """The same window over the resident graph's ``reversed()``."""
        return GraphWindow(self.base.reversed(), self.interval)
