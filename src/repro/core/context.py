"""Execution contexts handed to interval-centric user logic.

``VertexContext`` is the vertex's view during ``init``/``compute``/
``scatter``: its static attributes (lifespan, out-edges, properties), its
dynamic partitioned state, and engine services (aggregators, superstep).
``EdgeContext`` wraps one property-constant edge piece for ``scatter``.
``MasterContext`` is the coordination view for ``master_compute``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Optional, TYPE_CHECKING

from .interval import Interval, coalesce
from .state import PartitionedState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.model import EdgePiece, TemporalEdge, TemporalVertex


class EdgeContext:
    """One out-edge piece: constant properties over ``interval``."""

    __slots__ = ("edge", "interval", "values")

    def __init__(self, edge: "TemporalEdge", interval: Interval, values: dict[str, Any]):
        self.edge = edge
        self.interval = interval
        self.values = values

    @property
    def eid(self) -> Any:
        return self.edge.eid

    @property
    def src(self) -> Any:
        return self.edge.src

    @property
    def dst(self) -> Any:
        return self.edge.dst

    @property
    def lifespan(self) -> Interval:
        return self.edge.lifespan

    def get(self, label: str, default: Any = None) -> Any:
        """Static property value, constant over this piece's interval."""
        return self.values.get(label, default)

    def __repr__(self) -> str:
        return f"EdgeContext({self.eid!r}:{self.src!r}->{self.dst!r} @ {self.interval})"


class VertexContext:
    """The interval-vertex view for user logic."""

    __slots__ = (
        "_vertex",
        "_state",
        "_engine",
        "_updated",
        "_current_interval",
        "_phase",
        "_degree_timeline",
    )

    def __init__(self, vertex: "TemporalVertex", state: PartitionedState, engine):
        self._vertex = vertex
        self._state = state
        self._engine = engine
        self._updated: list[Interval] = []
        self._current_interval: Optional[Interval] = None
        self._phase = "idle"  # the processor stores "init" / "compute" / "scatter"
        #: ``(bounds, degrees)`` of the out-degree timeline, built on the
        #: first :meth:`out_degree_rows` call; dies with the context.
        self._degree_timeline: Optional[tuple[list[int], list[int]]] = None

    # -- static attributes ---------------------------------------------------

    @property
    def vertex_id(self) -> Any:
        return self._vertex.vid

    @property
    def lifespan(self) -> Interval:
        return self._vertex.lifespan

    @property
    def superstep(self) -> int:
        return self._engine.superstep

    @property
    def num_vertices(self) -> int:
        return self._engine.graph.num_vertices

    def out_edges(self) -> list["TemporalEdge"]:
        """The vertex's static out-edges (temporal, with lifespans)."""
        return self._engine.graph.out_edges(self._vertex.vid)

    def out_degree(self, interval: Optional[Interval] = None) -> int:
        """Out-edges overlapping ``interval`` (default: whole lifespan)."""
        if interval is None:
            return self._engine.graph.out_degree(self._vertex.vid)
        return sum(1 for e in self.out_edges() if e.lifespan.overlaps(interval))

    def vertex_property(self, label: str, t: int) -> Any:
        """Static vertex property value at time-point ``t`` (or None)."""
        return self._vertex.properties.value_at(label, t)

    def out_degree_segments(self, interval: Interval) -> list[tuple[Interval, int]]:
        """Piecewise-constant out-degree over ``interval``: the segments of
        :meth:`out_degree_rows`, boxed.  The list is the caller's."""
        make = Interval._unchecked  # start < cuts < end, ascending
        return [(make(s, e), d) for s, e, d in self.out_degree_rows(interval.start, interval.end)]

    def out_degree_rows(self, start: int, end: int) -> list[tuple[int, int, int]]:
        """Piecewise-constant out-degree over ``[start, end)`` as
        ``(start, end, degree)`` rows, the form a ``transfer`` reads.

        Splits the interval at every out-edge lifespan boundary and reports
        the number of live out-edges per segment — what PageRank needs to
        divide its rank share correctly as the topology evolves.  Segments
        with zero live edges are included (degree 0), and neighbouring
        segments of equal degree stay split at the boundary between them.
        Answered from the vertex's degree timeline — its sorted out-edge
        lifespan boundaries with the running degree between them — built
        on first use and sliced by bisection.  The list is the caller's.
        """
        timeline = self._degree_timeline
        if timeline is None:
            timeline = self._degree_timeline = self._build_degree_timeline()
        bounds, degrees = timeline
        # The cuts are the bounds strictly inside the interval;
        # ``degrees[i]`` is the degree just before ``bounds[i]``, so the
        # segment ending at ``bounds[i]`` — or at ``end``, for ``i == last``
        # — has degree ``degrees[i]``.
        first = bisect_right(bounds, start)
        last = bisect_left(bounds, end)
        rows = []
        lo = start
        for idx in range(first, last):
            hi = bounds[idx]
            rows.append((lo, hi, degrees[idx]))
            lo = hi
        rows.append((lo, end, degrees[last]))
        return rows

    def _build_degree_timeline(self) -> tuple[list[int], list[int]]:
        """``(bounds, degrees)``: the distinct out-edge lifespan boundaries
        in order, and the live out-degree just before each one, plus a final
        entry (always 0) for the stretch after the last."""
        deltas: dict[int, int] = {}
        for e in self.out_edges():
            span = e.lifespan
            deltas[span.start] = deltas.get(span.start, 0) + 1
            deltas[span.end] = deltas.get(span.end, 0) - 1
        bounds = sorted(deltas)
        degrees = [0]
        for b in bounds:
            degrees.append(degrees[-1] + deltas[b])
        return bounds, degrees

    # -- dynamic state ---------------------------------------------------------

    @property
    def state(self) -> PartitionedState:
        """Read access to the full partitioned state."""
        return self._state

    def set_state(self, interval: Interval, value: Any) -> None:
        """Update state for ``interval``, repartitioning as needed.

        During ``compute`` the interval must lie within the active interval
        being computed — this is what makes concurrent per-interval calls
        interference-free (paper Sec. IV-A3).
        """
        if self._phase == "scatter":
            raise RuntimeError("scatter must not update vertex state")
        if self._phase == "compute" and self._current_interval is not None:
            if not interval.within(self._current_interval):
                raise ValueError(
                    f"compute for {self._current_interval} may only update "
                    f"sub-intervals of it, got {interval}"
                )
        self._state.set(interval, value)
        self._updated.append(interval)

    def state_at(self, t: int) -> Any:
        """The dynamic state value at time-point ``t``."""
        return self._state.value_at(t)

    # -- engine services -----------------------------------------------------

    def send(self, dst_vid: Any, interval: Interval, value: Any) -> None:
        """Send an interval message to an *arbitrary* vertex.

        Pregel-style direct messaging, needed by algorithms like LCC whose
        replies travel against (or outside) the edge structure.  Regular
        neighbour messaging should go through ``scatter`` return values.
        """
        self._engine.send_direct(self.vertex_id, dst_vid, interval, value)

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a named global aggregator for the next superstep."""
        self._engine.contribute_aggregate(name, value)

    def get_aggregate(self, name: str, default: Any = None) -> Any:
        """Read the aggregator value reduced in the previous superstep."""
        return self._engine.read_aggregate(name, default)

    # -- engine internals ------------------------------------------------------

    def _take_updates(self) -> list[Interval]:
        updates = self._updated
        if not updates:
            return []
        self._updated = []
        return coalesce(updates) if len(updates) > 1 else updates  # one: its own cover

    def __repr__(self) -> str:
        return f"VertexContext({self.vertex_id!r}, superstep={self.superstep})"


class MasterContext:
    """Coordination view between supersteps (Giraph MasterCompute)."""

    def __init__(self, superstep: int, aggregates: dict[str, Any], num_active: int):
        self.superstep = superstep
        self._aggregates = aggregates
        self.num_active_vertices = num_active
        self._halt = False
        self._overrides: dict[str, Any] = {}

    def get_aggregate(self, name: str, default: Any = None) -> Any:
        return self._aggregates.get(name, default)

    def set_aggregate(self, name: str, value: Any) -> None:
        """Override an aggregator value visible to the next superstep."""
        self._overrides[name] = value

    def halt(self) -> None:
        """Force the computation to stop after this superstep."""
        self._halt = True
