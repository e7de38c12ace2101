"""The interval-centric user-logic API (paper Sec. IV-A3).

Users subclass :class:`IntervalProgram` and provide:

* ``init(ctx)`` — called once per vertex before superstep 1 to seed the
  vertex's partitioned state;
* ``compute(ctx, interval, state, messages)`` — called once per active
  vertex sub-interval with the time-aligned prior state and the warped group
  of message values;
* ``scatter(ctx, edge, interval, state)`` — called once per
  ``(updated state ∩ edge property piece)`` sub-interval, returning interval
  messages for the edge's sink (or ``None`` to forward the state verbatim);
* or ``transfer(ctx, edge, start, end, state, piece)`` instead — the same
  call in row form, with ``(start, end, value)`` rows back.

Because warp guarantees the alignment, compute logic is near-identical to a
non-temporal vertex-centric program (compare Alg. 1 with Pregel SSSP).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Optional, Union

from .combiner import MessageCombiner
from .interval import Interval
from .messages import IntervalMessage, Row

#: What ``scatter`` may return per invocation: nothing (no message), or any
#: mix of :class:`IntervalMessage` and ``(Interval, value)`` pairs.
ScatterResult = Optional[Iterable[Union[IntervalMessage, tuple[Interval, Any]]]]


class IntervalProgram(ABC):
    """Base class for interval-centric algorithms."""

    #: Human-readable algorithm name (used in metrics and reports).
    name: str = "icm-program"

    #: Optional associative/commutative message combiner.  When set, the
    #: engine applies it receiver-side on identical intervals and inline in
    #: warp (the "warp combiner"), so ``compute`` receives a single folded
    #: value per group.
    combiner: Optional[MessageCombiner] = None

    #: When set, the engine keeps *every* vertex active for supersteps
    #: ``1..fixed_supersteps`` and stops after — the execution style of
    #: PR (10), TC (3) and LCC (4) in the paper.
    fixed_supersteps: Optional[int] = None

    #: Declares that re-delivering old messages can never corrupt the
    #: state (monotone folds like min/max/or): required by the streaming
    #: engine's incremental recomputation.  Fixed-superstep programs and
    #: aggregating folds must leave this False.
    incremental_safe: bool = False

    def init(self, ctx: "VertexContext") -> None:  # noqa: D401 (imperative)
        """Seed the vertex state; default leaves the state as ``None``."""

    @abstractmethod
    def compute(
        self,
        ctx: "VertexContext",
        interval: Interval,
        state: Any,
        messages: list[Any],
    ) -> None:
        """Update state for one active sub-interval.

        ``messages`` holds the *payload values* of the warped message group
        — each is valid over all of ``interval``.  With a combiner set, it
        is a single-element list holding the folded value.  In superstep 1
        it is empty and ``interval`` spans the vertex lifespan partitions.
        """

    def scatter(
        self,
        ctx: "VertexContext",
        edge: "EdgeContext",
        interval: Interval,
        state: Any,
    ) -> ScatterResult:
        """Produce messages for one updated-state × edge-piece overlap.

        The default boxes the rows of a subclass's :meth:`transfer`; without
        one it forwards the updated state over the same interval, matching
        the paper's "if scatter itself is not provided" rule.
        """
        if type(self).transfer is IntervalProgram.transfer:
            return [(interval, state)]
        rows = self.transfer(ctx, edge.edge, interval.start, interval.end, state, edge.values)
        if rows is None:
            return None
        return [(Interval(s, e), v) for s, e, v in ([rows] if type(rows) is tuple else rows)]

    def transfer(self, ctx: "VertexContext", edge, start: int, end: int,
                 state: Any, piece: dict[str, Any]) -> Optional[Union[Row, list[Row]]]:
        """:meth:`scatter` in row form for the overlap ``[start, end)`` with
        the graph edge ``edge``'s property dict ``piece``: ``None``, one
        ``(start, end, value)`` row or a list of rows — what ``scatter``
        returns there, in order.

        The engine calls the method of the first class in the program's MRO
        defining either; this default boxes the overlap for ``scatter``.
        """
        interval = Interval._unchecked(start, end)
        rows = []
        for item in self.scatter(ctx, EdgeContext(edge, interval, piece), interval, state) or ():
            if type(item) is not tuple:
                if item is None:
                    continue
                if isinstance(item, IntervalMessage):
                    item = (item.interval, item.value)
            span, value = item
            rows.append((span.start, span.end, value))
        return rows

    def aggregators(self) -> dict[str, Callable[[Any, Any], Any]]:
        """Named global reduce functions (Giraph aggregator analogue)."""
        return {}

    def master_compute(self, master: "MasterContext") -> None:
        """Between-superstep coordination hook (Giraph MasterCompute)."""


# Imported at the bottom to break the program ↔ context cycle for typing.
from .context import EdgeContext, MasterContext, VertexContext  # noqa: E402
