"""Journey reconstruction for temporal shortest paths.

``TemporalSSSP`` answers *how much* a time-respecting journey costs; a
transit user also wants the itinerary.  ``TemporalSSSPJourneys`` carries
``(cost, departure, parent)`` through the same Alg.-1 recursion, and
:func:`reconstruct_journey` walks the parent pointers backwards to yield
the legs — e.g. the paper's ``A --dep 5--> B --dep 8--> E`` at cost 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.combiner import MessageCombiner
from repro.core.engine import IcmResult
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.graph.model import TemporalGraph

#: ``(cost, departure_at_parent, parent)`` for "not reached".
UNREACHED = (FOREVER, -1, None)


def _best(a, b):
    """Total order: cost, then departure, then parent id (for ties)."""
    return min(a, b, key=lambda x: (x[0], x[1], repr(x[2])))


class TemporalSSSPJourneys(IntervalProgram):
    """Temporal SSSP whose states remember how each cost was achieved."""

    name = "SSSP-journeys"
    incremental_safe = True

    def __init__(self, source: Any, cost_label: str = "travel-cost",
                 time_label: str = "travel-time"):
        self.source = source
        self.cost_label = cost_label
        self.time_label = time_label
        self.combiner = MessageCombiner(_best, "journey-min", selective=True)

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, UNREACHED)

    def compute(self, ctx, interval: Interval, state, messages) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, (0, -1, None))
            return
        best = state
        for message in messages:
            best = _best(best, tuple(message))
        if best != state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state, piece):
        cost = state[0]
        if cost >= FOREVER:
            return None
        travel_time = piece.get(self.time_label, 1)
        travel_cost = piece.get(self.cost_label, 1)
        return (start + travel_time, FOREVER, (cost + travel_cost, start, ctx.vertex_id))


@dataclass(frozen=True)
class Leg:
    """One ride of a journey: depart ``src`` at ``departure``, arrive at
    ``dst`` at ``arrival``, paying ``cost``."""

    src: Any
    dst: Any
    departure: int
    arrival: int
    cost: int

    def __str__(self) -> str:
        return (f"{self.src} --dep {self.departure}, cost {self.cost}--> "
                f"{self.dst} (arr {self.arrival})")


def reconstruct_journey(
    result: IcmResult,
    graph: TemporalGraph,
    source: Any,
    target: Any,
    at: int,
    *,
    time_label: str = "travel-time",
) -> Optional[list[Leg]]:
    """The optimal journey from ``source`` arriving at ``target`` by ``at``.

    Returns ``None`` when the target is unreachable by that time; the
    empty journey when target is the source.  Walks parent pointers
    backwards, so it needs the :class:`TemporalSSSPJourneys` result.
    """
    legs: list[Leg] = []
    vertex = target
    t = at
    guard = graph.num_vertices * 4 + 8
    while vertex != source:
        if guard == 0:
            raise RuntimeError("journey reconstruction did not terminate")
        guard -= 1
        cost, departure, parent = result.states[vertex].value_at(t)
        if cost >= FOREVER or parent is None:
            return None
        # Find the edge used: parent → vertex, alive at the departure.
        arrival = None
        leg_cost = None
        for edge in graph.out_edges(parent):
            if edge.dst != vertex or not edge.lifespan.contains_point(departure):
                continue
            travel_time = edge.properties.value_at(time_label, departure) or 1
            candidate_arrival = departure + travel_time
            if candidate_arrival > t:
                continue
            parent_cost = result.states[parent].value_at(departure)[0]
            if parent_cost >= FOREVER:
                continue
            if cost - parent_cost == (
                edge.properties.value_at("travel-cost", departure) or 1
            ):
                arrival = candidate_arrival
                leg_cost = cost - parent_cost
                break
        if arrival is None:
            return None  # inconsistent state (should not happen)
        legs.append(Leg(parent, vertex, departure, arrival, leg_cost))
        vertex = parent
        t = departure
    legs.reverse()
    return legs


def journey_cost(legs: Optional[list[Leg]]) -> Optional[int]:
    """Total cost of a reconstructed journey."""
    if legs is None:
        return None
    return sum(leg.cost for leg in legs)
