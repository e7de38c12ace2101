"""Fastest path duration (TD) — Wu et al. [6], paper Sec. V.

FAST minimises total journey duration (arrival − start), where the journey
may begin at *any* time the source is active.  Per the paper, "its message
will include the time at which the journey started at the source for each
path, and the state maintains the arrival time at a vertex interval".

Two facts make a compact interval-centric formulation possible:

* once two journeys co-exist at a vertex during an interval, only the one
  with the **latest start** matters for every downstream arrival (future
  departures are identical); and
* the **duration at the vertex itself** is fixed at arrival, so it is
  carried in the message as ``(start, arrival)``.

State is therefore the pair ``(latest_start, best_duration)`` per interval.
The source explodes each edge-piece departure window into per-time-point
journeys (one message per distinct start), which is inherent to FAST — the
transformed-graph baseline pays the same by having one replica per
departure point.

FAST is one of the two payload shapes for which we define no combiner
(start and duration are optimised in opposite directions, so a single
associative fold cannot preserve both).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState

#: ``(latest_start, best_duration)`` for "no journey yet".
NO_JOURNEY = (-1, FOREVER)

#: Marker state for the source vertex, which originates journeys.
SOURCE = "__source__"


class TemporalFAST(IntervalProgram):
    """Interval-centric fastest path durations from ``source``.

    ``horizon`` bounds the departure enumeration at the source when edge
    pieces are unbounded (open-ended departure windows).
    """

    name = "FAST"
    incremental_safe = True

    def __init__(self, source: Any, time_label: str = "travel-time",
                 horizon: Optional[int] = None):
        self.source = source
        self.time_label = time_label
        self.horizon = horizon

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, NO_JOURNEY)

    def compute(self, ctx, interval: Interval, state, messages: list[tuple[int, int]]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, SOURCE)
            return
        if state == SOURCE:
            return
        latest_start, best_duration = state
        new_start, new_duration = -1, FOREVER
        for s, a in messages:
            if s > new_start:
                new_start = s
            if a - s < new_duration:
                new_duration = a - s
        if new_start > latest_start or new_duration < best_duration:
            ctx.set_state(
                interval, (max(latest_start, new_start), min(best_duration, new_duration))
            )

    def transfer(self, ctx, edge, start: int, end: int, state, piece):
        travel_time = piece.get(self.time_label, 1)
        if state == SOURCE:
            # One journey per distinct departure time-point in the window.
            if end >= FOREVER:
                if self.horizon is None:
                    raise ValueError("FAST needs a horizon for unbounded departure windows")
                end = min(end, self.horizon)
            return [
                (t + travel_time, FOREVER, (t, t + travel_time))
                for t in range(start, end)
            ]
        latest_start, _ = state
        if latest_start < 0:
            return None
        arrival = start + travel_time
        return (arrival, FOREVER, (latest_start, arrival))


def fastest_duration(state: PartitionedState) -> Optional[int]:
    """Project a final FAST state to the overall minimum duration."""
    best = FOREVER
    for _, value in state:
        if value == SOURCE:
            return 0
        if value != NO_JOURNEY:
            best = min(best, value[1])
    return None if best >= FOREVER else best
