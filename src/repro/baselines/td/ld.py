"""Latest departure time on the TGB and GoFFish platforms.

The ICM program is `repro.algorithms.td.ld.TemporalLD`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algorithms.td.ld import IMPOSSIBLE
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram


class TgbLD(ChainForwardingProgram):
    """LD on the *reversed* transformed graph.

    Replica values are booleans: "departing here reaches the target by the
    deadline".  Reversed application edges walk from arrival replicas back
    to departure replicas; reversed chain edges let earlier replicas
    inherit feasibility (waiting).  ``LD(v)`` = max feasible replica time.
    """

    name = "LD"

    def __init__(self, target: Any, deadline: int):
        self.target = target
        self.deadline = deadline

    def init(self, ctx) -> None:
        ctx.value = False

    def absorb(self, ctx, messages: list[bool]) -> bool:
        if ctx.superstep == 1:
            vid, t = ctx.vertex_id
            if vid == self.target and t <= self.deadline:
                ctx.value = True
                return True
            return False
        if not ctx.value and any(messages):
            ctx.value = True
            return True
        return False

    def emit(self, ctx, edge) -> Any:
        return True


def tgb_latest_departure(result, vid: Any, deadline: int) -> Optional[int]:
    """Max feasible departure time over a vertex's replicas (≤ deadline)."""
    best = None
    for t, feasible in result.replicas_of(vid):
        if feasible and t <= deadline and (best is None or t > best):
            best = t
    return best


class GoffishLD(GoffishProgram):
    """GoFFish-TS latest departure: backward snapshot iteration.

    Run with ``GoffishEngine(graph.reversed(), ..., direction=-1)``.  The
    value is the latest feasible departure; temporal messages target
    *earlier* snapshots.

    Holds per-run broadcast bookkeeping — use a fresh instance per engine
    run (as :func:`repro.algorithms.run_algorithm` does).
    """

    name = "LD"

    def __init__(self, target: Any, deadline: int, time_label: str = "travel-time"):
        self.target = target
        self.deadline = deadline
        self.time_label = time_label
        self._broadcast: dict[Any, tuple[int, int]] = {}

    def init(self, ctx) -> None:
        ctx.value = IMPOSSIBLE

    def compute(self, ctx, messages: list[int]) -> None:
        if ctx.vertex_id == self.target:
            # Being at the target before the deadline always suffices.
            ctx.value = max(ctx.value, self.deadline)
        best = max(messages, default=IMPOSSIBLE)
        if best > ctx.value:
            ctx.value = best
        if ctx.value <= IMPOSSIBLE:
            return
        t = ctx.time
        ctx.keep_alive()  # state persists backwards in iteration order
        # Broadcast only on the first visit at this snapshot or when the
        # value improved, otherwise inner messages would ping-pong forever.
        if self._broadcast.get(ctx.vertex_id) == (t, ctx.value):
            return
        self._broadcast[ctx.vertex_id] = (t, ctx.value)
        for edge, props in ctx.temporal_out_edges():
            # Reversed edge: the original departs upstream at t, arriving
            # t + travel_time, which must not exceed our latest departure.
            travel_time = props.get(self.time_label, 1)
            if t + travel_time <= ctx.value:
                ctx.send(edge.dst, t)  # same-snapshot (inner) message
