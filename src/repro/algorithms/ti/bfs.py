"""Breadth-first search (TI) — per-snapshot hop distances from a source.

The ICM variant reuses the classic vertex-centric BFS logic verbatim for
``compute``; ICM "by default assigns appropriate intervals to the states
and messages" (paper Sec. V), so the one interval graph run yields the BFS
distance for *every* snapshot at once: the state value at time-point ``t``
equals the BFS distance in snapshot ``S_t``.
"""

from __future__ import annotations

from typing import Any

from repro.core.combiner import min_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram

#: Distance sentinel for "not reachable".
UNREACHED = FOREVER


class TemporalBFS(IntervalProgram):
    """Interval-centric BFS from ``source`` over all snapshots at once."""

    name = "BFS"
    incremental_safe = True

    def __init__(self, source: Any):
        self.source = source
        self.combiner = min_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, UNREACHED)

    def compute(self, ctx, interval: Interval, state: int, messages: list[int]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, 0)
            return
        best = min(messages, default=UNREACHED)
        if best < state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state: int, piece):
        if state >= UNREACHED:
            return None
        # TI semantics: the hop stays within each snapshot, so the message
        # interval is inherited from the (state ∩ edge) overlap.
        return (start, end, state + 1)
