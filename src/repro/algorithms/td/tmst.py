"""Time-minimum spanning tree (TD) — Huang et al. [9], paper Sec. V.

"To find the TMST from a given source, we add the parent vertex ID to the
state and the message value, in addition to replacing travel cost with
arrival time, to rebuild the tree."  The result is the tree of earliest
time-respecting arrivals, with parent pointers for reconstruction; ties on
arrival time break towards the smaller parent id so all platforms agree.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.combiner import tuple_min_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState
from repro.baselines.goffish import GoffishProgram
from repro.baselines.tgb import ChainForwardingProgram

#: ``(arrival, parent)`` for "not reached"; compares greater than any real
#: arrival, and the parent slot is a string so tuple comparison stays valid
#: when real parents are strings.
UNREACHED = (FOREVER, "")


class TemporalTMST(IntervalProgram):
    """Interval-centric TMST: earliest arrival plus parent pointer."""

    name = "TMST"
    incremental_safe = True

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label
        self.combiner = tuple_min_combiner()

    def init(self, ctx) -> None:
        ctx.set_state(ctx.lifespan, UNREACHED)

    def compute(self, ctx, interval: Interval, state, messages: list[tuple]) -> None:
        if ctx.superstep == 1:
            if ctx.vertex_id == self.source:
                ctx.set_state(interval, (ctx.lifespan.start, ctx.vertex_id))
            return
        best = min(messages, default=UNREACHED)
        if best < state:
            ctx.set_state(interval, best)

    def transfer(self, ctx, edge, start: int, end: int, state, piece):
        if state[0] >= FOREVER:
            return None
        arrival = start + piece.get(self.time_label, 1)
        return (arrival, FOREVER, (arrival, ctx.vertex_id))


def tmst_parent(state: PartitionedState) -> Optional[tuple[int, Any]]:
    """``(arrival, parent)`` of the earliest arrival, or ``None``."""
    best = min(value for _, value in state)
    return None if best[0] >= FOREVER else best


def tmst_tree(states: dict[Any, PartitionedState], source: Any) -> dict[Any, tuple[int, Any]]:
    """Rebuild the spanning tree: vid → (arrival, parent), source excluded."""
    tree: dict[Any, tuple[int, Any]] = {}
    for vid, state in states.items():
        if vid == source:
            continue
        entry = tmst_parent(state)
        if entry is not None:
            tree[vid] = entry
    return tree


class TgbTMST(ChainForwardingProgram):
    """TMST on the transformed graph: replica value = (arrival, parent)."""

    name = "TMST"

    def __init__(self, source: Any):
        self.source = source
        self.combiner = tuple_min_combiner()

    def init(self, ctx) -> None:
        ctx.value = UNREACHED

    def absorb(self, ctx, messages: list[tuple]) -> bool:
        if ctx.superstep == 1:
            vid, t = ctx.vertex_id
            if vid == self.source:
                ctx.value = (t, vid)
                return True
            return False
        best = min(messages, default=UNREACHED)
        if best < ctx.value:
            ctx.value = best
            return True
        return False

    def emit(self, ctx, edge) -> Any:
        # The application edge lands on replica (v, t_arr).
        return (edge.dst[1], ctx.vertex_id[0])


class GoffishTMST(GoffishProgram):
    """GoFFish-TS TMST: earliest arrival with parent, explicit state pass."""

    name = "TMST"

    def __init__(self, source: Any, time_label: str = "travel-time"):
        self.source = source
        self.time_label = time_label

    def init(self, ctx) -> None:
        ctx.value = UNREACHED

    def compute(self, ctx, messages: list[tuple]) -> None:
        if ctx.vertex_id == self.source and ctx.value == UNREACHED:
            ctx.value = (ctx.time, ctx.vertex_id)
        best = min((tuple(m) for m in messages), default=UNREACHED)
        if best < ctx.value:
            ctx.value = best
        if ctx.value[0] >= FOREVER or ctx.time < ctx.value[0]:
            return
        for edge, props in ctx.temporal_out_edges():
            travel_time = props.get(self.time_label, 1)
            arrival = ctx.time + travel_time
            ctx.send_temporal(edge.dst, arrival, (arrival, ctx.vertex_id))
        ctx.keep_alive()
