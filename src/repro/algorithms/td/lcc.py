"""Local clustering coefficient (TD) — paper Sec. V, fixed 4 supersteps.

"Each interval vertex quantifies how close its neighbors are to forming a
clique.  Each vertex messages its neighbors, which then message their
neighbors to check the ones adjacent to the initial vertex.  This
edge-count is sent back to the initial vertex to compute its LCC."

Neighbourhoods are *time-respecting*: an edge ``w→x`` counts towards
``LCC(v)`` only over the interval where ``v→w``, ``v→x`` and ``w→x`` are
all concurrently alive — warp's alignment of the forwarded neighbour lists
with the stored neighbour sets yields exactly that triple overlap.

Directed convention: ``N(v)`` is the out-neighbour set, and the coefficient
is ``#directed edges within N(v) / (d (d - 1))`` per interval.

LCC message groups mix tags and sets, so no combiner is defined (one of the
two non-commutative algorithms the paper calls out).
"""

from __future__ import annotations

from typing import Any

from repro.core.interval import Interval
from repro.core.program import IntervalProgram

SEED = ("seed",)


class TemporalLCC(IntervalProgram):
    """Interval-centric local clustering coefficient (4 supersteps)."""

    name = "LCC"
    fixed_supersteps = 4

    def compute(self, ctx, interval: Interval, state, messages: list[Any]) -> None:
        step = ctx.superstep
        if step == 1:
            ctx.set_state(interval, SEED)
        elif step == 2:
            origins = sorted({m[1] for m in messages if m[0] == "nbr"})
            if origins:
                ctx.set_state(interval, ("origins", tuple(origins)))
        elif step == 3:
            my_origins = set(state[1]) if state and state[0] == "origins" else set()
            if not my_origins:
                return
            for m in messages:
                if m[0] != "fwd":
                    continue
                for origin in m[1]:
                    if origin in my_origins:
                        # The edge this "fwd" travelled is an edge between
                        # two of origin's neighbours; report it back.
                        ctx.send(origin, interval, ("cnt", 1))
        else:  # step == 4: fold the reports into the coefficient
            count = sum(1 for m in messages if m[0] == "cnt")
            for segment, degree in ctx.out_degree_segments(interval):
                possible = degree * (degree - 1)
                value = count / possible if possible > 0 else 0.0
                ctx.set_state(segment, ("lcc", value))

    def transfer(self, ctx, edge, start: int, end: int, state, piece):
        if state == SEED:
            return (start, end, ("nbr", ctx.vertex_id))
        if state and state[0] == "origins":
            return (start, end, ("fwd", state[1]))
        return None


def lcc_value(state_value) -> float:
    """Project a final per-interval LCC state value to a float."""
    if state_value and state_value[0] == "lcc":
        return state_value[1]
    return 0.0
