"""Triangle counting (TD) — paper Sec. V, fixed 3 supersteps.

"In TC, each vertex messages its two-hop neighbors to see if they are
adjacent to the initial vertex."  We count *concurrent* directed triangles
``u→v→w→u``: each is valid over the interval where all three edges are
alive together, which warp's triple alignment produces for free.

Each directed 3-cycle is detected once per rotation (at the vertex closing
it), so the global per-time-point triangle count is the vertex-state sum
divided by three.
"""

from __future__ import annotations

from typing import Any

from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState

SEED = ("seed",)


class TemporalTC(IntervalProgram):
    """Interval-centric concurrent triangle counting (3 supersteps)."""

    name = "TC"
    fixed_supersteps = 3

    def compute(self, ctx, interval: Interval, state, messages: list[Any]) -> None:
        step = ctx.superstep
        if step == 1:
            ctx.set_state(interval, SEED)
        elif step == 2:
            # Keep multiplicity: parallel edges close distinct triangles.
            origins = sorted(m[1] for m in messages if m[0] == "nbr")
            if origins:
                ctx.set_state(interval, ("wedge", tuple(origins)))
        else:  # step == 3: close wedges against our out-edges
            deltas: dict[int, int] = {}
            for m in messages:
                if m[0] != "fwd":
                    continue
                for origin in m[1]:
                    for edge in ctx.out_edges():
                        if edge.dst != origin:
                            continue
                        overlap = edge.lifespan.intersect(interval)
                        if overlap is not None:
                            deltas[overlap.start] = deltas.get(overlap.start, 0) + 1
                            deltas[overlap.end] = deltas.get(overlap.end, 0) - 1
            bounds = sorted({interval.start, interval.end, *deltas})
            running = 0
            for lo, hi in zip(bounds, bounds[1:]):
                running += deltas.get(lo, 0)
                if lo >= interval.start and hi <= interval.end:
                    ctx.set_state(Interval(lo, hi), ("tc", running))

    def transfer(self, ctx, edge, start: int, end: int, state, piece):
        if state == SEED:
            return (start, end, ("nbr", ctx.vertex_id))
        if state and state[0] == "wedge":
            return (start, end, ("fwd", state[1]))
        return None


def tc_count(state_value) -> int:
    """Project a per-interval TC state value to a triangle count."""
    if state_value and state_value[0] == "tc":
        return state_value[1]
    return 0


def global_triangles(states: dict[Any, PartitionedState], t: int) -> int:
    """Graph-wide triangle count at time-point ``t`` (rotations folded)."""
    total = 0
    for state in states.values():
        if state.lifespan.contains_point(t):
            total += tc_count(state.value_at(t))
    assert total % 3 == 0, "each directed 3-cycle must be seen exactly 3 times"
    return total // 3
