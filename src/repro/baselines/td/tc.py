"""Triangle counting on the TGB replica graph and GoFFish.

The ICM program is `repro.algorithms.td.tc.TemporalTC`.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.goffish import GoffishProgram
from repro.baselines.vcm import VertexProgram
from repro.graph.transform import CHAIN


class SnapshotTC(VertexProgram):
    """Per-snapshot TC for the TGB replica graph (CHAIN edges skipped)."""

    name = "TC"
    fixed_supersteps = 3

    def init(self, ctx) -> None:
        ctx.value = ("tc", 0)

    def _neighbors(self, ctx):
        return [e for e in ctx.out_edges() if not e.get(CHAIN)]

    def compute(self, ctx, messages: list[Any]) -> None:
        step = ctx.superstep
        if step == 1:
            for edge in self._neighbors(ctx):
                ctx.send(edge.dst, ("nbr", ctx.vertex_id))
        elif step == 2:
            origins = tuple(sorted((m[1] for m in messages if m[0] == "nbr"), key=repr))
            if origins:
                for edge in self._neighbors(ctx):
                    ctx.send(edge.dst, ("fwd", origins))
        else:
            adjacent = {e.dst for e in self._neighbors(ctx)}
            count = 0
            for m in messages:
                if m[0] != "fwd":
                    continue
                for origin in m[1]:
                    if origin in adjacent:
                        count += sum(1 for e in self._neighbors(ctx) if e.dst == origin)
            ctx.value = ("tc", count)


class GoffishTC(GoffishProgram):
    """GoFFish-TS TC: three inner supersteps in every snapshot."""

    name = "TC"
    inner_fixed_supersteps = 3

    def init(self, ctx) -> None:
        ctx.value = ("tc", 0)

    def compute(self, ctx, messages: list[Any]) -> None:
        step = ctx.superstep
        if step == 1:
            ctx.value = ("tc", 0)
            for edge in ctx.out_edges():
                ctx.send(edge.dst, ("nbr", ctx.vertex_id))
        elif step == 2:
            origins = tuple(sorted((m[1] for m in messages if m[0] == "nbr"), key=repr))
            if origins:
                for edge in ctx.out_edges():
                    ctx.send(edge.dst, ("fwd", origins))
        else:
            adjacent = {e.dst for e in ctx.out_edges()}
            count = 0
            for m in messages:
                if m[0] != "fwd":
                    continue
                for origin in m[1]:
                    if origin in adjacent:
                        count += sum(1 for e in ctx.out_edges() if e.dst == origin)
            ctx.value = ("tc", count)
