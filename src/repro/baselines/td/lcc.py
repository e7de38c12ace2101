"""Local clustering coefficient on the TGB replica graph and GoFFish.

The ICM program is `repro.algorithms.td.lcc.TemporalLCC`.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.goffish import GoffishProgram
from repro.baselines.vcm import VertexProgram
from repro.graph.transform import CHAIN


class SnapshotLCC(VertexProgram):
    """Per-snapshot LCC for the TGB replica graph (CHAIN edges skipped)."""

    name = "LCC"
    fixed_supersteps = 4

    def init(self, ctx) -> None:
        ctx.value = None

    def _neighbors(self, ctx):
        return [e for e in ctx.out_edges() if not e.get(CHAIN)]

    def compute(self, ctx, messages: list[Any]) -> None:
        step = ctx.superstep
        if step == 1:
            for edge in self._neighbors(ctx):
                ctx.send(edge.dst, ("nbr", ctx.vertex_id))
        elif step == 2:
            origins = tuple(sorted({m[1] for m in messages if m[0] == "nbr"}, key=repr))
            ctx.value = ("origins", origins)
            if origins:
                for edge in self._neighbors(ctx):
                    ctx.send(edge.dst, ("fwd", origins))
        elif step == 3:
            my_origins = set(ctx.value[1]) if ctx.value and ctx.value[0] == "origins" else set()
            if not my_origins:
                return
            for m in messages:
                if m[0] != "fwd":
                    continue
                for origin in m[1]:
                    if origin in my_origins:
                        ctx.send(origin, ("cnt", 1))
        else:
            count = sum(1 for m in messages if m[0] == "cnt")
            degree = len(self._neighbors(ctx))
            possible = degree * (degree - 1)
            ctx.value = ("lcc", count / possible if possible > 0 else 0.0)


class GoffishLCC(GoffishProgram):
    """GoFFish-TS LCC: four inner supersteps in every snapshot."""

    name = "LCC"
    inner_fixed_supersteps = 4

    def init(self, ctx) -> None:
        ctx.value = None

    def compute(self, ctx, messages: list[Any]) -> None:
        step = ctx.superstep
        if step == 1:
            ctx.value = None
            for edge in ctx.out_edges():
                ctx.send(edge.dst, ("nbr", ctx.vertex_id))
        elif step == 2:
            origins = tuple(sorted({m[1] for m in messages if m[0] == "nbr"}, key=repr))
            ctx.value = ("origins", origins)
            if origins:
                for edge in ctx.out_edges():
                    ctx.send(edge.dst, ("fwd", origins))
        elif step == 3:
            my_origins = set(ctx.value[1]) if ctx.value and ctx.value[0] == "origins" else set()
            if not my_origins:
                return
            for m in messages:
                if m[0] != "fwd":
                    continue
                for origin in m[1]:
                    if origin in my_origins:
                        ctx.send(origin, ("cnt", 1))
        else:
            count = sum(1 for m in messages if m[0] == "cnt")
            degree = ctx.out_degree()
            possible = degree * (degree - 1)
            ctx.value = ("lcc", count / possible if possible > 0 else 0.0)
