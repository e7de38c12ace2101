"""Unit tests for the vertex/edge/master contexts."""

import pytest

from repro import api
from repro.core.context import EdgeContext, MasterContext, VertexContext
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.graph.builder import TemporalGraphBuilder


def degree_graph():
    b = TemporalGraphBuilder()
    b.add_vertex("a", 0, 12)
    b.add_vertex("b", 0, 12)
    b.add_vertex("c", 0, 12)
    b.add_edge("a", "b", 0, 8, eid="e1")
    b.add_edge("a", "b", 4, 12, eid="e2")
    b.add_edge("a", "c", 6, 10, eid="e3")
    return b.build()


class Probe(IntervalProgram):
    """Captures its context for white-box assertions."""

    name = "probe"
    captured = None

    def compute(self, ctx, interval, state, messages):
        if ctx.vertex_id == "a" and ctx.superstep == 1:
            Probe.captured = ctx

    def scatter(self, ctx, edge, interval, state):
        return None


class TestVertexContext:
    @pytest.fixture()
    def ctx(self):
        # Captures the live context object from inside compute — only
        # meaningful in-process, so the serial executor is pinned.
        api.build_engine(degree_graph(), Probe(), options={"executor": "serial"}).run()
        return Probe.captured

    def test_static_attributes(self, ctx):
        assert ctx.vertex_id == "a"
        assert ctx.lifespan == Interval(0, 12)
        assert ctx.num_vertices == 3
        assert len(ctx.out_edges()) == 3

    def test_out_degree_with_window(self, ctx):
        assert ctx.out_degree() == 3
        assert ctx.out_degree(Interval(0, 2)) == 1
        assert ctx.out_degree(Interval(5, 7)) == 3
        assert ctx.out_degree(Interval(10, 12)) == 1

    def test_out_degree_segments(self, ctx):
        segments = ctx.out_degree_segments(Interval(0, 12))
        assert segments == [
            (Interval(0, 4), 1),
            (Interval(4, 6), 2),
            (Interval(6, 8), 3),
            (Interval(8, 10), 2),
            (Interval(10, 12), 1),
        ]

    def test_out_degree_segments_clipped(self, ctx):
        segments = ctx.out_degree_segments(Interval(5, 9))
        assert segments[0] == (Interval(5, 6), 2)
        assert segments[-1] == (Interval(8, 9), 2)

    def test_out_degree_segments_result_is_not_shared(self, ctx):
        """Regression: the answer comes from a per-vertex table; mutating
        a returned list must not reach the table or any later answer."""
        first = ctx.out_degree_segments(Interval(0, 12))
        expected = list(first)
        first.reverse()
        first.pop()
        first.append((Interval(0, 1), 99))
        assert ctx.out_degree_segments(Interval(0, 12)) == expected
        assert ctx.out_degree_segments(Interval(5, 9)) == [
            (Interval(5, 6), 2), (Interval(6, 8), 3), (Interval(8, 9), 2),
        ]

    def test_state_access(self, ctx):
        assert ctx.state_at(3) is None  # probe never sets state

    def test_repr(self, ctx):
        assert "a" in repr(ctx)


class TestEdgeContext:
    def test_accessors(self):
        g = degree_graph()
        edge = g.edge("e1")
        ec = EdgeContext(edge, Interval(2, 5), {"w": 7})
        assert ec.eid == "e1"
        assert (ec.src, ec.dst) == ("a", "b")
        assert ec.lifespan == Interval(0, 8)
        assert ec.interval == Interval(2, 5)
        assert ec.get("w") == 7
        assert ec.get("missing", "dflt") == "dflt"
        assert "e1" in repr(ec)


class TestMasterContext:
    def test_aggregate_access_and_override(self):
        master = MasterContext(3, {"x": 10}, num_active=5)
        assert master.superstep == 3
        assert master.num_active_vertices == 5
        assert master.get_aggregate("x") == 10
        assert master.get_aggregate("y", -1) == -1
        master.set_aggregate("y", 99)
        assert master._overrides == {"y": 99}
        assert not master._halt
        master.halt()
        assert master._halt


class TestVertexPropertyAccess:
    def test_vertex_property(self):
        b = TemporalGraphBuilder()
        b.add_vertex("a", 0, 10, props={"kind": [(0, 5, "x"), (5, 10, "y")]})
        g = b.build()

        seen = {}

        class P(IntervalProgram):
            name = "p"

            def compute(self, ctx, interval, state, messages):
                seen[3] = ctx.vertex_property("kind", 3)
                seen[7] = ctx.vertex_property("kind", 7)

        api.build_engine(g, P(), options={"executor": "serial"}).run()
        assert seen == {3: "x", 7: "y"}
