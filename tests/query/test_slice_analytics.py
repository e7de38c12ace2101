"""Tests for subgraph operators and graph/result analytics."""

import pytest

from repro.algorithms.td.sssp import INFINITY, TemporalSSSP
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.core.engine import IntervalCentricEngine
from repro.core.interval import Interval
from repro.datasets import transit_graph
from repro.query import (
    between,
    degree_timeline,
    edge_count_timeline,
    edge_subgraph,
    property_timeline,
    state_timeline,
    temporal_slice,
    top_k_at,
    total_over_time,
    vertex_count_timeline,
    vertex_subgraph,
    when_stable,
)
from repro.graph.builder import TemporalGraphBuilder


def evolving():
    b = TemporalGraphBuilder()
    b.add_vertex("A", 0, 10)
    b.add_vertex("B", 0, 10)
    b.add_vertex("C", 3, 8)
    b.add_edge("A", "B", 0, 6, eid="ab", props={"w": [(0, 3, 1), (3, 6, 2)]})
    b.add_edge("B", "C", 4, 8, eid="bc")
    b.add_edge("A", "C", 5, 7, eid="ac")
    return b.build()


class TestTemporalSlice:
    def test_clips_lifespans_and_properties(self):
        g = temporal_slice(evolving(), Interval(2, 6))
        assert g.vertex("A").lifespan == Interval(2, 6)
        assert g.vertex("C").lifespan == Interval(3, 6)
        assert g.edge("ab").lifespan == Interval(2, 6)
        tl = g.edge("ab").properties.timeline("w").entries()
        assert tl == [(Interval(2, 3), 1), (Interval(3, 6), 2)]

    def test_drops_entities_outside_window(self):
        g = temporal_slice(evolving(), Interval(0, 3))
        assert not g.has_vertex("C")
        assert g.num_edges == 1  # only ab overlaps [0,3)

    def test_result_is_valid(self):
        temporal_slice(evolving(), Interval(4, 7)).validate()


class TestSubgraphs:
    def test_vertex_subgraph(self):
        g = vertex_subgraph(evolving(), lambda v: v.vid != "C")
        assert sorted(g.vertex_ids()) == ["A", "B"]
        assert [e.eid for e in g.edges()] == ["ab"]

    def test_edge_subgraph(self):
        g = edge_subgraph(evolving(), lambda e: e.lifespan.length >= 4)
        assert {e.eid for e in g.edges()} == {"ab", "bc"}
        assert g.num_vertices == 3

    def test_between(self):
        g = between(evolving(), ["A", "C"])
        assert [e.eid for e in g.edges()] == ["ac"]

    def test_edge_subgraph_does_not_alias_properties(self):
        # Regression: the subgraph used to share PropertyMap objects with
        # the source graph, so mutating one corrupted the other.
        src = evolving()
        sub = edge_subgraph(src, lambda e: True)
        sub.edge("ab").properties.add("w", Interval(6, 9), 7)
        assert src.edge("ab").properties.timeline("w").value_at(6) is None
        sub.vertex("A").properties.add("tag", Interval(0, 5), "x")
        assert "tag" not in list(src.vertex("A").properties)

    def test_between_does_not_alias_properties(self):
        src = evolving()
        sub = between(src, ["A", "B"])
        sub.edge("ab").properties.add("w", Interval(6, 9), 7)
        assert src.edge("ab").properties.timeline("w").value_at(6) is None

    def test_subgraph_properties_preserved(self):
        sub = edge_subgraph(evolving(), lambda e: e.eid == "ab")
        assert sub.edge("ab").properties.timeline("w").entries() == \
               evolving().edge("ab").properties.timeline("w").entries()

    def test_between_vertex_order_is_canonical(self):
        # Vertex enumeration order feeds engine runs; it must come from
        # sorted ids, not from set iteration order.
        g = between(evolving(), ["C", "A", "B"])
        assert list(g.vertex_ids()) == ["A", "B", "C"]

    def test_between_order_stable_across_hash_seeds(self):
        """The induced subgraph enumerates identically under any hash salt."""
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            from repro.graph.builder import TemporalGraphBuilder
            from repro.query import between

            b = TemporalGraphBuilder()
            ids = [f"n{i}" for i in range(40)]
            for vid in ids:
                b.add_vertex(vid, 0, 4)
            for i in range(39):
                b.add_edge(ids[i], ids[i + 1], 0, 4)
            g = between(b.build(), ids[::-1])
            print(list(g.vertex_ids()))
            """
        )
        outputs = []
        for hash_seed in ("0", "777"):
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), os.path.abspath(src)) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "n0" in outputs[0]


class TestGraphAnalytics:
    def test_degree_timeline(self):
        tl = degree_timeline(evolving(), "A")
        assert tl.value_at(0) == 1   # ab only
        assert tl.value_at(5) == 2   # ab + ac
        assert tl.value_at(8) == 0

    def test_in_degree_timeline(self):
        tl = degree_timeline(evolving(), "C", direction="in")
        assert tl.value_at(4) == 1
        assert tl.value_at(5) == 2
        with pytest.raises(ValueError):
            degree_timeline(evolving(), "C", direction="sideways")

    def test_vertex_count_timeline(self):
        tl = vertex_count_timeline(evolving())
        assert tl.value_at(0) == 2
        assert tl.value_at(4) == 3
        assert tl.value_at(9) == 2

    def test_edge_count_timeline(self):
        tl = edge_count_timeline(evolving())
        assert tl.value_at(0) == 1
        assert tl.value_at(5) == 3
        assert tl.value_at(7) == 1

    def test_property_timeline(self):
        tl = property_timeline(evolving(), "ab", "w")
        assert tl.value_at(1) == 1
        assert tl.value_at(4) == 2


class TestResultAnalytics:
    @pytest.fixture(scope="class")
    def sssp(self):
        g = transit_graph()
        return IntervalCentricEngine(g, TemporalSSSP("A")).run()

    @pytest.mark.usefixtures("executor")
    def test_state_timeline(self, sssp):
        tl = state_timeline(sssp, "B")
        assert tl.value_at(4) == 4
        assert tl.value_at(8) == 3

    def test_when_stable(self, sssp):
        intervals = when_stable(sssp, "E")
        assert intervals == [Interval(0, 6), Interval(6, 9), Interval(9, Interval(0).end)]

    def test_top_k_cheapest_at(self, sssp):
        cheapest = top_k_at(sssp, 9, k=3, reverse=False)
        assert cheapest[0] == ("A", 0)
        assert cheapest[1] == ("D", 2)
        assert cheapest[2][1] == 3  # B or C, both cost 3 at t=9

    @pytest.mark.usefixtures("executor")
    def test_total_over_time_counts_reachable(self):
        g = transit_graph()
        result = IntervalCentricEngine(g, TemporalSSSP("A")).run()
        reachable = total_over_time(
            result, lambda values: sum(1 for v in values if v < INFINITY)
        )
        assert reachable.value_at(0) == 1   # just A
        assert reachable.value_at(5) == 4   # A, B, C, D
        assert reachable.value_at(9) == 5   # + E

    @pytest.mark.usefixtures("executor")
    def test_pagerank_mass_over_time(self):
        from repro.graph.builder import TemporalGraphBuilder

        b = TemporalGraphBuilder()
        for i in range(4):
            b.add_vertex(f"v{i}", 0, 6)
        for i in range(4):
            b.add_edge(f"v{i}", f"v{(i + 1) % 4}", 0, 6)
        g = b.build()
        result = IntervalCentricEngine(g, TemporalPageRank(g)).run()
        mass = total_over_time(result, sum)
        assert mass.value_at(3) == pytest.approx(1.0)
