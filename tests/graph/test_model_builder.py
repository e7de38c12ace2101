"""Tests for the temporal graph model and its soundness constraints."""

import pytest

from repro.core.interval import FOREVER, Interval
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.model import TemporalGraph


def small_graph():
    b = TemporalGraphBuilder()
    b.add_vertex("A", 0, 10)
    b.add_vertex("B", 2, 10)
    b.add_edge("A", "B", 3, 7, eid="e1", props={"w": 5})
    return b.build()


class TestBuilder:
    def test_basic_build(self):
        g = small_graph()
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert g.vertex("A").lifespan == Interval(0, 10)
        assert g.edge("e1").lifespan == Interval(3, 7)

    def test_constraint1_duplicate_vertex(self):
        b = TemporalGraphBuilder()
        b.add_vertex("A")
        with pytest.raises(ValueError, match="constraint 1"):
            b.add_vertex("A")

    def test_constraint1_duplicate_edge_id(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["A", "B"])
        b.add_edge("A", "B", eid="e")
        with pytest.raises(ValueError, match="constraint 1"):
            b.add_edge("A", "B", eid="e")

    def test_constraint1_generated_edge_id_meets_a_chosen_one(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["A", "B"])
        b.add_edge("A", "B", eid="e0")
        with pytest.raises(ValueError, match="constraint 1"):
            b.add_edge("A", "B")  # generates "e0"

    def test_constraint2_edge_outside_endpoint_lifespan(self):
        b = TemporalGraphBuilder()
        b.add_vertex("A", 0, 5)
        b.add_vertex("B", 0, 10)
        with pytest.raises(ValueError, match="constraint 2"):
            b.add_edge("A", "B", 3, 8)

    def test_constraint2_unknown_endpoint(self):
        b = TemporalGraphBuilder()
        b.add_vertex("A")
        with pytest.raises(ValueError, match="unknown vertex"):
            b.add_edge("A", "Z")

    def test_constraint3_property_outside_lifespan(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["A", "B"])
        with pytest.raises(ValueError, match="constraint 3"):
            b.add_edge("A", "B", 2, 6, props={"w": [(2, 9, 1)]})

    def test_overlapping_property_values_rejected(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["A", "B"])
        with pytest.raises(ValueError, match="overlaps"):
            b.add_edge("A", "B", 0, 10, props={"w": [(0, 5, 1), (3, 8, 2)]})

    def test_scalar_property_spans_lifespan(self):
        g = small_graph()
        edge = g.edge("e1")
        assert edge.properties.value_at("w", 3) == 5
        assert edge.properties.value_at("w", 6) == 5
        assert edge.properties.value_at("w", 7) is None  # half-open

    def test_builder_single_use(self):
        b = TemporalGraphBuilder()
        b.add_vertex("A")
        b.build()
        with pytest.raises(RuntimeError):
            b.add_vertex("B")

    def test_generated_edge_ids_unique(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["A", "B"])
        e1 = b.add_edge("A", "B")
        e2 = b.add_edge("A", "B")
        assert e1 != e2  # multigraph allows parallel edges

    def test_vertex_properties(self):
        b = TemporalGraphBuilder()
        b.add_vertex("A", 0, 10, props={"kind": [(0, 4, "bus"), (4, 10, "rail")]})
        g = b.build()
        assert g.vertex("A").properties.value_at("kind", 3) == "bus"
        assert g.vertex("A").properties.value_at("kind", 4) == "rail"


class TestGraphAccessors:
    def test_adjacency(self):
        g = small_graph()
        assert [e.eid for e in g.out_edges("A")] == ["e1"]
        assert [e.eid for e in g.in_edges("B")] == ["e1"]
        assert g.out_edges("B") == []

    def test_lifespan_and_horizon(self):
        g = small_graph()
        assert g.lifespan() == Interval(0, 10)
        assert g.time_horizon() == 10

    def test_horizon_all_unbounded_defaults(self):
        b = TemporalGraphBuilder()
        b.add_vertex("A")
        g = b.build()
        assert g.time_horizon(default=5) == 5

    def test_reversed(self):
        g = small_graph()
        rev = g.reversed()
        edge = rev.edge("e1")
        assert (edge.src, edge.dst) == ("B", "A")
        assert edge.lifespan == Interval(3, 7)
        assert edge.properties.value_at("w", 4) == 5

    def test_generation_moves_with_every_mutation(self):
        from repro.graph.model import TemporalEdge, TemporalVertex

        g = small_graph()
        seen = [g.generation]
        g._add_vertex(TemporalVertex("C", Interval(0, 10)))
        seen.append(g.generation)
        g._add_edge(TemporalEdge("e2", "B", "C", Interval(4, 6)))
        seen.append(g.generation)
        g.edge("e2").properties.add("w", Interval(4, 6), 1)
        seen.append(g.generation)
        assert len(set(seen)) == 4
        g.reversed()  # building a derived graph changes nothing here
        assert g.generation == seen[-1]

    def test_reversed_is_memoised_per_generation(self):
        from repro.graph.model import TemporalEdge

        g = small_graph()
        rev = g.reversed()
        assert g.reversed() is rev
        g._add_edge(TemporalEdge("e2", "B", "A", Interval(3, 5)))
        fresh = g.reversed()
        assert fresh is not rev
        assert [(e.eid, e.src, e.dst) for e in fresh.edges()] == [
            ("e1", "B", "A"), ("e2", "A", "B"),
        ]
        assert g.reversed() is fresh
        g.edge("e1").properties.add("v", Interval(3, 7), 2)  # shared with rev
        assert g.reversed() is not fresh

    def test_mutating_the_reversed_graph_does_not_corrupt_the_memo(self):
        from repro.graph.model import TemporalEdge

        g = small_graph()
        rev = g.reversed()
        rev._add_edge(TemporalEdge("stray", "A", "B", Interval(3, 4)))
        again = g.reversed()
        assert again is not rev
        assert [(e.eid, e.src, e.dst) for e in again.edges()] == [("e1", "B", "A")]

    def test_model_refuses_a_repeated_id(self):
        # Not only the builder: every constructor goes through these two.
        g = small_graph()
        with pytest.raises(ValueError, match="constraint 1"):
            g._add_vertex(g.vertex("A"))
        with pytest.raises(ValueError, match="constraint 1"):
            g._add_edge(g.edge("e1"))
        assert g.has_edge("e1") and not g.has_edge("e2")
        assert len(g.out_edges("A")) == len(g.in_edges("B")) == g.num_edges == 1

    def test_validate_catches_manual_corruption(self):
        g = small_graph()
        from repro.graph.model import TemporalEdge

        bad = TemporalEdge("bad", "B", "A", Interval(0, 10))  # B starts at 2
        g._add_edge(bad)
        with pytest.raises(ValueError):
            g.validate()


class TestEdgePieces:
    def test_property_change_points_split_pieces(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["A", "B"])
        b.add_edge("A", "B", 3, 9, eid="e", props={"c": [(3, 5, 4), (5, 6, 3)], "t": 1})
        g = b.build()
        pieces = g.edge("e").pieces(Interval(0, FOREVER))
        assert [p[0] for p in pieces] == [Interval(3, 5), Interval(5, 6), Interval(6, 9)]
        assert pieces[0][1].get("c") == 4
        assert pieces[1][1].get("c") == 3
        assert pieces[2][1].get("c") is None
        assert all(p[1].get("t") == 1 for p in pieces)

    def test_pieces_clipped_to_window(self):
        g = small_graph()
        pieces = g.edge("e1").pieces(Interval(5, 20))
        assert [p[0] for p in pieces] == [Interval(5, 7)]

    def test_pieces_disjoint_window(self):
        g = small_graph()
        assert g.edge("e1").pieces(Interval(8, 20)) == []

    def test_propertyless_edge_single_piece(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["A", "B"])
        b.add_edge("A", "B", 0, 6, eid="e")
        g = b.build()
        pieces = g.edge("e").pieces(Interval(0, 10))
        assert len(pieces) == 1
        assert pieces[0][0] == Interval(0, 6)
