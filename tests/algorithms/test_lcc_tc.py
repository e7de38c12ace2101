"""Correctness of the clustering algorithms (LCC, TC) on all platforms.

Both use *concurrent* time-respecting neighbourhoods: a triangle (or an
edge among a vertex's neighbours) counts at time-point ``t`` only when all
participating edges are alive at ``t`` — so the per-snapshot reference at
every ``t`` is the ground truth for all three platforms.
"""

import pytest

from ._reference import snapshot_lcc, snapshot_tc
from repro.algorithms.td.lcc import TemporalLCC, lcc_value
from repro.algorithms.td.tc import TemporalTC, global_triangles, tc_count
from repro.baselines.goffish import GoffishEngine
from repro.baselines.td.lcc import GoffishLCC, SnapshotLCC
from repro.baselines.td.tc import GoffishTC, SnapshotTC
from repro.baselines.tgb import run_tgb
from repro.core.engine import IntervalCentricEngine
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.snapshots import snapshot_at
from repro.graph.transform import build_snapshot_replica_graph


def triangle_graph():
    """A triangle whose edges are alive over staggered intervals, plus a
    spoke: the triangle is concurrent only during [2, 4)."""
    b = TemporalGraphBuilder()
    for vid in "ABCD":
        b.add_vertex(vid, 0, 6)
    b.add_edge("A", "B", 0, 4, eid="ab")
    b.add_edge("B", "C", 2, 6, eid="bc")
    b.add_edge("C", "A", 1, 5, eid="ca")
    b.add_edge("A", "D", 0, 6, eid="ad")
    return b.build()


class TestTriangleGraphTC:
    @pytest.mark.usefixtures("executor")
    def test_icm_counts_concurrent_triangle_only(self):
        g = triangle_graph()
        result = IntervalCentricEngine(g, TemporalTC()).run()
        # The cycle A→B→C→A is concurrent exactly during [2,4); each vertex
        # closes it once per rotation.
        for t in range(6):
            total = global_triangles(result.states, t)
            assert total == (1 if 2 <= t < 4 else 0), t

    @pytest.mark.usefixtures("executor")
    def test_icm_matches_reference_pointwise(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalTC()).run()
        for t in range(horizon):
            expected = snapshot_tc(snapshot_at(graph, t))
            for vid, count in expected.items():
                assert tc_count(result.value_at(vid, t)) == count, (vid, t)

    def test_tgb_matches_reference(self, graph, horizon):
        replica = build_snapshot_replica_graph(graph, horizon=horizon)
        res = run_tgb(graph, SnapshotTC(), transformed=replica, horizon=horizon)
        for t in range(horizon):
            expected = snapshot_tc(snapshot_at(graph, t))
            for vid, count in expected.items():
                value = res.replica_values.get((vid, t))
                assert tc_count(value) == count, (vid, t)

    def test_goffish_matches_reference(self, graph, horizon):
        res = GoffishEngine(graph, GoffishTC(), horizon=horizon).run()
        for t in range(horizon):
            expected = snapshot_tc(snapshot_at(graph, t))
            for vid, count in expected.items():
                value = res.observed.get(t, {}).get(vid)
                assert tc_count(value) == count, (vid, t)


class TestLCC:
    @pytest.mark.usefixtures("executor")
    def test_triangle_graph_lcc(self):
        g = triangle_graph()
        result = IntervalCentricEngine(g, TemporalLCC()).run()
        # At t=2: A's neighbours {B, D} (edges ab, ad) and edge B→D absent;
        # but A also participates via ca… LCC(A) counts edges among
        # N(A)={B,D}: none → 0.  C's neighbour set {A} → degree 1 → 0.
        for t in range(6):
            expected = snapshot_lcc(snapshot_at(g, t))
            for vid in "ABCD":
                assert lcc_value(result.value_at(vid, t)) == pytest.approx(
                    expected[vid]
                ), (vid, t)

    @pytest.mark.usefixtures("executor")
    def test_icm_matches_reference_pointwise(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalLCC()).run()
        for t in range(horizon):
            expected = snapshot_lcc(snapshot_at(graph, t))
            for vid, value in expected.items():
                assert lcc_value(result.value_at(vid, t)) == pytest.approx(value), (vid, t)

    def test_tgb_matches_reference(self, graph, horizon):
        replica = build_snapshot_replica_graph(graph, horizon=horizon)
        res = run_tgb(graph, SnapshotLCC(), transformed=replica, horizon=horizon)
        for t in range(horizon):
            expected = snapshot_lcc(snapshot_at(graph, t))
            for vid, value in expected.items():
                got = res.replica_values.get((vid, t))
                assert lcc_value(got) == pytest.approx(value), (vid, t)

    def test_goffish_matches_reference(self, graph, horizon):
        res = GoffishEngine(graph, GoffishLCC(), horizon=horizon).run()
        for t in range(horizon):
            expected = snapshot_lcc(snapshot_at(graph, t))
            for vid, value in expected.items():
                got = res.observed.get(t, {}).get(vid)
                assert lcc_value(got) == pytest.approx(value), (vid, t)
