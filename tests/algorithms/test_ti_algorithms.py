"""Correctness of the TI algorithms on all three platforms.

For each algorithm, the one interval-centric run must agree *pointwise*
with the brute-force per-snapshot reference at every time-point — the
"snapshot-reducible" contract — and so must MSB and Chlonos.
"""

import pytest

from ._reference import (
    snapshot_bfs,
    snapshot_pagerank,
    snapshot_scc,
    snapshot_wcc,
)
from repro.algorithms.ti.bfs import TemporalBFS, UNREACHED
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.algorithms.ti.scc import run_icm_scc
from repro.algorithms.ti.wcc import TemporalWCC, make_undirected
from repro.baselines.chlonos import run_chlonos
from repro.baselines.msb import run_msb
from repro.baselines.ti.bfs import SnapshotBFS
from repro.baselines.ti.pagerank import SnapshotPageRank
from repro.baselines.ti.scc import run_chlonos_scc, run_snapshot_scc
from repro.baselines.ti.wcc import SnapshotWCC
from repro.core.engine import IntervalCentricEngine
from repro.graph.snapshots import snapshot_at

SOURCE = "v0"


class TestBFS:
    @pytest.mark.usefixtures("executor")
    def test_icm_matches_reference_pointwise(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalBFS(SOURCE)).run()
        for t in range(horizon):
            expected = snapshot_bfs(snapshot_at(graph, t), SOURCE)
            for vid, dist in expected.items():
                assert result.value_at(vid, t) == dist, (vid, t)

    def test_msb_matches_reference(self, graph, horizon):
        res = run_msb(graph, lambda t: SnapshotBFS(SOURCE), horizon=horizon)
        for t in range(horizon):
            expected = snapshot_bfs(snapshot_at(graph, t), SOURCE)
            assert res.values[t] == expected

    def test_chlonos_matches_reference(self, graph, horizon):
        res = run_chlonos(graph, lambda t: SnapshotBFS(SOURCE), horizon=horizon)
        for t in range(horizon):
            expected = snapshot_bfs(snapshot_at(graph, t), SOURCE)
            assert res.values[t] == expected

    def test_chlonos_batched_matches_unbatched(self, graph, horizon):
        full = run_chlonos(graph, lambda t: SnapshotBFS(SOURCE), horizon=horizon)
        batched = run_chlonos(graph, lambda t: SnapshotBFS(SOURCE),
                              horizon=horizon, batch_size=3)
        assert full.values == batched.values
        assert batched.num_batches == 3


class TestWCC:
    @pytest.mark.usefixtures("executor")
    def test_icm_matches_reference_pointwise(self, graph, horizon):
        undirected = make_undirected(graph)
        result = IntervalCentricEngine(undirected, TemporalWCC()).run()
        for t in range(horizon):
            expected = snapshot_wcc(snapshot_at(graph, t))
            for vid, label in expected.items():
                assert result.value_at(vid, t) == label, (vid, t)

    def test_msb_matches_reference(self, graph, horizon):
        undirected = make_undirected(graph)
        res = run_msb(undirected, lambda t: SnapshotWCC(), horizon=horizon)
        for t in range(horizon):
            expected = snapshot_wcc(snapshot_at(graph, t))
            assert res.values[t] == expected

    def test_chlonos_matches_reference(self, graph, horizon):
        undirected = make_undirected(graph)
        res = run_chlonos(undirected, lambda t: SnapshotWCC(), horizon=horizon,
                          batch_size=4)
        for t in range(horizon):
            expected = snapshot_wcc(snapshot_at(graph, t))
            assert res.values[t] == expected


class TestPageRank:
    @pytest.mark.usefixtures("executor")
    def test_icm_matches_reference_pointwise(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalPageRank(graph)).run()
        for t in range(horizon):
            expected = snapshot_pagerank(snapshot_at(graph, t))
            for vid, rank in expected.items():
                assert result.value_at(vid, t) == pytest.approx(rank), (vid, t)

    def test_msb_matches_reference(self, graph, horizon):
        res = run_msb(graph, lambda t: SnapshotPageRank(), horizon=horizon)
        for t in range(horizon):
            expected = snapshot_pagerank(snapshot_at(graph, t))
            for vid, rank in expected.items():
                assert res.values[t][vid] == pytest.approx(rank)

    def test_chlonos_matches_reference(self, graph, horizon):
        res = run_chlonos(graph, lambda t: SnapshotPageRank(), horizon=horizon,
                          batch_size=5)
        for t in range(horizon):
            expected = snapshot_pagerank(snapshot_at(graph, t))
            for vid, rank in expected.items():
                assert res.values[t][vid] == pytest.approx(rank)

    @pytest.mark.usefixtures("executor")
    def test_ranks_are_probabilities_when_no_danglers(self):
        """On a cycle (no dangling mass), ranks sum to 1 per snapshot."""
        from repro.graph.builder import TemporalGraphBuilder

        b = TemporalGraphBuilder()
        n = 6
        for i in range(n):
            b.add_vertex(f"v{i}", 0, 4)
        for i in range(n):
            b.add_edge(f"v{i}", f"v{(i + 1) % n}", 0, 4)
        g = b.build()
        result = IntervalCentricEngine(g, TemporalPageRank(g)).run()
        total = sum(result.value_at(f"v{i}", 2) for i in range(n))
        assert total == pytest.approx(1.0)


class TestSCC:
    @pytest.mark.usefixtures("executor")
    def test_icm_matches_reference_pointwise(self, graph, horizon):
        res = run_icm_scc(graph)
        for t in range(horizon):
            expected = snapshot_scc(snapshot_at(graph, t))
            for vid, label in expected.items():
                assert res.component_at(vid, t) == label, (vid, t)

    def test_msb_matches_reference(self, graph, horizon):
        values, _ = run_snapshot_scc(graph, horizon=horizon)
        for t in range(horizon):
            expected = snapshot_scc(snapshot_at(graph, t))
            assert values[t] == expected

    def test_chlonos_matches_reference(self, graph, horizon):
        values, _ = run_chlonos_scc(graph, horizon=horizon, batch_size=4)
        for t in range(horizon):
            expected = snapshot_scc(snapshot_at(graph, t))
            assert values[t] == expected
