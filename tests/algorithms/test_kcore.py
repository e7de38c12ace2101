"""Tests for temporal k-core decomposition."""

import pytest

from repro.algorithms.td.kcore import (
    DEAD,
    TemporalKCore,
    in_core,
    run_temporal_kcore,
    snapshot_kcore,
)
from repro.algorithms.ti.wcc import make_undirected
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.snapshots import snapshot_at


def triangle_with_tail():
    """A triangle (2-core) with a pendant vertex, edges phasing in/out."""
    b = TemporalGraphBuilder()
    for vid in "abcd":
        b.add_vertex(vid, 0, 8)
    b.add_edge("a", "b", 0, 8)
    b.add_edge("b", "c", 0, 6)   # triangle breaks at t=6
    b.add_edge("c", "a", 0, 8)
    b.add_edge("c", "d", 2, 5)   # pendant only mid-window
    return b.build()


class TestSmallCases:
    @pytest.mark.usefixtures("executor")
    def test_triangle_is_2core_while_intact(self):
        result = run_temporal_kcore(triangle_with_tail(), k=2)
        for t in range(6):
            for vid in "abc":
                assert in_core(result.value_at(vid, t)), (vid, t)
        for t in range(6, 8):
            for vid in "abc":
                assert result.value_at(vid, t) == DEAD, (vid, t)

    @pytest.mark.usefixtures("executor")
    def test_pendant_never_in_2core(self):
        result = run_temporal_kcore(triangle_with_tail(), k=2)
        for t in range(8):
            assert result.value_at("d", t) == DEAD

    @pytest.mark.usefixtures("executor")
    def test_1core_follows_any_edge(self):
        result = run_temporal_kcore(triangle_with_tail(), k=1)
        assert in_core(result.value_at("d", 3))
        assert result.value_at("d", 0) == DEAD  # c-d edge starts at 2

    @pytest.mark.usefixtures("executor")
    def test_cascading_removal(self):
        """A chain: removing the end cascades through the whole chain."""
        b = TemporalGraphBuilder()
        for i in range(5):
            b.add_vertex(f"v{i}", 0, 4)
        for i in range(4):
            b.add_edge(f"v{i}", f"v{i + 1}", 0, 4)
        result = run_temporal_kcore(b.build(), k=2)
        for i in range(5):
            for t in range(4):
                assert result.value_at(f"v{i}", t) == DEAD

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TemporalKCore(0)


@pytest.mark.usefixtures("executor")
class TestAgainstReference:
    def test_matches_per_snapshot_peeling(self, graph, horizon):
        result = run_temporal_kcore(graph, k=2)
        undirected = make_undirected(graph)
        for t in range(horizon):
            expected = snapshot_kcore(snapshot_at(undirected, t), k=2)
            for vid in graph.vertex_ids():
                assert in_core(result.value_at(vid, t)) == (vid in expected), (vid, t)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_for_other_k(self, graph, horizon, k):
        result = run_temporal_kcore(graph, k=k)
        undirected = make_undirected(graph)
        for t in range(horizon):
            expected = snapshot_kcore(snapshot_at(undirected, t), k=k)
            for vid in graph.vertex_ids():
                assert in_core(result.value_at(vid, t)) == (vid in expected), (vid, t, k)
