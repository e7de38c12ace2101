"""Tests for the greedy edge-cut partitioner extension."""

import pytest

from repro.datasets import twitter, usrn
from repro.runtime.partitioner import GreedyEdgeCutPartitioner, HashPartitioner


def hash_edge_cut(graph, num_workers):
    p = HashPartitioner(num_workers)
    total = cut = 0
    for e in graph.edges():
        total += 1
        if p.worker_of(e.src) != p.worker_of(e.dst):
            cut += 1
    return cut / total


class TestGreedyPartitioner:
    def test_covers_all_vertices(self):
        g = usrn(scale=0.5)
        p = GreedyEdgeCutPartitioner(4, g)
        for vid in g.vertex_ids():
            assert 0 <= p.worker_of(vid) < 4

    def test_balanced_within_slack(self):
        g = twitter(scale=0.5)
        p = GreedyEdgeCutPartitioner(4, g, capacity_slack=1.1)
        loads = [0] * 4
        for vid in g.vertex_ids():
            loads[p.worker_of(vid)] += 1
        assert max(loads) <= 1.1 * g.num_vertices / 4 + 1

    def test_beats_hash_on_grid_locality(self):
        """On the planar road grid, greedy placement should cut far fewer
        edges than hashing."""
        g = usrn(scale=0.7)
        greedy = GreedyEdgeCutPartitioner(4, g)
        assert greedy.edge_cut(g) < 0.75 * hash_edge_cut(g, 4)

    def test_unknown_vertex(self):
        g = usrn(scale=0.4)
        p = GreedyEdgeCutPartitioner(2, g)
        with pytest.raises(KeyError):
            p.worker_of("nope")

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            GreedyEdgeCutPartitioner(0, usrn(scale=0.4))

    @pytest.mark.usefixtures("executor")
    def test_usable_by_engine(self):
        from repro.algorithms.td.sssp import TemporalSSSP
        from repro.core.engine import IntervalCentricEngine
        from repro.core.state import states_equal_pointwise
        from repro.runtime.cluster import SimulatedCluster

        g = usrn(scale=0.4)
        source = g.vertex_ids()[0]
        hash_run = IntervalCentricEngine(
            g, TemporalSSSP(source), cluster=SimulatedCluster(4)
        ).run()
        greedy_run = IntervalCentricEngine(
            g, TemporalSSSP(source),
            cluster=SimulatedCluster(4, partitioner=GreedyEdgeCutPartitioner(4, g)),
        ).run()
        # Identical results, better message locality.
        for vid in g.vertex_ids():
            assert states_equal_pointwise(hash_run.states[vid], greedy_run.states[vid])
        assert greedy_run.metrics.remote_messages < hash_run.metrics.remote_messages
