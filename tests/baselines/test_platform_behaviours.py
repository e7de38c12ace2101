"""Behavioural tests for the four baseline platforms themselves —
the properties the paper attributes to each (Sec. VII-A3, VII-B)."""

import pytest

from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.bfs import TemporalBFS
from repro.baselines.chlonos import run_chlonos
from repro.baselines.goffish import GoffishEngine
from repro.baselines.msb import run_msb
from repro.baselines.td.sssp import GoffishSSSP, TgbSSSP
from repro.baselines.tgb import run_tgb
from repro.baselines.ti.bfs import SnapshotBFS
from repro.core.engine import IntervalCentricEngine
from repro.datasets import gplus, twitter
from repro.datasets.transit import transit_graph


class TestChlonosMessageSharing:
    def test_shares_messages_on_long_lifespan_graphs(self):
        """Chronos's benefit: duplicate messages to adjacent time-points of
        a sink collapse into one interval message within a batch."""
        g = twitter(scale=0.15)
        msb = run_msb(g, lambda t: SnapshotBFS("v0"))
        chl = run_chlonos(g, lambda t: SnapshotBFS("v0"))
        assert chl.metrics.shared_messages > 0
        assert chl.metrics.messages_sent < msb.metrics.messages_sent
        # ... but compute is NOT shared: same calls as MSB.
        assert chl.metrics.compute_calls == msb.metrics.compute_calls

    def test_batching_reduces_sharing(self):
        """Smaller batches → fewer adjacent snapshots to share across
        (the paper's Twitter runs share less with 5 batches)."""
        g = twitter(scale=0.15)
        full = run_chlonos(g, lambda t: SnapshotBFS("v0"))
        tiny = run_chlonos(g, lambda t: SnapshotBFS("v0"), batch_size=2)
        assert tiny.metrics.messages_sent >= full.metrics.messages_sent
        assert tiny.num_batches > full.num_batches

    def test_no_sharing_possible_on_unit_lifespans(self):
        """GPlus-style graphs: nothing spans adjacent snapshots."""
        g = gplus(scale=0.2)
        msb = run_msb(g, lambda t: SnapshotBFS("v0"))
        chl = run_chlonos(g, lambda t: SnapshotBFS("v0"))
        assert chl.metrics.messages_sent == msb.metrics.messages_sent
        assert chl.metrics.compute_calls == msb.metrics.compute_calls


class TestTgbBookkeeping:
    def test_chain_traffic_counted_as_system_messages(self):
        g = transit_graph()
        res = run_tgb(g, TgbSSSP("A"))
        assert res.metrics.system_messages > 0

    def test_transformed_result_projects_pointwise(self):
        g = transit_graph()
        res = run_tgb(g, TgbSSSP("A"))
        # Fig. 1(b) walk-through: B costs 4 once reached at 4, 3 from 6.
        assert res.pointwise("B", 4) == 4
        assert res.pointwise("B", 7) == 3
        assert res.pointwise("E", 9) == 5


class TestGoffishBehaviour:
    @pytest.mark.usefixtures("executor")
    def test_no_sharing_across_snapshots(self):
        """GoFFish re-activates vertices every snapshot (explicit state
        passing), so compute calls exceed GRAPHITE's."""
        g = twitter(scale=0.15)
        icm = IntervalCentricEngine(g, TemporalSSSP("v0")).run()
        gof = GoffishEngine(g, GoffishSSSP("v0")).run()
        assert gof.metrics.compute_calls > icm.metrics.compute_calls
        assert gof.metrics.messages_sent > icm.metrics.messages_sent

    def test_temporal_message_beyond_horizon_dropped(self):
        g = transit_graph()
        engine = GoffishEngine(g, GoffishSSSP("A"), horizon=5)
        res = engine.run()  # arrivals at t>=5 silently dropped
        assert res.metrics.supersteps > 0

    def test_backward_direction_validation(self):
        g = transit_graph()
        with pytest.raises(ValueError):
            GoffishEngine(g, GoffishSSSP("A"), direction=0)


class TestMsbAccounting:
    def test_snapshot_load_time_accumulates(self):
        g = gplus(scale=0.2)
        res = run_msb(g, lambda t: SnapshotBFS("v0"))
        assert res.metrics.load_time > 0
        assert res.metrics.platform == "MSB"
        assert set(res.values) == set(range(g.time_horizon()))

    def test_supersteps_accumulate_across_snapshots(self):
        g = gplus(scale=0.2)
        res = run_msb(g, lambda t: SnapshotBFS("v0"))
        assert res.metrics.supersteps >= g.time_horizon()


@pytest.mark.usefixtures("executor")
class TestIcmVsBaselinesOnTransit:
    def test_sssp_pointwise_equivalence_all_platforms(self):
        """Sec. VII-B1: all platforms produce conceptually equal outcomes."""
        from ..algorithms._reference import temporal_sssp_grid

        g = transit_graph()
        horizon = g.time_horizon()
        grid = temporal_sssp_grid(g, "A", horizon=horizon)
        icm = IntervalCentricEngine(g, TemporalSSSP("A")).run()
        tgb = run_tgb(g, TgbSSSP("A"), horizon=horizon)
        gof = GoffishEngine(g, GoffishSSSP("A"), horizon=horizon).run()
        from repro.algorithms.td.sssp import INFINITY

        for vid in "ABCDEF":
            for t in range(horizon):
                expected = grid[vid][t]
                assert icm.value_at(vid, t) == expected
                assert tgb.pointwise(vid, t, default=INFINITY) == expected
                assert gof.value_at(vid, t, default=INFINITY) == expected
