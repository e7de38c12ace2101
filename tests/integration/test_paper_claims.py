"""Integration tests for the paper's qualitative evaluation claims.

Each test pins one claim from Sec. VII at our (scaled-down) dataset sizes:
the *shape* — who wins and roughly why — not absolute numbers.
"""

import pytest

from repro import api
from repro.algorithms import run_algorithm
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.bfs import TemporalBFS
from repro.baselines.msb import run_msb
from repro.baselines.ti.bfs import SnapshotBFS
from repro.core.engine import IntervalCentricEngine
from repro.datasets import gplus, twitter, usrn
from repro.graph.stats import dataset_stats, memory_footprint


class TestLongLifespanAdvantage:
    """Sec. VII-B3: ICM out-performs for graphs with longer lifespans."""

    def test_ti_sharing_on_twitter_surrogate(self):
        g = twitter(scale=0.5)
        icm = run_algorithm("BFS", "GRAPHITE", g)
        msb = run_algorithm("BFS", "MSB", g)
        chl = run_algorithm("BFS", "Chlonos", g)
        # Fewer compute calls *and* messages than MSB (paper: ≈27×/28×).
        assert msb.metrics.compute_calls > 3 * icm.metrics.compute_calls
        assert msb.metrics.messages_sent > 3 * icm.metrics.messages_sent
        # Chlonos shares messages but not compute.
        assert chl.metrics.compute_calls == msb.metrics.compute_calls
        assert chl.metrics.messages_sent < msb.metrics.messages_sent

    def test_td_sharing_on_twitter_surrogate(self):
        g = twitter(scale=0.5)
        icm = run_algorithm("EAT", "GRAPHITE", g)
        tgb = run_algorithm("EAT", "TGB", g)
        gof = run_algorithm("EAT", "GoFFish", g)
        assert gof.metrics.compute_calls > 2 * icm.metrics.compute_calls
        assert gof.metrics.messages_sent > 2 * icm.metrics.messages_sent
        assert tgb.metrics.compute_calls > icm.metrics.compute_calls
        # TGB pays extra replica state-transfer traffic.
        assert tgb.metrics.system_messages > 0


class TestUnitLifespanWorstCase:
    """Sec. VII-B5: no sharing is possible on unit-lifespan graphs, and all
    platforms degenerate to per-snapshot behaviour (Sec. VII-B1)."""

    def test_message_counts_match_on_gplus(self):
        g = gplus(scale=0.5)
        icm = run_algorithm("BFS", "GRAPHITE", g)
        msb = run_algorithm("BFS", "MSB", g)
        chl = run_algorithm("BFS", "Chlonos", g)
        # Identical message production: nothing spans adjacent snapshots,
        # so ICM's scatter invocations equal MSB's sends exactly.  (ICM may
        # put slightly fewer on the wire after dominated-duplicate pruning.)
        assert icm.metrics.scatter_calls == msb.metrics.messages_sent
        assert icm.metrics.messages_sent <= msb.metrics.messages_sent
        assert chl.metrics.messages_sent == msb.metrics.messages_sent
        # MSB and Chlonos have identical compute calls.
        assert chl.metrics.compute_calls == msb.metrics.compute_calls
        # ICM's calls differ only by superstep-1 consolidation (one call
        # per vertex instead of one per vertex per snapshot).
        assert icm.metrics.compute_calls <= msb.metrics.compute_calls

    def test_warp_suppression_kicks_in_on_gplus(self):
        g = gplus(scale=0.5)
        engine = IntervalCentricEngine(g, TemporalBFS("v0"))
        result = engine.run()
        assert result.metrics.warp_suppressed_vertices > 0


class TestStaticTopology:
    """Sec. VII-B6: USRN has a fixed topology; ICM's interval run matches
    single-snapshot work for TI algorithms without manual hints."""

    def test_icm_bfs_on_usrn_costs_one_snapshot(self):
        g = usrn(scale=1.0)
        icm = run_algorithm("BFS", "GRAPHITE", g)
        msb = run_algorithm("BFS", "MSB", g)
        horizon = g.time_horizon()
        # MSB re-runs every snapshot; ICM's one run is ≈ one snapshot's
        # worth of calls, i.e. about horizon× fewer.
        assert msb.metrics.compute_calls >= 0.8 * horizon * icm.metrics.compute_calls

    def test_usrn_has_large_diameter_many_supersteps(self):
        g = usrn(scale=1.0)
        icm = run_algorithm("BFS", "GRAPHITE", g)
        # Grid diameter ≈ rows+cols; far more supersteps than social graphs.
        social = run_algorithm("BFS", "GRAPHITE", twitter(scale=1.0))
        assert icm.metrics.supersteps > 2 * social.metrics.supersteps


class TestMemoryFootprint:
    """Sec. VII-B4 / Fig. 6a: the interval graph is far more compact than
    the transformed graph for large, long-lived graphs."""

    @pytest.mark.parametrize("factory", [twitter, usrn])
    def test_transformed_blowup(self, factory):
        g = factory(scale=0.4)
        sizes = memory_footprint(g)
        assert sizes["transformed"] > 2 * sizes["interval"]

    def test_gplus_transformed_modest(self):
        """Unit lifespans: the transformed graph stays comparable."""
        g = gplus(scale=0.4)
        sizes = memory_footprint(g)
        stats = dataset_stats(g, "gplus")
        assert stats.avg_edge_lifespan == 1.0
        assert sizes["transformed"] < 4 * sizes["interval"]


class TestCombinerAndSuppressionKnobs:
    """Fig. 6b/6c: the engineering optimisations help where the paper says."""

    def test_combiner_reduces_compute_time_inputs(self):
        g = twitter(scale=0.4)
        on = IntervalCentricEngine(g, TemporalSSSP("v0")).run()
        off = api.run(
            g, TemporalSSSP("v0"),
            options={"enable_warp_combiner": False, "enable_receiver_combiner": False},
        )
        # Same compute outcome...
        for vid in g.vertex_ids():
            assert on.states[vid].partitions() == off.states[vid].partitions()
        # ...but the combiner run folded messages and sent fewer.
        assert on.metrics.messages_sent <= off.metrics.messages_sent
        assert on.metrics.combiner_reductions > 0

    def test_suppression_reduces_warp_calls_on_gplus(self):
        g = gplus(scale=0.5)
        on = IntervalCentricEngine(g, TemporalBFS("v0")).run()
        off = api.run(
            g, TemporalBFS("v0"), options={"enable_warp_suppression": False}
        )
        assert on.metrics.warp_calls < off.metrics.warp_calls
        for vid in g.vertex_ids():
            assert on.states[vid].partitions() == off.states[vid].partitions()

    def test_suppression_correct_for_combiner_less_lcc(self):
        """The time-point path must also be exact for multi-tag message
        groups (LCC has no combiner to hide behind)."""
        from repro.algorithms.reference import snapshot_lcc
        from repro.algorithms.td.lcc import TemporalLCC, lcc_value
        from repro.graph.snapshots import snapshot_at

        g = gplus(scale=0.4)
        on = IntervalCentricEngine(g, TemporalLCC()).run()
        off = api.run(
            g, TemporalLCC(), options={"enable_warp_suppression": False}
        )
        assert on.metrics.warp_suppressed_vertices > 0
        for t in range(g.time_horizon()):
            expected = snapshot_lcc(snapshot_at(g, t))
            for vid, value in expected.items():
                assert lcc_value(on.value_at(vid, t)) == pytest.approx(value), (vid, t)
                assert lcc_value(off.value_at(vid, t)) == pytest.approx(value), (vid, t)
