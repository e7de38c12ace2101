"""Tests for the SNAP / contact-sequence parsers."""

import io

import pytest

from repro.core.interval import Interval
from repro.graph.parsers import load_contact_sequence, load_snap_edgelist

SNAP_SAMPLE = """\
# src dst unixtime
alice bob 1000
alice bob 1060
alice bob 1120
bob carol 1300
carol alice 1000
alice bob 1400
"""


class TestSnapEdgelist:
    def test_basic_bucketing(self):
        g = load_snap_edgelist(io.StringIO(SNAP_SAMPLE), bucket=60)
        # Times normalise to buckets 0..6 (raw 1000..1400, bucket 60).
        assert sorted(g.vertex_ids()) == ["alice", "bob", "carol"]
        assert g.time_horizon() == 7
        # alice→bob events at buckets 0,1,2 merge into [0,3); 1400 → [6,7).
        ab = sorted(
            (e.lifespan for e in g.out_edges("alice") if e.dst == "bob"),
            key=lambda iv: iv.start,
        )
        assert ab == [Interval(0, 3), Interval(6, 7)]

    def test_merge_gap_bridges_silence(self):
        g = load_snap_edgelist(io.StringIO(SNAP_SAMPLE), bucket=60, merge_gap=5)
        ab = [e.lifespan for e in g.out_edges("alice") if e.dst == "bob"]
        assert ab == [Interval(0, 7)]

    def test_vertex_lifespan_policies(self):
        g_horizon = load_snap_edgelist(io.StringIO(SNAP_SAMPLE), bucket=60)
        assert g_horizon.vertex("carol").lifespan == Interval(0, 7)
        g_activity = load_snap_edgelist(
            io.StringIO(SNAP_SAMPLE), bucket=60, vertex_lifespan="activity"
        )
        # carol's events: bucket 0 (carol→alice) and bucket 5 (bob→carol).
        assert g_activity.vertex("carol").lifespan == Interval(0, 6)

    def test_undirected_mirrors_edges(self):
        g = load_snap_edgelist(io.StringIO(SNAP_SAMPLE), bucket=60, directed=False)
        assert any(e.dst == "alice" for e in g.out_edges("bob"))

    def test_bad_policy_and_empty(self):
        with pytest.raises(ValueError, match="vertex_lifespan"):
            load_snap_edgelist(io.StringIO(SNAP_SAMPLE), vertex_lifespan="weird")
        with pytest.raises(ValueError, match="no events"):
            load_snap_edgelist(io.StringIO("# nothing\n"))
        with pytest.raises(ValueError, match="expected"):
            load_snap_edgelist(io.StringIO("alice bob\n"))

    @pytest.mark.usefixtures("executor")
    def test_parsed_graph_runs_icm(self):
        from repro.algorithms.td.reach import TemporalReachability, is_reachable
        from repro.core.engine import IntervalCentricEngine

        g = load_snap_edgelist(io.StringIO(SNAP_SAMPLE), bucket=60)
        result = IntervalCentricEngine(g, TemporalReachability("alice")).run()
        assert is_reachable(result.states["carol"])  # alice→bob→carol in time


class TestContactSequence:
    SAMPLE = "10 x y\n12 y z\n10 z x\n"

    def test_parse(self):
        g = load_contact_sequence(io.StringIO(self.SAMPLE))
        assert g.num_vertices == 3
        assert g.num_edges == 3
        xy = [e for e in g.out_edges("x") if e.dst == "y"][0]
        assert xy.lifespan == Interval(0, 1)
        assert g.time_horizon() == 3

    def test_duration(self):
        g = load_contact_sequence(io.StringIO(self.SAMPLE), duration=3)
        xy = [e for e in g.out_edges("x") if e.dst == "y"][0]
        assert xy.lifespan == Interval(0, 3)

    def test_empty(self):
        with pytest.raises(ValueError, match="no contacts"):
            load_contact_sequence(io.StringIO("# none\n"))
