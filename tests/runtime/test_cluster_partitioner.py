"""Tests for the simulated cluster, partitioners and the cost model."""

import pytest

from repro import api
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.config import _PARTITIONER_KINDS
from repro.core.interval import Interval
from repro.core.messages import message
from repro.datasets import transit_graph
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.graph.model import TemporalEdge, TemporalVertex
from repro.obs.observers import InMemoryEvents
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.metrics import NetworkModel, RunMetrics
from repro.runtime.partitioner import (
    PARTITIONER_KINDS,
    GreedyEdgeCutPartitioner,
    HashPartitioner,
    RangePartitioner,
    build_partitioner,
    partitioner_fingerprint,
)


class TestHashPartitioner:
    def test_deterministic(self):
        p1 = HashPartitioner(8)
        p2 = HashPartitioner(8)
        for vid in ["a", "b", 42, ("x", 3)]:
            assert p1.worker_of(vid) == p2.worker_of(vid)

    def test_range(self):
        p = HashPartitioner(4)
        assert all(0 <= p.worker_of(f"v{i}") < 4 for i in range(100))

    def test_roughly_balanced(self):
        p = HashPartitioner(4)
        load = [0] * 4
        for i in range(2000):
            load[p.worker_of(f"v{i}")] += 1
        assert min(load) > 300

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_contiguous_assignment(self):
        p = RangePartitioner(3, [f"v{i:03d}" for i in range(9)])
        assert p.worker_of("v000") == 0
        assert p.worker_of("v008") == 2

    def test_unknown_vertex(self):
        p = RangePartitioner(2, ["a"])
        with pytest.raises(KeyError):
            p.worker_of("zzz")


class TestPartitionerSelection:
    def test_config_kinds_match_runtime_kinds(self):
        # config.py duplicates the tuple to stay import-cycle-free; this
        # pin is the promise referenced next to that duplicate.
        assert _PARTITIONER_KINDS == PARTITIONER_KINDS

    def test_build_partitioner_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown partitioner kind"):
            build_partitioner("metis", 4, transit_graph())

    def test_every_kind_builds_and_fingerprints(self):
        g = transit_graph()
        seen = set()
        for kind in PARTITIONER_KINDS:
            p = build_partitioner(kind, 3, g)
            assert p.kind == kind
            assert p.num_workers == 3
            fp = partitioner_fingerprint(p)
            assert fp and fp not in seen
            seen.add(fp)

    def test_fingerprint_falls_back_to_repr(self):
        class Foreign:
            def worker_of(self, vid):
                return 0

            def __repr__(self):
                return "Foreign()"

        assert partitioner_fingerprint(Foreign()) == "Foreign()"

    def test_config_kind_installs_partitioner(self):
        g = transit_graph()
        engine = api.build_engine(
            g, TemporalSSSP("A"), cluster=SimulatedCluster(4),
            options={"partitioner": "greedy"},
        )
        assert engine.cluster.partitioner.kind == "greedy"

    def test_explicit_config_kind_beats_cluster_partitioner(self):
        g = transit_graph()
        engine = api.build_engine(
            g, TemporalSSSP("A"),
            cluster=SimulatedCluster(4, partitioner=HashPartitioner(4, seed=9)),
            options={"partitioner": "greedy"},
        )
        assert engine.cluster.partitioner.kind == "greedy"


def _walked(cluster, graph):
    """Placement statistics with no memo in the way: over a full-lifespan
    window for a resident graph (same entities, no ``_placement``)."""
    if hasattr(graph, "_placement"):
        graph = graph.window(0)
    return cluster.partition_stats(graph)


class TestPartitionObservability:
    def test_partition_stats_shape(self):
        g = transit_graph()
        cluster = SimulatedCluster(3)
        stats = cluster.partition_stats(g)
        assert sum(stats["vertex_load"]) == g.num_vertices
        assert 0.0 <= stats["edge_cut"] <= 1.0
        assert stats["imbalance"] >= 1.0
        # Cut edges are billed to both endpoint workers.
        n_edges = sum(1 for _ in g.edges())
        cut_edges = round(stats["edge_cut"] * n_edges)
        assert sum(stats["edge_load"]) == n_edges + cut_edges

    def test_partition_stats_single_worker(self):
        stats = SimulatedCluster(1).partition_stats(transit_graph())
        assert stats["edge_cut"] == 0.0
        assert stats["imbalance"] == 1.0

    @pytest.mark.usefixtures("executor")
    @pytest.mark.parametrize("store", ["heap", "compact"])
    def test_placement_statistics_are_memoized_on_the_resident_graph(self, store):
        """Placement quality is a pure function of (graph, partitioner): the
        resident graph keeps it per fingerprint, so a second engine build
        walks no edge — and a grown graph, another partitioner or another
        worker count each get their own walk."""
        g = transit_graph()
        if store == "compact":
            g = CompactGraph.from_temporal(g)
        first = SimulatedCluster(4).partition_stats(g)
        assert SimulatedCluster(4).partition_stats(g) is first
        assert first == _walked(SimulatedCluster(4), g)
        seeded = SimulatedCluster(4, partitioner=HashPartitioner(4, seed=9))
        assert seeded.partition_stats(g) is not first
        assert seeded.partition_stats(g) == _walked(seeded, g)
        # Same partitioner, more simulated workers: loads have another shape.
        wide = SimulatedCluster(6, partitioner=HashPartitioner(4))
        assert len(wide.partition_stats(g)["vertex_load"]) == 6
        assert SimulatedCluster(4).partition_stats(g) is first
        # An engine run goes through the memo.
        engine = api.build_engine(
            g, TemporalSSSP("A"), cluster=SimulatedCluster(4),
            options={"partitioner": "hash", "checkpoint_every": 0},
        )
        engine.run()
        key = (4, HashPartitioner(4).fingerprint())
        assert engine._partition_stats is engine.graph._placement[key]
        assert engine._partition_stats is first

    def test_partition_stats_agree_on_heap_image_and_window(self, tmp_path):
        """The statistics stream edge records, not edge objects: a heap
        graph, its mapped image and a window over either give one dict, and
        a bounded window gives what its materialised slice does."""
        from repro.datasets import twitter
        from repro.query.slice import temporal_slice

        heap = twitter(0.3)
        path = tmp_path / "graph.itgr"
        CompactGraph.from_temporal(heap).dump(path)
        image = api.load_graph(str(path))
        cluster = SimulatedCluster(4)
        stats = _walked(cluster, heap)
        for graph in (heap, image, heap.window(0), image.window(0)):
            assert cluster.partition_stats(graph) == stats
        span = Interval(3, 11)
        sliced = cluster.partition_stats(temporal_slice(heap, span))
        for graph in (heap, image):
            window = graph.window(span.start, span.end)
            assert cluster.partition_stats(window) == sliced
            assert list(window.edge_records()) == [
                (e.src, e.dst, e.lifespan.start, e.lifespan.end)
                for e in window.edges()
            ]

    def test_placement_memo_is_dropped_when_the_graph_grows(self):
        builder = TemporalGraphBuilder()
        builder.add_vertices(["a", "b", "c"], 0, 10)
        builder.add_edge("a", "b", 0, 10)
        g = builder.build()
        cluster = SimulatedCluster(2)
        before = cluster.partition_stats(g)
        g._add_edge(TemporalEdge("bc", "b", "c", Interval(2, 8)))
        after = cluster.partition_stats(g)
        assert after is not before and sum(after["edge_load"]) > sum(before["edge_load"])
        g._add_vertex(TemporalVertex("d", Interval(0, 10)))
        assert sum(cluster.partition_stats(g)["vertex_load"]) == 4

    def test_placement_memo_skips_windows_and_unfingerprinted_partitioners(self):
        g = transit_graph()
        cluster = SimulatedCluster(4)
        resident = cluster.partition_stats(g)
        view = g.window(0, 5)
        seen = cluster.partition_stats(view)
        assert seen is not cluster.partition_stats(view)  # walked every time
        assert seen == _walked(cluster, g.window(0, 5)) and len(g._placement) == 1
        assert cluster.partition_stats(g) is resident

        class Foreign:  # no fingerprint(): identified by repr, i.e. not at all
            def worker_of(self, vid):
                return 0

        foreign = SimulatedCluster(4, partitioner=Foreign())
        assert foreign.partition_stats(g) is not foreign.partition_stats(g)
        assert len(g._placement) == 1

    @pytest.mark.usefixtures("executor")
    def test_run_reports_partition_metrics_and_events(self):
        events = InMemoryEvents()
        result = api.run(
            transit_graph(), TemporalSSSP("A"),
            cluster=SimulatedCluster(4),
            options={"partitioner": "greedy", "checkpoint_every": 0},
            observe=events,
        )
        metrics = result.metrics
        assert metrics.partition_edge_cut > 0.0
        assert metrics.partition_imbalance >= 1.0
        assert (
            metrics.local_message_bytes + metrics.remote_message_bytes
            == metrics.message_bytes
        )
        start = events.of_type("run_start")[0]["data"]
        assert start["partitioner"].startswith("greedy:")
        assert sum(start["worker_vertex_load"]) == transit_graph().num_vertices
        assert start["partition_edge_cut"] == metrics.partition_edge_cut


@pytest.mark.usefixtures("executor")
class TestCheckpointPartitionerGuard:
    def test_resume_under_different_partitioner_refused(self, tmp_path):
        g = transit_graph()
        api.run(
            g, TemporalSSSP("A"), cluster=SimulatedCluster(4),
            options={
                "partitioner": "hash",
                "checkpoint_every": 1,
                "checkpoint_dir": str(tmp_path),
            },
        )
        with pytest.raises(CheckpointError) as err:
            api.run(
                g, TemporalSSSP("A"), cluster=SimulatedCluster(4),
                options={
                    "partitioner": "greedy",
                    "checkpoint_every": 0,
                },
                resume_from=str(tmp_path),
            )
        # The refusal must name both placements so the operator can see
        # exactly which assignment the checkpoint was sharded under.
        message = str(err.value)
        assert "hash:w=4" in message
        assert partitioner_fingerprint(
            GreedyEdgeCutPartitioner(4, g)
        ) in message

    def test_resume_under_same_partitioner_succeeds(self, tmp_path):
        g = transit_graph()
        options = {
            "partitioner": "greedy",
            "checkpoint_every": 1,
            "checkpoint_dir": str(tmp_path),
        }
        full = api.run(g, TemporalSSSP("A"),
                       cluster=SimulatedCluster(4), options=options)
        resumed = api.run(
            g, TemporalSSSP("A"), cluster=SimulatedCluster(4),
            options={"partitioner": "greedy", "checkpoint_every": 0},
            resume_from=str(tmp_path),
        )
        assert {v: list(s) for v, s in full.states.items()} == \
               {v: list(s) for v, s in resumed.states.items()}


class TestSimulatedCluster:
    def test_message_delivery_at_barrier(self):
        cluster = SimulatedCluster(2)
        metrics = RunMetrics()
        inboxes = cluster.begin_superstep(1)
        assert inboxes == {}  # nothing sent yet
        cluster.send("a", "b", message(0, 1, 5), metrics)
        assert cluster.has_pending_messages()
        cluster.end_superstep(metrics, messaging_time=0.0)
        inboxes = cluster.begin_superstep(2)
        assert [m.value for m in inboxes["b"]] == [5]
        # Delivered messages are consumed: next superstep starts empty.
        cluster.end_superstep(metrics, messaging_time=0.0)
        assert cluster.begin_superstep(3) == {}

    def test_local_vs_remote_accounting(self):
        cluster = SimulatedCluster(4)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        vids = [f"v{i}" for i in range(40)]
        for vid in vids:
            cluster.send("v0", vid, message(0, 1, 1), metrics)
        assert metrics.local_messages + metrics.remote_messages == 40
        assert metrics.remote_messages > 0
        home = cluster.worker_of("v0")
        expected_local = sum(1 for v in vids if cluster.worker_of(v) == home)
        assert metrics.local_messages == expected_local

    def test_system_messages_counted_separately(self):
        cluster = SimulatedCluster(2)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.send("a", "b", message(0, 1, 1), metrics, system=True)
        cluster.send("a", "b", message(0, 1, 1), metrics)
        assert metrics.messages_sent == 1
        assert metrics.system_messages == 1
        assert metrics.total_messages == 2

    def test_modeled_makespan_accumulates(self):
        cluster = SimulatedCluster(2, network=NetworkModel(barrier_latency_s=0.01))
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.add_compute_time("a", 0.5)
        cluster.end_superstep(metrics, messaging_time=0.0)
        assert metrics.modeled_makespan >= 0.51
        assert metrics.barrier_time == pytest.approx(0.01)

    def test_worker_load(self):
        cluster = SimulatedCluster(4)
        load = cluster.worker_load([f"v{i}" for i in range(100)])
        assert sum(load) == 100

    def test_explicit_size_override(self):
        cluster = SimulatedCluster(2)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.send("a", "b", "opaque", metrics, size=17)
        assert metrics.message_bytes == 17

    def test_reset_clears_queues(self):
        cluster = SimulatedCluster(2)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.send("a", "b", message(0, 1, 1), metrics)
        cluster.reset()
        assert not cluster.has_pending_messages()


class TestNetworkModel:
    def test_transfer_time_scales_with_bytes(self):
        net = NetworkModel(bandwidth_bytes_per_s=1000, per_message_overhead_s=0.0)
        assert net.transfer_time(2000, 0) == pytest.approx(2.0)

    def test_per_message_overhead(self):
        net = NetworkModel(per_message_overhead_s=0.001)
        assert net.transfer_time(0, 100) == pytest.approx(0.1)


class TestMetricsMerge:
    def test_merge_accumulates(self):
        a = RunMetrics(compute_calls=5, messages_sent=3, makespan=1.0)
        b = RunMetrics(compute_calls=2, messages_sent=4, makespan=0.5,
                       peak_inflight_messages=9)
        a.merge(b)
        assert a.compute_calls == 7
        assert a.messages_sent == 7
        assert a.makespan == pytest.approx(1.5)
        assert a.peak_inflight_messages == 9

    def test_summary_string(self):
        m = RunMetrics(platform="X", algorithm="Y", graph="Z")
        assert "X/Y/Z" in m.summary()
