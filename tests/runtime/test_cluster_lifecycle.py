"""Superstep lifecycle guards and the ``model_network=False`` fast path."""

import pytest

from repro.core.messages import message
from repro.runtime.cluster import ClusterLifecycleError, SimulatedCluster
from repro.runtime.metrics import RunMetrics


class TestLifecycleGuards:
    def test_send_outside_superstep(self):
        cluster = SimulatedCluster(2)
        with pytest.raises(ClusterLifecycleError, match="outside an open superstep"):
            cluster.send("a", "b", message(0, 1, 5), RunMetrics())

    def test_begin_twice(self):
        cluster = SimulatedCluster(2)
        cluster.begin_superstep(1)
        with pytest.raises(ClusterLifecycleError, match="still open"):
            cluster.begin_superstep(2)

    def test_end_without_begin(self):
        cluster = SimulatedCluster(2)
        with pytest.raises(ClusterLifecycleError, match="without begin_superstep"):
            cluster.end_superstep(RunMetrics())

    def test_compute_accounting_outside_superstep(self):
        cluster = SimulatedCluster(2)
        with pytest.raises(ClusterLifecycleError):
            cluster.add_compute_time("a", 1.0)
        with pytest.raises(ClusterLifecycleError):
            cluster.add_shard_compute(0, 1.0)
        with pytest.raises(ClusterLifecycleError):
            cluster.record_traffic(RunMetrics(), app=1)

    def test_reset_recovers_crashed_run(self):
        cluster = SimulatedCluster(2)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.send("a", "b", message(0, 1, 5), metrics)
        # The run dies before end_superstep; reset() discards the open step
        # and its queued messages so the next run starts clean.
        cluster.reset()
        inboxes = cluster.begin_superstep(1)
        assert inboxes == {}
        assert not cluster.has_pending_messages()
        cluster.end_superstep(metrics)

    def test_is_a_runtime_error(self):
        assert issubclass(ClusterLifecycleError, RuntimeError)


class TestModelNetworkDisabled:
    def test_counts_kept_but_no_bytes(self):
        cluster = SimulatedCluster(2, model_network=False)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.send("a", "b", message(0, 1, 5), metrics)
        cluster.send("a", "a", message(0, 1, 6), metrics)
        step = cluster.end_superstep(metrics)
        assert metrics.messages_sent == 2
        assert metrics.local_messages + metrics.remote_messages == 2
        assert metrics.message_bytes == 0
        assert step.bytes == 0

    def test_no_transfer_or_barrier_charges(self):
        cluster = SimulatedCluster(2, model_network=False)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.send("a", "b", message(0, 1, 5), metrics)
        step = cluster.end_superstep(metrics)
        assert step.messaging_time == 0.0
        assert metrics.barrier_time == 0.0
        assert metrics.modeled_makespan == step.max_worker_compute_time

    def test_record_traffic_respects_flag(self):
        cluster = SimulatedCluster(2, model_network=False)
        metrics = RunMetrics()
        cluster.begin_superstep(1)
        cluster.record_traffic(metrics, app=3, local=1, remote=2,
                               bytes_total=100, bytes_remote=60)
        step = cluster.end_superstep(metrics)
        assert metrics.messages_sent == 3
        assert metrics.message_bytes == 0
        assert step.bytes == 0

    def test_engine_runs_with_network_disabled(self):
        from repro import api
        from repro.algorithms.ti.bfs import TemporalBFS
        from repro.datasets import transit_graph

        graph = transit_graph()
        source = graph.vertex_ids()[0]

        def run(**options):
            return api.run(
                graph, TemporalBFS(source),
                cluster=SimulatedCluster(4, model_network=False), options=options,
            )

        serial = run()
        parallel = run(executor="parallel", executor_processes=2)
        assert serial.metrics.message_bytes == 0
        assert parallel.metrics.message_bytes == 0
        assert serial.metrics.barrier_time == 0.0
        assert {v: list(s) for v, s in serial.states.items()} == \
               {v: list(s) for v, s in parallel.states.items()}
        assert serial.metrics.modeled_makespan == parallel.metrics.modeled_makespan
