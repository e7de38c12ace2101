"""Superstep lifecycle guards."""

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
