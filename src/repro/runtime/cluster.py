"""Simulated BSP cluster: workers, message transport, barrier accounting.

The paper runs GRAPHITE and its baselines on a 10-node Giraph cluster.  This
module provides a deterministic single-process stand-in that preserves the
quantities the evaluation analyses: which worker owns each vertex (hash
partitioning), how many messages cross worker boundaries, how many bytes the
wire carries (varint encoding), per-worker compute balance, and barrier
counts.  Engines attribute their per-vertex compute time to the owning
worker; the cluster turns that into a modeled distributed makespan.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.messages import IntervalMessage
from .encoding import encoded_message_size
from .metrics import ComputeModel, NetworkModel, RunMetrics, SuperstepMetrics
from .partitioner import HashPartitioner, _edge_records


class ClusterLifecycleError(RuntimeError):
    """Superstep lifecycle misuse: traffic or accounting outside an open
    superstep, or a superstep opened twice.

    Message and compute accounting only mean anything inside a
    ``begin_superstep`` / ``end_superstep`` pair; silently accepting calls
    outside one lets a crashed run's stale state alias a new run's metrics.
    ``reset()`` is the recovery path after a crashed run.
    """

    code = "cluster_lifecycle"  # stable string code (see repro.errors)


class SimulatedCluster:
    """A fixed pool of BSP workers with per-superstep message queues.

    Parameters
    ----------
    num_workers:
        Number of simulated machines (the paper uses 8 for most runs,
        1–10 for weak scaling).
    partitioner:
        Maps vertex id → worker.  Defaults to a deterministic hash
        partitioner, matching Giraph's.
    network:
        Cost model for the modeled makespan.
    varint_encoding:
        When false, messages are charged at the fixed-width two-longs
        layout — the ablation for the paper's 59–78% message-size claim.

    Every run applies the network model: messages are sized on the wire,
    and each barrier charges transfer time and barrier latency.
    """

    def __init__(
        self,
        num_workers: int = 8,
        partitioner: Optional[Any] = None,
        network: Optional[NetworkModel] = None,
        compute_model: Optional[ComputeModel] = None,
        *,
        varint_encoding: bool = True,
    ):
        self.num_workers = num_workers
        self.partitioner = partitioner or HashPartitioner(num_workers)
        self.network = network or NetworkModel()
        self.compute_model = compute_model or ComputeModel()
        self.varint_encoding = varint_encoding
        self._inboxes: dict[Any, list[IntervalMessage]] = {}
        self._pending: dict[Any, list[IntervalMessage]] = {}
        self._worker_compute: list[float] = [0.0] * num_workers
        self._step: Optional[SuperstepMetrics] = None

    # -- vertex placement ----------------------------------------------------

    def worker_of(self, vid: Any) -> int:
        return self.partitioner.worker_of(vid)

    def worker_load(self, vids) -> list[int]:
        """Vertices per worker — used by balance assertions and Fig. 7."""
        load = [0] * self.num_workers
        for vid in vids:
            load[self.worker_of(vid)] += 1
        return load

    def partition_stats(self, graph) -> dict[str, Any]:
        """Placement-quality summary for ``graph`` under this partitioner.

        ``edge_cut`` is the fraction of edges crossing workers, the
        Sec. VII-A4 locality quantity; ``edge_load`` counts each cut edge
        on both endpoint workers (it costs both sides a barrier exchange);
        ``imbalance`` is max vertex load over the even-split ideal, 1.0
        for a perfectly balanced (or empty) placement.

        A pure function of (graph, partitioner): a resident graph keeps it
        (``graph._placement``, dropped when it grows) per partitioner
        ``fingerprint()``; windows and foreign partitioners are walked.
        """
        memo = None
        if hasattr(self.partitioner, "fingerprint"):
            memo = getattr(graph, "_placement", None)
        if memo is not None:
            key = (self.num_workers, self.partitioner.fingerprint())
            if key in memo:
                return memo[key]
        vertex_load = [0] * self.num_workers
        for vid in graph.vertex_ids():
            vertex_load[self.worker_of(vid)] += 1
        edge_load = [0] * self.num_workers
        total = cut = 0
        for src, dst, _, _ in _edge_records(graph):  # no edge object built
            total += 1
            src_w, dst_w = self.worker_of(src), self.worker_of(dst)
            edge_load[src_w] += 1
            if src_w != dst_w:
                cut += 1
                edge_load[dst_w] += 1
        num_vertices = sum(vertex_load)
        ideal = num_vertices / self.num_workers
        stats = {
            "edge_cut": cut / total if total else 0.0,
            "vertex_load": vertex_load,
            "edge_load": edge_load,
            "imbalance": max(vertex_load) / ideal if num_vertices else 1.0,
        }
        if memo is not None:
            memo[key] = stats
        return stats

    # -- superstep lifecycle ---------------------------------------------------

    def begin_superstep(self, superstep: int) -> dict[Any, list[IntervalMessage]]:
        """Deliver last superstep's messages; returns inboxes by vertex id."""
        if self._step is not None:
            raise ClusterLifecycleError(
                f"begin_superstep({superstep}) while superstep "
                f"{self._step.superstep} is still open — end_superstep() was "
                "never called (use reset() to recover from a crashed run)"
            )
        self._inboxes = self._pending
        self._pending = {}
        self._worker_compute = [0.0] * self.num_workers
        self._step = SuperstepMetrics(superstep=superstep)
        return self._inboxes

    def send(
        self,
        src_vid: Any,
        dst_vid: Any,
        msg: Any,
        metrics: RunMetrics,
        *,
        system: bool = False,
        size: Optional[int] = None,
    ) -> None:
        """Queue a message for delivery at the next barrier.

        ``msg`` is usually an :class:`IntervalMessage`; engines sending
        bare payloads (the VCM baselines) pass an explicit ``size``.
        """
        step = self._step
        if step is None:
            raise ClusterLifecycleError(
                f"send({src_vid!r} -> {dst_vid!r}) outside an open superstep"
            )
        if size is None:
            size = encoded_message_size(msg, varint=self.varint_encoding)
        if system:
            metrics.system_messages += 1
        else:
            metrics.messages_sent += 1
        metrics.message_bytes += size
        if self.worker_of(src_vid) == self.worker_of(dst_vid):
            metrics.local_messages += 1
            metrics.local_message_bytes += size
            step.local_bytes += size
        else:
            metrics.remote_messages += 1
            metrics.remote_message_bytes += size
            step.bytes += size
        step.messages += 1
        self._pending.setdefault(dst_vid, []).append(msg)

    def add_compute_time(self, vid: Any, seconds: float) -> None:
        """Attribute *modeled* compute cost to the worker owning ``vid``."""
        if self._step is None:
            raise ClusterLifecycleError(
                f"add_compute_time({vid!r}) outside an open superstep"
            )
        self._worker_compute[self.worker_of(vid)] += seconds

    def add_shard_compute(self, shard: int, seconds: float) -> None:
        """Attribute modeled compute cost directly to worker ``shard``.

        The GRAPHITE barrier fold already knows each vertex's shard, so it
        folds per-shard sums in one call instead of re-hashing every vertex.
        """
        if self._step is None:
            raise ClusterLifecycleError(
                f"add_shard_compute({shard}) outside an open superstep"
            )
        self._worker_compute[shard] += seconds

    def record_traffic(
        self,
        metrics: RunMetrics,
        *,
        app: int = 0,
        system: int = 0,
        local: int = 0,
        remote: int = 0,
        bytes_total: int = 0,
        bytes_remote: int = 0,
    ) -> None:
        """Fold a batch of already-classified message traffic into the metrics.

        GRAPHITE's worker runtimes classify and size their own traffic
        (their messages never pass through :meth:`send`), then report
        per-superstep totals that this folds in at the barrier — mirroring
        exactly what per-message ``send`` calls would have recorded.
        """
        step = self._step
        if step is None:
            raise ClusterLifecycleError("record_traffic outside an open superstep")
        metrics.messages_sent += app
        metrics.system_messages += system
        metrics.local_messages += local
        metrics.remote_messages += remote
        metrics.message_bytes += bytes_total
        metrics.remote_message_bytes += bytes_remote
        metrics.local_message_bytes += bytes_total - bytes_remote
        step.bytes += bytes_remote
        step.local_bytes += bytes_total - bytes_remote
        step.messages += app + system

    def end_superstep(self, metrics: RunMetrics, messaging_time: float = 0.0) -> SuperstepMetrics:
        """Close the superstep: fold the cost model into the metrics."""
        step = self._step
        if step is None:
            raise ClusterLifecycleError("end_superstep without begin_superstep")
        step.max_worker_compute_time = max(self._worker_compute, default=0.0)
        transfer = self.network.transfer_time(step.bytes, step.messages, self.num_workers)
        barrier = self.network.barrier_latency_s
        step.messaging_time = messaging_time + transfer
        metrics.messaging_time += step.messaging_time
        metrics.modeled_makespan += (
            step.max_worker_compute_time + step.messaging_time + barrier
        )
        metrics.modeled_compute_time += step.max_worker_compute_time
        metrics.barrier_time += barrier
        inflight = sum(len(v) for v in self._pending.values())
        metrics.peak_inflight_messages = max(metrics.peak_inflight_messages, inflight)
        metrics.supersteps_detail.append(step)
        self._step = None
        return step

    def has_pending_messages(self) -> bool:
        return bool(self._pending)

    def reset(self) -> None:
        """Clear all queues (between independent runs on one cluster)."""
        self._inboxes = {}
        self._pending = {}
        self._worker_compute = [0.0] * self.num_workers
        self._step = None

    def __repr__(self) -> str:
        return f"SimulatedCluster(workers={self.num_workers}, {self.partitioner!r})"
