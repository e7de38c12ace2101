"""Run metrics: the quantities the paper's evaluation reasons about.

Every platform run produces a :class:`RunMetrics`:

* **compute calls** and **messages sent** — intrinsic to the programming
  model ("matching these across billions of calls and messages helps assert
  that we are comparing the primitives and not just the platforms",
  Sec. VII-B1);
* **compute+ time** — wall time of the compute (and scatter) phase,
  interleaved with message production, per Sec. VII-A4;
* **exclusive messaging time** — wall time spent delivering and (simulated)
  transmitting messages after compute is done in a superstep;
* **makespan** — from the first user superstep to the last, excluding graph
  loading (as the paper reports it);
* **modeled makespan** — a deterministic cluster-cost model (max per-worker
  compute + network transfer + barrier) used where wall-clock noise on a
  single machine would obscure the distributed story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.registry import RECOVERY_METRICS, RUN_METRICS


def _merge_fields(into, other, registry) -> None:
    """Fold ``other``'s registry fields into ``into``: the larger value of a
    ``gauge`` (a high-water mark), the sum of anything else."""
    for spec in registry:
        mine, theirs = getattr(into, spec.name), getattr(other, spec.name)
        setattr(into, spec.name, max(mine, theirs) if spec.kind == "gauge" else mine + theirs)


@dataclass
class SuperstepMetrics:
    """Per-superstep accounting."""

    superstep: int
    compute_calls: int = 0
    scatter_calls: int = 0
    messages: int = 0
    bytes: int = 0
    #: Modeled bytes that stayed on their worker (``bytes`` is the remote
    #: side of the same split).
    local_bytes: int = 0
    compute_time: float = 0.0
    messaging_time: float = 0.0
    max_worker_compute_time: float = 0.0
    #: *Measured* wall-clock per executor worker for this superstep's
    #: compute phase (one entry for the serial executor); complements the
    #: modeled ``max_worker_compute_time``.
    worker_wall_times: list[float] = field(default_factory=list)
    #: Per-worker phase spans (schema v5): one dict per executor worker,
    #: keyed by `repro.obs.events.WORKER_SPAN_PHASES` — measured seconds
    #: in compute / scatter / encode / exchange_wait / barrier_wait.
    #: List index is the worker id; one entry for the serial executor.
    worker_spans: list[dict[str, float]] = field(default_factory=list)
    #: Measured wall-clock the barrier exchange spent moving messages
    #: between worker processes (0 for the serial executor).
    exchange_time: float = 0.0
    #: Format-2 size of the entries shipped between processes, counted at
    #: send time; the pipe carries them pickled (0 serial).
    exchange_bytes: int = 0
    #: Bytes the same exchange would have shipped without sender-side
    #: combining (0 serial; equals ``exchange_bytes`` when nothing folded).
    exchange_raw_bytes: int = 0


@dataclass
class RecoveryMetrics:
    """Durability-layer accounting: what checkpointing and recovery cost.

    Kept separate from the modeled/counted fields because none of it exists
    in an uninterrupted run's model — a recovered run must report the *same*
    counters and modeled makespan as an uninterrupted one (that is the whole
    correctness claim), with the operational story told here instead.
    """

    #: Checkpoints written during the run.
    checkpoints_written: int = 0
    #: Total bytes of all shard/manifest files written.
    checkpoint_bytes: int = 0
    #: Wall-clock spent snapshotting + writing checkpoints.
    checkpoint_seconds: float = 0.0
    #: Worker-process deaths the master recovered from.
    restarts: int = 0
    #: Supersteps re-executed during recovery replays (work lost to crashes).
    replayed_supersteps: int = 0
    #: Wall-clock spent tearing down, reloading and respawning after crashes.
    recovery_seconds: float = 0.0

    def merge(self, other: "RecoveryMetrics") -> None:
        _merge_fields(self, other, RECOVERY_METRICS)


@dataclass
class RunMetrics:
    """Aggregated metrics for one algorithm run on one platform."""

    platform: str = ""
    algorithm: str = ""
    graph: str = ""
    #: Which executor ran the supersteps ("serial" or "parallel").
    executor: str = "serial"

    compute_calls: int = 0
    scatter_calls: int = 0
    messages_sent: int = 0
    message_bytes: int = 0
    local_messages: int = 0
    remote_messages: int = 0
    local_message_bytes: int = 0
    #: The barrier-exchange traffic partitioning exists to cut
    #: (Sec. VII-A4 locality).
    remote_message_bytes: int = 0
    #: Replica state-transfer traffic (TGB chain edges) counted separately,
    #: mirroring the paper's "special messages" discussion.
    system_messages: int = 0
    supersteps: int = 0

    warp_calls: int = 0
    warp_suppressed_vertices: int = 0
    combiner_reductions: int = 0
    #: Messages avoided by interval sharing (Chlonos adjacent-snapshot
    #: dedup; GRAPHITE's saving shows up directly in ``messages_sent``).
    shared_messages: int = 0

    compute_plus_time: float = 0.0
    #: Modeled distributed compute time: Σ per-superstep max-worker cost.
    modeled_compute_time: float = 0.0
    #: *Measured* compute wall-time: Σ per-superstep max worker wall-clock
    #: (equals ``compute_plus_time`` for the serial executor).
    worker_wall_time: float = 0.0
    #: Measured wall-time of the parallel barrier exchange (0 serial).
    exchange_time: float = 0.0
    #: Format-2 size of the entries shipped between worker processes,
    #: counted at send time; the pipe carries them pickled (0 serial).
    exchange_bytes: int = 0
    #: What the exchange would have shipped uncombined (0 serial).
    exchange_raw_bytes: int = 0
    messaging_time: float = 0.0
    barrier_time: float = 0.0
    load_time: float = 0.0
    makespan: float = 0.0
    modeled_makespan: float = 0.0

    peak_inflight_messages: int = 0
    #: Placement quality of the partitioner this run executed under
    #: (gauges, not counters: multi-snapshot merges keep the worst case).
    partition_edge_cut: float = 0.0
    partition_imbalance: float = 0.0
    supersteps_detail: list[SuperstepMetrics] = field(default_factory=list)
    #: Checkpoint/recovery costs (`repro.runtime.checkpoint` / `.faults`).
    recovery: RecoveryMetrics = field(default_factory=RecoveryMetrics)

    def merge(self, other: "RunMetrics") -> None:
        """Accumulate another run (e.g. one snapshot of a multi-snapshot
        execution) into this one."""
        _merge_fields(self, other, RUN_METRICS)
        self.supersteps_detail.extend(other.supersteps_detail)
        self.recovery.merge(other.recovery)

    @property
    def total_messages(self) -> int:
        """Application plus system (replica/state-transfer) messages."""
        return self.messages_sent + self.system_messages

    def summary(self) -> str:
        return (
            f"{self.platform}/{self.algorithm}/{self.graph}: "
            f"makespan={self.makespan:.3f}s modeled={self.modeled_makespan:.3f}s "
            f"supersteps={self.supersteps} compute_calls={self.compute_calls} "
            f"messages={self.messages_sent} (+{self.system_messages} sys) "
            f"bytes={self.message_bytes}"
        )


@dataclass
class ComputeModel:
    """Deterministic per-operation compute costs for the simulated cluster.

    A single-process Python run cannot measure what a Giraph worker would
    spend per call (Python's per-object overheads dwarf the user logic), so
    worker compute time is *modeled*: every platform is charged the same
    per-operation costs, making call/message counts the driver of the
    modeled makespan — which is precisely the relationship the paper
    establishes empirically (Fig. 4: R² 0.80/0.95 between counts and time).

    The defaults are calibrated so the warp path costs ≈40% more per
    message than the time-point path (warp suppression recovers the
    paper's 25–40%, Fig. 6c) and inline combining saves the group-scan
    term (Fig. 6b's 17–25%).
    """

    #: Framework + user-logic overhead per compute invocation.
    per_compute_call_s: float = 2e-6
    #: Scanning one message value inside compute.
    per_message_scan_s: float = 5e-7
    #: Pushing one message through the warp's merge-sort aggregation.
    per_warp_item_s: float = 1e-6
    #: One scatter invocation (message construction included).
    per_scatter_call_s: float = 1e-6


@dataclass
class NetworkModel:
    """Deterministic cost model for the simulated 1 GbE cluster.

    ``modeled_makespan`` per superstep =
    ``max_worker_compute + remote_bytes / bandwidth + messages * per_message
    + barrier_latency``.  Bandwidth follows the paper's testbed (1 Gigabit
    Ethernet).  Giraph's barrier costs ≈40 ms; our datasets are scaled down
    by roughly three orders of magnitude versus the paper's, so the default
    barrier latency is scaled likewise (0.1 ms) to keep the
    barrier-vs-compute balance representative: barriers only dominate on
    large-diameter, many-superstep runs (the paper's USRN discussion).
    Pass ``0.040`` to mimic the paper's absolute barrier costs.
    """

    bandwidth_bytes_per_s: float = 125e6  # 1 GbE per machine
    per_message_overhead_s: float = 5e-7
    barrier_latency_s: float = 0.0001

    def transfer_time(
        self, remote_bytes: int, remote_messages: int, num_workers: int = 1
    ) -> float:
        """Transfer time for one superstep's traffic.

        Every machine has its own NIC and cores, so aggregate bandwidth
        and per-message handling scale with the worker count — without
        this, weak scaling (Fig. 7) would be impossible by construction.
        """
        workers = max(1, num_workers)
        return (
            remote_bytes / (self.bandwidth_bytes_per_s * workers)
            + remote_messages * self.per_message_overhead_s / workers
        )
