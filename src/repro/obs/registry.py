"""The metric registry: one declarative schema for every run metric.

Before this module existed the metric name lists lived in three places —
``RunMetrics``'s dataclass fields, the checkpoint writer's
``_METRIC_COUNTERS``/``_METRIC_FLOATS`` snapshot tuples, and the parallel
executor's ``_COUNT_FIELDS`` worker-fold tuple — and nothing tied them
together.  :data:`RUN_METRICS` is now the single authority: the dataclass
stays the hot-path representation (plain attribute increments, no dict
indirection), while the checkpoint and executor derive their tuples from
the registry, and the exporters derive names, units and help strings.

This module deliberately imports **nothing** from the rest of ``repro``
(field names are strings, validated lazily by a test) so it can sit below
``repro.runtime`` in the import graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

__all__ = [
    "Histogram",
    "MetricRegistry",
    "MetricSpec",
    "RECOVERY_METRICS",
    "RUN_METRICS",
    "SERVE_METRICS",
]

#: Default latency buckets (seconds) — Prometheus-style upper bounds.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Histogram:
    """A fixed-bucket histogram, the hot-path value of a ``histogram``-kind
    metric.

    Prometheus semantics: ``bounds`` are inclusive upper bounds of the
    finite buckets, an implicit ``+Inf`` bucket catches the rest, and
    :meth:`cumulative` returns the non-decreasing per-``le`` counts the
    text exposition format wants.  No locking — observers already
    serialise on the owning service's metric updates.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds=DEFAULT_BUCKETS):
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self):
        """``(le, cumulative_count)`` pairs, finite bounds then ``+Inf``."""
        total = 0
        out = []
        for bound, n in zip(self.bounds, self.counts):
            total += n
            out.append((bound, total))
        out.append((float("inf"), total + self.counts[-1]))
        return out


@dataclass(frozen=True)
class MetricSpec:
    """One metric's schema entry.

    ``value`` is the Python representation (``"int"``/``"float"``;
    ``histogram``-kind metrics hold a :class:`Histogram` and declare
    ``"float"`` for their observed values); ``kind`` the semantic class
    (``counter`` monotone within a run, ``gauge`` a high-water mark,
    ``time`` a duration, ``histogram`` a bucketed distribution);
    ``modeled`` marks quantities produced by the deterministic cluster
    model — bit-identical across executors — as opposed to measured
    wall-clock facts; ``worker_field`` marks counters folded from
    parallel worker reports at the barrier.
    """

    name: str
    value: str  # "int" | "float"
    kind: str  # "counter" | "gauge" | "time" | "histogram"
    unit: str
    help: str
    modeled: bool = True
    worker_field: bool = False

    def __post_init__(self):
        if self.value not in ("int", "float"):
            raise ValueError(f"bad value type {self.value!r} for {self.name}")
        if self.kind not in ("counter", "gauge", "time", "histogram"):
            raise ValueError(f"bad kind {self.kind!r} for {self.name}")


class MetricRegistry:
    """An ordered, name-addressable collection of :class:`MetricSpec`."""

    def __init__(self, name: str, specs: Tuple[MetricSpec, ...]):
        self.name = name
        self.specs = tuple(specs)
        self._by_name = {s.name: s for s in self.specs}
        if len(self._by_name) != len(self.specs):
            raise ValueError(f"duplicate metric names in registry {name!r}")

    def __iter__(self) -> Iterator[MetricSpec]:
        return iter(self.specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Optional[MetricSpec]:
        return self._by_name.get(name)

    def names(
        self,
        *,
        value: Optional[str] = None,
        worker_field: Optional[bool] = None,
        modeled: Optional[bool] = None,
    ) -> Tuple[str, ...]:
        """Metric names, optionally filtered, in declaration order."""
        out = []
        for spec in self.specs:
            if value is not None and spec.value != value:
                continue
            if worker_field is not None and spec.worker_field != worker_field:
                continue
            if modeled is not None and spec.modeled != modeled:
                continue
            out.append(spec.name)
        return tuple(out)


#: Every ``RunMetrics`` numeric field.  Declaration order is load-bearing:
#: the ``int`` slice (in order) is the checkpoint manifest's counter tuple,
#: the ``float`` slice its float tuple, and the ``worker_field=True`` slice
#: the parallel executor's per-worker fold list — changing the order would
#: change the on-disk checkpoint layout.
RUN_METRICS = MetricRegistry(
    "run",
    (
        MetricSpec("compute_calls", "int", "counter", "calls",
                   "compute() invocations across all vertices",
                   worker_field=True),
        MetricSpec("scatter_calls", "int", "counter", "calls",
                   "scatter() invocations across all vertices",
                   worker_field=True),
        MetricSpec("messages_sent", "int", "counter", "messages",
                   "application messages sent"),
        MetricSpec("message_bytes", "int", "counter", "bytes",
                   "wire-encoded application message payload"),
        MetricSpec("local_messages", "int", "counter", "messages",
                   "messages delivered within a worker partition"),
        MetricSpec("remote_messages", "int", "counter", "messages",
                   "messages crossing worker partitions"),
        MetricSpec("system_messages", "int", "counter", "messages",
                   "replica state-transfer (system) messages"),
        MetricSpec("supersteps", "int", "counter", "supersteps",
                   "BSP supersteps executed"),
        MetricSpec("warp_calls", "int", "counter", "calls",
                   "time-warp merge invocations", worker_field=True),
        MetricSpec("warp_suppressed_vertices", "int", "counter", "vertices",
                   "vertex activations that skipped warp for time-point "
                   "execution", worker_field=True),
        MetricSpec("combiner_reductions", "int", "counter", "messages",
                   "messages folded away by combiners", worker_field=True),
        MetricSpec("shared_messages", "int", "counter", "messages",
                   "messages avoided by interval sharing"),
        MetricSpec("peak_inflight_messages", "int", "gauge", "messages",
                   "largest single-superstep message volume"),
        MetricSpec("exchange_bytes", "int", "counter", "bytes",
                   "format-2 size of the entries shipped, counted at "
                   "send time; the pipe carries them pickled",
                   modeled=False),
        MetricSpec("exchange_raw_bytes", "int", "counter", "bytes",
                   "bytes the exchange would have shipped without "
                   "sender-side combining", modeled=False),
        MetricSpec("compute_plus_time", "float", "time", "seconds",
                   "measured wall-time of compute (and scatter) phases",
                   modeled=False),
        MetricSpec("modeled_compute_time", "float", "time", "seconds",
                   "modeled distributed compute: sum of per-superstep "
                   "max-worker cost"),
        MetricSpec("worker_wall_time", "float", "time", "seconds",
                   "measured per-superstep max worker wall-clock, summed",
                   modeled=False),
        MetricSpec("exchange_time", "float", "time", "seconds",
                   "measured barrier-exchange wall-time", modeled=False),
        MetricSpec("messaging_time", "float", "time", "seconds",
                   "modeled exclusive message-delivery time"),
        MetricSpec("barrier_time", "float", "time", "seconds",
                   "modeled barrier synchronization time"),
        MetricSpec("load_time", "float", "time", "seconds",
                   "graph loading wall-time (excluded from makespan)",
                   modeled=False),
        MetricSpec("makespan", "float", "time", "seconds",
                   "measured wall-time from first to last superstep",
                   modeled=False),
        MetricSpec("modeled_makespan", "float", "time", "seconds",
                   "modeled cluster makespan (max compute + transfer + "
                   "barrier per superstep)"),
        MetricSpec("local_message_bytes", "int", "counter", "bytes",
                   "wire-encoded payload of messages staying within a "
                   "worker partition"),
        MetricSpec("remote_message_bytes", "int", "counter", "bytes",
                   "wire-encoded payload crossing worker partitions (the "
                   "barrier-exchange traffic partitioning exists to cut)"),
        MetricSpec("partition_edge_cut", "float", "gauge", "fraction",
                   "fraction of graph edges whose endpoints live on "
                   "different workers"),
        MetricSpec("partition_imbalance", "float", "gauge", "ratio",
                   "max per-worker vertex load over the even-split ideal"),
    ),
)

#: ``RecoveryMetrics`` fields — the durability layer's operational story,
#: kept apart from the run registry because none of it exists in an
#: uninterrupted run's model.
RECOVERY_METRICS = MetricRegistry(
    "recovery",
    (
        MetricSpec("checkpoints_written", "int", "counter", "checkpoints",
                   "checkpoints written during the run", modeled=False),
        MetricSpec("checkpoint_bytes", "int", "counter", "bytes",
                   "total bytes of shard/manifest files written",
                   modeled=False),
        MetricSpec("checkpoint_seconds", "float", "time", "seconds",
                   "wall-clock spent snapshotting and writing checkpoints",
                   modeled=False),
        MetricSpec("restarts", "int", "counter", "restarts",
                   "worker-process deaths recovered from", modeled=False),
        MetricSpec("replayed_supersteps", "int", "counter", "supersteps",
                   "supersteps re-executed during recovery replays",
                   modeled=False),
        MetricSpec("recovery_seconds", "float", "time", "seconds",
                   "wall-clock spent tearing down and respawning after "
                   "crashes", modeled=False),
    ),
)

#: ``ServeMetrics`` fields — the query-serving tier's operational story
#: (`repro.serve`).  A third registry: serving counters accumulate across
#: many runs of one long-lived :class:`~repro.serve.GraphService`, so they
#: can never live in the per-run registry (whose declaration order is also
#: frozen by the checkpoint layout).
SERVE_METRICS = MetricRegistry(
    "serve",
    (
        MetricSpec("queries_admitted", "int", "counter", "queries",
                   "queries accepted past admission control", modeled=False),
        MetricSpec("queries_served", "int", "counter", "queries",
                   "queries answered successfully (cached or computed)",
                   modeled=False),
        MetricSpec("queries_rejected", "int", "counter", "queries",
                   "queries rejected by queue-full backpressure",
                   modeled=False),
        MetricSpec("queries_timed_out", "int", "counter", "queries",
                   "queries cancelled at their deadline", modeled=False),
        MetricSpec("queries_failed", "int", "counter", "queries",
                   "queries that raised an execution error", modeled=False),
        MetricSpec("cache_hits", "int", "counter", "queries",
                   "queries answered from the result cache", modeled=False),
        MetricSpec("cache_misses", "int", "counter", "queries",
                   "queries that had to run an engine", modeled=False),
        MetricSpec("cache_evictions", "int", "counter", "entries",
                   "cache entries evicted under the byte budget",
                   modeled=False),
        MetricSpec("cache_bytes", "int", "gauge", "bytes",
                   "bytes currently held by the result cache", modeled=False),
        MetricSpec("cache_entries", "int", "gauge", "entries",
                   "entries currently held by the result cache",
                   modeled=False),
        MetricSpec("cache_hit_rate", "float", "gauge", "fraction",
                   "cache hits over all cache lookups so far", modeled=False),
        MetricSpec("queue_depth", "int", "gauge", "queries",
                   "queries currently waiting for an execution lane",
                   modeled=False),
        MetricSpec("queue_depth_peak", "int", "gauge", "queries",
                   "largest admission-queue depth observed", modeled=False),
        MetricSpec("query_seconds", "float", "time", "seconds",
                   "wall-clock spent answering queries, summed",
                   modeled=False),
        MetricSpec("last_query_seconds", "float", "gauge", "seconds",
                   "wall-clock latency of the most recent query",
                   modeled=False),
        MetricSpec("graph_resident_bytes", "int", "gauge", "bytes",
                   "resident bytes of the served graph's backing store "
                   "(exact for a compact graph, modeled for heap graphs)",
                   modeled=False),
        MetricSpec("query_latency", "float", "histogram", "seconds",
                   "distribution of per-query wall-clock latency",
                   modeled=False),
    ),
)
