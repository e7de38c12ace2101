"""Structured run events: the typed, schema-versioned trace stream.

A run emits a sequence of :class:`RunEvent` records — superstep phases,
barrier exchanges, checkpoint writes, worker deaths, rollbacks — the
structured replacement for scraping logs or the vertex-level
``ExecutionTracer``.  Each record is a flat JSON-friendly dict:

``v``
    Schema version (:data:`EVENT_SCHEMA_VERSION`).  Bumped only on
    incompatible layout changes; readers must check it.
``seq``
    Monotone sequence number within the run, 0-based.
``type``
    One of :data:`EVENT_TYPES`.
``superstep``
    The 1-based superstep the event belongs to, or ``None`` for
    run-level events (``run_start``/``run_end``).
``data``
    The event's **logical** payload: deterministic, model-level facts
    (call counts, message counts, modeled times).  Serial and parallel
    executions of the same run produce identical ``data``.
``wall``
    Measured/environmental facts — wall-clock durations, file paths,
    process exit codes, executor names.  Excluded when diffing traces
    for logical equivalence (:func:`logical_view`).

The split between ``data`` and ``wall`` is the schema's central design
decision: it is what lets CI diff a serial trace against a parallel one
and what keeps replayed supersteps after fault recovery honest (the
replay re-emits the same logical events; only ``wall`` differs).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventStream",
    "WORKER_SPAN_PHASES",
    "logical_view",
    "validate_event",
]

#: Current trace-record schema version.  v2 added the partitioning facts
#: to ``run_start`` (fingerprint, edge cut, per-worker loads); v3 added
#: the local/remote byte split to ``barrier_exchange``; v4 added the
#: serving-tier lifecycle events (``query_admitted`` / ``query_start`` /
#: ``query_end`` / ``cache_hit`` / ``cache_evict``) emitted by
#: `repro.serve`; v5 added the per-worker ``worker_span`` phase records.
EVENT_SCHEMA_VERSION = 5

#: The phases every ``worker_span`` record times, in execution order:
#: vertex computation, the scatter time-join, wire encoding of outbound
#: batches, waiting on other workers' batches (0: the master routes them),
#: and idle time at the barrier before this superstep's command arrived.
WORKER_SPAN_PHASES = (
    "compute", "scatter", "encode", "exchange_wait", "barrier_wait",
)

#: Event type → required ``data`` keys.  ``superstep`` must be ``None``
#: for the types in :data:`RUN_LEVEL_TYPES` and a positive int otherwise.
EVENT_TYPES: Dict[str, Tuple[str, ...]] = {
    # run lifecycle
    "run_start": ("algorithm", "graph", "platform", "resumed_from",
                  "partitioner", "partition_edge_cut",
                  "worker_vertex_load", "worker_edge_load"),
    "run_end": ("supersteps", "compute_calls", "scatter_calls",
                "messages_sent", "message_bytes", "modeled_makespan_s"),
    # superstep phases
    "superstep_start": (),
    "compute_phase": ("compute_calls", "warp_calls",
                      "warp_suppressed_vertices", "combiner_reductions"),
    "scatter_phase": ("scatter_calls", "messages", "message_bytes"),
    "barrier_exchange": ("local_messages", "remote_messages",
                         "local_bytes", "remote_bytes"),
    "superstep_end": ("active", "modeled_compute_s", "modeled_messaging_s"),
    # per-worker phase spans (schema v5) — one record per executor worker
    # per superstep, between ``barrier_exchange`` and ``superstep_end``.
    # ``data`` carries only what is deterministic *for a fixed executor
    # shape* (the worker id and the constant phase list); every duration
    # is a measured wall fact.  Because serial runs emit one span and an
    # N-process parallel run emits N, ``worker_span`` is the one type the
    # cross-executor logical diff skips (`exporters.logical_sequence`).
    "worker_span": ("worker", "phases"),
    # durability & recovery
    "checkpoint_write": (),
    "worker_death": ("worker",),
    "rollback": ("to_superstep", "replayed_supersteps"),
    # serving tier (`repro.serve`) — interleaved with run events when the
    # service shares its observers with the engines it drives
    "query_admitted": ("query_id", "algorithm", "queue_depth"),
    "query_start": ("query_id", "algorithm", "interval_start",
                    "interval_end", "cache_hit"),
    "query_end": ("query_id", "status"),
    "cache_hit": ("query_id", "algorithm", "interval_start", "interval_end"),
    "cache_evict": ("evicted_entries", "cache_bytes"),
}

#: Types whose ``superstep`` is ``None`` (events about the whole run).
RUN_LEVEL_TYPES = frozenset({
    "run_start", "run_end",
    "query_admitted", "query_start", "query_end", "cache_hit", "cache_evict",
})

_RECORD_KEYS = frozenset({"v", "seq", "type", "superstep", "data", "wall"})


def validate_event(record: Any) -> None:
    """Raise ``ValueError`` unless ``record`` is a valid current-version
    trace record."""
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be a dict, got {type(record).__name__}")
    keys = set(record)
    if keys != _RECORD_KEYS:
        missing = sorted(_RECORD_KEYS - keys)
        extra = sorted(keys - _RECORD_KEYS)
        raise ValueError(
            f"trace record keys mismatch (missing {missing}, extra {extra})"
        )
    if record["v"] != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema version {record['v']!r} "
            f"(this reader speaks v{EVENT_SCHEMA_VERSION})"
        )
    if not isinstance(record["seq"], int) or record["seq"] < 0:
        raise ValueError(f"bad seq {record['seq']!r}")
    etype = record["type"]
    if etype not in EVENT_TYPES:
        raise ValueError(f"unknown event type {etype!r}")
    superstep = record["superstep"]
    if etype in RUN_LEVEL_TYPES:
        if superstep is not None:
            raise ValueError(f"{etype} must have superstep=None, got {superstep!r}")
    else:
        if not isinstance(superstep, int) or superstep < 1:
            raise ValueError(
                f"{etype} needs a positive superstep, got {superstep!r}"
            )
    data = record["data"]
    if not isinstance(data, dict):
        raise ValueError(f"data must be a dict, got {type(data).__name__}")
    required = EVENT_TYPES[etype]
    if set(data) != set(required):
        raise ValueError(
            f"{etype} data keys {sorted(data)} != schema {sorted(required)}"
        )
    if not isinstance(record["wall"], dict):
        raise ValueError(f"wall must be a dict, got {type(record['wall']).__name__}")


def logical_view(record: Dict[str, Any]) -> Tuple[str, Optional[int], Tuple]:
    """The deterministic projection of a record, for cross-executor diffs.

    Drops ``seq`` (identical anyway when sequences match) and all of
    ``wall``; ``data`` is flattened to a sorted item tuple so the result
    is order-insensitive to JSON key order (and hashable for the all-scalar
    event types; ``run_start`` carries load *lists* and is not).
    """
    return (
        record["type"],
        record["superstep"],
        tuple(sorted(record["data"].items())),
    )


class EventStream:
    """Emission side of the event stream: builds, validates and fans out.

    Owned by the engine; ``None`` when no observers are configured so the
    hot path pays a single attribute check per potential event.  ``seq``
    restarts at 0 for each ``run()`` and keeps counting across fault
    recovery attempts within that run (replays re-emit their supersteps).
    """

    def __init__(self, observers):
        self._observers = list(observers)
        self._seq = 0

    def emit(
        self,
        type: str,
        *,
        superstep: Optional[int] = None,
        data: Optional[Dict[str, Any]] = None,
        wall: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        record = {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self._seq,
            "type": type,
            "superstep": superstep,
            "data": data if data is not None else {},
            "wall": wall if wall is not None else {},
        }
        validate_event(record)
        self._seq += 1
        for observer in self._observers:
            observer.on_event(record)
        return record

    def close(self) -> None:
        for observer in self._observers:
            close: Optional[Callable[[], None]] = getattr(observer, "close", None)
            if close is not None:
                close()


class RunEvents(EventStream):
    """One engine run's stream, in the engine's vocabulary.

    `IntervalCentricEngine.run` builds one only when the run is observed
    (an unobserved run never imports this module).  Every ``data`` value is
    a metric delta or a modeled per-superstep quantity — exactly the
    numbers the executor-equivalence tests pin down — so the logical event
    sequence is identical under both executors by construction.  Wall-clock
    facts go in ``wall``.
    """

    #: The counters whose per-superstep deltas the phase events report.
    PHASE_COUNTERS = (
        "compute_calls", "scatter_calls", "warp_calls",
        "warp_suppressed_vertices", "combiner_reductions", "messages_sent",
        "message_bytes", "local_messages", "remote_messages",
        "local_message_bytes", "remote_message_bytes",
    )

    def run_start(self, engine, resumed_from: Optional[int], executor: str) -> None:
        from repro.runtime.partitioner import partitioner_fingerprint

        stats = engine._partition_stats
        self.emit(
            "run_start",
            data={
                "algorithm": engine.program.name,
                "graph": engine.graph_name,
                "platform": engine.platform,
                "resumed_from": resumed_from,
                "partitioner": partitioner_fingerprint(engine.cluster.partitioner),
                "partition_edge_cut": stats["edge_cut"],
                "worker_vertex_load": list(stats["vertex_load"]),
                "worker_edge_load": list(stats["edge_load"]),
            },
            wall={"executor": executor},
        )

    def superstep_start(self, superstep: int, metrics) -> None:
        self._before = {name: getattr(metrics, name) for name in self.PHASE_COUNTERS}
        self.emit("superstep_start", superstep=superstep)

    def superstep_end(self, superstep: int, metrics, num_active: int) -> None:
        """The phase events of the superstep that just ran."""
        before = self._before

        def delta(name: str) -> Any:
            return getattr(metrics, name) - before[name]

        step = metrics.supersteps_detail[-1]
        self.emit(
            "compute_phase",
            superstep=superstep,
            data={
                "compute_calls": delta("compute_calls"),
                "warp_calls": delta("warp_calls"),
                "warp_suppressed_vertices": delta("warp_suppressed_vertices"),
                "combiner_reductions": delta("combiner_reductions"),
            },
            wall={
                "compute_s": step.compute_time,
                "workers": len(step.worker_wall_times),
            },
        )
        self.emit(
            "scatter_phase",
            superstep=superstep,
            data={
                "scatter_calls": delta("scatter_calls"),
                "messages": delta("messages_sent"),
                "message_bytes": delta("message_bytes"),
            },
        )
        self.emit(
            "barrier_exchange",
            superstep=superstep,
            data={
                "local_messages": delta("local_messages"),
                "remote_messages": delta("remote_messages"),
                "local_bytes": delta("local_message_bytes"),
                "remote_bytes": delta("remote_message_bytes"),
            },
            wall={
                "exchange_s": step.exchange_time,
                "exchange_bytes": step.exchange_bytes,
                "exchange_raw_bytes": step.exchange_raw_bytes,
            },
        )
        for worker, spans in enumerate(step.worker_spans):
            self.emit(
                "worker_span",
                superstep=superstep,
                data={"worker": worker, "phases": list(WORKER_SPAN_PHASES)},
                wall={
                    **{f"{phase}_s": spans.get(phase, 0.0)
                       for phase in WORKER_SPAN_PHASES},
                    "total_s": sum(
                        spans.get(phase, 0.0) for phase in WORKER_SPAN_PHASES
                    ),
                },
            )
        self.emit(
            "superstep_end",
            superstep=superstep,
            data={
                "active": num_active,
                "modeled_compute_s": step.max_worker_compute_time,
                "modeled_messaging_s": step.messaging_time,
            },
        )

    def run_end(self, metrics) -> None:
        self.emit(
            "run_end",
            data={
                "supersteps": metrics.supersteps,
                "compute_calls": metrics.compute_calls,
                "scatter_calls": metrics.scatter_calls,
                "messages_sent": metrics.messages_sent,
                "message_bytes": metrics.message_bytes,
                "modeled_makespan_s": metrics.modeled_makespan,
            },
            wall={"makespan_s": metrics.makespan},
        )


def encode_event(record: Dict[str, Any]) -> str:
    """One compact JSON line (no trailing newline) for a record."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def decode_event(line: str) -> Dict[str, Any]:
    """Parse and validate one JSON-lines trace record."""
    record = json.loads(line)
    validate_event(record)
    return record
