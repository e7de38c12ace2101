"""The long-lived graph service: load once, answer many queries.

A :class:`GraphService` is the serving tier the paper's interactive
use-case implies (and Granite, the follow-on path-query engine, builds
explicitly): the temporal graph is loaded and partitioned **once**, a
warm executor stays resident per concurrency lane, and each query
``(algorithm, params, interval, options)`` either hits the interval-aware
result cache or runs an engine over the resident graph — for a bounded
interval, over a zero-copy :meth:`window <repro.graph.model.TemporalGraph.window>`
view of it, so nothing per interval is built or kept.

Three cooperating pieces:

* **scheduler** — ``serve.max_concurrency`` execution lanes behind a FIFO
  admission queue of depth ``serve.max_queue_depth``; a query arriving
  with all lanes busy and the queue full is rejected with
  :class:`~repro.serve.errors.QueueFullError` (the backpressure
  contract).  Each query may carry a deadline; expiry cancels the run at
  the next superstep boundary (:class:`_DeadlineObserver` raises inside
  the engine's event stream, which aborts the executor) and the lane is
  immediately reusable — re-running the same query yields bit-identical
  results.
* **result cache** — :class:`~repro.serve.cache.ResultCache`, LRU under a
  byte budget, keyed by ``(algorithm, canonical params, query interval,
  graph fingerprint, config fingerprint)``.
* **observability** — the service emits ``query_admitted`` /
  ``query_start`` / ``query_end`` / ``cache_hit`` / ``cache_evict``
  events into the same observers the engines it drives use, so one trace
  interleaves queries with the runs that answered them; counters live in
  :class:`ServeMetrics` (the ``SERVE_METRICS`` registry) and render via
  ``prometheus_text`` / ``render_summary``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.config import (
    EngineConfig,
    ExecutorConfig,
    ObservabilityConfig,
    PartitioningConfig,
)
from repro.core.interval import FOREVER, Interval
from repro.core.results_io import states_document
from repro.obs.events import EventStream
from repro.obs.observers import JsonlTraceWriter
from repro.obs.registry import Histogram
from repro.runtime.checkpoint import graph_fingerprint, result_shape
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executor import resolve_executor
from repro.runtime.partitioner import build_partitioner

from .cache import ResultCache
from .errors import BadQueryError, QueryTimeoutError, QueueFullError, ServeError

__all__ = ["GraphService", "QueryAnswer", "QueryRequest", "ServeMetrics"]


@dataclass
class ServeMetrics:
    """Lifetime counters of one service — the ``SERVE_METRICS`` registry's
    hot-path representation (field names must match the registry; a test
    pins them).  ``platform``/``algorithm``/``graph``/``executor`` are the
    Prometheus label set, mirroring ``RunMetrics``."""

    platform: str = "serve"
    algorithm: str = ""
    graph: str = ""
    executor: str = ""

    queries_admitted: int = 0
    queries_served: int = 0
    queries_rejected: int = 0
    queries_timed_out: int = 0
    queries_failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_bytes: int = 0
    cache_entries: int = 0
    cache_hit_rate: float = 0.0
    queue_depth: int = 0
    queue_depth_peak: int = 0
    query_seconds: float = 0.0
    last_query_seconds: float = 0.0
    graph_resident_bytes: int = 0
    #: Latency distribution over every finished query (served, timed out
    #: or failed) — the registry's one ``histogram``-kind metric, rendered
    #: by ``prometheus_text`` as ``_bucket``/``_sum``/``_count`` series.
    query_latency: Histogram = field(default_factory=Histogram)


@dataclass(frozen=True)
class QueryRequest:
    """One query: which algorithm, with which parameters, over which
    temporal window, under which per-query options.

    ``interval`` is ``None`` for the full resident graph or an
    ``(start, end)`` pair (half-open, ``end=None`` for unbounded) that the
    service answers on ``graph.window(start, end)``.  Recognised ``options``:
    ``timeout_s`` (per-query deadline, overriding
    ``ServeConfig.default_timeout_s``), ``no_cache`` (bypass the result
    cache entirely), and ``hold_s`` (hold the execution lane after
    computing — a test/ops knob for exercising backpressure
    deterministically).
    """

    algorithm: str
    params: Mapping[str, Any] = field(default_factory=dict)
    interval: Optional[Tuple[int, Optional[int]]] = None
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryAnswer:
    """A served answer: the ``results_io`` JSON document (rendered to one
    canonical string — byte equality ⇔ result equality) plus serving
    facts."""

    query_id: int
    algorithm: str
    interval: Optional[Tuple[int, Optional[int]]]
    cache_hit: bool
    latency_s: float
    payload: str

    @property
    def doc(self) -> dict:
        """The decoded result document (``algorithm``/``graph``/``vertices``)."""
        return json.loads(self.payload)


class _DeadlineObserver:
    """Cancels a run at the first superstep boundary past the deadline.

    Raising out of ``on_event`` propagates through ``EventStream.emit``
    into the engine's superstep loop, whose ``except BaseException``
    handler aborts the executor — the clean cancellation point the
    engine already guarantees for every failure.
    """

    def __init__(self, deadline: float, timeout_s: float):
        self._deadline = deadline
        self._timeout_s = timeout_s

    def on_event(self, record: Dict[str, Any]) -> None:
        if (
            record["type"] == "superstep_start"
            and time.monotonic() >= self._deadline
        ):
            raise QueryTimeoutError(
                f"query exceeded its {self._timeout_s:g}s deadline at "
                f"superstep {record['superstep']}",
                timeout_s=self._timeout_s,
            )


@dataclass
class _Lane:
    """One execution lane: its own simulated cluster (mutable traffic
    history) and resident executor instance, shared by no other query."""

    index: int
    cluster: SimulatedCluster
    executor: Any
    config: EngineConfig
    #: ``time.monotonic()`` of the lane's last scheduling transition
    #: (acquired or released) — the liveness heartbeat the metrics
    #: endpoint turns into a seconds-since gauge.
    last_beat: float = 0.0
    #: Queries this lane has executed (cache hits never take a lane).
    queries: int = 0


class GraphService:
    """Serve algorithm queries over one resident temporal graph.

    Built via :func:`repro.api.serve` (or directly); ``close()`` (or use
    as a context manager) releases the resident executors.
    """

    #: Algorithms the serving tier answers; each maps (graph, params) to a
    #: fresh program instance.  The paper's remaining algorithms need
    #: per-call graph transforms (WCC/LD/SCC/…) and stay on the batch path.
    SUPPORTED_ALGORITHMS = ("BFS", "SSSP", "PR", "EAT", "RH")

    def __init__(
        self,
        graph,
        *,
        graph_name: str = "",
        workers: int = 8,
        config: Optional[EngineConfig] = None,
        options: Optional[dict] = None,
        observe: Any = None,
    ):
        cfg = config if config is not None else EngineConfig.from_env()
        if options:
            cfg = cfg.with_options(**options)
        self.graph = graph
        self.graph_name = graph_name
        self.workers = workers
        self.serve_config = cfg.serve
        self._base_config = cfg

        # One shared observer list: service-level query events and the
        # engine runs they trigger interleave in the same trace.
        observers: List[Any] = list(cfg.observability.observers)
        if cfg.observability.trace_path is not None:
            observers.append(JsonlTraceWriter(cfg.observability.trace_path))
        extra = ObservabilityConfig.coerce(observe)
        observers.extend(extra.observers)
        if extra.trace_path is not None:
            observers.append(JsonlTraceWriter(extra.trace_path))
        self._observers = observers
        self._events = EventStream(observers) if observers else None
        self._emit_lock = threading.Lock()

        # Execution lanes: partition once per lane, keep the executor warm.
        self._lanes: List[_Lane] = []
        for index in range(cfg.serve.max_concurrency):
            cluster = SimulatedCluster(workers)
            if cfg.partitioning.kind is not None:
                cluster.partitioner = build_partitioner(
                    cfg.partitioning.kind, cluster.num_workers, graph
                )
            executor = resolve_executor(cfg)
            lane_config = dataclasses.replace(
                cfg,
                # The resolved instance rides the config so every run in
                # this lane reuses the same warm executor (resolve_executor
                # passes instances through untouched).
                executor=ExecutorConfig(kind=executor),
                # The lane's cluster already carries its partitioner;
                # a configured kind here would rebuild it per query.
                partitioning=PartitioningConfig(),
                # Observers are attached per run (with the per-query
                # deadline observer in front).
                observability=ObservabilityConfig(
                    tracer=cfg.observability.tracer
                ),
            )
            self._lanes.append(
                _Lane(index, cluster, executor, lane_config,
                      last_beat=time.monotonic())
            )

        from repro.graph.stats import resident_bytes

        self.metrics = ServeMetrics(
            graph=graph_name, executor=self._lanes[0].executor.name,
            graph_resident_bytes=resident_bytes(graph),
        )
        self.cache = ResultCache(
            cfg.serve.cache_bytes, on_evict=self._on_cache_evict
        )
        self._cache_lock = threading.Lock()

        # Scheduler state: FIFO tickets + free-lane pool under one condition.
        self._cond = threading.Condition()
        self._waiting: deque = deque()
        self._free_lanes: deque = deque(self._lanes)
        self._closed = False

        self._qids = itertools.count(1)
        self._qid_lock = threading.Lock()

        self._graph_fp: Optional[str] = None
        self._config_fp: Optional[str] = None

    # -- context management -------------------------------------------------

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop admitting queries and release the resident executors.

        Idempotent.  In-flight queries finish (their lanes return to the
        pool before the executors are closed); queued queries that have
        not yet acquired a lane fail with :class:`ServeError`.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            deadline = time.monotonic() + 10.0
            while len(self._free_lanes) < len(self._lanes):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    break
            self._cond.notify_all()
        for lane in self._lanes:
            try:
                lane.executor.close()
            except Exception:
                lane.executor.abort()
        if self._events is not None:
            self._events.close()

    # -- fingerprints & cache keys ------------------------------------------

    @property
    def graph_fp(self) -> str:
        """The resident graph's structural fingerprint (computed once)."""
        if self._graph_fp is None:
            self._graph_fp = graph_fingerprint(self.graph)
        return self._graph_fp

    @property
    def config_fp(self) -> str:
        """Fingerprint of everything deterministic about how this service
        executes queries: `repro.runtime.checkpoint.result_shape` (cluster
        shape and cost models, the actual vertex→worker placement, the
        warp/state flags) plus the superstep cap.  The executor
        is excluded for the same reason checkpoints are
        executor-portable — serial and parallel answers are
        bit-identical, so they may share cache entries.
        """
        if self._config_fp is None:
            cfg = self._base_config
            payload = {
                **result_shape(self._lanes[0].cluster, cfg),
                "max_supersteps": cfg.max_supersteps,
            }
            blob = json.dumps(payload, sort_keys=True, default=repr).encode()
            self._config_fp = hashlib.sha256(blob).hexdigest()
        return self._config_fp

    def _cache_key(
        self,
        algorithm: str,
        params: Tuple[Tuple[str, Any], ...],
        interval: Optional[Tuple[int, Optional[int]]],
    ) -> tuple:
        return (algorithm, params, interval, self.graph_fp, self.config_fp)

    # -- request validation --------------------------------------------------

    def _canonical_interval(
        self, interval: Any
    ) -> Optional[Tuple[int, Optional[int]]]:
        if interval is None:
            return None
        if isinstance(interval, Interval):
            start, end = interval.start, interval.end
            return (start, None if end >= FOREVER else end)
        try:
            start, end = interval
        except (TypeError, ValueError):
            raise BadQueryError(
                f"interval must be None, an Interval, or a (start, end) "
                f"pair; got {interval!r}"
            ) from None
        if not isinstance(start, int) or start < 0:
            raise BadQueryError(
                f"interval start must be a non-negative int, got {start!r}"
            )
        if end is not None and (not isinstance(end, int) or end <= start):
            raise BadQueryError(
                f"interval end must be None or an int > start, "
                f"got [{start!r}, {end!r})"
            )
        return (start, end)

    def _graph_for(self, interval: Optional[Tuple[int, Optional[int]]]):
        """The resident graph, or its zero-copy window view for a bounded
        query interval — O(1) either way; nothing is built until a lane
        runs the query."""
        if interval is None:
            return self.graph
        start, end = interval
        return self.graph.window(start, FOREVER if end is None else end)

    def _validate(self, algorithm: str, params: Mapping[str, Any], graph) -> None:
        """Everything about a query that can be judged in O(1), before
        admission; what needs a walk of the graph waits for a lane."""
        if algorithm not in self.SUPPORTED_ALGORITHMS:
            raise BadQueryError(
                f"unknown algorithm {algorithm!r} (the serving tier answers "
                f"{', '.join(self.SUPPORTED_ALGORITHMS)})"
            )
        allowed = {"source"} if algorithm != "PR" else set()
        unknown = set(params) - allowed
        if unknown:
            raise BadQueryError(
                f"{algorithm} does not take parameter(s) "
                f"{sorted(unknown)} (allowed: {sorted(allowed) or 'none'})"
            )
        source = params.get("source")
        if source is not None and not graph.has_vertex(source):
            raise BadQueryError(
                f"source {source!r} is not a vertex of the queried graph"
            )

    def _program_for(self, algorithm: str, params: Mapping[str, Any], graph):
        """A fresh program instance for a validated query (on a lane: the
        default source and PageRank's vertex counts walk the graph)."""
        from repro.algorithms.runners import default_source
        from repro.algorithms.td.eat import TemporalEAT
        from repro.algorithms.td.reach import TemporalReachability
        from repro.algorithms.td.sssp import TemporalSSSP
        from repro.algorithms.ti.bfs import TemporalBFS
        from repro.algorithms.ti.pagerank import TemporalPageRank

        if graph.num_vertices == 0:
            raise BadQueryError(
                "the queried interval selects no vertices of the resident graph"
            )
        if algorithm == "PR":
            return TemporalPageRank(graph)
        source = params.get("source")
        if source is None:
            source = default_source(graph)
        factory = {
            "BFS": TemporalBFS,
            "SSSP": TemporalSSSP,
            "EAT": TemporalEAT,
            "RH": TemporalReachability,
        }[algorithm]
        return factory(source)

    # -- events & metrics ----------------------------------------------------

    def _emit(self, type: str, data: Dict[str, Any], wall=None) -> None:
        if self._events is None:
            return
        with self._emit_lock:
            self._events.emit(type, data=data, wall=wall)

    def _on_cache_evict(self, evicted: int, bytes_now: int) -> None:
        self.metrics.cache_evictions += evicted
        self._emit(
            "cache_evict",
            {"evicted_entries": evicted, "cache_bytes": bytes_now},
        )

    def _sync_cache_metrics(self) -> None:
        stats = self.cache.stats
        m = self.metrics
        m.cache_hits = stats.hits
        m.cache_misses = stats.misses
        m.cache_bytes = self.cache.bytes_used
        m.cache_entries = len(self.cache)
        m.cache_hit_rate = stats.hit_rate

    def _finish(self, latency: float, status: str, query_id: int) -> None:
        m = self.metrics
        m.query_seconds += latency
        m.last_query_seconds = latency
        m.query_latency.observe(latency)
        if status == "ok":
            m.queries_served += 1
        elif status == "timeout":
            m.queries_timed_out += 1
        else:
            m.queries_failed += 1
        self._emit(
            "query_end",
            {"query_id": query_id, "status": status},
            wall={"latency_s": latency},
        )

    # -- scheduling ----------------------------------------------------------

    def _acquire_lane(self, deadline: Optional[float]) -> _Lane:
        with self._cond:
            if self._closed:
                raise ServeError("service is closed")
            if not self._free_lanes and (
                len(self._waiting) >= self.serve_config.max_queue_depth
            ):
                self.metrics.queries_rejected += 1
                raise QueueFullError(
                    f"admission queue is full "
                    f"({len(self._waiting)} waiting, depth limit "
                    f"{self.serve_config.max_queue_depth}, all "
                    f"{len(self._lanes)} lane(s) busy)",
                    depth=len(self._waiting),
                    max_depth=self.serve_config.max_queue_depth,
                )
            ticket = object()
            self._waiting.append(ticket)
            self.metrics.queue_depth = len(self._waiting)
            self.metrics.queue_depth_peak = max(
                self.metrics.queue_depth_peak, len(self._waiting)
            )
            try:
                while not (self._waiting[0] is ticket and self._free_lanes):
                    if self._closed:
                        raise ServeError("service is closed")
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise QueryTimeoutError(
                                "query deadline expired while waiting for "
                                "an execution lane"
                            )
                    self._cond.wait(timeout=remaining)
            except BaseException:
                self._waiting.remove(ticket)
                self.metrics.queue_depth = len(self._waiting)
                self._cond.notify_all()
                raise
            self._waiting.popleft()
            self.metrics.queue_depth = len(self._waiting)
            lane = self._free_lanes.popleft()
            lane.last_beat = time.monotonic()
            lane.queries += 1
            self._cond.notify_all()
            return lane

    def _release_lane(self, lane: _Lane) -> None:
        with self._cond:
            lane.last_beat = time.monotonic()
            self._free_lanes.append(lane)
            self._cond.notify_all()

    def heartbeats(self) -> List[Dict[str, Any]]:
        """Liveness snapshot of every execution lane, for the metrics
        endpoint's per-worker gauges: lane index, busy flag, queries
        executed, and seconds since the lane last changed hands.  A busy
        lane with a growing age is a stuck or long-running query — the
        serving tier's straggler signal."""
        now = time.monotonic()
        with self._cond:
            free = {id(lane) for lane in self._free_lanes}
            return [
                {
                    "lane": lane.index,
                    "busy": id(lane) not in free,
                    "queries": lane.queries,
                    "age_s": max(0.0, now - lane.last_beat),
                }
                for lane in self._lanes
            ]

    # -- the query path ------------------------------------------------------

    def query(
        self,
        algorithm: str,
        *,
        params: Optional[Mapping[str, Any]] = None,
        interval: Any = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> QueryAnswer:
        """Answer one query (convenience wrapper over :meth:`submit`)."""
        return self.submit(
            QueryRequest(
                algorithm=algorithm,
                params=dict(params or {}),
                interval=interval,
                options=dict(options or {}),
            )
        )

    def submit(self, request: QueryRequest) -> QueryAnswer:
        """Answer ``request``: from cache when possible, otherwise through
        an execution lane.  Raises the typed serving errors
        (:class:`QueueFullError`, :class:`QueryTimeoutError`,
        :class:`BadQueryError`)."""
        algorithm = request.algorithm
        params = tuple(
            sorted((str(k), v) for k, v in (request.params or {}).items())
        )
        interval = self._canonical_interval(request.interval)
        options = dict(request.options or {})
        timeout_s = options.get(
            "timeout_s", self.serve_config.default_timeout_s
        )
        if timeout_s is not None and timeout_s <= 0:
            raise BadQueryError(f"timeout_s must be positive, got {timeout_s!r}")
        use_cache = not options.get("no_cache", False)

        with self._qid_lock:
            query_id = next(self._qids)
        start_iv = interval[0] if interval else None
        end_iv = interval[1] if interval else None

        key = self._cache_key(algorithm, params, interval)
        t0 = time.monotonic()

        # Cache hits are answered inline — they need no lane, which is
        # exactly what makes them cheap and keeps them out of the queue.
        if use_cache:
            with self._cache_lock:
                payload = self.cache.get(key)
                self._sync_cache_metrics()
            if payload is not None:
                self.metrics.queries_admitted += 1
                self._emit(
                    "query_admitted",
                    {
                        "query_id": query_id,
                        "algorithm": algorithm,
                        "queue_depth": self.metrics.queue_depth,
                    },
                )
                self._emit(
                    "cache_hit",
                    {
                        "query_id": query_id,
                        "algorithm": algorithm,
                        "interval_start": start_iv,
                        "interval_end": end_iv,
                    },
                )
                self._emit(
                    "query_start",
                    {
                        "query_id": query_id,
                        "algorithm": algorithm,
                        "interval_start": start_iv,
                        "interval_end": end_iv,
                        "cache_hit": True,
                    },
                )
                latency = time.monotonic() - t0
                self._finish(latency, "ok", query_id)
                return QueryAnswer(
                    query_id=query_id,
                    algorithm=algorithm,
                    interval=interval,
                    cache_hit=True,
                    latency_s=latency,
                    payload=payload,
                )

        # Miss (or cache bypass): validate what costs O(1), then go through
        # admission.  The deadline runs from submission, so it covers the
        # queue wait and everything the lane does for this query.
        graph = self._graph_for(interval)
        param_map = dict(params)
        self._validate(algorithm, param_map, graph)
        deadline = t0 + timeout_s if timeout_s is not None else None
        try:
            lane = self._acquire_lane(deadline)
        except QueryTimeoutError:
            # Expired while still queued: never admitted, never started —
            # no lifecycle events, but the deadline miss is counted.
            self.metrics.queries_timed_out += 1
            raise
        self.metrics.queries_admitted += 1
        self._emit(
            "query_admitted",
            {
                "query_id": query_id,
                "algorithm": algorithm,
                "queue_depth": self.metrics.queue_depth,
            },
        )
        self._emit(
            "query_start",
            {
                "query_id": query_id,
                "algorithm": algorithm,
                "interval_start": start_iv,
                "interval_end": end_iv,
                "cache_hit": False,
            },
        )
        try:
            payload = self._execute(
                lane, graph, algorithm, param_map, deadline, timeout_s,
                options,
            )
        except QueryTimeoutError:
            self._finish(time.monotonic() - t0, "timeout", query_id)
            raise
        except ServeError:
            self._finish(time.monotonic() - t0, "error", query_id)
            raise
        except Exception as exc:
            self._finish(time.monotonic() - t0, "error", query_id)
            raise ServeError(f"query execution failed: {exc}") from exc
        finally:
            self._release_lane(lane)

        if use_cache:
            with self._cache_lock:
                self.cache.put(key, payload)
                self._sync_cache_metrics()
        latency = time.monotonic() - t0
        self._finish(latency, "ok", query_id)
        return QueryAnswer(
            query_id=query_id,
            algorithm=algorithm,
            interval=interval,
            cache_hit=False,
            latency_s=latency,
            payload=payload,
        )

    def _execute(
        self, lane, graph, algorithm, params, deadline, timeout_s, options
    ) -> str:
        """Run the engine on ``lane`` and render the canonical payload."""
        from repro import api

        program = self._program_for(algorithm, params, graph)
        run_observers: List[Any] = []
        if deadline is not None:
            # First in line: a timed-out superstep is cancelled before any
            # trace writer records its start.
            run_observers.append(_DeadlineObserver(deadline, timeout_s))
        run_observers.extend(self._observers)
        result = api.run(
            graph,
            program,
            cluster=lane.cluster,
            graph_name=self.graph_name,
            config=lane.config,
            observe=run_observers or None,
        )
        hold_s = options.get("hold_s")
        if hold_s:
            time.sleep(float(hold_s))
        return json.dumps(states_document(result), sort_keys=True,
                          separators=(",", ":"), default=str)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot of the serving counters."""
        out = {
            name: getattr(self.metrics, name)
            for name in (
                "queries_admitted", "queries_served", "queries_rejected",
                "queries_timed_out", "queries_failed", "cache_hits",
                "cache_misses", "cache_evictions", "cache_bytes",
                "cache_entries", "cache_hit_rate", "queue_depth",
                "queue_depth_peak", "query_seconds", "last_query_seconds",
                "graph_resident_bytes",
            )
        }
        out["graph"] = self.graph_name
        out["executor"] = self.metrics.executor
        out["lanes"] = len(self._lanes)
        out["max_queue_depth"] = self.serve_config.max_queue_depth
        out["supported_algorithms"] = list(self.SUPPORTED_ALGORITHMS)
        return out
