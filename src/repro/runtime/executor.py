"""The superstep executor: the master is process 0.

The engine's driver loop (`IntervalCentricEngine.run`) delegates each
superstep to an executor.  There is exactly one superstep loop,
:meth:`_WorkerRuntime.step` — activation, warm-start rescatter, inbox
construction, the per-vertex walk, message routing and the measured phase
spans — one barrier fold, :func:`_fold_reports`, and one executor,
:class:`ParallelExecutor`.  A P-process run (``--processes P``) hosts
runtime 0 in the master and P−1 forked workers (`repro.runtime.workers`,
kept for the next run on the graph), each owning a fixed subset of the
shards (shared-nothing — no state is shared after fork).  The serial
executor is its P = 1 case, as on Giraph,
where a single-machine run is a cluster of one: nothing is forked, no
message is ever serialized or exchanged, and the wire phases of its one
``worker_span`` are exactly 0.

Cross-process messages travel at the BSP barrier as routed batches, one
pickled list of entries per destination process; ``exchange_bytes`` is what
they would occupy in the varint routed-batch format of
`repro.runtime.encoding` (paper §VI), counted as they are sent.  Messages
between shards of the same process never leave it.  The batches travel in
a star: a forked worker's ride its step report to the master, which
redistributes them with the next step command; runtime 0's are handed over
in-process.

Cross-process batches are **combined at the sender** when the program's
combiner is selective (min/max/or — order-insensitive folds): messages to
the same (destination, interval) pre-fold into one wire entry that carries
the raw message count and the modeled scan charge it replaced.  The
receiver reconstructs the raw inbox size from those counts and charges the
receiver pass with one integer-times-float multiply — exactly the
uncombined expression — so modeled compute, ``combiner_reductions`` and
every state stay bit-identical under any partitioner, while the wire
carries fewer bytes.  Aggregating combiners (sum — float addition is not
associative bitwise) are never pre-folded.

Determinism.  Within one runtime the canonical order holds by
construction: actives run in graph enumeration order (``engine._seq``) and
messages are delivered in send order.  Across processes it is restored at
the barrier: every message carries its sender's sequence number so
receivers recover the single-process delivery order with one stable sort,
aggregate contributions are folded at the master in (sender, call) order,
and modeled compute is summed per shard in vertex order — so a run returns
the same bits however many processes host it.
``tests/runtime/golden_serial.json``, recorded from the per-vertex loop
this runtime replaced, is the oracle every process count is held to.

Shards (``cluster.num_workers``) are decoupled from worker *processes*:
shards are assigned round-robin to however many processes are available,
so an 8-worker simulation keeps its metrics identical whether it runs on
1, 2 or 8 cores.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional

from repro.core.config import EngineConfig, ExchangeConfig, StateConfig, WarpConfig
from repro.core.context import VertexContext
from repro.core.engine import VertexProcessor, fresh_state
from repro.core.interval import Interval
from repro.core.messages import Row
from repro.obs.registry import RUN_METRICS

from .encoding import (
    encoded_batch_size,
    payload_size,
    routed_entries_size,
    varint_size,
)
from .metrics import RunMetrics

if TYPE_CHECKING:
    from .checkpoint import ExecutorSnapshot
    from .faults import FaultPlan

# The worker host (`repro.runtime.workers`, with ``multiprocessing``), the
# fault plans, the checkpoint module and ``pickle`` (the barrier's
# serializer) are imported by the code that forks, kills, snapshots or
# crosses a process boundary — a serial, uncheckpointed run loads none of
# them.

#: Counters each worker runtime accumulates locally and the barrier folds —
#: the registry's ``worker_field`` slice, in declaration order
#: (`repro.obs.registry.RUN_METRICS`).
_COUNT_FIELDS = RUN_METRICS.names(worker_field=True)


def resolve_executor(config: EngineConfig):
    """The executor an :class:`~repro.core.config.EngineConfig` asks for.

    ``config.executor.kind`` is ``"serial"`` (or ``None``, which means the
    same) — a :class:`ParallelExecutor` of one process — ``"parallel"``,
    or an executor instance, which passes through untouched (the serving
    tier keeps one warm per lane this way).  The parallel kind takes its
    process count, fault plan — a spec string is parsed into a fresh
    :class:`~repro.runtime.faults.FaultPlan` per call, so one frozen config
    can arm many runs — and exchange settings from the same config.
    Nothing here reads the environment.  Tracing is in-process only, so
    an ``ExecutionTracer`` with any executor but the serial one raises.
    """
    spec = config.executor
    tracer = config.observability.tracer
    kind = spec.kind
    if kind is None or kind == "serial":
        executor = ParallelExecutor(processes=1, name="serial")
    elif kind == "parallel":
        plan = spec.fault_plan
        if isinstance(plan, str):
            from .faults import FaultPlan

            plan = FaultPlan.parse(plan)
        executor = ParallelExecutor(
            processes=spec.processes, fault_plan=plan, exchange=config.exchange
        )
    else:
        executor = kind
    if tracer is not None and executor.name != "serial":
        raise ValueError(
            "the parallel executor cannot host an ExecutionTracer "
            "(trace events happen in worker processes); use the serial executor"
        )
    return executor


def _default_process_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fold_reports(engine, metrics: RunMetrics, reports, compute_wall: float):
    """The barrier: fold every runtime's step report into the cluster's
    accounting and the run metrics, and close the superstep.

    ``reports`` are in worker order.  Returns ``(active, in_flight)`` —
    the vertices that ran and the messages now awaiting the next
    superstep.
    """
    cluster = engine.cluster
    active = in_flight = exchange_bytes = exchange_raw = 0
    compute_calls = scatter_calls = 0
    contribs: list[tuple[int, int, str, Any]] = []
    for rep in reports:
        active += rep["active"]
        in_flight += rep["traffic"]["app"]
        exchange_bytes += rep["exchange_bytes"]
        exchange_raw += rep["raw_wire"]
        cluster.record_traffic(metrics, **rep["traffic"])
        for shard, seconds in rep["shard_compute"].items():
            cluster.add_shard_compute(shard, seconds)
        counts = rep["counts"]
        compute_calls += counts["compute_calls"]
        scatter_calls += counts["scatter_calls"]
        for name in _COUNT_FIELDS:
            setattr(metrics, name, getattr(metrics, name) + counts[name])
        contribs.extend(rep["contributions"])

    # Replay aggregate contributions in canonical fold order: by
    # contributing vertex, then call order within the vertex.
    contribs.sort(key=itemgetter(0, 1))
    for _seq, _idx, name, value in contribs:
        engine.contribute_aggregate(name, value)

    wall_max = max(rep["wall"] for rep in reports)
    wire_max = max(rep["wire_s"] for rep in reports)
    metrics.compute_plus_time += compute_wall
    metrics.worker_wall_time += wall_max
    metrics.exchange_time += wire_max
    metrics.exchange_bytes += exchange_bytes
    metrics.exchange_raw_bytes += exchange_raw
    metrics.peak_inflight_messages = max(metrics.peak_inflight_messages, in_flight)

    step = cluster.end_superstep(metrics)
    step.compute_time = compute_wall
    step.worker_wall_times = [rep["wall"] for rep in reports]
    step.worker_spans = [rep["spans"] for rep in reports]
    step.exchange_time = wire_max
    step.exchange_bytes = exchange_bytes
    step.exchange_raw_bytes = exchange_raw
    step.compute_calls = compute_calls
    step.scatter_calls = scatter_calls
    return active, in_flight


# -- the worker runtime -------------------------------------------------------


@dataclass
class _ShardPayload:
    """Everything one worker runtime needs to run its vertex partitions.

    Handed over in-process for runtime 0; shipped at fork time to the
    others (copy-on-write under the fork start method, pickled under
    spawn), after which nothing here is shared with the master; pickled
    for a run on a resident worker group (`repro.runtime.workers`).
    ``states`` holds only what the runtime cannot derive — a warm start's
    copies or a checkpoint's states; a cold run ships none.
    """

    graph: Any
    program: Any
    compute_model: Any
    partitioner: Any
    seq: dict[Any, int]
    shard_to_proc: list[int]
    proc_index: int
    states: dict[Any, Any]
    rescatter: dict[Any, list[Interval]]
    warm: bool
    varint: bool
    warp: WarpConfig
    state: StateConfig
    #: Sender-side combining enabled (``ExchangeConfig.combine``) — still
    #: gated per program on a selective combiner at runtime.
    combine: bool = True

    @classmethod
    def of(
        cls, engine, shard_to_proc, proc_index, states, rescatter, warm,
        **exchange: Any,
    ) -> "_ShardPayload":
        """The payload for process ``proc_index`` of ``engine``'s run."""
        cluster = engine.cluster
        return cls(
            graph=engine.graph,
            program=engine.program,
            compute_model=cluster.compute_model,
            partitioner=cluster.partitioner,
            seq=engine._seq,
            shard_to_proc=shard_to_proc,
            proc_index=proc_index,
            states=states,
            rescatter=rescatter,
            warm=warm,
            varint=cluster.varint_encoding,
            warp=engine.config.warp,
            state=engine.config.state,
            **exchange,
        )


class _WorkerRuntime:
    """One worker's world: its contexts, inbox, send routing, and the
    superstep loop (:meth:`step`) every GRAPHITE run executes.

    Doubles as the engine-protocol host for its :class:`VertexContext`s
    (``superstep`` / ``graph`` / ``send_direct`` / aggregator services).
    ``tracer`` is an in-process ``ExecutionTracer`` (worker processes pass
    none — trace events cannot cross a process boundary).
    """

    def __init__(self, payload: _ShardPayload, tracer=None):
        self.graph = payload.graph
        self.program = payload.program
        self.partitioner = payload.partitioner
        self.seq = payload.seq
        self.shard_to_proc = payload.shard_to_proc
        self.proc_index = payload.proc_index
        self.warm = payload.warm
        self.rescatter_windows = payload.rescatter
        self.varint = payload.varint
        self.fixed = payload.program.fixed_supersteps
        self.processor = VertexProcessor(
            payload.graph, payload.program, payload.compute_model, payload.warp,
            tracer=tracer,
        )
        self.tracer = tracer
        self._aggregator_names = set(payload.program.aggregators())
        self.superstep = 0
        self._aggregates: dict[str, Any] = {}
        # This runtime's vertices in canonical (seq) order, each with the
        # state it was handed or, failing that, one it derives (``fresh``:
        # those run ``init`` in a warm start's superstep 1).
        states = payload.states
        worker_of = payload.partitioner.worker_of
        self.fresh: set = set()
        self.contexts: dict[Any, VertexContext] = {}
        for v in payload.graph.vertices():
            vid = v.vid
            if self.shard_to_proc[worker_of(vid)] != self.proc_index:
                continue
            state = states.get(vid)
            if state is None:
                state = fresh_state(v, payload.state)
                self.fresh.add(vid)
            self.contexts[vid] = VertexContext(v, state, self)
        self.vids = list(self.contexts)
        #: Messages routed to this process, awaiting next superstep.
        self._pending: list[tuple] = []
        self._cur_seq = 0
        self._contrib_idx = 0
        self._contribs: list[tuple[int, int, str, Any]] = []
        # Sender-side combining: only selective combiners (min/max/or —
        # folds that *choose* an operand) fold exactly under regrouping;
        # sum must see every raw message, so it is never pre-folded.  The
        # gate mirrors the receiver pass (enable_receiver_combiner): with
        # the receiver pass off, the local inbox stays raw and so must
        # the wire.
        combiner = payload.program.combiner
        self._fold = (
            combiner
            if (
                payload.combine
                and combiner is not None
                and combiner.selective
                and payload.warp.enable_receiver_combiner
            )
            else None
        )
        self._scan_s = payload.compute_model.per_message_scan_s
        #: Idle wall-clock before the current step command arrived, set by
        #: ``_worker_main`` around ``conn.recv()``; superstep 1 includes
        #: the process-boot wait, which is exactly the straggler signal a
        #: slow-forking worker should show.  Runtime 0 lives in the master
        #: and never waits on a command: it stays 0.
        self.barrier_wait = 0.0

    # -- engine protocol for VertexContext -----------------------------------

    def send_direct(self, src_vid: Any, dst_vid: Any, interval: Interval, value: Any) -> None:
        self.send_batch(src_vid, dst_vid, ((interval.start, interval.end, value),))

    def contribute_aggregate(self, name: str, value: Any) -> None:
        if name not in self._aggregator_names:
            raise KeyError(f"no aggregator registered under {name!r}")
        self._contribs.append((self._cur_seq, self._contrib_idx, name, value))
        self._contrib_idx += 1

    def read_aggregate(self, name: str, default: Any = None) -> Any:
        return self._aggregates.get(name, default)

    # -- message routing ------------------------------------------------------

    def send_batch(self, src: Any, dst: Any, msgs) -> None:
        """The processor's send sink: ``msgs`` — ``(start, end, value)`` rows
        — from vertex ``src`` to vertex ``dst``, in send order.

        Routing (both shards, local or remote, destination process) and
        wire sizing happen once per batch; the counters are the same
        integer sums one call per message produced.  The tracer and the
        sender-side fold still see every message, in order.
        """
        tracer = self.tracer
        if tracer is not None:
            superstep = self.superstep
            for start, end, value in msgs:
                tracer.on_send(
                    superstep, src, dst, Interval._unchecked(start, end), value
                )
        worker_of = self.partitioner.worker_of
        dst_shard = worker_of(dst)
        local = worker_of(src) == dst_shard
        if local:
            self._local += len(msgs)
        else:
            self._remote += len(msgs)
        size = encoded_batch_size(msgs, varint=self.varint)
        self._bytes_total += size
        if not local:
            self._bytes_remote += size
        seq = self._cur_seq
        dest_proc = self.shard_to_proc[dst_shard]
        if dest_proc == self.proc_index:
            self._pending.extend([(seq, dst, msg) for msg in msgs])
            return
        # Crossing a process boundary: account the raw footprint in the
        # varint routed-batch format (whatever ``varint`` models), then
        # pre-fold into open combined entries when the combiner allows it.
        # ``_wire`` keeps the format-2 size of what will ship, entry by
        # entry, as the entries change.
        raw = routed_entries_size(seq, dst, msgs, size if self.varint else None)
        self._raw_wire += raw
        self._wire += raw
        out = self._out.get(dest_proc)
        if out is None:
            out = self._out[dest_proc] = []
        fold = self._fold
        if fold is None:
            out.extend([(seq, dst, msg) for msg in msgs])
            return
        index = self._out_index.setdefault(dest_proc, {})
        for msg in msgs:
            key = (dst, msg[0], msg[1])
            pos = index.get(key)
            if pos is None:
                index[key] = len(out)
                out.append((seq, dst, msg))
                continue
            # Fold in place.  The entry keeps the FIRST folded message's
            # seq and list position, so the receiver's stable sort sees
            # each (destination, interval) group exactly where uncombined
            # delivery would first meet it; the count metadata preserves
            # the raw message count and the modeled scan charge (count x
            # scan, one multiply) the fold replaced.
            prev = out[pos]
            count = prev[3] + 1 if len(prev) > 3 else 2
            start, end, value = prev[2]
            folded = fold(value, msg[2])
            out[pos] = (prev[0], dst, (start, end, folded), count, count * self._scan_s)
            # The message's own entry leaves the batch; the entry it joined
            # grows by its count varint, its charge (once) and its value.
            self._wire += (
                varint_size(count) - varint_size(count - 1) + (8 if count == 2 else 0)
                + payload_size(folded) - payload_size(value)
                - routed_entries_size(seq, dst, (msg,))
            )

    # -- superstep ------------------------------------------------------------

    def step(
        self,
        superstep: int,
        aggregates: dict[str, Any],
        batches,
        die_in_exchange: bool = False,
    ) -> dict[str, Any]:
        self.superstep = superstep
        self.processor.superstep = superstep
        self._aggregates = aggregates

        # Gather the delivery sources: worker-local pending and the batches
        # the master routed here (other workers' and checkpoint restores).
        # Every source is nondecreasing in sender seq (actives run in seq
        # order at their sender; batches preserve send order), so a single
        # non-empty source is *provably* already in delivery order and the
        # per-superstep sort can be skipped outright.  In-process only the
        # first source exists, and ``wire_s`` stays exactly 0.
        parts: list[list[tuple]] = [self._pending] if self._pending else []
        self._pending = []
        wire_s = 0.0
        if batches:
            from pickle import loads  # P ≥ 2 only: a serial run never crosses

            t_wire = time.perf_counter()
            for buf in batches:
                decoded = loads(buf)
                if decoded:
                    parts.append(decoded)
            if len(parts) > 1:
                # Restore the canonical delivery order: stable sort by
                # sender sequence (per-sender order is already correct
                # within each source list).
                merged = [e for part in parts for e in part]
                merged.sort(key=itemgetter(0))
                parts = [merged]
            wire_s = time.perf_counter() - t_wire
        entries: list[tuple] = parts[0] if parts else []

        inboxes: dict[Any, list[Row]] = {}
        # Raw messages folded away by sender-side combining, per receiving
        # vertex — the receiver pass charges for them as if they arrived.
        extra_raw: dict[Any, int] = {}
        for e in entries:
            dst = e[1]
            if len(e) > 3:
                extra_raw[dst] = extra_raw.get(dst, 0) + e[3] - 1
            inboxes.setdefault(dst, []).append(e[2])

        if superstep == 1:
            if not self.warm:
                active = self.vids
            else:
                active = [
                    vid for vid in self.vids
                    if vid in self.fresh or vid in self.rescatter_windows
                ]
        elif self.fixed is not None:
            active = self.vids
        else:
            # O(frontier), not O(vertices): sparse frontiers are the common
            # case; a message to a vertex that does not exist is dropped.
            active = sorted(
                (vid for vid in inboxes if vid in self.contexts),
                key=self.seq.__getitem__,
            )

        counts = RunMetrics()  # counter bag for this superstep's deltas
        self._local = 0
        self._remote = 0
        self._bytes_total = 0
        self._bytes_remote = 0
        self._raw_wire = 0
        self._wire = 0
        self._out: dict[int, list[tuple]] = {}
        self._out_index: dict[int, dict[tuple, int]] = {}
        self._contribs = []
        shard_compute: dict[int, float] = {}
        processor = self.processor
        worker_of = self.partitioner.worker_of
        processor.scatter_wall = 0.0

        t0 = time.perf_counter()
        for vid in active:
            ctx = self.contexts[vid]
            self._cur_seq = self.seq[vid]
            self._contrib_idx = 0
            if superstep == 1 and self.warm and vid not in self.fresh:
                cost = processor.rescatter(
                    ctx, self.rescatter_windows[vid], counts, self.send_batch
                )
            else:
                cost = processor.process(
                    ctx, inboxes.get(vid, []), counts, self.send_batch,
                    extra_raw.get(vid, 0),
                )
            shard = worker_of(vid)
            shard_compute[shard] = shard_compute.get(shard, 0.0) + cost
        wall = time.perf_counter() - t0

        out: dict[int, bytes] = {}
        encode_s = 0.0
        if self._out or die_in_exchange:
            import pickle  # P ≥ 2 only, as above

            t_wire = time.perf_counter()
            for dest, out_entries in self._out.items():
                out[dest] = pickle.dumps(out_entries, pickle.HIGHEST_PROTOCOL)
                # Each batch's format byte and entry-count varint.
                self._wire += 1 + varint_size(len(out_entries))
            encode_s = time.perf_counter() - t_wire
            if die_in_exchange:
                # The mid-exchange kill: die with the outbound batches
                # serialized but the report never sent.
                from .faults import kill_process

                kill_process(os.getpid())
            wire_s += encode_s

        return {
            "active": len(active),
            "wall": wall,
            "wire_s": wire_s,
            # Measured phase spans for this worker's superstep
            # (`repro.obs.events.WORKER_SPAN_PHASES`), folded into
            # ``SuperstepMetrics.worker_spans`` in worker order.
            "spans": {
                "compute": max(0.0, wall - processor.scatter_wall),
                "scatter": processor.scatter_wall,
                "encode": encode_s,
                # Kept in the span schema: the master routes the batches,
                # so no worker ever waits on another's and it reads 0.
                "exchange_wait": 0.0,
                "barrier_wait": self.barrier_wait,
            },
            "exchange_bytes": self._wire,
            "raw_wire": self._raw_wire,
            "counts": {f: getattr(counts, f) for f in _COUNT_FIELDS},
            # ``SimulatedCluster.record_traffic``'s keyword arguments.
            "traffic": {
                "app": self._local + self._remote,
                "local": self._local,
                "remote": self._remote,
                "bytes_total": self._bytes_total,
                "bytes_remote": self._bytes_remote,
            },
            "shard_compute": shard_compute,
            "contributions": self._contribs,
            "out": out,
        }

    def collect(self) -> dict[Any, Any]:
        return {vid: ctx._state for vid, ctx in self.contexts.items()}

    def pending_entries(self) -> list[tuple]:
        """Every message awaiting the next superstep here (read-only): the
        worker-local pending list (cross-process batches sit at the master
        and are snapshotted there)."""
        return list(self._pending)


class ParallelExecutor:
    """Shared-nothing execution of the superstep loop: the master is
    process 0.

    ``start`` takes processes 1 … P−1 — a
    :class:`~repro.runtime.workers.WorkerHost`, idle since an earlier run
    on the unchanged graph or forked now — and then builds runtime 0 in the
    master (forking first, so no child inherits runtime 0's contexts).  Each superstep sends the step commands (aggregates and
    routed batches out), runs runtime 0's step in-process while the
    workers run theirs, and receives the other reports over the pipes.  The
    reports stay in process order; the batches that rode them are routed
    on, and :func:`_fold_reports` folds them into the cluster's accounting
    at the barrier, so the modeled metrics do not depend on the process
    count.  With P = 1 there is no host and nothing is forked — the serial
    executor is this class at ``processes=1`` (``name`` is what the config
    asked for).
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        exchange: Optional[ExchangeConfig] = None,
        name: str = "parallel",
    ):
        self.processes = processes
        self.name = name
        #: Deterministic kill schedule (`repro.runtime.faults`); ``None``
        #: runs fault-free.  Injected kills are real SIGKILLs delivered to a
        #: forked worker at the top of the scheduled superstep (or
        #: mid-exchange for ``:exchange``-phase actions); runtime 0 is the
        #: master itself and is never a victim.
        self.fault_plan = fault_plan
        self.exchange = exchange or ExchangeConfig()
        self._runtime: Optional[_WorkerRuntime] = None
        #: Processes 1 … P−1 (`repro.runtime.workers`); ``None`` at P = 1.
        self._host = None
        self._pending_total = 0

    def start(self, engine, states, rescatter, warm: bool) -> None:
        """Build runtime 0 and take processes 1 … P−1 for ``engine``'s run.

        ``states`` holds only a warm start's copies or a checkpoint's
        states (empty on a cold run), split here by owning process; every
        runtime derives the states it is not handed.
        """
        # Reusable lifecycle: one executor instance may host many runs
        # (the serving tier keeps a warm executor resident per lane).  A
        # normal run leaves its worker group idle (at most two idle groups,
        # reaped at eviction, graph death or exit: `repro.runtime.workers`),
        # but a run torn down mid-flight — e.g. a query cancelled at its
        # deadline between ``abort`` and re-entry — must not leak its
        # workers into the next run.
        if self._host is not None or self._runtime is not None:
            self.abort()
        cluster = engine.cluster
        n_shards = cluster.num_workers
        procs = self.processes or _default_process_count()
        procs = max(1, min(procs, n_shards))
        self._engine = engine
        shard_to_proc = [s % procs for s in range(n_shards)]
        self._shard_to_proc = shard_to_proc
        self._pending_total = 0
        per_states = [states]
        if procs > 1:
            from .workers import WorkerHost

            # ``rescatter`` goes to every runtime whole: a runtime only ever
            # looks its own vertices up in it.
            worker_of = cluster.partitioner.worker_of
            per_states = [{} for _ in range(procs)]
            for vid, state in states.items():
                per_states[shard_to_proc[worker_of(vid)]][vid] = state
            self._host = WorkerHost.acquire(
                engine, shard_to_proc, per_states, rescatter, warm,
                combine=self.exchange.combine, fault_plan=self.fault_plan,
            )
        self._runtime = _WorkerRuntime(
            _ShardPayload.of(
                engine, shard_to_proc, 0, per_states[0], rescatter, warm,
                combine=self.exchange.combine,
            ),
            tracer=engine.config.observability.tracer,
        )

    def has_pending(self) -> bool:
        return self._pending_total > 0

    def run_superstep(self, superstep: int, metrics: RunMetrics) -> int:
        engine = self._engine
        engine.cluster.begin_superstep(superstep)
        if self._host is None:
            # A cluster of one: the superstep *is* the vertex walk.
            reports = [self._runtime.step(superstep, engine._aggregates, ())]
            compute_wall = reports[0]["wall"]
        else:
            reports, compute_wall = self._host.step(
                self._runtime, superstep, engine._aggregates
            )
        active, self._pending_total = _fold_reports(
            engine, metrics, reports, compute_wall
        )
        return active

    def collect_states(self) -> dict[Any, Any]:
        if self._host is None:
            return self._runtime.collect()  # every vertex, in seq order
        return self._host.collect(self._runtime, self._engine._seq)

    def snapshot(self) -> ExecutorSnapshot:
        """Barrier-time snapshot: every state and every message awaiting the
        next superstep, in delivery order — portable to any process count,
        though not byte-equal across them (see `ExecutorSnapshot`)."""
        if self._host is not None:
            return self._host.snapshot(self._runtime, self._engine._seq)
        from .checkpoint import ExecutorSnapshot

        # One runtime's pending list is already in delivery order (see step).
        return ExecutorSnapshot(
            states=self._runtime.collect(), pending=self._runtime.pending_entries()
        )

    def restore_pending(self, entries) -> None:
        """Hand a checkpoint's pending messages (in delivery order) back to
        the runtimes whose shards own their destinations."""
        if self._host is None:
            self._runtime._pending = list(entries)
        else:
            worker_of = self._engine.cluster.partitioner.worker_of
            proc_of = self._shard_to_proc
            self._host.restore(
                self._runtime, entries, lambda vid: proc_of[worker_of(vid)]
            )
        self._pending_total = len(entries)

    def _release(self):
        """Drop the run's runtime 0 and return its host.  The contexts point
        back at the runtime: cutting the cycle frees the run's edge indexes
        and inboxes now rather than at some later garbage collection."""
        runtime, self._runtime = self._runtime, None
        if runtime is not None:
            runtime.contexts.clear()
        host, self._host = self._host, None
        return host

    def close(self) -> None:
        """Shut workers down, **propagating** any death instead of hiding it
        (:meth:`WorkerHost.close <repro.runtime.workers.WorkerHost.close>`).

        Idempotent: a second ``close()`` (or one after ``abort()``) finds
        no runtime and no processes and returns immediately, so a
        long-lived holder — the serving tier keeps executors resident
        across queries — can close defensively without tracking whether
        the last run already did.
        """
        host = self._release()
        if host is not None:
            host.close()

    def abort(self) -> None:
        """Best-effort teardown for error paths — never raises, never hangs."""
        host = self._release()
        if host is not None:
            host.abort()
