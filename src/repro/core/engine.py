"""The interval-centric BSP engine — GRAPHITE's execution core (Sec. IV, VI).

Execution alternates computation and communication phases over supersteps:

1. **Superstep 1** — ``init`` then ``compute`` runs on *every* vertex over
   its full lifespan with no messages.
2. **Later supersteps** — only vertices that received messages are active.
   The pre-compute **time-warp** aligns and groups inbound messages with the
   vertex's partitioned states; ``compute`` is invoked once per warped
   triple.  State updates are recorded, and the pre-scatter time-join maps
   each updated sub-interval onto the property-constant pieces of each
   out-edge, invoking ``scatter`` (or its row form ``transfer``) once per overlap.
3. Messages are delivered at the global barrier; vertices implicitly vote to
   halt and are reactivated only by messages.  The run stops when no
   messages are in flight (or after ``fixed_supersteps`` for algorithms like
   PageRank).

Engineering optimisations from Sec. VI are implemented and switchable:
receiver-side and inline-warp combiners, warp suppression for unit-length
message traffic, and varint message encoding (in the simulated transport).

The per-vertex pipeline lives in :class:`VertexProcessor`, a pure function
of (context, inbox, superstep): every engine-global service it needs comes
in through the context's host object or the ``send_batch`` sink.  The driver
loop in :meth:`IntervalCentricEngine.run` hands each superstep to an *executor*
(`repro.runtime.executor`), which hosts the worker runtimes that own
processors and contexts — runtime 0 in-process and, for a P-process run,
P−1 forked shared-nothing workers exchanging messages at the barrier (a
serial run is P = 1).  The engine itself builds no processor and hosts no
context.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.errors import WorkerDiedError
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.metrics import RecoveryMetrics, RunMetrics
from repro.runtime.partitioner import build_partitioner

from .combiner import coalesce_messages
from .config import EngineConfig, StateConfig, WarpConfig
from .context import MasterContext, VertexContext
from .interval import FOREVER, Interval, coalesce
from .messages import Row
from .program import IntervalProgram
from .state import PartitionedState
from .warp import warp_rows

#: Cap on warp suppression's time-point expansion, in points per live
#: message: past it the vertex keeps the warp path.
SUPPRESSION_EXPANSION_CAP = 4


class IcmProgramError(RuntimeError):
    """A user program raised during init / compute / scatter.

    Wraps the original exception with the execution context a distributed
    log would otherwise bury: vertex, superstep, phase and interval.
    """

    def __init__(self, phase: str, vertex: Any, superstep: int,
                 interval, original: BaseException):
        super().__init__(
            f"{phase} failed at vertex {vertex!r}, superstep {superstep}, "
            f"interval {interval}: {original!r}"
        )
        self.phase = phase
        self.vertex = vertex
        self.superstep = superstep
        self.interval = interval
        self.original = original

    def __reduce__(self):
        # RuntimeError's default reduce replays ``args`` (the formatted
        # message) into ``__init__``, which needs five arguments — spell the
        # constructor call out so the error survives a worker-process pipe.
        return (
            IcmProgramError,
            (self.phase, self.vertex, self.superstep, self.interval, self.original),
        )


@dataclass
class IcmResult:
    """Outcome of an interval-centric run."""

    states: dict[Any, PartitionedState]
    metrics: RunMetrics
    aggregates: dict[str, Any] = field(default_factory=dict)

    def state_of(self, vid: Any) -> PartitionedState:
        return self.states[vid]

    def value_at(self, vid: Any, t: int) -> Any:
        return self.states[vid].value_at(t)


class VertexProcessor:
    """One vertex's computation phase as a pure function of its inputs.

    Everything a superstep does to a single vertex — init, time-warp,
    warp-suppressed time-point execution, compute dispatch, the scatter
    time-join — happens here, with no reference back to the driver loop:
    outbound messages go through the ``send_batch(src, dst, msgs)`` sink
    passed per call — one call per (vertex, destination) with that pair's
    messages in send order — and engine services (aggregators, direct
    sends) reach user code through the context's host object.  Every worker
    runtime (`repro.runtime.executor`) — runtime 0 in the master, and one
    per forked worker process when there are more — builds its own
    processor from the run's :class:`~repro.core.config.WarpConfig`.

    ``superstep`` is set by the driving executor before each superstep.
    """

    def __init__(
        self,
        graph,
        program: IntervalProgram,
        compute_model,
        warp: WarpConfig = WarpConfig(),
        tracer=None,
    ):
        self.graph = graph
        self.program = program
        self.model = compute_model
        # Bound once: the per-vertex paths read plain attributes.
        self.enable_combiner = warp.enable_combiner
        self.enable_receiver_combiner = warp.enable_receiver_combiner
        self.enable_dominated_elimination = warp.enable_dominated_elimination
        self.enable_suppression = warp.enable_suppression
        self.suppression_threshold = warp.suppression_threshold
        self.tracer = tracer
        self.superstep = 0
        # Per overlap, the first class in the MRO defining transfer or scatter wins.
        owner = next((k for k in type(program).__mro__
                      if "transfer" in vars(k) or "scatter" in vars(k)), object)
        self.transfer = (program.transfer if "transfer" in vars(owner)
                         else partial(IntervalProgram.transfer, program))
        #: Measured wall-clock the current superstep spent inside
        #: :meth:`scatter_updates`; the driving executor resets it per
        #: superstep and folds it into that step's ``worker_span``.
        self.scatter_wall = 0.0

    # -- program invocation (error-context wrapping) ---------------------------

    def _invoke_compute(self, ctx, interval, value, group, metrics) -> None:
        ctx._phase = "compute"
        ctx._current_interval = interval
        if self.tracer is not None:
            self.tracer.on_compute(self.superstep, ctx.vertex_id, interval, value, group)
        try:
            self.program.compute(ctx, interval, value, group)
        except IcmProgramError:
            raise
        except Exception as exc:
            raise IcmProgramError(
                "compute", ctx.vertex_id, self.superstep, interval, exc
            ) from exc
        metrics.compute_calls += 1

    # -- per-vertex processing -----------------------------------------------

    def process(
        self,
        ctx: VertexContext,
        messages: list[Row],
        metrics: RunMetrics,
        send_batch,
        extra_raw: int = 0,
    ) -> float:
        """Run one vertex's computation phase; returns its modeled cost.

        ``messages`` is the inbox as ``(start, end, value)`` rows.
        ``extra_raw`` is the number of raw messages that sender-side
        combining pre-folded out of ``messages`` before delivery (the sum
        of ``count - 1`` over combined entries addressed to this vertex);
        the receiver pass charges for them as if they had arrived.
        """
        cost = 0.0
        if self.superstep == 1:
            ctx._phase = "init"
            try:
                self.program.init(ctx)
            except Exception as exc:
                raise IcmProgramError(
                    "init", ctx.vertex_id, 1, ctx.lifespan, exc
                ) from exc
            ctx._take_updates()  # seeding the state does not trigger scatter
            cost = self._compute_everywhere(ctx, metrics)
        elif messages:
            cost = self._compute_on_messages(ctx, messages, metrics, extra_raw)
        elif self.program.fixed_supersteps is not None:
            # Fixed-superstep programs treat every vertex interval as active.
            cost = self._compute_everywhere(ctx, metrics)
        ctx._phase, ctx._current_interval = "idle", None
        return cost + self.scatter_updates(ctx, metrics, send_batch)

    def _compute_everywhere(self, ctx: VertexContext, metrics: RunMetrics) -> float:
        """One message-less ``compute`` call per partition of the state."""
        state = ctx.state
        mk_interval = Interval._unchecked  # partitions hold 0 <= start < end
        cost = 0.0
        # A snapshot of the columns: compute may repartition them.
        for start, end, value in list(zip(state._starts, state._ends, state._values)):
            self._invoke_compute(ctx, mk_interval(start, end), value, [], metrics)
            cost += self.model.per_compute_call_s
        return cost

    def rescatter(
        self,
        ctx: VertexContext,
        windows: list[Interval],
        metrics: RunMetrics,
        send_batch,
    ) -> float:
        """Warm-start path: re-scatter existing state over ``windows``
        without recomputing (monotone programs absorb the resulting
        re-deliveries harmlessly)."""
        ctx._updated.extend(windows)
        return self.scatter_updates(ctx, metrics, send_batch)

    def _compute_on_messages(
        self, ctx: VertexContext, messages: list[Row],
        metrics: RunMetrics, extra_raw: int = 0,
    ) -> float:
        program = self.program
        model = self.model
        combiner = program.combiner
        cost = 0.0
        if combiner is not None and self.enable_receiver_combiner:
            # ``before`` is the raw message count: what arrived plus what
            # sender-side combining folded away upstream.  The sum is exact
            # (integers) and the charge stays one int x float multiply, so
            # modeled compute is bitwise identical to the serial run that
            # scanned every raw message here.
            before = len(messages) + extra_raw
            cost += before * model.per_message_scan_s  # the receiver pass
            if len(messages) > 1:  # both passes return a lone row as it is
                messages = combiner.combine_identical_intervals(messages)
                if len(messages) > 1 and self.enable_dominated_elimination:
                    messages = combiner.combine_dominated(messages)
            metrics.combiner_reductions += before - len(messages)

        # ``covered`` has one reader, the complement pass of fixed-superstep
        # programs below; nobody else pays for it.
        fixed = program.fixed_supersteps is not None
        lifespan = ctx.lifespan
        if self.should_suppress_warp(messages, lifespan):
            metrics.warp_suppressed_vertices += 1
            cost += self._compute_time_point(ctx, messages, metrics)
            if fixed:
                covered = coalesce(
                    Interval._unchecked(start, end)  # rows hold start < end
                    for start, end, _ in messages
                    if start < lifespan.end and lifespan.start < end
                )
        else:
            metrics.warp_calls += 1
            cost += len(messages) * model.per_warp_item_s
            combine = combiner if (combiner is not None and self.enable_combiner) else None
            # The sweep reads the state's columns in place; every triple
            # exists before the first compute call can repartition them.
            state = ctx.state
            triples = warp_rows(
                state._starts, state._ends, state._values, messages, combine
            )
            for interval, value, group in triples:
                self._invoke_compute(ctx, interval, value, group, metrics)
                # Inline-folded groups are singletons: compute's scan over
                # the message group is what the warp combiner saves.
                cost += model.per_compute_call_s + len(group) * model.per_message_scan_s
            if fixed:
                covered = coalesce(iv for iv, _, _ in triples)

        if fixed:
            # Complement intervals get an empty-message compute call so the
            # whole lifespan advances each superstep (PageRank-style).
            for gap in _complement(lifespan, covered):
                for interval, value in ctx.state.slices(gap):
                    self._invoke_compute(ctx, interval, value, [], metrics)
                    cost += model.per_compute_call_s
        return cost

    def _compute_time_point(
        self, ctx: VertexContext, messages: list[Row], metrics: RunMetrics
    ) -> float:
        """Warp-suppressed path: degenerate to time-point-centric execution.

        Messages are bucketed per time-point; each active time-point gets
        one compute call with all values covering it, so correctness is
        unchanged (every point still sees its full message group exactly
        once).  The saving is the warp's per-item merge cost.
        """
        model = self.model
        combiner = self.program.combiner if self.enable_combiner else None
        cost = 0.0
        life_start = ctx.lifespan.start
        life_end = ctx.lifespan.end
        buckets: dict[int, list[Any]] = {}
        for start, end, value in messages:
            # Clipped to the lifespan; bounded, or suppression was refused.
            for t in range(max(start, life_start), min(end, life_end)):
                buckets.setdefault(t, []).append(value)
        for t in sorted(buckets):
            group = buckets[t]
            cost += model.per_compute_call_s + len(group) * model.per_message_scan_s
            if combiner is not None and len(group) > 1:
                folded = group[0]
                for item in group[1:]:
                    folded = combiner(folded, item)
                group = [folded]
            interval = Interval.point(t)
            self._invoke_compute(ctx, interval, ctx.state.value_at(t), group, metrics)
        return cost

    def should_suppress_warp(self, messages: list[Row], lifespan: Interval) -> bool:
        """Decide whether to skip warp for time-point execution.

        Only the portion of each message inside the vertex lifespan counts:
        traffic entirely (or mostly) outside it never reaches a compute call
        on either path, so letting it vote on the unit fraction or fill the
        expansion cap would flip vertices onto the wrong path for free.
        """
        if not self.enable_suppression or not messages:
            return False
        life_start = lifespan.start
        life_end = lifespan.end
        units = 0
        clipped_lengths: list[int] = []
        for start, end, _ in messages:
            if start < life_start:
                start = life_start
            if end > life_end:
                end = life_end
            if start >= end:
                continue  # dead traffic: no compute call on any path
            if end >= FOREVER:
                return False
            if end - start == 1:
                units += 1
            clipped_lengths.append(end - start)
        live = len(clipped_lengths)
        if not live or units / live < self.suppression_threshold:
            return False
        total_points = 0
        cap = SUPPRESSION_EXPANSION_CAP * live
        for length in clipped_lengths:
            total_points += length
            if total_points > cap:
                return False
        return True

    # -- scatter ---------------------------------------------------------------

    def scatter_updates(self, ctx: VertexContext, metrics: RunMetrics, send_batch) -> float:
        updated = ctx._take_updates()
        if not updated:
            return 0.0
        # Built on the vertex's first scatter, then kept by the graph — so
        # a first touch is timed in the compute phase, not in scatter_wall.
        out_edges = self.graph.piece_indexes(ctx.vertex_id)
        if not out_edges:
            return 0.0
        t_scatter = time.perf_counter()
        # Armed once per vertex, until everything ``scatter`` returned has
        # been consumed: a generator's body runs under the same guard.
        ctx._phase = "scatter"
        try:
            return self._scatter_windows(ctx, updated, out_edges, metrics, send_batch)
        finally:
            ctx._phase = "idle"
            self.scatter_wall += time.perf_counter() - t_scatter

    def _scatter_windows(self, ctx, updated, out_edges, metrics, send_batch) -> float:
        """The pre-scatter time-join and ``transfer`` dispatch, as one loop.

        Per (updated window, out-edge) the state's slices and the edge's
        property-constant pieces are both partitioned covers of the
        overlap, so pairing them is a linear walk: one bisection into
        ``PieceIndex.cuts``, then a cursor that only moves forward.  Each
        pairing is one call of the resolved ``transfer`` with ints and the
        piece's dict; each row it returns is checked and goes to the outbox.
        """
        program = self.program
        transfer = self.transfer
        tracer = self.tracer
        superstep = self.superstep
        per_call = self.model.per_scatter_call_s
        mk_interval = Interval._unchecked  # lo < cut holds at every step
        cost = 0.0
        calls = 0
        vid = ctx.vertex_id
        slice_rows = ctx.state.slice_rows
        outbox: dict[Any, list[Row]] = {}
        for window in updated:
            slices = slice_rows(window)
            if not slices:
                continue
            w_start = window.start
            w_end = window.end
            for edge, index in out_edges:
                span = edge.lifespan
                start = span.start if span.start > w_start else w_start
                end = span.end if span.end < w_end else w_end
                if start >= end:
                    continue
                cuts = index.cuts
                values = index.values
                n_cuts = len(cuts)
                # values[i] holds over [cuts[i-1], cuts[i]); from here on
                # ``i`` stays the piece covering ``lo``.
                i = bisect_right(cuts, start)
                dst = edge.dst
                sink = outbox.get(dst)
                for s_start, s_end, s_val in slices:
                    if s_end <= start:
                        continue
                    if s_start >= end:
                        break
                    lo = s_start if s_start > start else start
                    hi = s_end if s_end < end else end
                    while True:
                        piece = values[i]
                        if i < n_cuts and cuts[i] <= hi:
                            cut = cuts[i]
                            i += 1
                        else:
                            cut = hi
                        if tracer is not None:
                            tracer.on_scatter(superstep, vid, edge.eid, mk_interval(lo, cut), s_val)
                        # What the call returns is the program's too: a bad
                        # row is its error, at this vertex and interval.
                        try:
                            rows = transfer(ctx, edge, lo, cut, s_val, piece)
                            if rows is not None:
                                for row in (rows,) if type(rows) is tuple else rows:
                                    if (type(row) is not tuple or len(row) != 3
                                            or type(row[0]) is not int or type(row[1]) is not int
                                            or not 0 <= row[0] < row[1]):
                                        raise _bad_row(row)
                                    if sink is None:
                                        sink = outbox[dst] = []
                                    sink.append(row)
                        except IcmProgramError:
                            raise
                        except Exception as exc:
                            raise IcmProgramError(
                                "scatter", vid, superstep, mk_interval(lo, cut), exc
                            ) from exc
                        calls += 1
                        cost += per_call
                        if cut == hi:
                            break
                        lo = cut
        metrics.scatter_calls += calls
        combiner = program.combiner
        selective = combiner is not None and combiner.selective
        dominated = (
            selective and self.enable_receiver_combiner
            and self.enable_dominated_elimination
        )
        for dst, msgs in outbox.items():
            if len(msgs) > 1:
                if dominated:
                    # Sender-side pass of the dominated-message rule: a
                    # message contained in another that wins the fold
                    # carries no information — keep it off the wire.
                    msgs = combiner.combine_dominated(msgs)
                # Merge equal values over adjacent intervals (and over
                # overlapping ones when the combiner allows): one interval
                # message instead of one per edge-property piece.
                msgs = coalesce_messages(msgs, allow_overlap=selective)
            try:
                send_batch(vid, dst, msgs)
            except Exception as exc:
                # The sink refused the batch (a payload the codec cannot
                # size, say): report it where the program can be found.
                span = mk_interval(min(m[0] for m in msgs), max(m[1] for m in msgs))
                raise IcmProgramError("scatter", vid, superstep, span, exc) from exc
        return cost


def _bad_row(row) -> Exception:
    """The error for a row that is not ``(start, end, value)``, int ``0 <= start < end``."""
    shaped = type(row) is tuple and len(row) == 3 and type(row[0]) is type(row[1]) is int
    return (ValueError if shaped else TypeError)(
        f"transfer row {row!r} is not (start, end, value) with int 0 <= start < end"
    )


class IntervalCentricEngine:
    """Run an :class:`IntervalProgram` over a temporal graph.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.model.TemporalGraph` to process.
    program:
        User logic.
    cluster:
        Simulated cluster; a fresh 8-worker cluster is created by default.
    config:
        An :class:`~repro.core.config.EngineConfig` grouping every engine
        knob — warp/combiner optimisations, state handling, executor
        selection, checkpointing, observability.  ``None`` uses
        :meth:`EngineConfig.from_env` (defaults plus the documented
        checkpoint and serve environment variables).  Prefer building engines
        through `repro.api`, whose ``options`` dict takes the flat option
        names (``enable_warp_combiner``, ``executor``, …).

    The engine runs on the graph it is given, heap or compact; it never
    converts one store into the other.
    """

    def __init__(
        self,
        graph,
        program: IntervalProgram,
        *,
        cluster: Optional[SimulatedCluster] = None,
        graph_name: str = "",
        config: Optional[EngineConfig] = None,
        platform: str = "GRAPHITE",
    ):
        if config is None:
            config = EngineConfig.from_env()
        self.config = config
        self.graph = graph
        self.program = program
        self.cluster = cluster or SimulatedCluster()
        if config.partitioning.kind is not None:
            # A configured kind replaces the cluster's partitioner.
            self.cluster.partitioner = build_partitioner(
                config.partitioning.kind, self.cluster.num_workers, graph
            )
        self.graph_name = graph_name
        #: The platform label stamped on ``run_start`` events and
        #: ``RunMetrics`` — "GRAPHITE" for the paper's own engine; callers
        #: wrapping this engine as a *baseline* platform (or replaying a
        #: comparison into one shared trace) override it so multi-platform
        #: traces stay attributable in ``repro report``/``diff_traces``.
        self.platform = platform

        self.superstep = 0
        self._aggregates: dict[str, Any] = {}
        self._next_aggregates: dict[str, Any] = {}
        self._aggregator_fns = program.aggregators()
        #: Structured-event consumers; the stream itself is built per run().
        self._observers = list(config.observability.observers)
        if config.observability.trace_path is not None:
            from repro.obs.observers import JsonlTraceWriter

            self._observers.append(JsonlTraceWriter(config.observability.trace_path))
        #: The run's `repro.obs.events.EventStream`; ``None`` when unobserved.
        #: Built per run(), it keeps counting across recovery attempts, so a
        #: replayed superstep appears again (logically identical, new wall facts).
        self._events = None
        #: Placement quality, a pure function of graph + partitioner: one
        #: memoised pass per run() serves the run_start event and the metric
        #: gauges identically under both executors.
        self._partition_stats: dict[str, float] = {}
        #: vid → canonical global vertex order (graph enumeration order);
        #: worker runtimes process actives and merge messages in this order.
        self._seq: dict[Any, int] = {}

    # -- aggregators (contributions replayed by the barrier fold) --------------

    def contribute_aggregate(self, name: str, value: Any) -> None:
        """Fold ``value`` into the named aggregator (next-superstep scope)."""
        fn = self._aggregator_fns[name]  # names are checked by the runtime
        if name in self._next_aggregates:
            self._next_aggregates[name] = fn(self._next_aggregates[name], value)
        else:
            self._next_aggregates[name] = value

    # -- main loop ----------------------------------------------------------

    def run(
        self,
        *,
        warm_states: Optional[dict[Any, PartitionedState]] = None,
        rescatter: Optional[dict[Any, list[Interval]]] = None,
        resume_from: Optional[str] = None,
    ) -> IcmResult:
        """Execute to convergence and return states plus metrics.

        Parameters
        ----------
        warm_states:
            Resume from a previous run's states instead of calling ``init``
            everywhere.  Vertices present in the mapping skip superstep-1
            initialisation; vertices *absent* from it (newly added to the
            graph) are initialised normally.  The streaming engine uses
            this for incremental recomputation.
        rescatter:
            Vertex → interval windows whose current state should be
            scattered again in superstep 1 (e.g. over newly added edges).
            Only meaningful together with ``warm_states``.
        resume_from:
            A checkpoint directory (a ``step-*`` checkpoint or a root
            holding them) written by a previous run of the *same*
            configuration — validated via the config fingerprint.  The run
            continues from superstep N+1 and produces states, aggregates,
            counters and modeled times bit-identical to an uninterrupted
            run.  Checkpoints are executor-portable: a serial checkpoint
            may be resumed under the parallel executor and vice versa.

        When ``checkpoint_every`` is set, worker-process deaths
        (:class:`~repro.errors.WorkerDiedError`) are absorbed by rolling
        back to the latest checkpoint and replaying, up to
        ``max_restarts`` times; without checkpoints the whole run is
        replayed from superstep 1.  Durability costs are reported in
        ``metrics.recovery``, never in the modeled quantities.  The code
        for each of those — `repro.runtime.checkpoint`,
        `repro.runtime.faults`, `repro.obs.events` — is loaded only by a
        run that checkpoints or resumes, loses a worker, or is observed.
        """
        from repro.runtime.executor import resolve_executor

        executor = resolve_executor(self.config)
        if resume_from is not None and warm_states is not None:
            raise ValueError("resume_from and warm_states are mutually exclusive")

        self._seq = {v.vid: i for i, v in enumerate(self.graph.vertices())}
        durable = start = None
        if self.config.checkpoint.every or resume_from is not None:
            from repro.runtime.checkpoint import RunCheckpoints

            durable = RunCheckpoints(self, resume_from)
            start = durable.resume
        self._partition_stats = self.cluster.partition_stats(self.graph)
        events = self._events = None
        if self._observers:
            from repro.obs.events import RunEvents

            events = self._events = RunEvents(self._observers)
            events.run_start(self, start.superstep if start else None, executor.name)
        recovery = RecoveryMetrics()
        try:
            while True:
                try:
                    result = self._run_attempt(
                        executor, warm_states, rescatter, start, durable, recovery
                    )
                    break
                except WorkerDiedError as died:
                    from repro.runtime.faults import recover

                    start = recover(self, died, durable, recovery)
            if events is not None:
                events.run_end(result.metrics)
        finally:
            for closing in (durable, events):
                if closing is not None:
                    closing.close()
        return result

    def _run_attempt(
        self, executor, warm_states, rescatter, start_ckpt, durable, recovery
    ) -> IcmResult:
        """One execution attempt: fresh, resumed, or a recovery replay."""
        metrics = RunMetrics(
            platform=self.platform,
            algorithm=self.program.name,
            graph=self.graph_name,
            executor=executor.name,
        )
        if start_ckpt is None:
            # Only a warm start's copies are built here: every worker runtime
            # derives its own vertices' missing states (`repro.runtime.executor`).
            states = {} if warm_states is None else {
                vid: warm_states[vid].copy() for vid in self._seq if vid in warm_states
            }
            self._aggregates = {}
            self.superstep = 1
        else:
            from repro.runtime.checkpoint import restore_metrics

            restore_metrics(start_ckpt.metrics, metrics)
            # Checkpointed states come back in graph enumeration order so
            # every downstream canonical-order walk matches a fresh start.
            states = {vid: start_ckpt.states[vid] for vid in self._seq}
            warm_states = None
            self._aggregates = dict(start_ckpt.aggregates)
            self.superstep = start_ckpt.superstep + 1
        metrics.recovery = recovery  # shared by every attempt of the run
        metrics.partition_edge_cut = self._partition_stats["edge_cut"]
        metrics.partition_imbalance = self._partition_stats["imbalance"]
        self.cluster.reset()
        self._next_aggregates = {}
        warm = warm_states is not None
        fixed = self.program.fixed_supersteps
        limit = self.config.max_supersteps
        events = self._events
        try:
            t_load = time.perf_counter()
            executor.start(self, states, (rescatter or {}) if warm else {}, warm=warm)
            if start_ckpt is None:
                metrics.load_time = time.perf_counter() - t_load
            else:
                executor.restore_pending(start_ckpt.pending)
            t_run = time.perf_counter()
            while True:
                if self.superstep > limit:
                    raise RuntimeError(f"{self.program.name} exceeded {limit} supersteps")
                if fixed is not None and self.superstep > fixed:
                    break
                if fixed is None and self.superstep > 1 and not executor.has_pending():
                    break

                if events is not None:
                    events.superstep_start(self.superstep, metrics)
                num_active = executor.run_superstep(self.superstep, metrics)
                metrics.supersteps += 1
                if events is not None:
                    events.superstep_end(self.superstep, metrics, num_active)

                self._aggregates = self._reduce_aggregates()
                master = MasterContext(self.superstep, dict(self._aggregates), num_active)
                self.program.master_compute(master)
                self._aggregates.update(master._overrides)
                if master._halt:
                    break
                if durable is not None:
                    durable.after_superstep(self.superstep, executor, metrics, recovery)
                self.superstep += 1

            metrics.makespan += time.perf_counter() - t_run
            final_states = executor.collect_states()
            executor.close()
        except BaseException:
            executor.abort()
            raise
        return IcmResult(
            states=final_states, metrics=metrics, aggregates=dict(self._aggregates)
        )

    # -- internals ---------------------------------------------------------

    def _reduce_aggregates(self) -> dict[str, Any]:
        reduced = dict(self._next_aggregates)
        self._next_aggregates = {}
        return reduced


def fresh_state(vertex, config: StateConfig) -> PartitionedState:
    """A vertex's state before ``init`` — what a cold run starts from, built
    by the worker runtime that owns the vertex.  Paper footnote 2: with
    ``prepartition_by_properties`` the state is pre-split on the vertex's
    static property boundaries (the *interval property vertex*)."""
    state = PartitionedState(vertex.lifespan, None, coalesce=config.coalesce)
    if config.prepartition_by_properties:
        state.presplit(vertex.properties.boundaries())
    return state


def _complement(lifespan: Interval, covered: list[Interval]) -> list[Interval]:
    """Sub-intervals of ``lifespan`` not covered by the sorted cover."""
    gaps: list[Interval] = []
    cursor = lifespan.start
    for iv in covered:
        clipped = iv.intersect(lifespan)
        if clipped is None:
            continue
        if clipped.start > cursor:
            gaps.append(Interval(cursor, clipped.start))
        cursor = max(cursor, clipped.end)
    if cursor < lifespan.end:
        gaps.append(Interval(cursor, lifespan.end))
    return gaps
