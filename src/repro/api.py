"""The public front door: configured runs with first-class observability.

Every in-tree consumer (CLI, runners, streaming, benchmarks) builds
GRAPHITE engines through this module; direct
:class:`~repro.core.engine.IntervalCentricEngine` construction elsewhere
is a lint failure.  The three entry points:

* :func:`build_engine` — construct an engine from an
  :class:`~repro.core.config.EngineConfig` (plus flat option overrides
  and an ``observe=`` shorthand);
* :func:`run` — build and execute in one call, returning the
  :class:`~repro.core.engine.IcmResult`;
* :func:`compare` — one algorithm across every applicable platform (a
  one-row slice of the paper's Table 2).

Quickstart::

    from repro import api
    from repro.datasets import transit_graph
    from repro.algorithms.td.sssp import TemporalSSSP

    result = api.run(transit_graph(), TemporalSSSP("A"))
    result = api.run(transit_graph(), TemporalSSSP("A"),
                     observe="sssp.trace")        # JSON-lines event trace
    outcomes = api.compare("SSSP", transit_graph())

``observe=`` accepts a trace-file path, any observer object (something
with ``on_event``), an iterable of observers, or a full
:class:`~repro.core.config.ObservabilityConfig`.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Any, Optional

from repro.core.config import (
    CheckpointConfig,
    EngineConfig,
    ExchangeConfig,
    ExecutorConfig,
    ObservabilityConfig,
    PartitioningConfig,
    ServeConfig,
    StateConfig,
    WarpConfig,
)
from repro.core.engine import IcmResult, IntervalCentricEngine
from repro.errors import GraphFormatError
from repro.runtime.cluster import SimulatedCluster

__all__ = [
    "CheckpointConfig",
    "EngineConfig",
    "ExchangeConfig",
    "ExecutorConfig",
    "GraphFormatError",
    "IcmResult",
    "IntervalCentricEngine",
    "ObservabilityConfig",
    "PartitioningConfig",
    "ServeConfig",
    "StateConfig",
    "WarpConfig",
    "build_engine",
    "compare",
    "load_graph",
    "run",
    "serve",
]


def _effective_config(
    config: Optional[EngineConfig],
    options: Optional[dict],
    observe: Any,
) -> EngineConfig:
    cfg = config if config is not None else EngineConfig.from_env()
    if options:
        cfg = cfg.with_options(**options)
    if observe is not None:
        cfg = dataclasses.replace(
            cfg,
            observability=cfg.observability.merged_with(
                ObservabilityConfig.coerce(observe)
            ),
        )
    return cfg


def build_engine(
    graph,
    program,
    *,
    cluster: Optional[SimulatedCluster] = None,
    graph_name: str = "",
    config: Optional[EngineConfig] = None,
    options: Optional[dict] = None,
    observe: Any = None,
    platform: str = "GRAPHITE",
) -> IntervalCentricEngine:
    """Construct a configured engine (without running it).

    ``config`` defaults to :meth:`EngineConfig.from_env`; ``options`` are
    flat overrides (``{"executor": "parallel"}``,
    ``{"partitioner": "greedy"}``) applied via
    :meth:`EngineConfig.with_options`; ``observe`` adds observability on
    top (path / observer / iterable / :class:`ObservabilityConfig`);
    ``platform`` is the label stamped on the run's metrics and
    ``run_start`` event (override it when wrapping the engine as a
    baseline platform).
    """
    cfg = _effective_config(config, options, observe)
    return IntervalCentricEngine(
        graph, program, cluster=cluster, graph_name=graph_name, config=cfg,
        platform=platform,
    )


def run(
    graph,
    program,
    *,
    cluster: Optional[SimulatedCluster] = None,
    graph_name: str = "",
    config: Optional[EngineConfig] = None,
    options: Optional[dict] = None,
    observe: Any = None,
    platform: str = "GRAPHITE",
    warm_states: Optional[dict] = None,
    rescatter: Optional[dict] = None,
    resume_from: Optional[str] = None,
) -> IcmResult:
    """Build an engine and execute it to convergence.

    ``warm_states``/``rescatter``/``resume_from`` pass straight through to
    :meth:`IntervalCentricEngine.run`.
    """
    engine = build_engine(
        graph,
        program,
        cluster=cluster,
        graph_name=graph_name,
        config=config,
        options=options,
        observe=observe,
        platform=platform,
    )
    return engine.run(
        warm_states=warm_states, rescatter=rescatter, resume_from=resume_from
    )


def compare(
    algorithm: str,
    graph,
    *,
    platforms: Optional[tuple] = None,
    cluster: Optional[SimulatedCluster] = None,
    workers: int = 8,
    graph_name: str = "",
    config: Optional[EngineConfig] = None,
    options: Optional[dict] = None,
    observe: Any = None,
    **runner_kwargs: Any,
):
    """Run ``algorithm`` on every applicable platform; returns the
    :class:`~repro.algorithms.runners.RunOutcome` list in platform order.

    A fresh ``SimulatedCluster(workers)`` is built per platform unless an
    explicit ``cluster`` is given (sharing one cluster across platforms
    would let one platform's traffic history leak into another's model).
    GRAPHITE runs honour ``config``/``options``/``observe``; baseline
    platforms have no engine to configure, but when ``observe`` is given
    their outcomes are still recorded into the shared trace as a
    synthesized ``run_start``/``run_end`` pair tagged with the platform
    name — so a multi-platform comparison trace stays attributable
    per-platform in ``repro report`` and ``scripts/diff_traces.py``.
    """
    from repro.algorithms.runners import platforms_for, run_algorithm

    outcomes = []
    for platform in platforms or platforms_for(algorithm):
        outcome = run_algorithm(
            algorithm,
            platform,
            graph,
            cluster=cluster or SimulatedCluster(workers),
            graph_name=graph_name,
            config=config,
            icm_options=options,
            observe=observe,
            **runner_kwargs,
        )
        if observe is not None and platform != "GRAPHITE":
            _emit_baseline_run_events(observe, algorithm, graph_name,
                                      outcome.metrics)
        outcomes.append(outcome)
    return outcomes


def _emit_baseline_run_events(observe, algorithm, graph_name, metrics) -> None:
    """Record a baseline platform's run into a shared comparison trace.

    Baseline engines emit no structured events of their own; this
    synthesizes the run-level bracket (``run_start``/``run_end``) from
    their :class:`~repro.runtime.metrics.RunMetrics` so every run in a
    ``compare(..., observe=...)`` trace carries its platform tag.
    Partition facts are empty — baselines do not report placement.
    """
    from repro.obs.events import EventStream
    from repro.obs.observers import JsonlTraceWriter

    obs = ObservabilityConfig.coerce(observe)
    observers = list(obs.observers)
    if obs.trace_path is not None:
        observers.append(JsonlTraceWriter(obs.trace_path))
    if not observers:
        return
    stream = EventStream(observers)
    stream.emit(
        "run_start",
        data={
            "algorithm": metrics.algorithm or algorithm,
            "graph": metrics.graph or graph_name,
            "platform": metrics.platform,
            "resumed_from": None,
            "partitioner": "",
            "partition_edge_cut": 0.0,
            "worker_vertex_load": [],
            "worker_edge_load": [],
        },
        wall={"executor": metrics.executor or "serial"},
    )
    stream.emit(
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
    stream.close()


def serve(
    graph,
    *,
    graph_name: str = "",
    workers: int = 8,
    config: Optional[EngineConfig] = None,
    options: Optional[dict] = None,
    observe: Any = None,
):
    """Build a long-lived :class:`~repro.serve.GraphService` for ``graph``.

    The service loads and partitions the graph once, keeps a warm executor
    resident per concurrency lane, and answers
    :class:`~repro.serve.QueryRequest`\\ s through an admission queue and
    an interval-aware result cache.  ``config``/``options``/``observe``
    mean exactly what they mean for :func:`run`; the serving knobs live in
    ``config.serve`` (:class:`ServeConfig`, flat options
    ``serve_max_concurrency``/``serve_queue_depth``/``serve_cache_bytes``/
    ``serve_timeout_s``, env ``REPRO_SERVE_*``).
    """
    from repro.serve.service import GraphService

    cfg = _effective_config(config, options, None)
    return GraphService(
        graph,
        graph_name=graph_name,
        workers=workers,
        config=cfg,
        observe=observe,
    )


# -- graph loading -------------------------------------------------------------

#: Formats ``load_graph`` understands.  ``auto`` sniffs; the rest force.
GRAPH_FORMATS = ("auto", "dataset", "text", "binary", "compact", "snap", "contacts")


def _dataset_names() -> list:
    from repro.datasets import SURROGATES

    return ["transit", *sorted(SURROGATES)]


def _sniff_format(source) -> str:
    """Decide the format of ``source`` by looking, never by extension.

    Binary files are recognised by the ``ITGR`` magic (the version varint
    picks v1 object-stream vs v2 / v3 compact); text graphs by a leading
    ``V``/``VP``/``E``/``EP`` record; names that match a built-in dataset
    (and are not files) load the dataset.  SNAP-style numeric event lists
    sniff as ``snap`` — a contact sequence is indistinguishable by eye,
    so pass ``format="contacts"`` explicitly for those.
    """
    if hasattr(source, "read"):
        raise GraphFormatError(
            "cannot sniff the format of an open stream; pass format= explicitly"
        )
    import os

    name = str(source)
    if not os.path.exists(name):
        datasets = _dataset_names()
        if name.lower() in datasets:
            return "dataset"
        raise GraphFormatError(
            f"{name!r} is neither a file nor a named dataset "
            f"(datasets: {', '.join(datasets)})"
        )
    with open(name, "rb") as fh:
        head = fh.read(64)
    if head[:4] == b"ITGR":
        version = head[4] if len(head) > 4 else -1
        if version == 1:
            return "binary"
        if version in (2, 3):
            return "compact"
        raise GraphFormatError(
            f"{name}: ITGR file with unsupported version {version} "
            f"(readable versions: 1, 2, 3)"
        )
    try:
        with open(name, "r", encoding="utf-8") as fh:
            first = ""
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    first = line
                    break
    except (UnicodeDecodeError, OSError) as exc:
        raise GraphFormatError(f"{name}: unrecognisable graph file ({exc})") from exc
    tokens = first.split()
    if tokens and tokens[0] in ("V", "VP", "E", "EP"):
        return "text"
    if 2 <= len(tokens) <= 4:
        try:
            [float(t) for t in tokens[1:]]
            return "snap"
        except ValueError:
            pass
    raise GraphFormatError(
        f"{name}: cannot sniff graph format from first line {first!r}; "
        f"pass format= (one of {', '.join(GRAPH_FORMATS[1:])})"
    )


def load_graph(source, format: str = "auto", **options):
    """Load a temporal graph from anywhere — the one front door.

    ``source`` may be a file path (text format, binary v1, compact v3 or
    v2 — sniffed from content when ``format="auto"``), a named built-in
    dataset (``"transit"`` or any Table-1 surrogate name), or an open
    handle (with an explicit ``format``).  Compact files are mmap'd
    read-only, so concurrently serving processes share their pages.

    The format decides the store: a compact v2/v3 image loads as a
    :class:`~repro.graph.compact.CompactGraph`, everything else as a heap
    :class:`~repro.graph.model.TemporalGraph`.  Freeze a heap graph with
    ``CompactGraph.from_temporal`` (or write an image once with
    ``repro convert``).  Keyword ``options`` go to the underlying loader
    (``scale``/``seed`` for datasets, ``bucket``/
    ``merge_gap``/... for the event-list parsers, ``map=False`` to read
    a compact file into private memory).  ``verify=True`` checks a compact
    v3 image against its sha256 digest before anything is read from it —
    one pass over the file, for a process that did not just write it; the
    other formats carry no digest and load as without it.

    The cyclic garbage collector is paused while the graph is built (and
    left as it was found): a load allocates nothing but long-lived, acyclic
    objects, which the collector would otherwise re-walk as they pile up.
    A heap load then ends with ``gc.freeze()`` (after a ``gc.collect()``
    before it, so no garbage is frozen along): its objects leave the
    collector's generations, and no later collection — whichever phase the
    collector is in when the run starts — walks them again.  Being
    acyclic, a dropped graph is still freed by reference counting.

    Raises
    ------
    GraphFormatError
        Unknown format, failed sniffing, bad magic/version, a source that
        is neither a file nor a dataset name, or a malformed file — for a
        text graph ``text graph: line N: ...``: a row that cannot be
        parsed (record kind, field count, interval, value literal), a
        repeated vertex or edge id, a property row before its owner's row,
        overlapping values of one label, or an edge / property interval
        outside the lifespan that must contain it.
    """
    if format not in GRAPH_FORMATS:
        raise GraphFormatError(
            f"unknown graph format {format!r}; expected one of "
            f"{', '.join(GRAPH_FORMATS)}"
        )
    fmt = _sniff_format(source) if format == "auto" else format

    heap = fmt != "compact"
    if heap:
        gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        graph = _load_as(fmt, source, options)
        if heap:
            gc.freeze()
        return graph
    finally:
        if collecting:
            gc.enable()


def _load_as(fmt: str, source, options: dict):
    """Dispatch one resolved format to its loader."""
    # Only a compact v3 image carries a digest; elsewhere there is nothing
    # to check, so a caller may ask for every file it opens.
    verify = options.pop("verify", False)
    if fmt == "dataset":
        from repro.datasets import load_surrogate, transit_graph

        name = str(source).lower()
        scale = options.pop("scale", 1.0)
        seed = options.pop("seed", None)
        if name == "transit":
            graph = transit_graph()
        else:
            try:
                graph = load_surrogate(name, scale=scale, seed=seed)
            except KeyError as exc:
                raise GraphFormatError(str(exc.args[0])) from exc
    elif fmt == "text":
        from repro.graph.io import load_graph as _load_text

        graph = _load_text(source)
    elif fmt == "binary":
        from repro.graph.binary_io import load_graph_binary

        try:
            graph = load_graph_binary(source)
        except GraphFormatError:
            raise
        except ValueError as exc:
            raise GraphFormatError(f"binary graph: {exc}") from exc
    elif fmt == "compact":
        from repro.graph.compact import CompactGraph

        if hasattr(source, "read"):
            graph = CompactGraph.from_bytes(source.read(), verify=verify)
        else:
            graph = CompactGraph.load(
                source, map=options.pop("map", True), verify=verify)
    elif fmt == "snap":
        from repro.graph.parsers import load_snap_edgelist

        graph = load_snap_edgelist(source, **options)
        options = {}
    else:  # contacts
        from repro.graph.parsers import load_contact_sequence

        graph = load_contact_sequence(source, **options)
        options = {}

    if options and fmt not in ("snap", "contacts"):
        raise GraphFormatError(
            f"options {sorted(options)} are not understood by the "
            f"{fmt!r} loader"
        )
    return graph
