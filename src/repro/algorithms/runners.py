"""Unified (algorithm × platform) runner layer for the benchmark harness.

The paper's evaluation runs 12 algorithms on up to 5 platforms per graph.
This module maps an ``(algorithm, platform)`` pair to the right engine,
program and graph preparation, returning the run's :class:`RunMetrics`
and the raw platform result for equivalence checks.

Platform coverage follows the paper exactly: the TI algorithms (BFS, WCC,
SCC, PR) are compared on GRAPHITE / MSB / Chlonos, the TD algorithms
(SSSP, EAT, FAST, LD, TMST, RH, LCC, TC) on GRAPHITE / TGB / GoFFish.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Optional

from repro import api
from repro.core.config import EngineConfig
from repro.graph.model import TemporalGraph
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.metrics import RunMetrics

from .defaults import default_source, default_target

TI_ALGORITHMS = ("BFS", "WCC", "SCC", "PR")
TD_ALGORITHMS = ("SSSP", "EAT", "FAST", "LD", "TMST", "RH", "LCC", "TC")
ALL_ALGORITHMS = TI_ALGORITHMS + TD_ALGORITHMS

TI_PLATFORMS = ("GRAPHITE", "MSB", "Chlonos")
TD_PLATFORMS = ("GRAPHITE", "TGB", "GoFFish")

#: Algorithm → its module and what runs it per platform, in
#: ``platforms_for`` order: the GRAPHITE program in
#: ``repro.algorithms.{ti,td}.<module>``, the baseline platforms' in
#: ``repro.baselines.{ti,td}.<module>`` (MSB and Chlonos share one
#: per-snapshot user logic; SCC's are peeling drivers).  ``run_algorithm``
#: imports only the module it runs, so a GRAPHITE run loads no baseline.
_TI_PROGRAMS = {
    "BFS": ("bfs", "TemporalBFS", "SnapshotBFS", "SnapshotBFS"),
    "WCC": ("wcc", "TemporalWCC", "SnapshotWCC", "SnapshotWCC"),
    "SCC": ("scc", "run_icm_scc", "run_snapshot_scc", "run_chlonos_scc"),
    "PR": ("pagerank", "TemporalPageRank", "SnapshotPageRank", "SnapshotPageRank"),
}
_TD_PROGRAMS = {
    "SSSP": ("sssp", "TemporalSSSP", "TgbSSSP", "GoffishSSSP"),
    "EAT": ("eat", "TemporalEAT", "TgbEAT", "GoffishEAT"),
    "FAST": ("fast", "TemporalFAST", "TgbFAST", "GoffishFAST"),
    "LD": ("ld", "TemporalLD", "TgbLD", "GoffishLD"),
    "TMST": ("tmst", "TemporalTMST", "TgbTMST", "GoffishTMST"),
    "RH": ("reach", "TemporalReachability", "TgbReachability",
           "GoffishReachability"),
    "LCC": ("lcc", "TemporalLCC", "SnapshotLCC", "GoffishLCC"),
    "TC": ("tc", "TemporalTC", "SnapshotTC", "GoffishTC"),
}


def _program(algorithm: str, platform: str) -> Any:
    """The program class (SCC: the driver function) that runs ``algorithm``
    on ``platform``, imported from its own module only."""
    if algorithm in _TI_PROGRAMS:
        layer, (module, *names) = "ti", _TI_PROGRAMS[algorithm]
    else:
        layer, (module, *names) = "td", _TD_PROGRAMS[algorithm]
    home = "repro.algorithms" if platform == "GRAPHITE" else "repro.baselines"
    return getattr(
        import_module(f"{home}.{layer}.{module}"),
        names[platforms_for(algorithm).index(platform)],
    )


def platforms_for(algorithm: str) -> tuple[str, ...]:
    """The paper's platform set for an algorithm (TI vs TD matrix)."""
    return TI_PLATFORMS if algorithm in TI_ALGORITHMS else TD_PLATFORMS


@dataclass
class RunOutcome:
    """Metrics plus the raw platform result of one run."""

    algorithm: str
    platform: str
    metrics: RunMetrics
    result: Any


def run_algorithm(
    algorithm: str,
    platform: str,
    graph: TemporalGraph,
    *,
    cluster: Optional[SimulatedCluster] = None,
    graph_name: str = "",
    source: Any = None,
    target: Any = None,
    deadline: Optional[int] = None,
    horizon: Optional[int] = None,
    batch_size: Optional[int] = None,
    icm_options: Optional[dict[str, Any]] = None,
    config: Optional[EngineConfig] = None,
    observe: Any = None,
    resume_from: Optional[str] = None,
) -> RunOutcome:
    """Execute one (algorithm, platform) cell of the evaluation matrix.

    GRAPHITE engines are built through `repro.api`: ``config`` is the base
    :class:`EngineConfig` (default: ``EngineConfig.from_env()``),
    ``icm_options`` are flat option overrides, and ``observe`` attaches
    structured-event observers (baseline platforms have no engine to
    observe).  ``resume_from`` continues a GRAPHITE run from a checkpoint
    directory (see `repro.runtime.checkpoint`); it applies to
    single-engine GRAPHITE algorithms only — SCC's peeling loop runs many
    engines per call.
    """
    if algorithm not in ALL_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if platform not in platforms_for(algorithm):
        raise ValueError(f"{platform} does not run {algorithm} in the paper's matrix")
    if resume_from is not None and (platform != "GRAPHITE" or algorithm == "SCC"):
        raise ValueError(
            "resume_from requires a single-engine GRAPHITE run "
            f"(got {platform}/{algorithm})"
        )
    cluster = cluster or SimulatedCluster()
    icm_options = icm_options or {}
    # Defaults are resolved where they are consumed: each walks the whole
    # adjacency, and most cells of the matrix take none of them.
    if horizon is None and (
        platform != "GRAPHITE"
        or algorithm == "FAST"
        or (algorithm == "LD" and deadline is None)
    ):
        horizon = graph.time_horizon()

    def icm(g, program):
        res = api.run(
            g, program, cluster=cluster, graph_name=graph_name,
            config=config, options=icm_options, observe=observe,
            resume_from=resume_from,
        )
        return RunOutcome(algorithm, platform, res.metrics, res)

    def per_snapshot(g, program_factory):
        if platform == "MSB":
            from repro.baselines.msb import run_msb

            res = run_msb(g, program_factory, horizon=horizon,
                          cluster=cluster, graph_name=graph_name)
        else:
            from repro.baselines.chlonos import run_chlonos

            res = run_chlonos(g, program_factory, batch_size=batch_size,
                              horizon=horizon, cluster=cluster,
                              graph_name=graph_name)
        return RunOutcome(algorithm, platform, res.metrics, res)

    # --- TI ------------------------------------------------------------------
    if algorithm == "SCC":
        run_scc = _program(algorithm, platform)
        if platform == "GRAPHITE":
            res = run_scc(
                graph, cluster=cluster, graph_name=graph_name,
                icm_options=icm_options, config=config, observe=observe,
            )
            return RunOutcome(algorithm, platform, res.metrics, res)
        if platform == "MSB":
            values, metrics = run_scc(
                graph, horizon=horizon, cluster=cluster, graph_name=graph_name
            )
        else:
            values, metrics = run_scc(
                graph, batch_size=batch_size, horizon=horizon,
                cluster=cluster, graph_name=graph_name,
            )
        return RunOutcome(algorithm, platform, metrics, values)

    if algorithm in TI_ALGORITHMS:
        program_cls = _program(algorithm, platform)
        if algorithm == "BFS":
            if source is None:
                source = default_source(graph)
            args: tuple = (source,)
        elif algorithm == "WCC":
            from .ti.wcc import make_undirected

            graph, args = make_undirected(graph), ()
        else:  # PR: the ICM program reads the vertex-count timeline
            args = (graph,) if platform == "GRAPHITE" else ()
        if platform == "GRAPHITE":
            return icm(graph, program_cls(*args))
        return per_snapshot(graph, lambda t: program_cls(*args))

    # --- TD ------------------------------------------------------------------
    program_cls = _program(algorithm, platform)
    if algorithm in ("LCC", "TC"):
        args = ()
    elif algorithm == "LD":
        if target is None:
            target = default_target(graph)
        if deadline is None:
            deadline = horizon - 1
        args = (target, deadline)
    else:
        if source is None:
            source = default_source(graph)
        args = (source,)

    if platform == "GRAPHITE":
        program = (
            program_cls(source, horizon=horizon) if algorithm == "FAST"
            else program_cls(*args)
        )
        outcome = icm(graph.reversed() if algorithm == "LD" else graph, program)
        outcome.metrics.algorithm = algorithm
        return outcome

    if platform == "TGB":
        from repro.baselines.tgb import run_tgb

        transformed = None
        if algorithm in ("LCC", "TC"):
            from repro.graph.transform import build_snapshot_replica_graph

            transformed = build_snapshot_replica_graph(graph, horizon=horizon)
        elif algorithm == "LD":
            from repro.graph.transform import build_transformed_graph

            transformed = build_transformed_graph(graph, horizon=horizon).reversed()
        res = run_tgb(graph, program_cls(*args), transformed=transformed,
                      horizon=horizon, cluster=cluster, graph_name=graph_name)
        return RunOutcome(algorithm, platform, res.metrics, res)

    from repro.baselines.goffish import GoffishEngine

    reverse = algorithm == "LD"
    engine = GoffishEngine(
        graph.reversed() if reverse else graph, program_cls(*args),
        horizon=horizon, cluster=cluster, graph_name=graph_name,
        direction=-1 if reverse else 1,
    )
    res = engine.run()
    return RunOutcome(algorithm, platform, res.metrics, res)
