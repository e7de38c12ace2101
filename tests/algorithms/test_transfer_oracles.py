"""Differential oracle: every program's ``transfer`` against its old ``scatter``.

Each library program declares its per-piece edge transfer in row form; the
body it had as ``scatter(ctx, edge, interval, state)`` is kept in
``_scatter_oracles`` as a subclass, which the engine runs through the
``IntervalProgram.transfer`` adapter.  On generated graphs (multi-piece
travel times and costs, bounded and unbounded lifespans), on the heap and a
mapped ITGR image, serially and on two processes, the two must agree in
states, in every counter of ``RunMetrics`` (per superstep too) and in the
message and exchange bytes.  A failure names the graph's seed.
"""

import importlib
import random

import pytest

from repro import api
from repro.algorithms import run_algorithm
from repro.algorithms.runners import default_source
from repro.algorithms.td import journeys
from repro.algorithms.td.kcore import run_temporal_kcore
from repro.core.config import EngineConfig
from repro.core.interval import FOREVER
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.runtime.cluster import SimulatedCluster

from ._scatter_oracles import ORACLES

RANDOM_SEED = 20291019
N_GRAPHS = 5
HORIZON = 10

EXECUTORS = {
    "serial": {"executor": "serial"},
    "parallel": {"executor": "parallel", "executor_processes": 2},
}

#: Every count and modeled figure of a run; the measured wall-clock fields
#: (``compute_plus_time``, ``worker_wall_time``, ``exchange_time``,
#: ``makespan``, ``load_time``) are left out.
COUNTERS = (
    "supersteps", "compute_calls", "scatter_calls", "messages_sent",
    "message_bytes", "local_messages", "remote_messages", "local_message_bytes",
    "remote_message_bytes", "system_messages", "warp_calls",
    "warp_suppressed_vertices", "combiner_reductions", "shared_messages",
    "peak_inflight_messages", "exchange_bytes", "exchange_raw_bytes",
    "modeled_compute_time", "messaging_time", "barrier_time", "modeled_makespan",
)
STEP_COUNTERS = (
    "superstep", "compute_calls", "scatter_calls", "messages", "bytes",
    "local_bytes", "exchange_bytes", "exchange_raw_bytes",
)


def _algorithm(name):
    def run(graph, options):
        return run_algorithm(
            name, "GRAPHITE", graph, cluster=SimulatedCluster(4), icm_options=options,
        ).result
    return run


def _kcore(graph, options):
    return run_temporal_kcore(
        graph, 2, cluster=SimulatedCluster(4),
        config=EngineConfig().with_options(**options),
    )


def _journeys(graph, options):
    return api.run(
        graph, journeys.TemporalSSSPJourneys(default_source(graph)), cluster=SimulatedCluster(4),
        options=options,
    )


#: case → (the library class the oracle replaces, how to run it).
CASES = {
    "BFS": (("repro.algorithms.ti.bfs", "TemporalBFS"), _algorithm("BFS")),
    "WCC": (("repro.algorithms.ti.wcc", "TemporalWCC"), _algorithm("WCC")),
    "SCC": (("repro.algorithms.ti.scc", "MinLabelPass"), _algorithm("SCC")),
    "PR": (("repro.algorithms.ti.pagerank", "TemporalPageRank"), _algorithm("PR")),
    "SSSP": (("repro.algorithms.td.sssp", "TemporalSSSP"), _algorithm("SSSP")),
    "EAT": (("repro.algorithms.td.eat", "TemporalEAT"), _algorithm("EAT")),
    "RH": (("repro.algorithms.td.reach", "TemporalReachability"), _algorithm("RH")),
    "FAST": (("repro.algorithms.td.fast", "TemporalFAST"), _algorithm("FAST")),
    "TMST": (("repro.algorithms.td.tmst", "TemporalTMST"), _algorithm("TMST")),
    "LD": (("repro.algorithms.td.ld", "TemporalLD"), _algorithm("LD")),
    "LCC": (("repro.algorithms.td.lcc", "TemporalLCC"), _algorithm("LCC")),
    "TC": (("repro.algorithms.td.tc", "TemporalTC"), _algorithm("TC")),
    "KCORE": (("repro.algorithms.td.kcore", "TemporalKCore"), _kcore),
    "JOURNEYS": (("repro.algorithms.td.journeys", "TemporalSSSPJourneys"), _journeys),
}


def generated_graph(seed: int, n_vertices: int = 9, n_edges: int = 26):
    """A random graph whose edges carry one to three property pieces of
    ``travel-time`` and ``travel-cost``; about a third of the vertices live
    forever, and edges between two of them may too."""
    rng = random.Random(seed)
    b = TemporalGraphBuilder()
    lives = []
    for i in range(n_vertices):
        start = rng.randrange(3)
        end = FOREVER if rng.random() < 0.35 else rng.randint(HORIZON - 3, HORIZON)
        b.add_vertex(f"v{i}", start, end)
        lives.append((start, end))
    for _ in range(n_edges):
        src, dst = rng.sample(range(n_vertices), 2)
        lo = max(lives[src][0], lives[dst][0])
        hi = min(lives[src][1], lives[dst][1])
        start = rng.randrange(lo, min(hi, HORIZON) - 1)
        end = FOREVER if hi == FOREVER and rng.random() < 0.5 else rng.randint(
            start + 1, min(hi, HORIZON))
        cuts = sorted(rng.sample(range(start + 1, min(end, HORIZON + 2)), rng.randint(0, 2))
                      if min(end, HORIZON + 2) - start > 3 else [])
        bounds = [start, *cuts, end]
        props = {
            label: [(a, z, rng.randint(1, 3)) for a, z in zip(bounds, bounds[1:])]
            for label in ("travel-time", "travel-cost")
        }
        b.add_edge(f"v{src}", f"v{dst}", start, end, props=props)
    return b.build()


def _states(result):
    states = result.components if hasattr(result, "components") else result.states
    return {vid: list(state) for vid, state in states.items()}


def _counters(metrics):
    return (
        {name: getattr(metrics, name) for name in COUNTERS},
        [tuple(getattr(step, name) for name in STEP_COUNTERS)
         for step in metrics.supersteps_detail],
    )


def _graph_seeds():
    rng = random.Random(RANDOM_SEED)
    return [rng.randrange(2**32) for _ in range(N_GRAPHS)]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("store", ["heap", "mapped"])
@pytest.mark.parametrize("case", CASES)
def test_transfer_equals_its_scatter_oracle(case, store, executor, tmp_path, monkeypatch):
    (module_name, class_name), run = CASES[case]
    module = importlib.import_module(module_name)
    library_class = getattr(module, class_name)
    oracle_class = ORACLES[module_name, class_name]
    assert "transfer" in vars(library_class) and "scatter" not in vars(library_class)
    assert "scatter" in vars(oracle_class) and "transfer" not in vars(oracle_class)
    options = EXECUTORS[executor]
    for seed in _graph_seeds():
        graph = generated_graph(seed)
        if store == "mapped":
            path = tmp_path / f"g{seed}.itgr"
            CompactGraph.from_temporal(graph).dump(path)
            graph = CompactGraph.load(path)
        monkeypatch.setattr(module, class_name, library_class)
        declared = run(graph, options)
        monkeypatch.setattr(module, class_name, oracle_class)
        oracle = run(graph, options)
        where = f"{case} on graph seed {seed} ({store}, {executor})"
        assert declared.metrics.scatter_calls > 0, f"{where}: nothing scattered"
        assert _states(declared) == _states(oracle), where
        assert _counters(declared.metrics) == _counters(oracle.metrics), where
        assert getattr(declared, "aggregates", None) == getattr(oracle, "aggregates", None), where
