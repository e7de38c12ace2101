"""Parallel executor returns results bit-identical to serial (every algorithm).

The determinism contract (``repro.runtime.executor``): both executors walk
active vertices in canonical graph order, receivers restore serial delivery
order by sender sequence, aggregates fold in (vertex, call) order, and
per-shard modeled compute sums in the same order serial would use.  These
tests hold the contract across the whole algorithm matrix.
"""

import os
import sys

import pytest

from repro import api
from repro.algorithms import ALL_ALGORITHMS, run_algorithm
from repro.algorithms.ti.bfs import TemporalBFS
from repro.core.config import EngineConfig, ExchangeConfig
from repro.core.engine import IcmProgramError, IntervalCentricEngine
from repro.obs.observers import InMemoryEvents
from repro.core.interval import Interval
from repro.core.program import IntervalProgram
from repro.core.tracing import ExecutionTracer
from repro.datasets import transit_graph
from repro.graph.compact import CompactGraph
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executor import (
    ParallelExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.runtime.partitioner import PARTITIONER_KINDS

PARALLEL = {"executor": "parallel", "executor_processes": 2}

#: Metric fields that must match *exactly* between the executors.
EXACT_FIELDS = (
    "supersteps",
    "compute_calls",
    "scatter_calls",
    "messages_sent",
    "system_messages",
    "message_bytes",
    "local_messages",
    "remote_messages",
    "warp_calls",
    "warp_suppressed_vertices",
    "combiner_reductions",
    "peak_inflight_messages",
    "modeled_makespan",  # bitwise: same floats folded in the same order
    "modeled_compute_time",
    "messaging_time",
    "barrier_time",
)


def _partitions(result):
    """Comparable snapshot of a run's per-vertex partitioned states."""
    states = result.components if hasattr(result, "components") else result.states
    return {vid: list(state) for vid, state in states.items()}


#: Where `_run` gets its graph.  The compact-store CI leg runs every test
#: here twice: over the heap graph the engine freezes per build ("frozen"),
#: and over a dumped-and-mapped image — the bytes a served or batch graph
#: is actually read from ("mapped").  Elsewhere there is one, unnamed, leg.
_IMAGES = ("frozen", "mapped") if os.environ.get("REPRO_GRAPH_STORE") == "compact" else None
_graph = transit_graph


@pytest.fixture(autouse=True, params=_IMAGES)
def graph_image(request, tmp_path, monkeypatch):
    if getattr(request, "param", "frozen") == "mapped":
        path = tmp_path / "transit.itgr"
        CompactGraph.from_temporal(transit_graph()).dump(path)
        monkeypatch.setattr(sys.modules[__name__], "_graph", lambda: CompactGraph.load(path))


def _run(algorithm, observe=None, **icm_options):
    # The serial reference is pinned explicitly so the comparison stays
    # meaningful under REPRO_EXECUTOR=parallel test sweeps.
    return run_algorithm(
        algorithm, "GRAPHITE", _graph(),
        cluster=SimulatedCluster(5), graph_name="transit",
        icm_options=icm_options or {"executor": "serial"},
        observe=observe,
    )


@pytest.mark.parametrize("topology", ("star", "peer"))
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_parallel_matches_serial(algorithm, topology):
    serial_events, parallel_events = InMemoryEvents(), InMemoryEvents()
    serial = _run(algorithm, observe=serial_events)
    parallel = _run(
        algorithm, observe=parallel_events, exchange=topology, **PARALLEL
    )

    assert _partitions(serial.result) == _partitions(parallel.result)
    if hasattr(serial.result, "aggregates"):
        assert serial.result.aggregates == parallel.result.aggregates
    for fld in EXACT_FIELDS:
        assert getattr(serial.metrics, fld) == getattr(parallel.metrics, fld), fld
    # Same logical event stream from both executors — wall-clock facts
    # excluded by logical().  Fault-plan sweeps replay supersteps on the
    # parallel side only, so the sequence check is skipped there.
    assert serial_events.records, "runs must emit events when observed"
    if not os.environ.get("REPRO_FAULT_PLAN"):
        assert serial_events.logical() == parallel_events.logical()


@pytest.mark.parametrize("topology", ("star", "peer"))
@pytest.mark.parametrize("algorithm", ("BFS", "SSSP", "PR"))
@pytest.mark.parametrize("partitioner", PARTITIONER_KINDS)
def test_parallel_matches_serial_under_every_partitioner(
    algorithm, partitioner, topology
):
    """Placement moves messages between workers, never changes results.

    The executors must stay bit-identical whichever partitioner shards the
    graph — including the greedy ones, whose shard sizes are deliberately
    uneven — under either exchange topology, and all must agree on the
    byte-level locality split.
    """
    serial = _run(algorithm, executor="serial", partitioner=partitioner)
    parallel = _run(
        algorithm, partitioner=partitioner, exchange=topology, **PARALLEL
    )

    assert _partitions(serial.result) == _partitions(parallel.result)
    for fld in EXACT_FIELDS + ("local_message_bytes", "remote_message_bytes"):
        assert getattr(serial.metrics, fld) == getattr(parallel.metrics, fld), fld
    assert serial.metrics.partition_edge_cut == parallel.metrics.partition_edge_cut


def _config(**options):
    return EngineConfig().with_options(**options)


def test_executor_recorded_in_metrics():
    assert _run("BFS").metrics.executor == "serial"
    assert _run("BFS", **PARALLEL).metrics.executor == "parallel"


def test_parallel_worker_wall_times_per_process():
    metrics = _run("SSSP", **PARALLEL).metrics
    for step in metrics.supersteps_detail:
        assert len(step.worker_wall_times) == 2


def test_resolve_executor():
    assert resolve_executor(EngineConfig()).name == "serial"
    assert resolve_executor(_config(executor="serial")).name == "serial"
    parallel = resolve_executor(_config(executor="parallel", executor_processes=3))
    assert parallel.name == "parallel" and parallel.processes == 3
    inst = SerialExecutor()
    assert resolve_executor(_config(executor=inst)) is inst
    with pytest.raises(ValueError, match="unknown"):
        _config(executor="threads")


def test_resolve_executor_takes_everything_from_the_config():
    executor = resolve_executor(
        _config(
            executor="parallel", executor_processes=2,
            fault_plan="kill:1@3", exchange="peer", exchange_combine=False,
        )
    )
    assert isinstance(executor, ParallelExecutor)
    assert executor.processes == 2
    assert executor.fault_plan.pending() == 1
    assert executor.exchange == ExchangeConfig(topology="peer", combine=False)


_EXECUTOR_ENV = {
    "REPRO_EXECUTOR": "parallel",
    "REPRO_EXECUTOR_PROCESSES": "2",
    "REPRO_FAULT_PLAN": "kill:0@2",
    "REPRO_EXCHANGE": "peer",
}


def test_resolve_executor_env(monkeypatch):
    """The four variables reach the executor through ``from_env`` alone."""
    for name, value in _EXECUTOR_ENV.items():
        monkeypatch.setenv(name, value)
    executor = resolve_executor(EngineConfig.from_env())
    assert isinstance(executor, ParallelExecutor)
    assert executor.processes == 2
    assert executor.fault_plan.pending() == 1
    assert executor.exchange.topology == "peer"


def test_env_typo_names_the_variable():
    with pytest.raises(ValueError, match="REPRO_EXECUTOR='threads'"):
        EngineConfig.from_env({"REPRO_EXECUTOR": "threads"})


def test_plain_config_is_hermetic(monkeypatch):
    """Regression: with ``executor.kind=None`` the executor used to be
    resolved from the environment at run time, whatever config was given."""
    for name, value in _EXECUTOR_ENV.items():
        monkeypatch.setenv(name, value)
    graph, program = _graph(), TemporalBFS("A")
    executor = resolve_executor(EngineConfig())
    assert executor.name == "serial"

    hermetic = api.run(graph, program, config=EngineConfig())
    assert hermetic.metrics.executor == "serial"
    assert hermetic.metrics.exchange_bytes == 0
    assert hermetic.metrics.recovery.restarts == 0

    # No config at all means from_env(): the variables are honoured, the
    # scheduled kill fires and is recovered from.
    from_env = api.run(graph, program)
    assert from_env.metrics.executor == "parallel"
    assert from_env.metrics.recovery.restarts == 1
    assert _partitions(from_env) == _partitions(hermetic)


def test_tracer_rejects_parallel_executor():
    with pytest.raises(ValueError, match="serial"):
        resolve_executor(_config(executor="parallel", tracer=ExecutionTracer()))


def test_tracer_overrides_env_forced_parallel():
    # REPRO_EXECUTOR=parallel is a sweep-wide default, not an explicit ask:
    # traced runs fall back to serial instead of failing.
    config = EngineConfig.from_env({"REPRO_EXECUTOR": "parallel"}).with_options(
        tracer=ExecutionTracer()
    )
    assert resolve_executor(config).name == "serial"


class _Exploding(IntervalProgram):
    """Raises inside compute on a specific vertex — in the worker process."""

    name = "boom"

    def init(self, ctx):
        ctx.set_state(Interval(0, 4), 0)

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep >= 2:
            raise RuntimeError("kaboom in worker")
        ctx.set_state(interval, 1)

    def scatter(self, ctx, edge, interval, state):
        return [(interval, state)]


def test_worker_error_surfaces_as_program_error():
    engine = IntervalCentricEngine(
        _graph(), _Exploding(), cluster=SimulatedCluster(5),
        executor="parallel", executor_processes=2,
    )
    with pytest.raises(IcmProgramError, match="compute"):
        engine.run()
