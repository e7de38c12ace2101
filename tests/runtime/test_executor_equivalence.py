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
from repro.core.engine import IcmProgramError
from repro.obs.observers import InMemoryEvents
from repro.core.interval import Interval
from repro.core.program import IntervalProgram
from repro.core.tracing import ExecutionTracer
from repro.datasets import transit_graph
from repro.graph.compact import CompactGraph
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executor import ParallelExecutor, resolve_executor
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


#: Where `_run` gets its graph.  Every test that runs one takes it from
#: each store in turn (`graph_image`): the heap graph, the heap graph frozen
#: into the compact store ("frozen"), and a dumped-and-mapped ITGR image —
#: the bytes a served or batch graph is actually read from ("mapped").
_graph = transit_graph
IMAGES = ("heap", "frozen", "mapped")
on_every_image = pytest.mark.parametrize("graph_image", IMAGES, indirect=True)


@pytest.fixture
def graph_image(request, tmp_path, monkeypatch):
    this = sys.modules[__name__]
    if request.param == "frozen":
        monkeypatch.setattr(
            this, "_graph", lambda: CompactGraph.from_temporal(transit_graph())
        )
    elif request.param == "mapped":
        path = tmp_path / "transit.itgr"
        CompactGraph.from_temporal(transit_graph()).dump(path)
        monkeypatch.setattr(this, "_graph", lambda: CompactGraph.load(path))


def _run(algorithm, observe=None, **icm_options):
    # The serial reference is pinned explicitly so the comparison stays
    # meaningful under REPRO_EXECUTOR=parallel test sweeps.
    return run_algorithm(
        algorithm, "GRAPHITE", _graph(),
        cluster=SimulatedCluster(5), graph_name="transit",
        icm_options=icm_options or {"executor": "serial"},
        observe=observe,
    )


@on_every_image
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_parallel_matches_serial(algorithm, graph_image):
    serial_events, parallel_events = InMemoryEvents(), InMemoryEvents()
    serial = _run(algorithm, observe=serial_events)
    parallel = _run(algorithm, observe=parallel_events, **PARALLEL)

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


@on_every_image
@pytest.mark.parametrize("algorithm", ("BFS", "SSSP", "PR"))
@pytest.mark.parametrize("partitioner", PARTITIONER_KINDS)
def test_parallel_matches_serial_under_every_partitioner(
    algorithm, partitioner, graph_image
):
    """Placement moves messages between workers, never changes results.

    The executors must stay bit-identical whichever partitioner shards the
    graph — including the greedy ones, whose shard sizes are deliberately
    uneven — and all must agree on the byte-level locality split.
    """
    serial = _run(algorithm, executor="serial", partitioner=partitioner)
    parallel = _run(algorithm, partitioner=partitioner, **PARALLEL)

    assert _partitions(serial.result) == _partitions(parallel.result)
    for fld in EXACT_FIELDS + ("local_message_bytes", "remote_message_bytes"):
        assert getattr(serial.metrics, fld) == getattr(parallel.metrics, fld), fld
    assert serial.metrics.partition_edge_cut == parallel.metrics.partition_edge_cut


def test_combining_off_still_bit_identical():
    serial = _run("SSSP")
    plain = _run("SSSP", exchange_combine=False, **PARALLEL)
    assert _partitions(serial.result) == _partitions(plain.result)
    for fld in EXACT_FIELDS + ("local_message_bytes", "remote_message_bytes"):
        assert getattr(serial.metrics, fld) == getattr(plain.metrics, fld), fld


def test_combining_cuts_wire_bytes():
    """The same run ships fewer real bytes with sender-side combining than
    without, and ``exchange_raw_bytes`` (what an uncombined wire would
    carry) is invariant.  The transit graph is too sparse for two
    same-(dst, interval) messages to meet in one sender process, so this
    uses the denser twitter surrogate."""
    from repro.datasets import load_surrogate

    graph = load_surrogate("twitter", scale=0.3)

    def _go(combine):
        return run_algorithm(
            "BFS", "GRAPHITE", graph,
            cluster=SimulatedCluster(8), graph_name="twitter",
            icm_options={**PARALLEL, "exchange_combine": combine},
        )

    combined = _go(True)
    plain = _go(False)
    assert combined.metrics.exchange_raw_bytes == plain.metrics.exchange_raw_bytes
    assert 0 < combined.metrics.exchange_bytes < plain.metrics.exchange_bytes


def _config(**options):
    return EngineConfig().with_options(**options)


@on_every_image
def test_executor_recorded_in_metrics(graph_image):
    assert _run("BFS").metrics.executor == "serial"
    assert _run("BFS", **PARALLEL).metrics.executor == "parallel"


@on_every_image
def test_parallel_worker_wall_times_per_process(graph_image):
    metrics = _run("SSSP", **PARALLEL).metrics
    for step in metrics.supersteps_detail:
        assert len(step.worker_wall_times) == 2


def test_resolve_executor():
    # The serial executor is the one executor class at one process.
    for config in (EngineConfig(), _config(executor="serial")):
        serial = resolve_executor(config)
        assert isinstance(serial, ParallelExecutor)
        assert serial.name == "serial" and serial.processes == 1
    parallel = resolve_executor(_config(executor="parallel", executor_processes=3))
    assert parallel.name == "parallel" and parallel.processes == 3
    inst = ParallelExecutor(processes=1, name="serial")
    assert resolve_executor(_config(executor=inst)) is inst
    with pytest.raises(ValueError, match="unknown"):
        _config(executor="threads")


def test_resolve_executor_takes_everything_from_the_config():
    executor = resolve_executor(
        _config(
            executor="parallel", executor_processes=2,
            fault_plan="kill:1@3", exchange_combine=False,
        )
    )
    assert isinstance(executor, ParallelExecutor)
    assert executor.processes == 2
    assert executor.fault_plan.pending() == 1
    assert executor.exchange == ExchangeConfig(combine=False)


_EXECUTOR_ENV = {
    "REPRO_EXECUTOR": "parallel",
    "REPRO_EXECUTOR_PROCESSES": "2",
    "REPRO_FAULT_PLAN": "kill:0@2",
}


def test_resolve_executor_env(monkeypatch):
    """The three variables reach the executor through ``from_env`` alone."""
    for name, value in _EXECUTOR_ENV.items():
        monkeypatch.setenv(name, value)
    executor = resolve_executor(EngineConfig.from_env())
    assert isinstance(executor, ParallelExecutor)
    assert executor.processes == 2
    assert executor.fault_plan.pending() == 1


def test_env_typo_names_the_variable():
    with pytest.raises(ValueError, match="REPRO_EXECUTOR='threads'"):
        EngineConfig.from_env({"REPRO_EXECUTOR": "threads"})


@on_every_image
def test_plain_config_is_hermetic(monkeypatch, graph_image):
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


@on_every_image
def test_worker_error_surfaces_as_program_error(graph_image):
    engine = api.build_engine(
        _graph(), _Exploding(), cluster=SimulatedCluster(5), options=PARALLEL,
    )
    with pytest.raises(IcmProgramError, match="compute"):
        engine.run()
