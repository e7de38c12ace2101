"""The pinned oracle: results of the pre-unification serial superstep loop.

``golden_serial.json`` was generated at commit 5dc3c8d, the last one whose
``SerialExecutor`` walked the vertices itself and moved messages through
``SimulatedCluster.send``.  Both executors now host the same worker
runtime, so comparing them with each other only compares the loop with
itself; this file is what ties the loop to the behaviour it replaced.
Every case must reproduce its fingerprint bit for bit under the serial
executor and under two worker processes.

Regenerate (``python tests/runtime/test_golden_serial.py``) only from a
commit whose results are trusted for an independent reason — a change
that alters results on purpose — never to make this test pass.
"""

import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from repro import api
from repro.algorithms import ALL_ALGORITHMS, run_algorithm
from repro.algorithms.runners import default_source
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.config import EngineConfig
from repro.datasets import load_surrogate, transit_graph
from repro.runtime.checkpoint import load_checkpoint
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.partitioner import PARTITIONER_KINDS

GOLDEN_PATH = Path(__file__).with_name("golden_serial.json")

#: The executor-equivalence contract's exact fields plus the byte-level
#: locality split; floats are stored as ``float.hex()``.
FIELDS = (
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
    "modeled_makespan",
    "modeled_compute_time",
    "messaging_time",
    "barrier_time",
    "local_message_bytes",
    "remote_message_bytes",
)

EXECUTORS = {
    "serial": {"executor": "serial"},
    "parallel": {"executor": "parallel", "executor_processes": 2},
}

#: A hermetic base config, so the REPRO_* sweeps CI runs the suite under
#: cannot move a case off the configuration its fingerprint was taken at.
BASE = EngineConfig()


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def fingerprint(result, metrics) -> dict:
    states = result.components if hasattr(result, "components") else result.states
    counters = {}
    for name in FIELDS:
        value = getattr(metrics, name)
        counters[name] = value.hex() if isinstance(value, float) else value
    return {
        "states": _sha([(vid, list(state)) for vid, state in states.items()]),
        "aggregates": _sha(sorted(getattr(result, "aggregates", {}).items())),
        "counters": counters,
    }


def _transit(algorithm, options, **kwargs):
    outcome = run_algorithm(
        algorithm, "GRAPHITE", transit_graph(),
        cluster=SimulatedCluster(5), graph_name="transit",
        config=BASE, icm_options=options, **kwargs,
    )
    return fingerprint(outcome.result, outcome.metrics)


def _algorithm_case(algorithm):
    return lambda options: _transit(algorithm, options)


def _partitioner_case(kind, algorithm):
    return lambda options: _transit(algorithm, {**options, "partitioner": kind})


def _warm_case(options):
    """Superstep 1 of a warm run takes all three activation branches: the
    source rescatters, two vertices missing from ``warm_states`` are
    initialised from scratch, and the rest stay idle."""
    graph = transit_graph()
    source = default_source(graph)
    program = TemporalSSSP(source)

    def run(**kwargs):
        return api.run(
            graph, program, cluster=SimulatedCluster(5), graph_name="transit",
            config=BASE, options=options, **kwargs,
        )

    cold = run()
    kept = list(cold.states)[:-2]
    warm = run(
        warm_states={vid: cold.states[vid] for vid in kept},
        rescatter={source: [graph.vertex(source).lifespan]},
    )
    return fingerprint(warm, warm.metrics)


def _twitter_bfs(options, **kwargs):
    outcome = run_algorithm(
        "BFS", "GRAPHITE", load_surrogate("twitter", scale=0.3),
        cluster=SimulatedCluster(8), graph_name="twitter",
        config=BASE, icm_options=options, **kwargs,
    )
    return fingerprint(outcome.result, outcome.metrics)


def _resume_combined_case(options, tmp_path):
    """Resume from a checkpoint whose pending messages were combined at
    the sender: the first resumed superstep must charge the receiver pass
    for the raw messages the fold replaced."""
    _twitter_bfs(
        {**EXECUTORS["parallel"], "checkpoint_every": 1,
         "checkpoint_dir": str(tmp_path)},
    )
    step = tmp_path / "step-000002"
    assert any(len(entry) > 3 for entry in load_checkpoint(step).pending), (
        "checkpoint holds no sender-combined entry; the case tests nothing"
    )
    return _twitter_bfs(options, resume_from=str(step))


CASES = {
    **{f"algorithm/{a}": _algorithm_case(a) for a in ALL_ALGORITHMS},
    **{
        f"partitioner/{kind}/{a}": _partitioner_case(kind, a)
        for kind in PARTITIONER_KINDS
        for a in ("BFS", "SSSP", "PR")
    },
    "warm-start/SSSP": _warm_case,
}

GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("case", CASES)
def test_reproduces_golden(case, executor):
    assert CASES[case](EXECUTORS[executor]) == GOLDEN[case]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_resume_from_combined_checkpoint_reproduces_golden(executor, tmp_path):
    resumed = _resume_combined_case(EXECUTORS[executor], tmp_path)
    assert resumed == GOLDEN["uninterrupted/twitter-BFS"]


def test_two_threads_over_one_resident_graph_reproduce_golden():
    """Serve lanes run concurrent queries over one resident graph, whose
    piece index both threads build on first touch: every entry must be
    published whole, and a run must never see another run's half."""
    graph = transit_graph()
    algorithms = ("SSSP", "LD", "EAT", "BFS", "TMST", "FAST", "RH")
    got: dict = {}

    def lane(order):
        for algorithm in order:
            outcome = run_algorithm(
                algorithm, "GRAPHITE", graph, cluster=SimulatedCluster(5),
                graph_name="transit", config=BASE, icm_options=EXECUTORS["serial"],
            )
            got[threading.get_ident(), algorithm] = fingerprint(
                outcome.result, outcome.metrics)

    threads = [threading.Thread(target=lane, args=(order,))
               for order in (algorithms, algorithms[::-1])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 2 * len(algorithms)
    for (_, algorithm), value in got.items():
        assert value == GOLDEN[f"algorithm/{algorithm}"]


if __name__ == "__main__":
    serial = EXECUTORS["serial"]
    golden = {name: case(serial) for name, case in CASES.items()}
    golden["uninterrupted/twitter-BFS"] = _twitter_bfs(serial)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")
