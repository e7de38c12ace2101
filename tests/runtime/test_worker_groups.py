"""Worker groups outlive the run: a P ≥ 2 run reuses the processes an
earlier run forked for the same, unchanged graph.

A run's workers are found by parent pid under ``/proc`` at its first
superstep, as ``tests/runtime/test_process_count.py`` counts them.  Reuse
shows as the same pids in two runs; every reused run must still equal the
serial run in states and counters.  The idle groups are bounded, stopped
with their graph, and leave nothing behind when the interpreter exits.
"""

import multiprocessing as mp
import os
import pickle
import socket
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from repro import api
from repro.algorithms.defaults import default_source, default_target
from repro.algorithms.runners import run_algorithm
from repro.algorithms.td.eat import TemporalEAT
from repro.algorithms.td.fast import TemporalFAST
from repro.algorithms.td.journeys import TemporalSSSPJourneys
from repro.algorithms.td.kcore import TemporalKCore
from repro.algorithms.td.lcc import TemporalLCC
from repro.algorithms.td.ld import TemporalLD
from repro.algorithms.td.reach import TemporalReachability
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.td.tc import TemporalTC
from repro.algorithms.td.tmst import TemporalTMST
from repro.algorithms.ti.bfs import TemporalBFS
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.algorithms.ti.scc import MinLabelPass
from repro.algorithms.ti.wcc import TemporalWCC
from repro.core.combiner import MessageCombiner
from repro.core.interval import Interval
from repro.core.state import PartitionedState
from repro.datasets import load_surrogate, transit_graph
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.graph.model import TemporalEdge, TemporalVertex
from repro.obs.observers import RunObserver
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executor import ParallelExecutor
from repro.runtime.faults import FaultPlan

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self") or "fork" not in mp.get_all_start_methods(),
    reason="needs /proc and the fork start method",
)

SRC = str(Path(__file__).resolve().parents[2] / "src")
SERIAL = {"executor": "serial"}
P2 = {"executor": "parallel", "executor_processes": 2}
COUNTERS = (
    "supersteps", "compute_calls", "scatter_calls", "messages_sent",
    "message_bytes", "local_messages", "remote_messages", "warp_calls",
    "warp_suppressed_vertices", "combiner_reductions", "peak_inflight_messages",
    "modeled_compute_time", "modeled_makespan",
)


def _live_children() -> set:
    """Pids of this process's children that have not exited."""
    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] not in ("Z", "X"):
            found.add(int(entry))
    return found


class _Workers(RunObserver):
    """This process's live children at the run's first superstep."""

    def __init__(self):
        self.pids = None

    def on_event(self, record):
        if record["type"] == "superstep_start" and self.pids is None:
            self.pids = _live_children()


def _run(graph, program, options, **run_args):
    """``(result, workers, forked)``: the children alive at the run's first
    superstep, and those of them the run itself started."""
    before = _live_children()
    workers = _Workers()
    result = api.run(graph, program, cluster=SimulatedCluster(4),
                     options=options, observe=workers, **run_args)
    return result, workers.pids, workers.pids - before


def _facts(result):
    return (
        {vid: list(state) for vid, state in result.states.items()},
        {name: getattr(result.metrics, name) for name in COUNTERS},
        result.aggregates,
    )


def _programs(graph):
    """All 14 in-repo GRAPHITE programs, built for ``graph``."""
    source, horizon = default_source(graph), graph.time_horizon()
    return {
        "BFS": TemporalBFS(source),
        "WCC": TemporalWCC(),
        "SCC": MinLabelPass(
            {v.vid: PartitionedState(v.lifespan, None) for v in graph.vertices()}
        ),
        "PR": TemporalPageRank(graph),
        "SSSP": TemporalSSSP(source),
        "EAT": TemporalEAT(source),
        "RH": TemporalReachability(source),
        "FAST": TemporalFAST(source, horizon=horizon),
        "TMST": TemporalTMST(source),
        "LD": TemporalLD(default_target(graph), horizon - 1),
        "LCC": TemporalLCC(),
        "TC": TemporalTC(),
        "KCORE": TemporalKCore(2),
        "JOURNEYS": TemporalSSSPJourneys(source),
    }


def test_every_program_pickles():
    programs = _programs(transit_graph())
    assert len(programs) == 14
    for name, program in programs.items():
        clone = pickle.loads(pickle.dumps(program))
        assert type(clone) is type(program), name


@pytest.mark.parametrize("name", sorted(_programs(transit_graph())))
def test_a_second_run_reuses_the_group_and_equals_serial(name):
    graph = load_surrogate("usrn", 0.3)
    serial, _, _ = _run(graph, _programs(graph)[name], SERIAL)
    first, _, forked = _run(graph, _programs(graph)[name], P2)
    second, workers, again = _run(graph, _programs(graph)[name], P2)
    assert len(forked) == 1 and forked <= workers, "the first run forked no worker"
    assert not again, "the second run forked again"
    assert _facts(first) == _facts(serial)
    assert _facts(second) == _facts(serial)


def test_ld_on_a_compact_graph_reuses_the_reversed_graphs_group():
    # LD runs on ``graph.reversed()``; a compact graph memoises it, so the
    # second run finds the group the first forked for the same object.
    graph = CompactGraph.from_temporal(load_surrogate("usrn", 0.3))
    runs = [
        run_algorithm("LD", "GRAPHITE", graph, cluster=SimulatedCluster(4),
                      icm_options=options)
        for options in (SERIAL, P2)
    ]
    before = _live_children()
    again = run_algorithm("LD", "GRAPHITE", graph, cluster=SimulatedCluster(4),
                          icm_options=P2)
    assert before and _live_children() == before, "the second run forked again"
    assert _facts(runs[1].result) == _facts(runs[0].result)
    assert _facts(again.result) == _facts(runs[0].result)


def _partial_cost_graph():
    """A → B → C whose A → B cost is known only on [0, 5)."""
    b = TemporalGraphBuilder()
    for vid in "ABC":
        b.add_vertex(vid, 0, 10)
    b.add_edge("A", "B", 0, 10, eid="AB",
               props={"travel-time": 1, "travel-cost": [(0, 5, 2)]})
    b.add_edge("B", "C", 0, 10, eid="BC",
               props={"travel-time": 1, "travel-cost": 1})
    return b.build()


def _add_edge(graph):
    edge = TemporalEdge("CA", "C", "A", Interval(0, 10))
    edge.properties.add("travel-time", Interval(0, 10), 1)
    edge.properties.add("travel-cost", Interval(0, 10), 1)
    graph._add_edge(edge)


def _add_property(graph):
    graph.edge("AB").properties.add("travel-cost", Interval(5, 10), 7)


def _add_vertex(graph):
    graph._add_vertex(TemporalVertex("D", Interval(0, 10)))


@pytest.mark.parametrize("mutate", [_add_edge, _add_property, _add_vertex])
def test_a_mutation_between_runs_forks_a_new_group(mutate):
    graph = _partial_cost_graph()
    before, _, forked = _run(graph, TemporalSSSP("A"), P2)
    mutate(graph)
    serial, _, _ = _run(graph, TemporalSSSP("A"), SERIAL)
    after, workers, again = _run(graph, TemporalSSSP("A"), P2)
    if mutate is not _add_vertex:
        assert _facts(serial) != _facts(before)  # the mutation is observable
    assert _facts(after) == _facts(serial)
    assert forked and again, "the run on the mutated graph forked nothing"
    assert not forked & workers, "the stale group was kept"


def test_idle_groups_are_bounded():
    graphs = [load_surrogate("usrn", 0.2, seed=s) for s in range(5)]
    for graph in graphs:
        result, _, forked = _run(graph, TemporalBFS(default_source(graph)), P2)
        assert forked and result.metrics.supersteps > 1
        assert len(mp.active_children()) <= 2 * (2 - 1)


def test_a_group_dies_with_its_graph():
    graph = transit_graph()
    _, _, forked = _run(graph, TemporalBFS("A"), P2)
    assert forked and forked <= _live_children()  # idle, not stopped
    del graph
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and forked & _live_children():
        time.sleep(0.05)
    assert not forked & _live_children(), "an idle group outlived its graph"


def test_an_idle_worker_holds_no_socket_of_its_master():
    """A connection the master had open at the fork still closes for its
    peer while the group idles (a serving daemon's clients, its pipes)."""
    ours, peer = socket.socketpair()
    graph = transit_graph()
    _, _, forked = _run(graph, TemporalBFS("A"), P2)
    assert forked and forked <= _live_children()  # idle, not stopped
    ours.close()
    peer.settimeout(5)
    assert peer.recv(1) == b"", "a worker kept the master's socket open"
    peer.close()


class _LambdaSSSP(TemporalSSSP):
    """SSSP with a fold no pickle can ship."""

    def __init__(self, source):
        super().__init__(source)
        self.combiner = MessageCombiner(lambda a, b: min(a, b), "min", selective=True)


def test_a_program_that_does_not_pickle_still_runs():
    graph = transit_graph()
    _run(graph, TemporalSSSP("A"), P2)
    with pytest.raises(Exception):
        pickle.dumps(_LambdaSSSP("A"))
    serial, _, _ = _run(graph, _LambdaSSSP("A"), SERIAL)
    result, _, forked = _run(graph, _LambdaSSSP("A"), P2)
    assert forked, "the run did not fork its own group"
    assert _facts(result) == _facts(serial)
    again, _, _ = _run(graph, TemporalSSSP("A"), P2)
    assert _facts(again)[0] == _facts(_run(graph, TemporalSSSP("A"), SERIAL)[0])[0]


def test_a_program_the_group_cannot_load_forks_anew():
    """A class made after the fork pickles by reference but does not
    resolve in the idle worker: that run forks its own group, no restart."""
    graph = transit_graph()
    _, _, forked = _run(graph, TemporalSSSP("A"), P2)
    late = types.ModuleType("late_programs")
    late.LateSSSP = type("LateSSSP", (TemporalSSSP,), {"__module__": "late_programs"})
    sys.modules["late_programs"] = late
    try:
        serial, _, _ = _run(graph, late.LateSSSP("A"), SERIAL)
        result, workers, again = _run(graph, late.LateSSSP("A"), P2)
    finally:
        del sys.modules["late_programs"]
    assert again and not forked & workers, "the run did not fork its own group"
    assert result.metrics.recovery.restarts == 0
    assert _facts(result) == _facts(serial)


def test_a_kill_on_a_reused_group_recovers():
    graph = transit_graph()
    serial, _, _ = _run(graph, TemporalSSSP("A"), SERIAL)
    _, _, forked = _run(graph, TemporalSSSP("A"), P2)
    executor = ParallelExecutor(processes=2, fault_plan=FaultPlan.parse("kill:1@2"))
    crashed, workers, again = _run(graph, TemporalSSSP("A"), {"executor": executor})
    assert forked <= workers and not again  # it began on the reused group
    assert executor.fault_plan.pending() == 0
    assert crashed.metrics.recovery.restarts == 1
    assert _facts(crashed)[0] == _facts(serial)[0]
    after, workers, _ = _run(graph, TemporalSSSP("A"), P2)
    assert _facts(after) == _facts(serial)
    assert not forked & workers, "the killed group was kept"


def test_a_cold_run_hands_its_runtimes_no_state(monkeypatch):
    """Every runtime builds its own vertices' states: the master hands the
    executor none on a cold run, and only its copies on a warm one."""
    handed = []
    start = ParallelExecutor.start

    def spy(self, engine, states, rescatter, warm):
        handed.append(len(states))
        return start(self, engine, states, rescatter, warm)

    monkeypatch.setattr(ParallelExecutor, "start", spy)
    graph = transit_graph()
    cold, _, _ = _run(graph, TemporalSSSP("A"), SERIAL)
    _run(graph, TemporalSSSP("A"), P2)
    warm = {vid: cold.states[vid] for vid in ("A", "B")}
    _run(graph, TemporalSSSP("A"), P2, warm_states=warm)
    assert handed == [0, 0, 2]


def test_a_warm_start_and_a_resume_on_a_reused_group_equal_serial(tmp_path):
    """A reused group's runtimes derive what they are not handed — the
    vertices a warm start lacks — and take a checkpoint's states whole."""
    graph = load_surrogate("usrn", 0.3)
    source = default_source(graph)
    cold, _, _ = _run(graph, TemporalSSSP(source), SERIAL)
    _, _, forked = _run(graph, TemporalSSSP(source), P2)
    warm = {vid: cold.states[vid] for vid in list(cold.states)[::2]}
    again = {vid: [graph.vertex(vid).lifespan] for vid in list(warm)[:3]}
    args = {"warm_states": warm, "rescatter": again}
    serial, _, _ = _run(graph, TemporalSSSP(source), SERIAL, **args)
    reused, workers, new = _run(graph, TemporalSSSP(source), P2, **args)
    assert forked <= workers and not new, "the warm run forked again"
    assert _facts(reused) == _facts(serial)

    ckpt = {"checkpoint_every": 1, "checkpoint_dir": str(tmp_path)}
    _run(graph, TemporalSSSP(source), {**SERIAL, **ckpt})
    resumed, workers, new = _run(graph, TemporalSSSP(source), P2,
                                 resume_from=str(tmp_path / "step-000002"))
    assert forked <= workers and not new, "the resumed run forked again"
    assert _facts(resumed) == _facts(cold)


# The child does two 2-process runs on one graph, prints the pids of its
# workers, and exits normally.
EXITING_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.algorithms import run_algorithm
from repro.datasets import transit_graph
graph = transit_graph()
for _ in range(2):
    run_algorithm("BFS", "GRAPHITE", graph, icm_options={{
        "executor": "parallel", "executor_processes": 2}})
me = str(os.getpid())
print(" ".join(
    entry for entry in os.listdir("/proc") if entry.isdigit()
    and open(f"/proc/{{entry}}/stat").read().rsplit(")", 1)[1].split()[1] == me
))
"""


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def test_interpreter_exit_leaves_no_worker_behind():
    out = subprocess.run(
        [sys.executable, "-c", EXITING_CHILD.format(src=SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    workers = [int(pid) for pid in out.split()]
    assert len(workers) == 1, f"expected one idle worker, found {workers}"
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and any(map(_alive, workers)):
        time.sleep(0.05)
    assert not any(map(_alive, workers)), "a worker outlived its interpreter"
