"""The master is process 0: a P-process run forks exactly P−1 workers.

Runtime 0 lives in the master, so ``executor_processes: P`` has P−1 live
children for the whole superstep loop and none once the run has closed;
a serial run (the one-process case of the same executor) forks nothing.
Children are counted by parent pid under ``/proc``, as the orphan test in
``tests/obs/test_trace_durability.py`` finds its workers.
"""

import os

import pytest

from repro import api
from repro.algorithms.ti.bfs import TemporalBFS
from repro.datasets import transit_graph
from repro.obs.observers import RunObserver
from repro.runtime.cluster import SimulatedCluster

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc"
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


class _ChildCounter(RunObserver):
    """Counts the run's live children at the start of every superstep."""

    def __init__(self):
        self.before = _live_children()
        self.counts = []

    def on_event(self, record):
        if record["type"] == "superstep_start":
            self.counts.append(len(_live_children() - self.before))


@pytest.mark.parametrize(
    "options,forked",
    [
        ({"executor": "serial"}, 0),
        ({"executor": "parallel", "executor_processes": 1}, 0),
        ({"executor": "parallel", "executor_processes": 2}, 1),
        ({"executor": "parallel", "executor_processes": 3}, 2),
    ],
    ids=["serial", "parallel-1", "parallel-2", "parallel-3"],
)
def test_a_p_process_run_forks_p_minus_one_workers(options, forked):
    counter = _ChildCounter()
    result = api.run(
        transit_graph(), TemporalBFS("A"),
        cluster=SimulatedCluster(5), graph_name="transit",
        options=options, observe=counter,
    )
    assert len(counter.counts) == result.metrics.supersteps > 1
    assert set(counter.counts) == {forked}
    assert not _live_children() - counter.before  # close reaped them all
