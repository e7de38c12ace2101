"""Trace durability: a run killed without warning leaves a readable trace.

`JsonlTraceWriter` flushes every record as it is written, and
`read_trace` drops (with a warning) at most one torn trailing line — so
SIGKILLing a live parallel run mid-superstep must still leave a trace
that post-mortem tooling (`repro report`, `scripts/diff_traces.py`) can
load.  Mid-file corruption stays a hard error.  And the run's worker
processes do not outlive their master, mid-run or idle between runs: a
worker sees EOF on its command pipe once the master is gone, and exits.
"""

import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.algorithms import run_algorithm
from repro.datasets import transit_graph
from repro.obs.events import encode_event, validate_event
from repro.obs.exporters import read_trace
from repro.obs.observers import JsonlTraceWriter
from repro.runtime.cluster import SimulatedCluster

SRC = str(Path(__file__).resolve().parents[2] / "src")

# A real 3-process run — the master is process 0 and forks two workers,
# the later of which inherits the earlier one's master pipe end — whose
# trace writer sleeps after each record, so the parent can SIGKILL it
# mid-superstep with certainty.
CHILD = """
import sys, time
sys.path.insert(0, {src!r})
from repro.algorithms import run_algorithm
from repro.datasets import transit_graph
from repro.obs.observers import JsonlTraceWriter
from repro.runtime.cluster import SimulatedCluster

class SlowWriter(JsonlTraceWriter):
    def on_event(self, record):
        super().on_event(record)
        time.sleep(0.15)

run_algorithm(
    "BFS", "GRAPHITE", transit_graph(),
    cluster=SimulatedCluster(5), graph_name="transit",
    icm_options={{"executor": "parallel", "executor_processes": 3}},
    observe=SlowWriter(sys.argv[1]),
)
"""


def _serial_trace(tmp_path):
    path = tmp_path / "serial.trace"
    run_algorithm(
        "BFS", "GRAPHITE", transit_graph(),
        cluster=SimulatedCluster(5), graph_name="transit",
        icm_options={"executor": "serial"}, observe=str(path),
    )
    return path


def _start_killable_run(path):
    """The CHILD run, past superstep 1 and still streaming events."""
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD.format(src=SRC), str(path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if path.exists() and len(path.read_bytes().splitlines()) >= 8:
            return proc
        time.sleep(0.05)
    proc.kill()
    proc.wait()
    pytest.fail("child never wrote 8 trace records")


def test_sigkilled_parallel_run_leaves_readable_trace(tmp_path):
    path = tmp_path / "killed.trace"
    proc = _start_killable_run(path)
    # Kill without warning while events are still streaming.
    proc.kill()
    proc.wait()
    assert proc.returncode != 0  # killed, not completed

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a torn trailing line may warn
        records = read_trace(path)
    assert records, "killed run left no readable records"
    assert records[0]["type"] == "run_start"
    assert records[-1]["type"] != "run_end"  # it really died mid-run
    assert [r["seq"] for r in records] == list(range(len(records)))
    for record in records:
        validate_event(record)


def _stat(pid):
    """``(state, ppid)`` of a live process, ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_their_master_is_sigkilled(tmp_path):
    proc = _start_killable_run(tmp_path / "killed.trace")
    workers = []
    try:
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _stat(int(entry))
                if stat is not None and stat[1] == proc.pid:
                    workers.append(int(entry))
        assert len(workers) == 2, f"expected 2 worker processes, found {workers}"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_alive, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if _alive(pid)]
        assert not survivors, f"workers {survivors} outlived their master by 5 s"
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


# One 2-process run; its worker stays resident, idle, for the graph's next
# run while the master sleeps.
IDLE_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
from repro.algorithms import run_algorithm
from repro.datasets import transit_graph
graph = transit_graph()
run_algorithm("BFS", "GRAPHITE", graph, icm_options={{
    "executor": "parallel", "executor_processes": 2}})
print("idle", flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_an_idle_resident_worker_exits_when_its_master_is_sigkilled():
    proc = subprocess.Popen(
        [sys.executable, "-c", IDLE_CHILD.format(src=SRC)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    workers = []
    try:
        assert proc.stdout.readline().strip() == "idle"
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _stat(int(entry))
                if stat is not None and stat[1] == proc.pid:
                    workers.append(int(entry))
        assert len(workers) == 1, f"expected 1 idle worker, found {workers}"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_alive, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if _alive(pid)]
        assert not survivors, f"workers {survivors} outlived their master by 5 s"
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_truncated_trailing_record_dropped_with_warning(tmp_path):
    path = _serial_trace(tmp_path)
    intact = read_trace(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])
    with pytest.warns(UserWarning, match="truncated trailing trace record"):
        survivors = read_trace(path)
    assert survivors == intact[:-1]


def test_mid_file_corruption_still_raises(tmp_path):
    path = _serial_trace(tmp_path)
    lines = path.read_bytes().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]  # tear a middle record
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_writer_flushes_every_record_as_written(tmp_path):
    source = read_trace(_serial_trace(tmp_path))
    path = tmp_path / "replay.trace"
    writer = JsonlTraceWriter(path)
    for i, record in enumerate(source, start=1):
        writer.on_event(record)
        # Without any close(), the file already holds i complete lines.
        lines = path.read_bytes().splitlines()
        assert len(lines) == i
        assert lines[-1] == encode_event(record).encode("utf-8")
    writer.close()
