"""The cold path's import budget, as a module set and a source size (not a
timing).

A batch job — the benchmark's ``job.py``: four imports, load a file, one
serial SSSP, export CSV — must pay only for what it runs.  A fresh
interpreter performs exactly that over a text file and a compact v3 file
and reports ``sys.modules``: the multiprocessing, pickle, checkpoint,
baseline-platform, worker-host, fault, image-writer, serving, query,
streaming, dataset, exporter and tracer stacks are absent, the
``repro.*`` modules stay under a count and their source under a line
budget, and no thread was started.  The benchmark's children run with ``PYTHONDONTWRITEBYTECODE``
set, so every line a job imports is compiled on every run: the line budget
is the compile cost a cold job pays.  A new eager import at package level —
or a heavy stack reached from a module top instead of from the code that
needs it — fails here before it shows in ``batch_compact``.  The same
program run parallel, with a fault plan and checkpointed must load those
stacks and return the same states.
"""

import json

import pytest

from repro.datasets import usrn
from repro.graph.compact import CompactGraph
from repro.graph.io import dump_graph

from ._fresh_interpreter import run_fresh

#: What a serial, uncheckpointed, unobserved run on a loaded file leaves out.
ABSENT_FROM_A_SERIAL_JOB = [
    "multiprocessing",
    "pickle",
    "tempfile",
    "shutil",
    "repro.runtime.checkpoint",
    "repro.runtime.faults",
    "repro.runtime.workers",
    "repro.baselines",
    "repro.graph.transform",
    "repro.graph.snapshots",
    "repro.graph.compact_writer",
    "repro.serve",
    "repro.query",
    "repro.streaming",
    "repro.datasets",
    "repro.obs.exporters",
    "repro.core.tracing",
]

#: ``repro.*`` modules a serial job may load: the 32 it loads, plus 3.
REPRO_MODULE_CEILING = 35

#: Lines of ``repro.*`` source a serial job may compile (10 432 before the
#: baseline variants, the image writer, the worker host and run supervision
#: left the serial path; 8 198 after).
REPRO_LINE_BUDGET = 8_400

_JOB = """
import sys

from repro import api
from repro.algorithms import default_source
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.results_io import export_states_csv

mode, out_csv, *graph_files = sys.argv[1:]
options = {
    "serial": {"executor": "serial"},
    "parallel": {"executor": "parallel", "executor_processes": 2},
    "faults": {"executor": "parallel", "executor_processes": 2,
               "fault_plan": "kill:0@2"},
    "checkpoint": {"executor": "serial", "checkpoint_every": 2},
}[mode]
states = []
for graph_file in graph_files:
    graph = api.load_graph(graph_file)
    result = api.run(graph, TemporalSSSP(default_source(graph)), options=options)
    export_states_csv(result, out_csv)
    states.append(sorted((str(vid), repr(list(state)))
                         for vid, state in result.states.items()))
    checkpoints = result.metrics.recovery.checkpoints_written
    restarts = result.metrics.recovery.restarts
modules = sorted(sys.modules)
lines = 0
for name in modules:
    if name == "repro" or name.startswith("repro."):
        with open(sys.modules[name].__file__, "rb") as source:
            lines += source.read().count(b"\\n")

import json
import threading

print(json.dumps({"modules": modules, "threads": threading.active_count(),
                  "states": states, "checkpoints": checkpoints,
                  "restarts": restarts, "lines": lines}))
"""


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("import_budget")
    graph = usrn(0.5)
    text, compact = str(root / "graph.txt"), str(root / "graph.itgr")
    dump_graph(graph, text)
    CompactGraph.from_temporal(graph).dump(compact)
    return root, [text, compact]


def _run_job(mode, graph_files):
    root, files = graph_files
    out = run_fresh(_JOB, mode, str(root / f"{mode}.csv"), *files, timeout=300)
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def serial_job(graph_files):
    return _run_job("serial", graph_files)


def test_serial_job_loads_only_what_it_runs(serial_job):
    modules = set(serial_job["modules"])
    loaded = [
        name for name in ABSENT_FROM_A_SERIAL_JOB
        if name in modules or any(m.startswith(name + ".") for m in modules)
    ]
    assert not loaded, f"a serial batch job imported {loaded}"
    ours = sorted(m for m in modules if m == "repro" or m.startswith("repro."))
    print(f"a serial job loads {len(ours)} repro modules, "
          f"{serial_job['lines']} lines of source")
    assert len(ours) <= REPRO_MODULE_CEILING, ours
    assert serial_job["lines"] <= REPRO_LINE_BUDGET, ours
    # Importing and running started no thread.
    assert serial_job["threads"] == 1
    text_states, compact_states = serial_job["states"]
    assert text_states == compact_states


def test_parallel_and_checkpointed_jobs_load_their_stacks(graph_files, serial_job):
    parallel = _run_job("parallel", graph_files)
    assert {"multiprocessing", "pickle", "repro.runtime.workers"} <= set(parallel["modules"])
    assert parallel["states"] == serial_job["states"]

    faulted = _run_job("faults", graph_files)
    assert faulted["restarts"] == 1
    assert {"repro.runtime.workers", "repro.runtime.faults"} <= set(faulted["modules"])
    assert faulted["states"] == serial_job["states"]

    checkpointed = _run_job("checkpoint", graph_files)
    assert checkpointed["checkpoints"] > 0
    assert {"repro.runtime.checkpoint", "tempfile", "shutil"} <= set(
        checkpointed["modules"])
    assert "multiprocessing" not in checkpointed["modules"]
    assert checkpointed["states"] == serial_job["states"]
