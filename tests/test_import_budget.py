"""The cold path's import budget, as a module set (not a timing).

A batch job — the benchmark's ``job.py``: four imports, load a file, one
serial SSSP, export CSV — must pay only for what it runs.  A fresh
interpreter performs exactly that over a text file and a compact v2 file
and reports ``sys.modules``: the multiprocessing, checkpoint, baseline-
platform, serving, query, streaming, dataset, exporter and tracer stacks
are absent, the ``repro.*`` module count stays under a ceiling, and no
thread was started.  A new eager import at package level — or a heavy
stack reached from a module top instead of from the code that needs it —
fails here before it shows in ``batch_compact``.  The same program run
parallel and checkpointed must load those stacks and return the same
states.
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
    "tempfile",
    "shutil",
    "repro.runtime.checkpoint",
    "repro.baselines.chlonos",
    "repro.baselines.msb",
    "repro.serve",
    "repro.query",
    "repro.streaming",
    "repro.datasets",
    "repro.obs.exporters",
    "repro.core.tracing",
]

#: ``repro.*`` modules a serial job may load (66 with eager packages, 39 now).
REPRO_MODULE_CEILING = 45

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
modules = sorted(sys.modules)

import json
import threading

print(json.dumps({"modules": modules, "threads": threading.active_count(),
                  "states": states, "checkpoints": checkpoints}))
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
    assert len(ours) <= REPRO_MODULE_CEILING, ours
    # Importing and running started no thread.
    assert serial_job["threads"] == 1
    text_states, compact_states = serial_job["states"]
    assert text_states == compact_states


def test_parallel_and_checkpointed_jobs_load_their_stacks(graph_files, serial_job):
    parallel = _run_job("parallel", graph_files)
    assert "multiprocessing" in parallel["modules"]
    assert parallel["states"] == serial_job["states"]

    checkpointed = _run_job("checkpoint", graph_files)
    assert checkpointed["checkpoints"] > 0
    assert {"repro.runtime.checkpoint", "tempfile", "shutil"} <= set(
        checkpointed["modules"])
    assert "multiprocessing" not in checkpointed["modules"]
    assert checkpointed["states"] == serial_job["states"]
