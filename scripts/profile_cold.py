#!/usr/bin/env python
"""Time one cold batch job stage by stage — the cold-path sibling of
profile_engine.py / profile_load.py.

Writes ``--dataset/--scale`` as a text file and a compact v3 file, then per
``--store`` runs the ``batch_*`` job in a fresh interpreter (best of
``--repeat``) and prints: interpreter start; the job's four imports with the
``repro.*`` / total module counts they add to what start-up loaded; load;
``default_source``; the first SSSP against the second (the difference is
first touch: the piece index and the modules a run imports when it
starts); the lines of ``repro.*`` source each stage imported; the
first-touch index build over *every* edge of a freshly loaded graph in
µs/edge, on its own line; and the top-N imports by own time from one
``-X importtime`` pass.
The defaults are the ``batch_text`` / ``batch_compact`` file.

What "own time" measures depends on the child's ``sys.dont_write_bytecode``
(printed): with ``PYTHONDONTWRITEBYTECODE`` set, as the benchmark's children
inherit it, no ``.pyc`` is written or trusted to be there, so every import
compiles its module from source and its own time follows the module's
length — hence the per-stage source line counts.  Without it, a warm
``__pycache__`` makes an import an unmarshal.

Find candidates with it; judge them with
``python3 benchmarks/e2e/run.py --workload batch_compact`` (and
``batch_text``) against a clone of the parent.

Usage::

    python scripts/profile_cold.py --dataset usrn --scale 4.0 [--store text|compact] [--top 12]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

_IMPORTS = """
from repro import api
from repro.algorithms import default_source
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.results_io import export_states_csv
"""

# The job, with a stopwatch between its stages.  The interpreter starts with
# ``site``, as the benchmark's children do, and site start-up may preload
# modules (a ``.pth`` file can import whole stdlib stacks), so the module
# counts are what the job's imports add to a snapshot taken before them.
_JOB = """
import sys, time
clock = time.perf_counter
preloaded = set(sys.modules)

def repro_lines():
    lines = 0
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            with open(module.__file__, "rb") as source:
                lines += source.read().count(b"\\n")
    return lines

started = clock()
""" + _IMPORTS + """
stages = {"imports": clock() - started}
added = set(sys.modules) - preloaded
stages["repro_modules"] = sum(m == "repro" or m.startswith("repro.") for m in added)
stages["modules"] = len(added)
stages["dont_write_bytecode"] = sys.dont_write_bytecode
lines = {"imports": repro_lines()}

def timed(name, fn, *args):
    before = repro_lines()
    t0 = clock()
    out = fn(*args)
    stages[name] = clock() - t0
    lines[name] = repro_lines() - before
    return out

path, out_csv = sys.argv[1:]
graph = timed("load", api.load_graph, path)
source = timed("default_source", default_source, graph)
result = timed("first_run", api.run, graph, TemporalSSSP(source))
timed("second_run", api.run, graph, TemporalSSSP(source))
timed("export", export_states_csv, result, out_csv)
fresh = api.load_graph(path)
stages["edges"] = timed(
    "index_build", lambda: sum(len(fresh.piece_indexes(v)) for v in fresh.vertex_ids()))
stages["lines"] = lines
import json
print(json.dumps(stages))
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def interpreter_start(repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        best = min(best, time.perf_counter() - t0)
    return best


def run_job(path: str, out_csv: str, repeat: int) -> dict:
    """Each stage's best over ``repeat`` fresh interpreters."""
    best: dict = {}
    for _ in range(repeat):
        out = subprocess.run(
            [sys.executable, "-c", _JOB, path, out_csv],
            env=child_env(), check=True, capture_output=True, text=True,
        ).stdout
        for name, value in json.loads(out.splitlines()[-1]).items():
            best[name] = value if isinstance(value, (bool, dict)) else min(
                best.get(name, value), value)
    return best


def import_self_times(top: int) -> list[tuple[float, str]]:
    """Top imports by own time, from ``-X importtime``'s stderr lines
    (``import time: self [us] | cumulative | name``)."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _IMPORTS],
        env=child_env(), check=True, capture_output=True, text=True,
    ).stderr
    rows = []
    for line in err.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            rows.append((int(fields[0]) / 1e3, fields[2].strip()))
    return sorted(rows, reverse=True)[:top]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="usrn")
    parser.add_argument("--scale", type=float, default=4.0)
    parser.add_argument("--store", choices=("text", "compact"), default=None,
                        help="profile one file kind (default: both)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    from repro.datasets import load_surrogate
    from repro.graph.compact import CompactGraph
    from repro.graph.io import dump_graph

    with tempfile.TemporaryDirectory() as tmp:
        graph = load_surrogate(args.dataset, args.scale)
        files = {"text": os.path.join(tmp, "graph.txt"),
                 "compact": os.path.join(tmp, "graph.itgr")}
        dump_graph(graph, files["text"])
        CompactGraph.from_temporal(graph).dump(files["compact"])
        print(f"{args.dataset}({args.scale}): {graph.num_vertices} vertices, "
              f"{graph.num_edges} edges; text {os.path.getsize(files['text'])} bytes, "
              f"compact {os.path.getsize(files['compact'])} bytes")
        print(f"interpreter start: {1e3 * interpreter_start(args.repeat):.1f} ms "
              f"(best of {args.repeat}, as every line below)")
        for store in (args.store,) if args.store else ("text", "compact"):
            s = run_job(files[store], os.path.join(tmp, "out.csv"), args.repeat)
            print(f"\n== {store} == (child sys.dont_write_bytecode="
                  f"{s['dont_write_bytecode']}: imports "
                  f"{'compile from source' if s['dont_write_bytecode'] else 'may read __pycache__'})")
            print(f"imports: {1e3 * s['imports']:.1f} ms — add {s['repro_modules']} repro.* "
                  f"modules, {s['modules']} modules in all")
            print(f"load {1e3 * s['load']:.1f} ms, default_source "
                  f"{1e3 * s['default_source']:.1f} ms, first run "
                  f"{1e3 * s['first_run']:.1f} ms, second run "
                  f"{1e3 * s['second_run']:.1f} ms (first touch "
                  f"{1e3 * (s['first_run'] - s['second_run']):.1f} ms), export "
                  f"{1e3 * s['export']:.1f} ms")
            print("repro.* source lines imported per stage: " + ", ".join(
                f"{stage} {n}" for stage, n in s["lines"].items()))
            print(f"first-touch index build: {s['edges']} edges in "
                  f"{1e3 * s['index_build']:.1f} ms = "
                  f"{1e6 * s['index_build'] / max(s['edges'], 1):.2f} us/edge")
    print(f"\n== top {args.top} imports by own time (-X importtime, one pass) ==")
    for ms, name in import_self_times(args.top):
        print(f"{ms:8.2f} ms  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
