#!/usr/bin/env python
"""cProfile one text-graph load — the load-side sibling of profile_engine.py.

Loads a text graph (``--file PATH``, or ``--dataset/--scale`` dumped to a
temporary file) and prints: its rows and rows/s; how many values went to
``ast.literal_eval`` (0 for a ``dump_graph``-written file of non-negative
ints, which are read without it); the load time with the
cyclic collector left on (``repro.graph.io.load_graph`` called directly)
against paused (``api.load_graph``, the front door, which pauses it) — best
of ``--repeat`` alternating passes each; and the top-N functions of one
profiled front-door load by own and by cumulative time.  The defaults are
the ``batch_text`` workload's file.

Usage::

    python scripts/profile_load.py --dataset usrn --scale 4.0 [--top 25]
    python scripts/profile_load.py --file graph.txt
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import gc
import os
import pstats
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402
from repro.datasets import load_surrogate  # noqa: E402
from repro.graph.io import dump_graph, load_graph  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--file", default=None, help="a text graph; overrides --dataset")
    parser.add_argument("--dataset", default="usrn")
    parser.add_argument("--scale", type=float, default=4.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        path, where = args.file, args.file
        if path is None:
            path = os.path.join(tmp, "graph.txt")
            where = f"{args.dataset}({args.scale})"
            dump_graph(load_surrogate(args.dataset, args.scale), path)
        return profile(path, where, args.repeat, args.top)


def front_door(path):
    return api.load_graph(path, format="text")


def timed(loader, path) -> float:
    started = time.perf_counter()
    loader(path)
    return time.perf_counter() - started


def profile(path: str, where: str, repeat: int, top: int) -> int:
    with open(path, "rb") as fh:
        rows = sum(1 for line in fh if line.strip() and not line.startswith(b"#"))

    with mock.patch.object(ast, "literal_eval", wraps=ast.literal_eval) as fallback:
        graph = front_door(path)
    print(
        f"{where}: {os.path.getsize(path)} bytes, {rows} rows, "
        f"{graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"{fallback.call_count} values went to ast.literal_eval"
    )
    del graph

    gc.enable()
    collecting, paused = [], []
    for _ in range(repeat):
        collecting.append(timed(load_graph, path))
        paused.append(timed(front_door, path))
    on, off = min(collecting), min(paused)
    print(
        f"load, collector left on: {1e3 * on:.1f} ms; paused (api.load_graph): "
        f"{1e3 * off:.1f} ms, {rows / off:,.0f} rows/s — the collector is "
        f"{100 * (on - off) / on:.0f} % of an unpaused load (best of {repeat})"
    )

    profiler = cProfile.Profile()
    profiler.runcall(front_door, path)
    stats = pstats.Stats(profiler, stream=sys.stdout).strip_dirs()
    for order in ("tottime", "cumulative"):
        print(f"\n== top {top} by {order} ==")
        stats.sort_stats(order).print_stats(top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
