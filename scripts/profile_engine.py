#!/usr/bin/env python
"""cProfile one engine run — ROADMAP item 2's "from the profile down" as one
command.

One warm-up run, then one profiled run of the same (algorithm, dataset)
through ``repro.algorithms.run_algorithm`` on the GRAPHITE platform; prints
the run's counters and the top-N functions by own time and by cumulative
time.  The defaults are the ``pr_dense`` workload of ``benchmarks/e2e``.

Usage::

    python scripts/profile_engine.py --algorithm PR --dataset mag --scale 0.3 [--top 25]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.algorithms import run_algorithm  # noqa: E402
from repro.datasets import load_surrogate  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="PR")
    parser.add_argument("--dataset", default="mag")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    graph = load_surrogate(args.dataset, args.scale)

    def run():
        return run_algorithm(args.algorithm, "GRAPHITE", graph)

    run()  # warm-up: imports, lazy module state, allocator
    profile = cProfile.Profile()
    outcome = profile.runcall(run)

    m = outcome.metrics
    print(
        f"{args.algorithm} on {args.dataset}({args.scale}): "
        f"{graph.num_vertices} vertices, {m.supersteps} supersteps, "
        f"{m.compute_calls} compute calls, {m.scatter_calls} scatter calls, "
        f"{m.messages_sent} messages, {m.message_bytes} bytes"
    )
    stats = pstats.Stats(profile, stream=sys.stdout).strip_dirs()
    for order in ("tottime", "cumulative"):
        print(f"\n== top {args.top} by {order} ==")
        stats.sort_stats(order).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
