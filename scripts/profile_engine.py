#!/usr/bin/env python
"""cProfile one engine pass — ROADMAP item 2's "from the profile down" as one
command.

One warm-up pass, then one profiled pass of the same algorithms over the
same resident graph through ``repro.algorithms.run_algorithm`` on the
GRAPHITE platform; prints each run's counters, then ``calls per message``
(profiled calls ÷ messages) and how many ``Interval``, ``IntervalMessage`` and
``EdgeContext`` objects were constructed per ``scatter`` call — the message
path's allocation contract as numbers — and the top-N functions by own time
and by cumulative time.  It also prints the pending entries the runs built
per message (counted in the unprofiled warm-up pass, at P ≥ 2 in the
master's runtime only): one per same-process batch, not one per message.
``--max-calls-per-message`` and ``--max-intervals-per-scatter`` turn the
printed figures into a gate: the script exits 1 when either is above its
bound.  ``--algorithm`` takes a comma list.  The graph's
piece index is built once per graph, so the warm-up would hide it: its
one-time build is timed first and printed on its own line.  ``--window START
END`` runs the same algorithms over ``graph.window(START, END)`` — what a
served interval query runs on.  The defaults are the ``pr_dense`` workload of
``benchmarks/e2e``; ``td_frontier`` is the second usage line, a sliced
``serve_miss`` the third.

``--processes P`` (P ≥ 2) runs every pass on P processes and, for the
warm-up pass and one more unprofiled pass, prints per run whether its worker
group was forked or reused, the wall time of the group's fork (or of its
reuse: ``acquire``), of the final collect and of the close, and the minor
page faults the run cost the master (``getrusage``), each live worker
(``/proc/<pid>/stat`` field 10) and the workers that exited during it
(``RUSAGE_CHILDREN``) — the copy-on-write bill of a fork, as numbers.  ``td_frontier_2p`` is the fourth usage line.

Usage::

    python scripts/profile_engine.py --algorithm PR --dataset mag --scale 0.3 [--top 25] \
        [--max-calls-per-message 20.1 --max-intervals-per-scatter 0.71]
    python scripts/profile_engine.py --algorithm BFS,SSSP,EAT,RH,FAST,TMST,LD --dataset usrn --scale 2.0
    python scripts/profile_engine.py --algorithm BFS,SSSP,EAT,RH --dataset twitter --scale 2.0 --window 3 11
    python scripts/profile_engine.py --algorithm BFS,SSSP,EAT,RH,FAST,TMST,LD --dataset usrn --scale 2.0 --processes 2
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.algorithms import run_algorithm  # noqa: E402
from repro.core.context import EdgeContext  # noqa: E402
from repro.core.interval import Interval  # noqa: E402
from repro.core.messages import IntervalMessage  # noqa: E402
from repro.datasets import load_surrogate  # noqa: E402

#: The constructors behind each boxed type of the message path.
CONSTRUCTORS = {
    "Interval": (Interval.__init__, Interval._unchecked.__func__),
    "IntervalMessage": (IntervalMessage.__init__,),
    "EdgeContext": (EdgeContext.__init__,),
}


def _calls(stats: pstats.Stats, fn) -> int:
    code = fn.__code__
    entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


def _count_pending(counter: list):
    """Add to ``counter[0]`` the pending entries each worker runtime of this
    process holds as a superstep starts — what the superstep before built.
    Returns the function that stops counting."""
    from repro.runtime.executor import _WorkerRuntime

    step = _WorkerRuntime.step

    def counting_step(self, *args, **kwargs):
        counter[0] += len(self._pending)
        return step(self, *args, **kwargs)

    _WorkerRuntime.step = counting_step
    return lambda: setattr(_WorkerRuntime, "step", step)


def _minor_faults(pid: int) -> int:
    """Field 10 (``minflt``) of ``/proc/<pid>/stat``; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[7])
    except OSError:
        return 0


def _instrument() -> list:
    """Time the worker host's acquire / fork / collect / close into the
    returned list's last dict, which the caller replaces per run (summed
    when one run takes several groups)."""
    from repro.runtime.workers import WorkerHost

    rows: list = [{}]

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row = rows[-1]
                row[name] = row.get(name, 0.0) + time.perf_counter() - started
        return wrapper

    WorkerHost.acquire = classmethod(timed("acquire", WorkerHost.acquire.__func__))
    WorkerHost.fork = timed("fork", WorkerHost.fork)
    WorkerHost.collect = timed("collect", WorkerHost.collect)
    WorkerHost.close = timed("close", WorkerHost.close)
    return rows


def _mechanism_pass(algorithms, run_one, label: str, rows: list) -> None:
    """One pass, one line per run: forked or reused, the host's wall times
    and the minor faults of the master and of every live worker."""
    import multiprocessing as mp
    import resource

    forks = master_total = worker_total = 0
    for algorithm in algorithms:
        row = rows[-1] = {}
        before = {p.pid: _minor_faults(p.pid) for p in mp.active_children()}
        master = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        run_one(algorithm)
        master = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - master
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - reaped
        workers = {
            p.pid: _minor_faults(p.pid) - before.get(p.pid, 0)
            for p in mp.active_children()
        }
        forks += "fork" in row
        master_total += master
        worker_total += sum(workers.values()) + reaped
        times = ", ".join(
            f"{name} {1e3 * row[name]:.2f} ms"
            for name in ("acquire", "fork", "collect", "close") if name in row
        )
        print(
            f"[{label}] {algorithm}: {'forked' if 'fork' in row else 'reused'} "
            f"group; {times}; minor faults: master {master}, live workers "
            + (", ".join(f"{pid}: {n}" for pid, n in sorted(workers.items())) or "none")
            + f", workers that exited {reaped}"
        )
    print(
        f"[{label}] pass: {forks} forks, minor faults master {master_total}, "
        f"workers {worker_total}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="PR")
    parser.add_argument("--dataset", default="mag")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--window", nargs=2, type=int, default=None,
                        metavar=("START", "END"),
                        help="run over graph.window(START, END)")
    parser.add_argument("--processes", type=int, default=1,
                        help="run on P processes and print each run's worker "
                             "group mechanism (P >= 2)")
    parser.add_argument("--max-calls-per-message", type=float, default=None,
                        help="exit 1 if the printed calls per message exceed this")
    parser.add_argument("--max-intervals-per-scatter", type=float, default=None,
                        help="exit 1 if the printed Intervals constructed per "
                             "scatter call exceed this")
    args = parser.parse_args(argv)

    algorithms = args.algorithm.split(",")
    graph = load_surrogate(args.dataset, args.scale)

    started = time.perf_counter()
    indexed = [pair for vid in graph.vertex_ids() for pair in graph.piece_indexes(vid)]
    build_ms = 1e3 * (time.perf_counter() - started)
    pieces = sum(len(ix.pieces(e.lifespan.start, e.lifespan.end)) for e, ix in indexed)
    size = sum(sys.getsizeof(part) for _, ix in indexed for part in (ix, ix.cuts, ix.values))
    print(
        f"piece index of {args.dataset}({args.scale}), built once per graph: "
        f"{len(indexed)} edges, {pieces} pieces, {build_ms:.1f} ms, {size} bytes"
    )

    where = f"{args.dataset}({args.scale})"
    if args.window is not None:
        graph = graph.window(*args.window)
        where += f" during {graph.interval}"

    options = {}
    if args.processes > 1:
        options = {"executor": "parallel", "executor_processes": args.processes}

    def run_one(algorithm):
        return run_algorithm(algorithm, "GRAPHITE", graph, icm_options=options)

    def run():
        return [run_one(a) for a in algorithms]

    pending = [0]
    stop_counting = _count_pending(pending)
    if args.processes > 1:
        # The warm-up forks each graph's group; the next pass shows reuse.
        rows = _instrument()
        _mechanism_pass(algorithms, run_one, "warm-up", rows)
        stop_counting()
        _mechanism_pass(algorithms, run_one, "steady", rows)
    else:
        run()  # warm-up: imports, lazy module state, allocator
        stop_counting()
    profile = cProfile.Profile()
    messages = scatter_calls = 0
    for outcome in profile.runcall(run):
        m = outcome.metrics
        messages += m.messages_sent
        scatter_calls += m.scatter_calls
        print(
            f"{outcome.algorithm} on {where}: "
            f"{graph.num_vertices} vertices, {m.supersteps} supersteps, "
            f"{m.compute_calls} compute calls, {m.scatter_calls} scatter calls, "
            f"{m.messages_sent} messages, {m.message_bytes} bytes"
        )
    stats = pstats.Stats(profile, stream=sys.stdout)
    # The gates read the figures as printed.
    calls_per_message = round(stats.total_calls / max(messages, 1), 1)
    print(
        f"calls per message: {stats.total_calls} profiled calls / "
        f"{messages} messages = {calls_per_message:.1f}"
    )
    print(
        f"pending entries built per message: {pending[0]} entries / "
        f"{messages} messages = {pending[0] / max(messages, 1):.2f}"
    )
    built = {
        name: round(sum(_calls(stats, fn) for fn in fns) / max(scatter_calls, 1), 2)
        for name, fns in CONSTRUCTORS.items()
    }
    print(
        f"constructed per scatter call ({scatter_calls} calls): "
        + ", ".join(f"{name} {n:.2f}" for name, n in built.items())
    )
    failed = [
        f"{label} {value} > {bound}"
        for label, value, bound in (
            ("calls per message", calls_per_message, args.max_calls_per_message),
            ("Intervals per scatter call", built["Interval"], args.max_intervals_per_scatter),
        )
        if bound is not None and value > bound
    ]
    stats.strip_dirs()
    for order in ("tottime", "cumulative"):
        print(f"\n== top {args.top} by {order} ==")
        stats.sort_stats(order).print_stats(args.top)
    for line in failed:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
