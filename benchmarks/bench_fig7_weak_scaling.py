"""Fig. 7 — weak scaling of GRAPHITE.

The paper fixes the per-machine load (≈10M vertices / 100M edges per
machine) and grows machines m ∈ {1, 2, 4, 8, 10} with an LDBC-generated,
LinkBench-perturbed graph; the makespan stays nearly constant (95–106%
scaling efficiency).

Here the LDBC-style generator produces ``m × per-machine`` load, the
simulated cluster gets ``m`` workers, and efficiency is measured on the
modeled makespan (per-worker compute is the scaling-relevant term: it
stays constant per machine when scaling is ideal).

Next to the modeled series, each point is re-run under the *parallel
executor* (``m`` simulated workers mapped onto real worker processes) and
its measured wall clock is reported.  The measured series is informational
— it tracks the host's core count and load, so no assertion binds it.
"""

import os

from harness import format_table, once, save_result

from repro import api
from repro.algorithms.runners import default_source
from repro.algorithms.td.eat import TemporalEAT
from repro.algorithms.td.reach import TemporalReachability
from repro.algorithms.ti.bfs import TemporalBFS
from repro.algorithms.ti.wcc import TemporalWCC, make_undirected
from repro.core.engine import IntervalCentricEngine
from repro.datasets import ldbc_graph
from repro.runtime.cluster import SimulatedCluster

MACHINES = (1, 2, 4, 8, 10)


def build_fig7() -> tuple[str, dict]:
    algorithms = {
        "BFS": lambda g: (g, TemporalBFS(default_source(g))),
        "WCC": lambda g: (make_undirected(g), TemporalWCC()),
        "EAT": lambda g: (g, TemporalEAT(default_source(g))),
        "RH": lambda g: (g, TemporalReachability(default_source(g))),
    }
    makespans: dict[str, tuple[dict[int, float], dict[int, int]]] = {
        name: ({}, {}) for name in algorithms
    }
    measured: dict[str, dict[int, float]] = {name: {} for name in algorithms}
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    for m in MACHINES:
        graph = ldbc_graph(m)
        for name, prepare in algorithms.items():
            run_graph, program = prepare(graph)
            engine = IntervalCentricEngine(
                run_graph, program, cluster=SimulatedCluster(m), graph_name=f"ldbc-{m}m"
            )
            result = engine.run()
            makespans[name][0][m] = result.metrics.modeled_makespan
            makespans[name][1][m] = result.metrics.supersteps
            # Measured counterpart: the same run through real worker
            # processes (capped at the host's cores; the modeled series
            # above is what carries the scaling claim).
            run_graph2, program2 = prepare(graph)
            wall = api.run(
                run_graph2, program2, cluster=SimulatedCluster(m),
                graph_name=f"ldbc-{m}m",
                options={"executor": "parallel", "executor_processes": min(m, cores)},
            )
            measured[name][m] = wall.metrics.makespan

    rows = []
    efficiencies: dict[str, dict[int, float]] = {}
    per_step_eff: dict[str, dict[int, float]] = {}
    for name, (series, steps) in makespans.items():
        base = series[MACHINES[0]]
        base_per_step = base / steps[MACHINES[0]]
        efficiencies[name] = {m: base / series[m] for m in MACHINES}
        per_step_eff[name] = {
            m: base_per_step / (series[m] / steps[m]) for m in MACHINES
        }
        rows.append([
            name,
            *(f"{series[m] * 1e3:.2f}" for m in MACHINES),
            *(f"{measured[name][m] * 1e3:.1f}" for m in MACHINES),
            *(f"{efficiencies[name][m] * 100:.0f}%" for m in MACHINES[1:]),
            *(f"{per_step_eff[name][m] * 100:.0f}%" for m in MACHINES[1:]),
        ])
    headers = ["Alg", *(f"{m}M (ms)" for m in MACHINES),
               *(f"wall@{m}M" for m in MACHINES),
               *(f"eff@{m}M" for m in MACHINES[1:]),
               *(f"step-eff@{m}M" for m in MACHINES[1:])]
    table = format_table(
        headers, rows,
        title="Fig 7: weak scaling — fixed per-machine load, m machines\n"
              "paper: makespan ≈ constant, efficiency 95–106%.\n"
              "step-eff normalises by superstep count: at surrogate scale\n"
              "traversal depth still grows noticeably with graph size\n"
              "(200→2000 vertices), which the paper's 10M+/machine sizes\n"
              "do not exhibit.\n"
              f"wall@mM: measured wall clock (ms) of the same run under the\n"
              f"parallel executor with min(m, {os.cpu_count()}) worker\n"
              "processes — informational, host-dependent, unasserted.",
    )
    return table, (efficiencies, per_step_eff, measured)


def test_fig7_weak_scaling(benchmark):
    table, (efficiencies, per_step_eff, measured) = once(benchmark, build_fig7)
    save_result("fig7_weak_scaling.txt", table)
    # Near-constant per-superstep cost: the BSP machinery weak-scales.
    for name, series in per_step_eff.items():
        for m, eff in series.items():
            assert eff > 0.6, (name, m, eff)
    # Raw efficiency still stays reasonable despite depth growth.
    for name, series in efficiencies.items():
        for m, eff in series.items():
            assert eff > 0.45, (name, m, eff)
    # Measured walls exist for every point; their values are host-dependent
    # (core count, load) so nothing further is asserted about them.
    for name, series in measured.items():
        assert set(series) == set(MACHINES)
        assert all(wall > 0 for wall in series.values()), (name, series)
