"""Fig. 6 — GRAPHITE optimisations and memory footprint.

(a) In-memory size of each graph representation: interval (GRAPHITE),
    transformed (TGB), largest snapshot (MSB) and per-batch (Chlonos).
(b) Inline warp-combiner benefit on the long-lifespan MAG surrogate
    (paper: compute time −17..25%, makespan 1.2–1.5×).
(c) Warp-suppression benefit on unit-lifespan GPlus (paper: makespan
    −25..40%, leaving GRAPHITE within ≈7% of the baselines).
"""

from harness import (
    DATASETS,
    NUM_WORKERS,
    bench_graph,
    format_table,
    once,
    save_result,
)

from repro.algorithms.td.eat import TemporalEAT
from repro.algorithms.td.lcc import TemporalLCC
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.td.tc import TemporalTC
from repro.algorithms.td.tmst import TemporalTMST
from repro.algorithms.ti.bfs import TemporalBFS
from repro.algorithms.runners import default_source
from repro import api
from repro.graph.stats import memory_footprint
from repro.runtime.cluster import SimulatedCluster


def build_fig6a() -> tuple[str, dict]:
    sizes = {}
    rows = []
    for name in DATASETS:
        footprint = memory_footprint(bench_graph(name))
        sizes[name] = footprint
        rows.append([
            name,
            footprint["interval"],
            footprint["transformed"],
            footprint["largest_snapshot"],
            footprint["multi_snapshot_total"],
        ])
    table = format_table(
        ["Graph", "interval(B)", "transformed(B)", "largest snap(B)", "multi-snap total(B)"],
        rows,
        title="Fig 6a: modeled in-memory footprint per representation",
    )
    return table, sizes


def test_fig6a_memory(benchmark):
    table, sizes = once(benchmark, build_fig6a)
    save_result("fig6a_memory.txt", table)
    # Long-lived graphs: transformed graph dwarfs the interval graph
    # (the paper's MAG/WebUK DNL cases); unit-lifespan GPlus stays modest.
    for name in ("usrn", "twitter", "mag"):
        assert sizes[name]["transformed"] > 2.5 * sizes[name]["interval"], name
    assert sizes["gplus"]["transformed"] < 4 * sizes["gplus"]["interval"]


def _run_icm(graph, program, **options):
    engine = api.build_engine(
        graph, program, cluster=SimulatedCluster(NUM_WORKERS), options=options
    )
    return engine.run().metrics


def build_fig6b() -> tuple[str, list]:
    graph = bench_graph("mag")
    source = default_source(graph)
    rows = []
    measurements = []
    for name, program_factory in [
        ("SSSP", lambda: TemporalSSSP(source)),
        ("EAT", lambda: TemporalEAT(source)),
        ("TMST", lambda: TemporalTMST(source)),
    ]:
        # Only the *inline warp* combiner is toggled, as in the paper's
        # ablation.  Our engine additionally eliminates dominated messages
        # receiver-side (which pre-folds most groups); the ablation runs
        # with that pass disabled so the inline combiner's effect on group
        # scanning is visible, mirroring the paper's configuration, and
        # once realistically with every optimisation on.
        base = _run_icm(graph, program_factory(), enable_dominated_elimination=False,
                        enable_warp_combiner=False)
        folded = _run_icm(graph, program_factory(), enable_dominated_elimination=False)
        realistic = _run_icm(graph, program_factory())
        compute_drop = 1 - folded.modeled_compute_time / base.modeled_compute_time
        speedup = base.modeled_makespan / folded.modeled_makespan
        measurements.append((name, compute_drop, speedup))
        rows.append([
            name,
            f"{base.modeled_compute_time * 1e3:.3f}",
            f"{folded.modeled_compute_time * 1e3:.3f}",
            f"{compute_drop * 100:.1f}%",
            f"{speedup:.2f}x",
            f"{realistic.modeled_compute_time * 1e3:.3f}",
        ])
    table = format_table(
        ["Alg", "compute w/o comb (ms)", "compute w/ comb (ms)",
         "compute drop", "makespan speedup", "compute, all opts (ms)"],
        rows,
        title="Fig 6b: inline warp-combiner benefit (MAG surrogate)\n"
              "paper: compute −17..25%, makespan 1.2–1.5x",
    )
    return table, measurements


def test_fig6b_combiner(benchmark):
    table, measurements = once(benchmark, build_fig6b)
    save_result("fig6b_combiner.txt", table)
    for name, compute_drop, speedup in measurements:
        assert compute_drop > 0.05, name
        assert speedup > 1.0, name


def build_fig6c() -> tuple[str, list]:
    graph = bench_graph("gplus")
    source = default_source(graph)
    rows = []
    measurements = []
    # Suppression pays off where warp has no sharing to exploit AND the
    # message groups cannot be pre-folded: the combiner-less clustering
    # algorithms (LCC, TC) are the showcase; BFS's unit messages are
    # already collapsed by its receiver combiner, so its saving is small.
    for name, program_factory in [
        ("LCC", TemporalLCC),
        ("TC", TemporalTC),
        ("BFS", lambda: TemporalBFS(source)),
    ]:
        with_suppression = _run_icm(graph, program_factory())
        without = _run_icm(graph, program_factory(), enable_warp_suppression=False)
        drop = 1 - with_suppression.modeled_makespan / without.modeled_makespan
        measurements.append((name, drop, with_suppression.warp_suppressed_vertices))
        rows.append([
            name,
            f"{without.modeled_makespan * 1e3:.3f}",
            f"{with_suppression.modeled_makespan * 1e3:.3f}",
            f"{drop * 100:.1f}%",
            with_suppression.warp_suppressed_vertices,
        ])
    table = format_table(
        ["Alg", "makespan w/o suppr (ms)", "makespan w/ suppr (ms)",
         "drop", "suppressed vertices"],
        rows,
        title="Fig 6c: warp suppression on unit-lifespan GPlus\n"
              "paper: makespan −25..40%",
    )
    return table, measurements


def test_fig6c_suppression(benchmark):
    table, measurements = once(benchmark, build_fig6c)
    save_result("fig6c_suppression.txt", table)
    for name, drop, suppressed in measurements:
        assert suppressed > 0, name
        assert drop >= 0.0, name
    # The combiner-less algorithms show the substantial saving.
    assert measurements[0][1] > 0.05  # LCC
    assert measurements[1][1] > 0.05  # TC
