"""Ablations of GRAPHITE's design choices beyond the paper's own figures.

* varint vs fixed-width interval messages (Sec. VI claims a 59–78% drop in
  message sizes);
* Chlonos batch-size sweep (memory-pressure model behind Table 2);
* warp-suppression threshold sweep (the 70% default of Sec. VI);
* hash vs contiguous-range partitioning (message locality; the paper notes
  hash partitioning left 70% of TGB's messages on half the partitions).
"""

from harness import (
    NUM_WORKERS,
    bench_graph,
    format_table,
    once,
    save_result,
)

from repro import api
from repro.algorithms.runners import default_source
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.bfs import TemporalBFS
from repro.baselines.chlonos import run_chlonos
from repro.baselines.ti.bfs import SnapshotBFS
from repro.core.engine import IntervalCentricEngine
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.partitioner import RangePartitioner


def build_varint_ablation() -> tuple[str, float]:
    graph = bench_graph("mag")
    source = default_source(graph)
    sizes = {}
    for varint in (True, False):
        cluster = SimulatedCluster(NUM_WORKERS, varint_encoding=varint)
        result = IntervalCentricEngine(graph, TemporalSSSP(source), cluster=cluster).run()
        sizes[varint] = result.metrics.message_bytes
    drop = 1 - sizes[True] / sizes[False]
    table = format_table(
        ["encoding", "message bytes"],
        [["fixed-width (2 longs + 8B payload)", sizes[False]],
         ["varint + unit/∞ flags", sizes[True]],
         ["size drop", f"{drop * 100:.1f}%"]],
        title="Ablation: interval-message encoding (paper: 59–78% drop)",
    )
    return table, drop


def test_varint_encoding(benchmark):
    table, drop = once(benchmark, build_varint_ablation)
    save_result("ablation_varint.txt", table)
    assert 0.5 < drop < 0.95


def build_batch_sweep() -> tuple[str, list]:
    graph = bench_graph("twitter")
    source = default_source(graph)
    horizon = graph.time_horizon()
    rows = []
    series = []
    for batch_size in (1, 2, 4, 8, None):
        res = run_chlonos(
            graph, lambda t: SnapshotBFS(source), batch_size=batch_size,
            cluster=SimulatedCluster(NUM_WORKERS), graph_name="twitter",
        )
        label = batch_size if batch_size is not None else horizon
        series.append((label, res.metrics.messages_sent, res.metrics.modeled_makespan))
        rows.append([
            label,
            res.num_batches,
            res.metrics.messages_sent,
            res.metrics.shared_messages,
            f"{res.metrics.modeled_makespan * 1e3:.2f}",
        ])
    table = format_table(
        ["batch size", "batches", "messages", "shared", "makespan (ms)"],
        rows,
        title="Ablation: Chlonos batch size on Twitter surrogate\n"
              "(bigger batches share more adjacent-snapshot messages)",
    )
    return table, series


def test_chlonos_batch_sweep(benchmark):
    table, series = once(benchmark, build_batch_sweep)
    save_result("ablation_chlonos_batch.txt", table)
    # Messages decrease monotonically as batches grow.
    messages = [msgs for _, msgs, _ in series]
    assert messages == sorted(messages, reverse=True)
    # batch=1 degenerates to MSB: no sharing at all.
    assert series[0][1] > series[-1][1]


def build_suppression_sweep() -> tuple[str, list]:
    graph = bench_graph("gplus")
    source = default_source(graph)
    rows = []
    series = []
    from repro.algorithms.td.lcc import TemporalLCC

    for threshold in (0.0, 0.3, 0.5, 0.7, 0.9, 1.01):
        engine = api.build_engine(
            graph, TemporalLCC(), cluster=SimulatedCluster(NUM_WORKERS),
            options={"warp_suppression_threshold": threshold},
        )
        metrics = engine.run().metrics
        series.append((threshold, metrics.warp_suppressed_vertices, metrics.modeled_makespan))
        rows.append([
            threshold,
            metrics.warp_suppressed_vertices,
            metrics.warp_calls,
            f"{metrics.modeled_makespan * 1e3:.3f}",
        ])
    table = format_table(
        ["threshold", "suppressed", "warped", "makespan (ms)"],
        rows,
        title="Ablation: warp-suppression threshold on GPlus (default 0.70)",
    )
    return table, series


def test_suppression_threshold_sweep(benchmark):
    table, series = once(benchmark, build_suppression_sweep)
    save_result("ablation_suppression_threshold.txt", table)
    # Lower thresholds suppress at least as many vertices.
    suppressed = [s for _, s, _ in series]
    assert suppressed == sorted(suppressed, reverse=True)
    # On a unit-lifespan graph, an always-suppress policy beats never.
    assert series[0][2] <= series[-1][2]


def build_domination_ablation() -> tuple[str, dict]:
    """Dominated-message elimination on/off (our receiver-combiner
    extension): the pre-folding that keeps warp groups coarse for
    monotone algorithms."""
    from repro.algorithms.td.eat import TemporalEAT

    graph = bench_graph("mag")
    source = default_source(graph)
    rows = []
    reductions = {}
    for name, program_factory in [
        ("SSSP", lambda: TemporalSSSP(source)),
        ("EAT", lambda: TemporalEAT(source)),
    ]:
        with_elim = IntervalCentricEngine(
            graph, program_factory(), cluster=SimulatedCluster(NUM_WORKERS)
        ).run().metrics
        without = api.run(
            graph, program_factory(), cluster=SimulatedCluster(NUM_WORKERS),
            options={"enable_dominated_elimination": False},
        ).metrics
        reductions[name] = (
            1 - with_elim.compute_calls / without.compute_calls,
            1 - with_elim.messages_sent / without.messages_sent,
        )
        rows.append([
            name,
            without.compute_calls, with_elim.compute_calls,
            without.messages_sent, with_elim.messages_sent,
            f"{reductions[name][0] * 100:.0f}% / {reductions[name][1] * 100:.0f}%",
        ])
    table = format_table(
        ["Alg", "calls w/o", "calls w/", "msgs w/o", "msgs w/", "drop (calls/msgs)"],
        rows,
        title="Ablation: dominated-message elimination (MAG surrogate)",
    )
    return table, reductions


def test_dominated_elimination(benchmark):
    table, reductions = once(benchmark, build_domination_ablation)
    save_result("ablation_domination.txt", table)
    for name, (call_drop, msg_drop) in reductions.items():
        assert call_drop > 0.1, name
        assert msg_drop > 0.1, name


def build_partitioner_ablation() -> tuple[str, dict]:
    graph = bench_graph("twitter")
    source = default_source(graph)
    results = {}
    rows = []
    for name, make_cluster in [
        ("hash", lambda: SimulatedCluster(NUM_WORKERS)),
        ("range", lambda: SimulatedCluster(
            NUM_WORKERS,
            partitioner=RangePartitioner(NUM_WORKERS, graph.vertex_ids()),
        )),
    ]:
        result = IntervalCentricEngine(
            graph, TemporalBFS(source), cluster=make_cluster()
        ).run()
        m = result.metrics
        local_fraction = m.local_messages / max(1, m.local_messages + m.remote_messages)
        results[name] = local_fraction
        rows.append([name, m.local_messages, m.remote_messages, f"{local_fraction * 100:.1f}%"])
    table = format_table(
        ["partitioner", "local msgs", "remote msgs", "local fraction"],
        rows,
        title="Ablation: vertex partitioning vs message locality",
    )
    return table, results


def test_partitioner_locality(benchmark):
    table, results = once(benchmark, build_partitioner_ablation)
    save_result("ablation_partitioner.txt", table)
    # Hash partitioning of a power-law graph keeps most messages remote
    # (the locality problem the paper observes for TGB's skewed traffic).
    assert results["hash"] < 0.4
