"""Figs. 1–3 — the paper's illustrative figures, regenerated as text.

* **Fig. 1** — the transit network in its three representations: interval
  graph (1a), transformed graph (1b) and multi-snapshot graph (1c),
  including the intro's headline unit counts (the interval-centric view is
  a fraction of the transformed one).
* **Fig. 2** — the superstep-by-superstep SSSP execution, rendered from
  the engine's tracer (states, warp groups, scatters, messages).
* **Fig. 3** — the detailed warp example: three partitioned states,
  five messages, and the output triples.
"""

from harness import format_table, once, save_result

from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.interval import Interval
from repro.core.tracing import ExecutionTracer
from repro.core.warp import time_warp
from repro.api import build_engine, load_graph
from repro.graph.snapshots import snapshot_sizes
from repro.graph.transform import CHAIN, build_transformed_graph


def build_fig1() -> tuple[str, dict]:
    graph = load_graph("transit")
    horizon = 10
    transformed = build_transformed_graph(graph, horizon=horizon)
    app_edges = sum(1 for e in transformed.edges() if not e.get(CHAIN))
    chain_edges = transformed.num_edges - app_edges
    sizes = snapshot_sizes(graph, horizon)

    lines = ["Fig 1a: interval graph (vertices perpetual, edges = departure windows)"]
    for edge in sorted(graph.edges(), key=lambda e: str(e.eid)):
        costs = ", ".join(
            f"{iv}:cost {v}" for iv, v in edge.properties.timeline("travel-cost")
        )
        lines.append(f"  {edge.src} -> {edge.dst}  departs {edge.lifespan}  ({costs})")

    lines.append("")
    lines.append("Fig 1b: transformed graph (replicas per active time-point)")
    lines.append(f"  {transformed.num_vertices} replicas, "
                 f"{app_edges} application edges + {chain_edges} chain edges")

    lines.append("")
    lines.append("Fig 1c: multi-snapshot graph")
    for t, nv, ne in sizes:
        lines.append(f"  S{t}: {nv} vertices, {ne} edges")

    counts = {
        "interval": (graph.num_vertices, graph.num_edges),
        "transformed": (transformed.num_vertices, transformed.num_edges),
        "multi_snapshot": (sum(nv for _, nv, _ in sizes), sum(ne for _, _, ne in sizes)),
    }
    return "\n".join(lines), counts


def test_fig1_views(benchmark):
    text, counts = once(benchmark, build_fig1)
    save_result("fig1_views.txt", text)
    # The intro's size story: interval ≪ transformed ≪/≈ multi-snapshot.
    assert counts["interval"][0] < counts["transformed"][0]
    assert counts["interval"][1] < counts["transformed"][1]
    assert counts["interval"][0] < counts["multi_snapshot"][0]


def build_fig2() -> tuple[str, int]:
    tracer = ExecutionTracer()
    engine = build_engine(
        load_graph("transit"), TemporalSSSP("A"),
        options={"tracer": tracer, "enable_warp_combiner": False},
    )
    result = engine.run()
    header = ("Fig 2: SSSP execution on the transit network (source A, "
              "travel time 1)\n")
    states = ["final partitioned states:"]
    for vid in "ABCDEF":
        states.append(f"  {vid}: {result.states[vid]}")
    return header + tracer.render() + "\n\n" + "\n".join(states), result.metrics.supersteps


def test_fig2_trace(benchmark):
    text, supersteps = once(benchmark, build_fig2)
    save_result("fig2_trace.txt", text)
    assert supersteps == 3
    # The paper's traced warp groups appear verbatim in the render.
    assert "compute 'B' @ [4, 6)" in text
    assert "compute 'E' @ [9, inf)" in text
    assert "msgs=[7]" in text  # E's [6,9) group


def build_fig3() -> str:
    states = [(Interval(0, 5), "s1"), (Interval(5, 9), "s2"), (Interval(9, 10), "s3")]
    messages = [
        (Interval(0, 4), "m1"), (Interval(2, 7), "m2"), (Interval(7, 9), "m3"),
        (Interval(9, 10), "m4"), (Interval(5, 7), "m5"),
    ]
    triples = time_warp(states, messages)
    rows = [[str(iv), s, "{" + ", ".join(sorted(group)) + "}"]
            for iv, s, group in triples]
    return format_table(
        ["interval", "state", "message group"],
        rows,
        title="Fig 3: time-warp of 3 partitioned states with 5 messages\n"
              "(boundaries 0,2,4,5,7,9,10 — one compute call per row)",
    )


def test_fig3_warp_example(benchmark):
    table = once(benchmark, build_fig3)
    save_result("fig3_warp.txt", table)
    assert "{m1, m2}" in table
    assert table.count("s1") == 3  # s1 split across three groups