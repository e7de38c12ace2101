"""The zero-copy window view against its oracle, the materialised slice.

``graph.window(a, b)`` (`repro.graph.window.GraphWindow`) must be
indistinguishable from ``temporal_slice(graph, [a, b))`` to everything
that reads a graph: same entities in the same order, same clipped
lifespans and properties, same scatter pieces, same horizon — and, the
load-bearing claim, the same *run*: states, aggregates and every exact
counter, for all 12 algorithms through ``run_algorithm``, on both stores
and both executors.

Seeded cases (fixed ``RANDOM_SEED``, one generated graph and window per
case; a failure names its seed): vertex lifespans that straddle and miss
the window, property pieces cut by it, unbounded ends; odd cases run with
``prepartition_by_vertex_properties``; one store's view per case has been
through ``pickle`` (what a spawned worker receives).
"""

import pickle
import random

import pytest

from repro.algorithms import ALL_ALGORITHMS, run_algorithm
from repro.core.interval import FOREVER, Interval
from repro.datasets import transit_graph
from repro.graph import CompactGraph, GraphWindow, TemporalGraphBuilder
from repro.query.slice import temporal_slice
from repro.runtime.cluster import SimulatedCluster

from ..runtime.test_golden_serial import BASE, EXECUTORS, fingerprint
from .test_compact import assert_graphs_identical

RANDOM_SEED = 0x1C3D
CASES = 30
#: The first cases also run on two worker processes (a fork per run).
PARALLEL_CASES = 8


def make_case(case: int):
    """``(seed, graph, window)`` — the window always selects a vertex."""
    seed = RANDOM_SEED + case
    rng = random.Random(seed)
    while True:
        graph = _random_graph(rng)
        start = rng.randint(0, 12)
        end = FOREVER if rng.random() < 0.25 else start + rng.randint(2, 14)
        window = Interval(start, end)
        if any(v.lifespan.overlaps(window) for v in graph.vertices()):
            return seed, graph, window


def _random_graph(rng: random.Random):
    builder = TemporalGraphBuilder()
    spans = {}
    for i in range(rng.randint(4, 10)):
        start = rng.randint(0, 8)
        end = FOREVER if rng.random() < 0.3 else start + rng.randint(4, 24)
        spans[f"v{i}"] = Interval(start, end)
        builder.add_vertex(f"v{i}", start, end,
                           props=_random_props(rng, spans[f"v{i}"], ("tag",)))
    vids = list(spans)
    for _ in range(rng.randint(2 * len(vids), 4 * len(vids))):
        src, dst = rng.sample(vids, 2)
        common = spans[src].intersect(spans[dst])
        if common is None:
            continue
        hi = min(common.end, common.start + 20)
        start = rng.randint(common.start, min(hi - 1, common.start + 8))
        end = common.end if rng.random() < 0.4 else rng.randint(start + 1, hi)
        builder.add_edge(
            src, dst, start, end,
            props=_random_props(rng, Interval(start, end),
                                ("travel-time", "travel-cost")),
        )
    return builder.build()


def _random_props(rng, lifespan: Interval, labels):
    """Per label, maybe a run of consecutive entries inside ``lifespan``
    (with holes), values 1–3."""
    props = {}
    hi = min(lifespan.end, lifespan.start + 16)
    for label in labels:
        if hi - lifespan.start < 2 or rng.random() < 0.3:
            continue
        cuts = sorted(rng.sample(range(lifespan.start, hi + 1),
                                 rng.randint(2, min(5, hi - lifespan.start + 1))))
        entries = [(lo, up, rng.randint(1, 3))
                   for lo, up in zip(cuts, cuts[1:]) if rng.random() < 0.85]
        if entries:
            props[label] = entries
    return props or None


def _run(graph, algorithm, executor, prepartition):
    outcome = run_algorithm(
        algorithm, "GRAPHITE", graph, cluster=SimulatedCluster(4),
        graph_name="case", config=BASE,
        icm_options={**EXECUTORS[executor],
                     "prepartition_by_vertex_properties": prepartition},
    )
    return fingerprint(outcome.result, outcome.metrics)


@pytest.mark.parametrize("case", range(CASES))
def test_run_on_window_equals_run_on_materialised_slice(case, stores):
    seed, graph, window = make_case(case)
    # The oracle runs on the slice in every store; the views must match all.
    slices = {name: put(temporal_slice(graph, window)) for name, put in stores}
    views = {
        "heap": graph.window(window.start, window.end),
        "compact": CompactGraph.from_temporal(graph).window(window.start, window.end),
    }
    pickled = ("heap", "compact")[case % 2]
    views[pickled] = pickle.loads(pickle.dumps(views[pickled]))
    prepartition = bool(case % 2)
    executors = ("serial", "parallel") if case < PARALLEL_CASES else ("serial",)
    for algorithm in ALL_ALGORITHMS:
        wants = {name: _run(sliced, algorithm, "serial", prepartition)
                 for name, sliced in slices.items()}
        want = wants["heap"]
        assert wants["compact"] == want, (
            f"seed {seed:#x}: {algorithm} over {window} differs between the "
            f"heap and the compact slice"
        )
        for store, view in views.items():
            for executor in executors:
                got = _run(view, algorithm, executor, prepartition)
                assert got == want, (
                    f"seed {seed:#x}: {algorithm} over {window} on the {store} "
                    f"view ({executor}) differs from the run on the slice"
                )


@pytest.mark.parametrize("case", range(CASES))
def test_window_reads_like_the_materialised_slice(case):
    """The read protocol itself, entity by entity — including what the
    engine never asks a view for (clipped properties, ``pieces``,
    ``reversed``)."""
    seed, graph, window = make_case(case)
    sliced = temporal_slice(graph, window)
    for store in (graph, CompactGraph.from_temporal(graph)):
        view = store.window(window.start, window.end)
        assert isinstance(view, GraphWindow)
        assert_graphs_identical(view, sliced)
        assert view.num_vertices == sliced.num_vertices, hex(seed)
        assert view.num_edges == sliced.num_edges
        assert view.vertex_ids() == sliced.vertex_ids()
        assert view.lifespan() == sliced.lifespan()
        assert view.time_horizon() == sliced.time_horizon(), hex(seed)
        assert view.time_horizon(7) == sliced.time_horizon(7)
        for v in graph.vertices():
            assert view.has_vertex(v.vid) == sliced.has_vertex(v.vid)
            got = [(e.eid, [(iv, values) for iv, values in index.pieces(
                        e.lifespan.start, e.lifespan.end)])
                   for e, index in view.piece_indexes(v.vid)]
            want = [(e.eid, [(iv, values) for iv, values in index.pieces(
                         e.lifespan.start, e.lifespan.end)])
                    for e, index in sliced.piece_indexes(v.vid)]
            assert got == want, hex(seed)
        assert not view.has_vertex("nobody")
        for mine, theirs in zip(view.edges(), sliced.edges()):
            assert ([(iv, p.values) for iv, p in mine.pieces(window)]
                    == [(iv, p.values) for iv, p in theirs.pieces(window)])
        assert_graphs_identical(view.reversed(), sliced.reversed())


def test_cases_cover_the_shapes_the_view_must_handle():
    straddling = missing = cut = unbounded_window = unbounded_entity = 0
    for case in range(CASES):
        _, graph, window = make_case(case)
        unbounded_window += window.is_unbounded
        for v in graph.vertices():
            clipped = v.lifespan.intersect(window)
            missing += clipped is None
            straddling += clipped is not None and clipped != v.lifespan
            unbounded_entity += v.lifespan.is_unbounded
        for e in graph.edges():
            for label in e.properties:
                for iv, _ in e.properties.timeline(label):
                    clipped = iv.intersect(window)
                    cut += clipped is not None and clipped != iv
    assert min(straddling, missing, cut, unbounded_window, unbounded_entity) > 0


def test_a_view_shares_the_resident_index_and_keeps_nothing_on_the_graph():
    graph = transit_graph()
    resident = {id(index) for vid in graph.vertex_ids()
                for _, index in graph.piece_indexes(vid)}
    before = set(vars(graph))
    view = graph.window(2, 6)
    seen = {id(index) for vid in view.vertex_ids()
            for _, index in view.piece_indexes(vid)}
    assert seen and seen <= resident
    assert set(vars(graph)) == before
    # An entity inside the window is the resident object itself.
    inside = [e for e in graph.edges() if e.lifespan.within(view.interval)]
    assert inside and all(
        any(c is e for c in view.out_edges(e.src)) for e in inside)


def test_horizon_of_an_unbounded_window_counts_only_ends_past_its_start():
    builder = TemporalGraphBuilder()
    builder.add_vertex("a", 0).add_vertex("b", 0).add_vertex("c", 2, 9)
    builder.add_edge("a", "b", 1, FOREVER, props={"travel-time": [(1, 6, 2)]})
    graph = builder.build()
    for store in (graph, CompactGraph.from_temporal(graph)):
        for start in (0, 5, 6, 8, 9, 40):
            sliced = temporal_slice(graph, Interval(start, FOREVER))
            view = store.window(start)
            assert view.time_horizon() == sliced.time_horizon(), start
            assert view.time_horizon(3) == sliced.time_horizon(3), start


def test_window_rejects_empty_and_negative_intervals():
    graph = transit_graph()
    for start, end in ((5, 5), (6, 2), (-1, 4)):
        with pytest.raises(ValueError):
            graph.window(start, end)
    _, finite, _ = make_case(0)
    horizon = max(v.lifespan.end for v in finite.vertices()
                  if not v.lifespan.is_unbounded)
    finite = temporal_slice(finite, Interval(0, horizon))
    empty = finite.window(horizon, horizon + 3)
    assert empty.num_vertices == 0 and empty.num_edges == 0
    assert list(empty.edges()) == [] and empty.time_horizon() == 1
    with pytest.raises(ValueError):
        empty.lifespan()
