"""The graph-resident scatter index (`repro.graph.properties.PieceIndex`).

One index shape serves both stores and lives as long as its graph, so
three things are pinned here: *answers* (``pieces(window)`` equals the
retained boundary-rederiving oracle on heap and compact edges, the one-sweep
heap build equals the retained ``boundaries()`` + ``values_at`` definition
element by element, and interning never merges dicts that print
differently), *lifetime* (appends and
property adds invalidate exactly what they touch, ``reversed()`` shares
tables, pickles stay small) and *size* (the resident bytes per piece — the
benchmark's RSS bound is 7 %, and a layout of per-piece objects breaks it).
"""

import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms import run_algorithm
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.interval import FOREVER, Interval
from repro.datasets import transit_graph, usrn
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.graph.properties import PropertySet, intern_values
from repro.streaming.engine import StreamingIntervalEngine

from ..core._reference_impls import reference_edge_pieces
from ._reference_impls import reference_piece_index
from .test_compact import temporal_graphs

# -- answers -------------------------------------------------------------------

_windows = st.builds(
    lambda start, length: Interval(start, start + length),
    st.integers(0, 70),
    st.one_of(st.integers(1, 40), st.just(FOREVER)),
)


@st.composite
def gappy_edges(draw):
    """One edge whose timelines have holes, ``None`` values and (sometimes)
    an unbounded lifespan — the shapes `temporal_graphs` draws rarely."""
    start = draw(st.integers(0, 10))
    end = draw(st.one_of(st.integers(start + 2, 40), st.just(FOREVER)))
    props = {}
    for label in draw(st.lists(st.sampled_from(["w", "cap", "z"]), unique=True)):
        hi = min(end, start + 30)
        cuts = sorted(draw(st.sets(st.integers(start, hi), min_size=2, max_size=6)))
        entries = [
            (lo, hi_, draw(st.one_of(st.none(), st.integers(0, 3))))
            for lo, hi_ in zip(cuts, cuts[1:])
            if draw(st.booleans())  # drop some: gaps in the timeline
        ]
        if entries:
            props[label] = entries
    builder = TemporalGraphBuilder()
    builder.add_vertex("a", start, end)
    builder.add_vertex("b", start, end)
    builder.add_edge("a", "b", start, end, props=props or None)
    return builder.build()


def assert_pieces_match_oracle(graph, window):
    compact = CompactGraph.from_temporal(graph)
    for edge in graph.edges():
        want = reference_edge_pieces(edge, window)
        for store in (graph, compact):
            view = store.edge(edge.eid)
            got = view.pieces(window)
            assert [(iv, p.values) for iv, p in got] == want
            # Label order is part of the contract (exports iterate the dict).
            assert [list(p.values) for _, p in got] == [list(v) for _, v in want]
            assert all(p.edge is view and p.interval == iv for iv, p in got)
    for vertex in graph.vertices():
        for store in (graph, compact):
            for edge, index in store.piece_indexes(vertex.vid):
                clipped = edge.lifespan.intersect(window)
                got = index.pieces(clipped.start, clipped.end) if clipped else []
                assert got == reference_edge_pieces(graph.edge(edge.eid), window)


class TestOracle:
    @settings(max_examples=80, deadline=None)
    @given(temporal_graphs(), _windows)
    def test_random_graphs(self, graph, window):
        assert_pieces_match_oracle(graph, window)

    @settings(max_examples=120, deadline=None)
    @given(gappy_edges(), _windows)
    def test_gaps_none_values_and_unbounded_lifespans(self, graph, window):
        assert_pieces_match_oracle(graph, window)


def assert_sweep_matches_reference(props: PropertySet):
    want_cuts, want_values = reference_piece_index(props)
    index = props.piece_index()
    assert index.cuts == want_cuts
    assert list(index.values) == want_values
    # Label order and exact value types, element by element.
    assert [[(k, type(v), v) for k, v in d.items()] for d in index.values] == \
        [[(k, type(v), v) for k, v in d.items()] for d in want_values]


@st.composite
def property_sets(draw):
    """A property set with up to four labels, inserted in a drawn order, whose
    timelines are gappy, abut, share change points across labels, hold
    ``None`` and hash-equal values of different types, and may be unbounded."""
    props = PropertySet()
    for label in draw(st.permutations(["w", "cap", "z", "tag"]))[:draw(st.integers(0, 4))]:
        points = sorted(draw(st.sets(st.integers(0, 12), min_size=2, max_size=7)))
        if draw(st.booleans()):
            points[-1] = FOREVER
        for lo, hi in zip(points, points[1:]):
            if draw(st.booleans()):
                value = draw(st.sampled_from([None, 0, 1, True, 1.0, "1", (1,), (1.0,)]))
                props.add(label, Interval(lo, hi), value)
    return props


class TestSweepOracle:
    @settings(max_examples=300, deadline=None)
    @given(property_sets())
    def test_property_sets(self, props):
        assert_sweep_matches_reference(props)

    @settings(max_examples=60, deadline=None)
    @given(temporal_graphs())
    def test_every_entity_of_random_graphs(self, graph):
        for entity in (*graph.vertices(), *graph.edges()):
            assert_sweep_matches_reference(entity.properties)

    def test_empty_set_and_out_of_order_adds(self):
        assert_sweep_matches_reference(PropertySet())
        props = PropertySet()
        props.add("w", Interval(6, 9), 3)
        props.add("w", Interval(0, 2), 1)  # the sorted-insert path
        props.add("cap", Interval(2, 6), 7)
        assert_sweep_matches_reference(props)
        assert props.piece_index().cuts == (0, 2, 6, 9)


def _mixed_type_graph():
    """Edges whose values are equal and hash-equal but print differently,
    plus list values (unhashable) and two label orders."""
    builder = TemporalGraphBuilder()
    for vid in "abcd":
        builder.add_vertex(vid, 0, 10)
    builder.add_edge("a", "b", 0, 10, eid="int", props={"w": 1})
    builder.add_edge("a", "c", 0, 10, eid="float", props={"w": 1.0})
    builder.add_edge("a", "d", 0, 10, eid="bool", props={"w": True})
    builder.add_edge("b", "c", 0, 10, eid="int2", props={"w": 1})
    builder.add_edge("b", "d", 0, 10, eid="tuple-int", props={"w": (1, 2)})
    builder.add_edge("c", "d", 0, 10, eid="tuple-float", props={"w": (1.0, 2)})
    builder.add_edge("c", "a", 0, 10, eid="xy", props={"x": 1, "y": 2})
    builder.add_edge("d", "a", 0, 10, eid="yx", props={"y": 2, "x": 1})
    return builder.build()


class TestInterning:
    def _values(self, graph):
        out = {}
        for vertex in graph.vertices():
            for edge, index in graph.piece_indexes(vertex.vid):
                (_, values), = index.pieces(0, 10)
                out[edge.eid] = values
        return out

    def test_shares_only_dicts_that_print_alike(self):
        graph = _mixed_type_graph()
        for store in (graph, CompactGraph.from_temporal(graph)):
            values = self._values(store)
            assert values["int"] is values["int2"]
            for a, b in (("int", "float"), ("int", "bool"), ("float", "bool"),
                         ("tuple-int", "tuple-float"), ("xy", "yx")):
                assert values[a] is not values[b]
            assert {k: repr(v) for k, v in values.items()} == {
                "int": "{'w': 1}", "int2": "{'w': 1}", "float": "{'w': 1.0}",
                "bool": "{'w': True}", "tuple-int": "{'w': (1, 2)}",
                "tuple-float": "{'w': (1.0, 2)}",
                "xy": "{'x': 1, 'y': 2}", "yx": "{'y': 2, 'x': 1}",
            }

    def test_unhashable_values_stay_unshared(self):
        builder = TemporalGraphBuilder()
        builder.add_vertex("a", 0, 10)
        builder.add_vertex("b", 0, 10)
        builder.add_edge("a", "b", 0, 10, eid="e1", props={"tags": ["x"]})
        builder.add_edge("a", "b", 0, 10, eid="e2", props={"tags": ["x"]})
        graph = builder.build()
        values = self._values(graph)
        assert values["e1"] == values["e2"] == {"tags": ["x"]}
        assert values["e1"] is not values["e2"]


    @staticmethod
    def _intern(pool, values):
        return intern_values(pool, tuple(values), tuple(values.values()))

    def test_equal_dicts_that_print_differently_are_never_one_object(self):
        groups = [
            [{"w": 1}, {"w": 1.0}, {"w": True}],
            [{"w": 0}, {"w": False}, {"w": 0.0}, {"w": -0.0}],
            [{"w": (1,)}, {"w": (1.0,)}, {"w": (True,)}],
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
            [{"w": "1"}, {"w": 1}],
            [{"w": None}, {}],
        ]
        for group in groups:
            pool = {}
            shared = [self._intern(pool, values) for values in group]
            assert [repr(s) for s in shared] == [repr(v) for v in group]
            assert len({id(s) for s in shared}) == len(group), group

    def test_equal_and_alike_dicts_are_always_one_object(self):
        nan = float("nan")
        for values in ({}, {"w": 1}, {"w": True, "x": "s", "y": None},
                       {"w": 1.5}, {"w": -0.0}, {"w": (1, 2.0)}, {"w": nan},
                       {"a": 1, "b": 2}):
            pool = {}
            first = self._intern(pool, dict(values))
            assert self._intern(pool, dict(values)) is first
            assert list(first.items()) == list(values.items())
            assert len(pool) == 1

    def test_an_unhashable_value_is_returned_unshared(self):
        pool = {}
        first = self._intern(pool, {"tags": ["x"], "w": 1})
        second = self._intern(pool, {"tags": ["x"], "w": 1})
        assert first == second == {"tags": ["x"], "w": 1}
        assert first is not second and not pool


# -- invalidation and lifetime -------------------------------------------------


def _states(result):
    return {vid: list(state) for vid, state in result.states.items()}


class TestLifetime:
    @pytest.mark.usefixtures("executor")
    def test_index_survives_runs_and_is_shared_with_reversed(self, stores):
        for store, put in stores:
            graph = put(transit_graph())
            run_algorithm("SSSP", "GRAPHITE", graph)
            tables = {e.eid: e.piece_index() for e in graph.edges()}
            run_algorithm("EAT", "GRAPHITE", graph)
            assert all(e.piece_index() is tables[e.eid] for e in graph.edges()), store
            if store == "heap":  # a compact graph's reversal is a graph of its own
                assert all(
                    e.piece_index() is tables[e.eid] for e in graph.reversed().edges()
                )

    @pytest.mark.usefixtures("executor")
    def test_reversed_answers_equal_a_freshly_built_reversed_graph(self, stores):
        for store, put in stores:
            graph = put(transit_graph())
            run_algorithm("SSSP", "GRAPHITE", graph)  # index resident before LD
            shared = run_algorithm("LD", "GRAPHITE", graph)
            fresh = run_algorithm("LD", "GRAPHITE", put(transit_graph()))
            assert _states(shared.result) == _states(fresh.result), store
            assert shared.metrics.total_messages == fresh.metrics.total_messages
            assert shared.metrics.scatter_calls == fresh.metrics.scatter_calls

    @pytest.mark.usefixtures("executor")
    def test_property_added_to_an_attached_edge_is_seen_by_the_next_run(self, stores):
        def two_vertex_graph(cost_pieces):
            builder = TemporalGraphBuilder()
            for vid in "ab":
                builder.add_vertex(vid, 0, 10)
            builder.add_edge("a", "b", 0, 10, eid="e", props={"travel-cost": cost_pieces})
            return builder.build()

        for store, put in stores:
            # Each run takes the heap graph as it is now, held in ``store``.
            graph = two_vertex_graph([(0, 4, 5)])
            first = api.run(put(graph), TemporalSSSP("a"))
            graph.edge("e").properties.add("travel-cost", Interval(4, 10), 7)
            second = api.run(put(graph), TemporalSSSP("a"))
            fresh = api.run(
                put(two_vertex_graph([(0, 4, 5), (4, 10, 7)])), TemporalSSSP("a")
            )
            assert _states(second) == _states(fresh), store
            assert _states(second) != _states(first), store

    @pytest.mark.usefixtures("executor")
    def test_streaming_appends_reach_the_next_compute(self):
        stream = StreamingIntervalEngine(TemporalSSSP("a"))
        stream.add_vertex("a", 0, 10)
        stream.add_vertex("b", 0, 10)
        stream.add_edge("a", "b", 0, 10, props={"travel-cost": 3})
        assert stream.compute().value_at("b", 9) == 3
        assert stream.graph.time_horizon() == 10
        stream.add_vertex("c", 0, 20)
        stream.add_edge("b", "c", 2, 8, props={"travel-cost": 1})
        stream.add_edge("a", "b", 5, 10, props={"travel-cost": 1})
        assert stream.graph.time_horizon() == 20
        result = stream.compute()
        assert result.value_at("b", 9) == 1
        assert result.value_at("c", 9) == 2

    def test_time_horizon_memo_honours_default_and_appends(self):
        for freeze in (lambda g: g, CompactGraph.from_temporal):
            builder = TemporalGraphBuilder()
            builder.add_vertex("a")
            builder.add_vertex("b")
            builder.add_edge("a", "b")
            static = freeze(builder.build())
            assert static.time_horizon() == 1
            assert static.time_horizon(default=5) == 5  # the raw value is memoized
            assert static.time_horizon() == 1
        graph = transit_graph()
        horizon = graph.time_horizon()
        builder = TemporalGraphBuilder()
        builder.add_vertex("late", 0, horizon + 7)
        graph._add_vertex(builder.build().vertex("late"))
        assert graph.time_horizon() == horizon + 7

    @pytest.mark.usefixtures("executor")
    def test_pickle_does_not_grow_after_a_run(self, stores):
        graph = usrn(0.5)
        graph.time_horizon()  # the memoized int does travel; the tables do not
        cold = pickle.dumps(graph)
        for vertex in graph.vertices():
            graph.piece_indexes(vertex.vid)
        assert graph._values and all(e.properties._index for e in graph.edges())
        assert len(pickle.dumps(graph)) == len(cold)
        clone = pickle.loads(pickle.dumps(graph))
        for store, put in stores:
            assert _states(run_algorithm("SSSP", "GRAPHITE", put(clone)).result) == \
                _states(run_algorithm("SSSP", "GRAPHITE", put(graph)).result), store


# -- memory --------------------------------------------------------------------


def test_resident_index_size_on_usrn():
    """Bytes the complete index keeps resident on ``usrn(1.0)``: one small
    object, one int tuple and one pointer tuple per edge, a handful of
    interned dicts, nothing per vertex.  A layout holding an ``Interval``,
    an ``EdgePiece`` and a tuple per piece costs ≈ 190 B/piece here and
    fails the benchmark's 7 % RSS bound."""
    graph = usrn(1.0)
    pieces = 0
    resident = 0
    for vertex in graph.vertices():
        for edge, index in graph.piece_indexes(vertex.vid):
            pieces += len(index.pieces(edge.lifespan.start, edge.lifespan.end))
            resident += sum(map(sys.getsizeof, (index, index.cuts, index.values)))
    pool = graph._values
    assert len(pool) <= 8  # costs 1..3 x one travel-time, plus the empty dict
    resident += sys.getsizeof(pool) + sum(
        sys.getsizeof(key) + sum(map(sys.getsizeof, key)) + sys.getsizeof(values)
        for key, values in pool.items()
    )
    assert pieces > 2 * graph.num_edges
    assert resident / pieces <= 48
    assert resident / graph.num_vertices <= 1024
    # Nothing else on the graph grew: no per-vertex or per-edge side table
    # (``_placement`` holds one small dict per partitioner a run used,
    # ``_reversed`` the reversed() memo).
    assert set(vars(graph)) == {
        "_vertices", "_edges", "_out", "_in", "_values", "_horizon", "_placement",
        "_reversed",
    }
    assert graph._placement == {}
    assert graph._reversed is None
