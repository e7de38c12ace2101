"""Tests for the compact columnar graph store (`repro.graph.compact`).

The load-bearing property is *bit-identity*: freezing a heap
``TemporalGraph`` into a ``CompactGraph`` must preserve enumeration
order, lifespans, property timelines and edge-piece cuts exactly, so a
run over either store produces byte-identical results.  The Hypothesis
round-trip below drives that contract over randomly shaped graphs; the
rest covers the on-disk format's failure modes and zero-copy sharing.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import FOREVER, Interval
from repro.datasets import transit_graph
from repro.errors import GraphFormatError
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.runtime.checkpoint import graph_fingerprint

# -- random temporal graphs ----------------------------------------------------

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.tuples(st.integers(0, 99), st.text(max_size=4)),
)


@st.composite
def temporal_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    builder = TemporalGraphBuilder()
    lifespans = {}
    for i in range(n):
        start = draw(st.integers(0, 20))
        end = draw(st.one_of(st.integers(start + 2, 60), st.just(FOREVER)))
        vid = f"v{i}"
        props = _draw_props(draw, Interval(start, end))
        builder.add_vertex(vid, start, end, props=props)
        lifespans[vid] = Interval(start, end)
    n_edges = draw(st.integers(0, min(8, n * n)))
    for _ in range(n_edges):
        src = f"v{draw(st.integers(0, n - 1))}"
        dst = f"v{draw(st.integers(0, n - 1))}"
        common = lifespans[src].intersect(lifespans[dst])
        if common is None or common.length < 2:
            continue
        hi = min(common.end, common.start + 50)
        start = draw(st.integers(common.start, hi - 2))
        end = draw(
            st.one_of(st.integers(start + 1, hi), st.just(common.end))
            if common.end < FOREVER
            else st.one_of(st.integers(start + 1, hi), st.just(FOREVER))
        )
        props = _draw_props(draw, Interval(start, end))
        builder.add_edge(src, dst, start, end, props=props)
    return builder.build()


def _draw_props(draw, lifespan: Interval):
    """0–2 labels, each a run of consecutive entries inside ``lifespan``."""
    props = {}
    for label in draw(st.lists(st.sampled_from(["w", "cap"]),
                               unique=True, max_size=2)):
        hi = min(lifespan.end, lifespan.start + 40)
        if hi - lifespan.start < 2:
            continue
        cuts = sorted(draw(st.sets(st.integers(lifespan.start, hi),
                                   min_size=2, max_size=4)))
        entries = [
            (lo, hi_, draw(_values)) for lo, hi_ in zip(cuts, cuts[1:])
        ]
        if entries:
            props[label] = entries
    return props or None


def assert_graphs_identical(a, b):
    """Field-for-field equality including enumeration order."""
    assert [v.vid for v in a.vertices()] == [v.vid for v in b.vertices()]
    assert [e.eid for e in a.edges()] == [e.eid for e in b.edges()]
    for va in a.vertices():
        vb = b.vertex(va.vid)
        assert va.lifespan == vb.lifespan
        assert _props_of(va) == _props_of(vb)
    for ea in a.edges():
        eb = b.edge(ea.eid)
        assert (ea.src, ea.dst, ea.lifespan) == (eb.src, eb.dst, eb.lifespan)
        assert _props_of(ea) == _props_of(eb)
    for va in a.vertices():
        assert [e.eid for e in a.out_edges(va.vid)] == \
               [e.eid for e in b.out_edges(va.vid)]
        assert [e.eid for e in a.in_edges(va.vid)] == \
               [e.eid for e in b.in_edges(va.vid)]


def _props_of(entity):
    return {
        label: list(entity.properties.timeline(label))
        for label in entity.properties
    }


# -- the round-trip contract ---------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(temporal_graphs())
    def test_temporal_compact_temporal(self, graph):
        compact = CompactGraph.from_temporal(graph)
        assert_graphs_identical(graph, compact)
        assert_graphs_identical(graph, compact.to_temporal())
        assert graph_fingerprint(compact) == graph_fingerprint(graph)

    @settings(max_examples=40, deadline=None)
    @given(temporal_graphs())
    def test_bytes_round_trip(self, graph):
        compact = CompactGraph.from_temporal(graph)
        again = CompactGraph.from_bytes(compact.to_bytes())
        assert_graphs_identical(graph, again)
        assert again.to_bytes() == compact.to_bytes()

    @settings(max_examples=40, deadline=None)
    @given(temporal_graphs(), st.integers(0, 60), st.integers(1, 30))
    def test_edge_pieces_match_heap(self, graph, start, length):
        compact = CompactGraph.from_temporal(graph)
        window = Interval(start, start + length)
        for edge in graph.edges():
            expected = edge.pieces(window)
            got = compact.edge(edge.eid).pieces(window)
            # EdgePiece has no __eq__; compare every field, including the
            # values-dict iteration order (message payloads serialise it).
            assert [
                (iv, p.edge.eid, p.interval, list(p.values.items()))
                for iv, p in got
            ] == [
                (iv, p.edge.eid, p.interval, list(p.values.items()))
                for iv, p in expected
            ]

    @settings(max_examples=30, deadline=None)
    @given(temporal_graphs())
    def test_derived_quantities_match_heap(self, graph):
        compact = CompactGraph.from_temporal(graph)
        assert compact.time_horizon() == graph.time_horizon()
        assert compact.lifespan() == graph.lifespan()
        assert compact.vertex_ids() == graph.vertex_ids()
        assert compact.num_vertices == graph.num_vertices
        assert compact.num_edges == graph.num_edges
        compact.validate()

    def test_transit_values_at(self):
        graph = transit_graph()
        compact = CompactGraph.from_temporal(graph)
        for edge in graph.edges():
            twin = compact.edge(edge.eid)
            for t in range(0, graph.time_horizon() + 1):
                assert twin.properties.values_at(t) == \
                       edge.properties.values_at(t)

    def test_reversed_matches_heap(self):
        graph = transit_graph()
        compact = CompactGraph.from_temporal(graph)
        assert_graphs_identical(graph.reversed(), compact.reversed())

    def test_missing_lookups_raise_like_heap(self):
        compact = CompactGraph.from_temporal(transit_graph())
        with pytest.raises(KeyError):
            compact.vertex("nope")
        with pytest.raises(KeyError):
            compact.edge("nope")
        assert compact.out_edges("nope") == []
        assert not compact.has_vertex("nope")


# -- the on-disk format --------------------------------------------------------


class TestFormat:
    def test_bad_magic(self):
        with pytest.raises(GraphFormatError):
            CompactGraph.from_bytes(b"NOPE" + b"\x00" * 64)

    def test_bad_version(self):
        blob = bytearray(CompactGraph.from_temporal(transit_graph()).to_bytes())
        blob[4] = 7
        with pytest.raises(GraphFormatError) as err:
            CompactGraph.from_bytes(bytes(blob))
        assert "7" in str(err.value)

    def test_truncated(self):
        blob = CompactGraph.from_temporal(transit_graph()).to_bytes()
        for cut in (0, 3, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(GraphFormatError):
                CompactGraph.from_bytes(blob[:cut])

    def test_error_code_is_stable(self):
        assert GraphFormatError.code == "graph_format"
        assert issubclass(GraphFormatError, ValueError)

    def test_dump_is_atomic(self, tmp_path):
        compact = CompactGraph.from_temporal(transit_graph())
        target = tmp_path / "graph.itgr2"
        compact.dump(target)
        loaded = CompactGraph.load(target)
        assert_graphs_identical(compact, loaded)
        loaded.close()
        # No staging debris: the writer stages next to the target and
        # renames over it.
        assert [p.name for p in tmp_path.iterdir()] == ["graph.itgr2"]

    def test_mmap_load_round_trip(self, tmp_path):
        graph = transit_graph()
        target = tmp_path / "graph.itgr2"
        CompactGraph.from_temporal(graph).dump(target)
        loaded = CompactGraph.load(target)
        assert graph_fingerprint(loaded) == graph_fingerprint(graph)
        loaded.close()


# -- zero-copy sharing ---------------------------------------------------------


class TestSharing:
    def test_pickle_round_trip_private_buffer(self):
        compact = CompactGraph.from_temporal(transit_graph())
        clone = pickle.loads(pickle.dumps(compact))
        assert_graphs_identical(compact, clone)

    def test_pickle_of_mmap_graph_ships_the_path(self, tmp_path):
        target = tmp_path / "graph.itgr2"
        CompactGraph.from_temporal(transit_graph()).dump(target)
        loaded = CompactGraph.load(target)
        clone = pickle.loads(pickle.dumps(loaded))
        assert_graphs_identical(loaded, clone)
        clone.close()
        loaded.close()

    def test_shared_memory_attach(self):
        compact = CompactGraph.from_temporal(transit_graph())
        before = compact.to_bytes()
        compact.ensure_shared()
        # Idempotent: a second call must not re-copy.
        compact.ensure_shared()
        clone = pickle.loads(pickle.dumps(compact))
        try:
            assert clone.to_bytes() == before
            assert_graphs_identical(compact, clone)
        finally:
            clone.close()
            compact.close()


# -- engine bit-identity (one probe; test_executor_equivalence runs the matrix) -


@pytest.mark.usefixtures("executor")
def test_engine_results_identical_across_stores(stores):
    from repro import api
    from repro.algorithms.td.sssp import TemporalSSSP

    heap, compact = (
        api.run(put(transit_graph()), TemporalSSSP("A"), graph_name="transit")
        for _, put in stores
    )
    assert {v: list(s) for v, s in heap.states.items()} == \
           {v: list(s) for v, s in compact.states.items()}
    assert heap.metrics.messages_sent == compact.metrics.messages_sent
    assert heap.metrics.compute_calls == compact.metrics.compute_calls
