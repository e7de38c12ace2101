"""Tests for the binary temporal graph format."""

import io

import pytest
from hypothesis import given, settings

from repro.datasets import gplus, transit_graph, twitter
from repro.graph.binary_io import dump_graph_binary, load_graph_binary
from repro.graph.io import dump_graph

from .test_io_stats_properties import random_temporal_graph


def _equivalent(a, b) -> None:
    assert a.num_vertices == b.num_vertices
    assert a.num_edges == b.num_edges
    for v in a.vertices():
        v2 = b.vertex(str(v.vid))
        assert v2.lifespan == v.lifespan
        for label in v.properties:
            assert v2.properties.timeline(label).entries() == \
                v.properties.timeline(label).entries()
    for e in a.edges():
        e2 = b.edge(str(e.eid))
        assert (str(e.src), str(e.dst), e.lifespan) == (e2.src, e2.dst, e2.lifespan)
        for label in e.properties:
            assert e2.properties.timeline(label).entries() == \
                e.properties.timeline(label).entries()


class TestRoundtrip:
    @pytest.mark.parametrize("factory", [transit_graph, lambda: gplus(0.3), lambda: twitter(0.3)])
    def test_buffer_roundtrip(self, factory):
        graph = factory()
        buf = io.BytesIO()
        dump_graph_binary(graph, buf)
        buf.seek(0)
        _equivalent(graph, load_graph_binary(buf))

    def test_file_roundtrip(self, tmp_path):
        graph = transit_graph()
        path = tmp_path / "g.itgr"
        written = dump_graph_binary(graph, path)
        assert path.stat().st_size == written
        _equivalent(graph, load_graph_binary(path))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="not an ITGR"):
            load_graph_binary(io.BytesIO(b"NOPE" + b"\x00" * 10))

    def test_repeated_edge_id(self):
        # Constraint 1 is the model's: no loader can build this graph.
        buf = io.BytesIO()
        dump_graph_binary(transit_graph(), buf)
        raw = buf.getvalue()
        assert raw.count(b"AB") == 1 and raw.count(b"AC") == 1
        with pytest.raises(ValueError, match="edge 'AB' already exists"):
            load_graph_binary(io.BytesIO(raw.replace(b"AC", b"AB")))

    def test_trailing_bytes(self):
        buf = io.BytesIO()
        dump_graph_binary(transit_graph(), buf)
        raw = buf.getvalue() + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            load_graph_binary(io.BytesIO(raw))


class TestCompactness:
    @pytest.mark.parametrize("factory", [lambda: gplus(0.5), lambda: twitter(0.5)])
    def test_substantially_smaller_than_text(self, factory):
        graph = factory()
        text = io.StringIO()
        dump_graph(graph, text)
        binary = io.BytesIO()
        dump_graph_binary(graph, binary)
        ratio = len(binary.getvalue()) / len(text.getvalue().encode("utf-8"))
        assert ratio < 0.5


@given(random_temporal_graph())
@settings(max_examples=60, deadline=None)
def test_binary_roundtrip_property(graph):
    buf = io.BytesIO()
    dump_graph_binary(graph, buf)
    buf.seek(0)
    _equivalent(graph, load_graph_binary(buf))
