"""Fixtures shared by the whole suite."""

import pytest

from repro.graph.compact import CompactGraph


@pytest.fixture
def stores():
    """The in-memory stores a graph can be run on, as ``(name, put)`` pairs:
    ``put(graph)`` holds a heap graph in that store — the heap graph itself,
    or frozen into the compact store (what `repro.api.load_graph` returns
    for an ITGR image).  A test that builds an engine or loads a graph runs
    it on each in turn; results must not tell them apart."""
    return (("heap", lambda graph: graph), ("compact", CompactGraph.from_temporal))
