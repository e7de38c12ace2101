"""Fixtures shared by the whole suite."""

import pytest

from repro.core.config import EngineConfig
from repro.graph.compact import CompactGraph


@pytest.fixture
def stores():
    """The in-memory stores a graph can be run on, as ``(name, put)`` pairs:
    ``put(graph)`` holds a heap graph in that store — the heap graph itself,
    or frozen into the compact store (what `repro.api.load_graph` returns
    for an ITGR image).  A test that builds an engine or loads a graph runs
    it on each in turn; results must not tell them apart."""
    return (("heap", lambda graph: graph), ("compact", CompactGraph.from_temporal))


@pytest.fixture(
    params=[
        pytest.param("serial", id=pytest.HIDDEN_PARAM),
        pytest.param("parallel", marks=pytest.mark.matrix),
    ]
)
def executor(request, monkeypatch):
    """The executor of every engine the test builds without naming one.

    ``serial`` is the default and keeps the bare test id; ``parallel`` (two
    processes, marked ``matrix``, so only ``pytest -m matrix`` runs it)
    makes the default config — what `EngineConfig.from_env` returns when
    no config is given — name the parallel executor, as a job run with
    ``--executor parallel --processes 2`` would.  A test that starts a
    subprocess passes the name on as CLI flags itself.
    """
    if request.param == "parallel":
        from_env = EngineConfig.from_env
        monkeypatch.setattr(
            EngineConfig, "from_env",
            classmethod(
                lambda cls, env=None: from_env(env).with_options(
                    executor="parallel", executor_processes=2
                )
            ),
        )
    return request.param
