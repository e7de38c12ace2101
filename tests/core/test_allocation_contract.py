"""The allocation contract of the engine's message path.

Between what ``transfer`` returns and ``compute``'s group a message is a
plain ``(start, end, value)`` row: the engine boxes nothing it does not hand
to the program, and a program that declares ``transfer`` is handed no box.
Counting wrappers hold that as numbers — the same ones
``scripts/profile_engine.py`` prints — on a run whose edges have several
property pieces each, with a selective combiner (SSSP: domination, real
warps) and an aggregating one (PR: dense traffic, suppressed warps), and
with SSSP's ``scatter`` oracle, which runs through the adapter.  The
degenerate cases have their own numbers: a vertex with one update sorts
nothing, re-arming the context is not a method call, and the message-less
walk of superstep 1 boxes partitions without re-validating them.
"""

import pytest

from repro.algorithms import run_algorithm
from repro.algorithms.td import sssp as sssp_module
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.core import combiner as combiner_module
from repro.core import context as context_module
from repro.core import engine as engine_module
from repro.core.combiner import MessageCombiner
from repro.core.context import VertexContext
from repro.core.engine import VertexProcessor
from repro.core.interval import FOREVER, Interval
from repro.core.messages import IntervalMessage
from repro.runtime.cluster import SimulatedCluster

from ..algorithms._scatter_oracles import ScatterSSSP
from ..algorithms.conftest import random_temporal_graph


class _Counts:
    def __init__(self):
        self.messages_boxed = 0          # IntervalMessage() anywhere
        self.scatter_side_intervals = 0  # Interval._unchecked by the scatter loop
        self.combiner_relations = 0      # Interval.contains / within in a pass
        self.update_sorts = []           # len(updates) of each coalesce() sort
        self.phase_stores = 0            # writes of VertexContext._phase
        self.process_calls = 0           # VertexProcessor.process
        self.walk_validations = 0        # Interval() by the message-less walk
        self.in_scatter_loop = False
        self.in_program = False
        self.in_combiner_pass = False
        self.in_walk = False


def _flagging(counts, flag, fn):
    """``fn`` with ``counts.<flag>`` raised for the duration of each call."""
    def wrapper(*args, **kwargs):
        before = getattr(counts, flag)
        setattr(counts, flag, True)
        try:
            return fn(*args, **kwargs)
        finally:
            setattr(counts, flag, before)
    return wrapper


@pytest.fixture
def counts(monkeypatch):
    counts = _Counts()

    boxed_init = IntervalMessage.__init__

    def counting_init(self, interval, value):
        counts.messages_boxed += 1
        boxed_init(self, interval, value)

    monkeypatch.setattr(IntervalMessage, "__init__", counting_init)

    unchecked = Interval._unchecked.__func__

    def counting_unchecked(cls, start, end):
        if counts.in_scatter_loop and not counts.in_program:
            counts.scatter_side_intervals += 1
        return unchecked(cls, start, end)

    monkeypatch.setattr(Interval, "_unchecked", classmethod(counting_unchecked))

    for name in ("contains", "within"):
        relation = getattr(Interval, name)

        def counting_relation(self, other, _relation=relation):
            if counts.in_combiner_pass:
                counts.combiner_relations += 1
            return _relation(self, other)

        monkeypatch.setattr(Interval, name, counting_relation)

    validating_init = Interval.__init__

    def counting_validating_init(self, start, end=FOREVER):
        if counts.in_walk and not counts.in_program:
            counts.walk_validations += 1
        validating_init(self, start, end)

    monkeypatch.setattr(Interval, "__init__", counting_validating_init)
    monkeypatch.setattr(
        VertexProcessor, "_compute_everywhere",
        _flagging(counts, "in_walk", VertexProcessor._compute_everywhere),
    )

    def counting_coalesce(intervals, _coalesce=context_module.coalesce):
        counts.update_sorts.append(len(intervals))
        return _coalesce(intervals)

    monkeypatch.setattr(context_module, "coalesce", counting_coalesce)

    phase_slot = VertexContext.__dict__["_phase"]

    class CountingPhase:
        """The ``_phase`` slot, counting the processor's stores."""

        def __get__(self, ctx, owner=None):
            return phase_slot.__get__(ctx, owner)

        def __set__(self, ctx, value):
            counts.phase_stores += 1
            phase_slot.__set__(ctx, value)

    monkeypatch.setattr(VertexContext, "_phase", CountingPhase())

    process = VertexProcessor.process

    def counting_process(self, *args, **kwargs):
        counts.process_calls += 1
        return process(self, *args, **kwargs)

    monkeypatch.setattr(VertexProcessor, "process", counting_process)

    monkeypatch.setattr(
        VertexProcessor, "_scatter_windows",
        _flagging(counts, "in_scatter_loop", VertexProcessor._scatter_windows),
    )
    for name in ("combine_dominated", "combine_identical_intervals"):
        monkeypatch.setattr(
            MessageCombiner, name,
            _flagging(counts, "in_combiner_pass", getattr(MessageCombiner, name)),
        )
    coalesce = _flagging(counts, "in_combiner_pass", combiner_module.coalesce_messages)
    monkeypatch.setattr(combiner_module, "coalesce_messages", coalesce)
    monkeypatch.setattr(engine_module, "coalesce_messages", coalesce)
    return counts


#: case → (the algorithm run, the program class it runs as).  SSSP and PR
#: declare ``transfer``; the third case is SSSP's ``scatter`` oracle, which
#: runs through the ``IntervalProgram.transfer`` adapter.
CASES = {
    "SSSP": ("SSSP", TemporalSSSP),
    "PR": ("PR", TemporalPageRank),
    "SSSP-scatter": ("SSSP", ScatterSSSP),
}


@pytest.mark.parametrize("case", CASES)
def test_the_engine_boxes_only_what_it_hands_the_program(
    case, counts, monkeypatch
):
    algorithm, program_class = CASES[case]
    if program_class is ScatterSSSP:
        monkeypatch.setattr(sssp_module, "TemporalSSSP", ScatterSSSP)
    for callback in ("init", "compute", "scatter", "transfer"):
        if callback in ("init", "compute") or callback in vars(program_class):
            monkeypatch.setattr(
                program_class, callback,
                _flagging(counts, "in_program", getattr(program_class, callback)),
            )
    graph = random_temporal_graph(seed=3, n_vertices=12, n_edges=40)
    assert any(len(e.properties.boundaries()) > 2 for e in graph.edges()), (
        "no multi-piece edge; the case tests nothing"
    )

    outcome = run_algorithm(
        algorithm, "GRAPHITE", graph, cluster=SimulatedCluster(4),
        source="v0", icm_options={"executor": "serial"},
    )
    metrics = outcome.metrics
    assert metrics.messages_sent > 0 and metrics.scatter_calls > 0
    if algorithm == "SSSP":
        assert metrics.warp_calls > 0 and metrics.combiner_reductions > 0

    # No program returns IntervalMessages: no message is ever boxed.
    assert counts.messages_boxed == 0
    if "scatter" in vars(program_class):
        # The adapter boxes one Interval per call — the one ``scatter`` is
        # handed — and nothing else on the scatter side builds one.
        assert 0 < counts.scatter_side_intervals <= metrics.scatter_calls
    else:
        # A declared ``transfer`` is handed ints and returns rows: the
        # scatter side (slices, pieces, pairing, rows) builds no Interval.
        assert counts.scatter_side_intervals == 0
    # Dominance, identical-interval folding and coalescing compare ints.
    assert counts.combiner_relations == 0
    # A vertex with one update has nothing to sort or merge: the updates
    # are coalesced only when there are two or more of them.
    assert all(n >= 2 for n in counts.update_sorts)
    # Re-arming the context is a slot store, not a method call: once per
    # compute call, once when a vertex's compute phase ends, and around a
    # vertex's whole scatter phase — never once per scatter call.
    assert not hasattr(VertexContext, "_begin") and not hasattr(VertexContext, "_end")
    assert counts.phase_stores <= (
        metrics.compute_calls + 3 * counts.process_calls + 2 * graph.num_vertices
    )
    # The superstep-1 (and fixed-superstep) walk reads the state's columns:
    # the engine validates no interval it cut from a partition itself.
    assert counts.walk_validations == 0
