"""The ``transfer`` protocol: which of ``scatter`` / ``transfer`` runs.

The engine decides once per run: the first class in the program's MRO that
defines either method wins.  A subclass that overrides a library program's
``scatter`` (Fig. 2's ``RecordingSSSP`` does) still has its ``scatter``
called, and a subclass that declares ``transfer`` on a ``scatter`` program
has its ``transfer`` called.  ``IntervalProgram.scatter`` boxes the rows of a
declared ``transfer``, so ``super().scatter`` from an override gives what
the library class sends.
"""

import pytest

from repro import api
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.context import EdgeContext
from repro.core.engine import VertexProcessor
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.datasets.transit import transit_graph
from repro.runtime.metrics import ComputeModel

SERIAL = {"executor": "serial"}  # the programs log calls in-process


class LoggingScatterSSSP(TemporalSSSP):
    """Overrides the library program's ``scatter``, which it never defined."""

    def __init__(self, source):
        super().__init__(source)
        self.log = []

    def scatter(self, ctx, edge, interval, state):
        self.log.append((ctx.vertex_id, edge.eid, interval, state))
        return super().scatter(ctx, edge, interval, state)


class ForwardingProgram(IntervalProgram):
    """A ``scatter``-only program: min-label flood over every overlap."""

    def init(self, ctx):
        ctx.set_state(ctx.lifespan, FOREVER)

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep == 1:
            if ctx.vertex_id == "A":
                ctx.set_state(interval, 0)
            return
        best = min(messages)
        if best < state:
            ctx.set_state(interval, best)

    def scatter(self, ctx, edge, interval, state):
        if state >= FOREVER:
            return None
        return [(interval, state + 1)]


class TransferOverride(ForwardingProgram):
    """Declares ``transfer`` over a ``scatter`` program: it must win."""

    def __init__(self):
        self.log = []

    def transfer(self, ctx, edge, start, end, state, piece):
        self.log.append((ctx.vertex_id, edge.eid, start, end, state))
        if state >= FOREVER:
            return None
        return (start, end, state + 2)


def _resolved(program):
    return VertexProcessor(transit_graph(), program, ComputeModel()).transfer


def test_a_scatter_override_of_a_transfer_program_is_honoured():
    plain = api.run(transit_graph(), TemporalSSSP("A"), options=SERIAL)
    program = LoggingScatterSSSP("A")
    logged = api.run(transit_graph(), program, options=SERIAL)
    assert len(program.log) == logged.metrics.scatter_calls > 0
    # ``super().scatter`` boxes SSSP's rows: the run is SSSP's own.
    assert {v: list(s) for v, s in logged.states.items()} == {
        v: list(s) for v, s in plain.states.items()
    }
    assert logged.metrics.messages_sent == plain.metrics.messages_sent


def test_a_transfer_override_of_a_scatter_program_is_honoured():
    program = TransferOverride()
    result = api.run(transit_graph(), program, options=SERIAL)
    assert len(program.log) == result.metrics.scatter_calls > 0
    hops = api.run(transit_graph(), ForwardingProgram(), options=SERIAL)
    # Every hop costs 2 under the override and 1 under the base ``scatter``.
    for vid, state in hops.states.items():
        for interval, value in state:
            expected = value if value >= FOREVER else 2 * value
            assert result.states[vid].value_at(interval.start) == expected


@pytest.mark.parametrize(
    "program, winner",
    [
        (TemporalSSSP("A"), "TemporalSSSP.transfer"),
        (LoggingScatterSSSP("A"), "IntervalProgram.transfer"),  # the adapter
        (ForwardingProgram(), "IntervalProgram.transfer"),
        (TransferOverride(), "TransferOverride.transfer"),
    ],
    ids=["transfer", "scatter-over-transfer", "scatter", "transfer-over-scatter"],
)
def test_the_first_class_in_the_mro_to_define_either_wins(program, winner):
    resolved = _resolved(program)
    function = getattr(resolved, "__func__", None) or resolved.func
    assert function.__qualname__ == winner


def test_scatter_boxes_the_rows_of_a_declared_transfer():
    graph = transit_graph()
    edge = next(iter(graph.out_edges("A")))
    overlap = Interval(2, 6)
    piece = {"travel-time": 3, "travel-cost": 4}
    boxed = TemporalSSSP("A").scatter(None, EdgeContext(edge, overlap, piece), overlap, 5)
    assert boxed == [(Interval(5, FOREVER), 9)]
    assert TemporalSSSP("A").transfer(None, edge, 2, 6, 5, piece) == (5, FOREVER, 9)
    assert TemporalSSSP("A").scatter(
        None, EdgeContext(edge, overlap, piece), overlap, FOREVER
    ) is None
