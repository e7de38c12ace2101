"""Failure-injection tests: misbehaving user logic must fail loudly,
with execution context, and never corrupt silently."""

import pytest

from repro import api
from repro.core.engine import IcmProgramError, IntervalCentricEngine
from repro.core.interval import FOREVER, Interval
from repro.core.program import IntervalProgram
from repro.graph.builder import TemporalGraphBuilder

from ..runtime.test_golden_serial import EXECUTORS


def tiny_graph():
    b = TemporalGraphBuilder()
    b.add_vertices(["a", "b"], 0, 10)
    b.add_edge("a", "b", 0, 10, eid="ab")
    return b.build()


class Base(IntervalProgram):
    name = "faulty"

    def init(self, ctx):
        ctx.set_state(ctx.lifespan, 0)

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep == 1 and ctx.vertex_id == "a":
            ctx.set_state(interval, 1)

    def scatter(self, ctx, edge, interval, state):
        return [(interval, state)]


@pytest.mark.usefixtures("executor")
class TestComputeFailures:
    def test_exception_carries_vertex_and_superstep(self):
        class Boom(Base):
            def compute(self, ctx, interval, state, messages):
                if ctx.superstep == 2:
                    raise ZeroDivisionError("kaboom")
                super().compute(ctx, interval, state, messages)

        with pytest.raises(IcmProgramError) as err:
            IntervalCentricEngine(tiny_graph(), Boom()).run()
        assert err.value.vertex == "b"
        assert err.value.superstep == 2
        assert err.value.phase == "compute"
        assert isinstance(err.value.original, ZeroDivisionError)
        assert "kaboom" in str(err.value)

    def test_no_double_wrapping(self):
        class Boom(Base):
            def compute(self, ctx, interval, state, messages):
                raise ValueError("inner")

        with pytest.raises(IcmProgramError) as err:
            IntervalCentricEngine(tiny_graph(), Boom()).run()
        assert not isinstance(err.value.original, IcmProgramError)


@pytest.mark.usefixtures("executor")
class TestScatterFailures:
    def test_scatter_exception_wrapped(self):
        class Boom(Base):
            def scatter(self, ctx, edge, interval, state):
                raise RuntimeError("bad scatter")

        with pytest.raises(IcmProgramError) as err:
            IntervalCentricEngine(tiny_graph(), Boom()).run()
        assert err.value.phase == "scatter"
        assert err.value.vertex == "a"

    def test_invalid_message_interval_is_wrapped_user_error(self):
        class Boom(Base):
            def scatter(self, ctx, edge, interval, state):
                return [(Interval(5, 5), state)]  # empty interval

        with pytest.raises(IcmProgramError, match="empty interval"):
            IntervalCentricEngine(tiny_graph(), Boom()).run()

    def test_malformed_scatter_return(self):
        class Boom(Base):
            def scatter(self, ctx, edge, interval, state):
                return [42]  # neither message nor (interval, value)

        with pytest.raises(IcmProgramError) as err:
            IntervalCentricEngine(tiny_graph(), Boom()).run()
        assert isinstance(err.value.original, TypeError)


class _NotAnInterval(Base):
    def scatter(self, ctx, edge, interval, state):
        return [(5, state)]


class _BareInterval(Base):
    def scatter(self, ctx, edge, interval, state):
        return [interval]


class _UnsizablePayload(Base):
    def scatter(self, ctx, edge, interval, state):
        return [(interval, {"a": 1})]


class _RaisesWhileYielding(Base):
    def scatter(self, ctx, edge, interval, state):
        yield (interval, state)
        raise KeyError("mid-iteration")


#: Programs are module-level so the error (and the program) can cross a
#: worker pipe; each value is the exception the bad output first trips.
BAD_SCATTER_OUTPUT = {
    "not-an-interval": (_NotAnInterval, AttributeError),
    "bare-interval": (_BareInterval, TypeError),
    "unsizable-payload": (_UnsizablePayload, TypeError),
    "raises-while-yielding": (_RaisesWhileYielding, KeyError),
}

class TestScatterOutputFailures:
    """What ``scatter`` *returns* is the program's too: anything wrong with
    a returned item, and anything the send sink rejects about the vertex's
    batch, carries the vertex, superstep and interval like a raise inside
    ``scatter`` does — in-process and across the worker pipe."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("case", BAD_SCATTER_OUTPUT)
    def test_bad_output_is_a_program_error_with_context(self, case, executor):
        program, cause = BAD_SCATTER_OUTPUT[case]
        with pytest.raises(IcmProgramError) as err:
            api.run(tiny_graph(), program(), options=EXECUTORS[executor])
        assert err.value.phase == "scatter"
        assert err.value.vertex == "a"
        assert err.value.superstep == 1
        assert err.value.interval == Interval(0, 10)
        assert isinstance(err.value.original, cause)
        if executor == "serial":  # the pipe carries the error, not its cause
            assert err.value.__cause__ is err.value.original


class _TransferBase(Base):
    """``Base`` with its edge transfer declared in row form."""

    scatter = IntervalProgram.scatter  # drop Base's, so ``transfer`` wins

    def transfer(self, ctx, edge, start, end, state, piece):
        return (start, end, state)


class _TransferRaises(_TransferBase):
    def transfer(self, ctx, edge, start, end, state, piece):
        raise RuntimeError("bad transfer")


class _TransferTwoTuple(_TransferBase):
    def transfer(self, ctx, edge, start, end, state, piece):
        return (start, state)


class _TransferListRow(_TransferBase):
    def transfer(self, ctx, edge, start, end, state, piece):
        return [[start, end, state]]


class _TransferFloatBound(_TransferBase):
    def transfer(self, ctx, edge, start, end, state, piece):
        return (start + 0.5, end, state)


class _TransferEmptyRow(_TransferBase):
    def transfer(self, ctx, edge, start, end, state, piece):
        return [(start, end, state), (end, end, state)]


class _TransferNegativeStart(_TransferBase):
    def transfer(self, ctx, edge, start, end, state, piece):
        return (start - 1, end, state)


class _TransferSetsState(_TransferBase):
    def transfer(self, ctx, edge, start, end, state, piece):
        ctx.set_state(Interval(start, end), state + 1)
        return (start, end, state)


#: Each bad ``transfer`` and the exception it first trips.
BAD_TRANSFER = {
    "raises": (_TransferRaises, RuntimeError),
    "not-a-3-tuple": (_TransferTwoTuple, TypeError),
    "row-not-a-tuple": (_TransferListRow, TypeError),
    "non-int-bound": (_TransferFloatBound, TypeError),
    "empty-interval": (_TransferEmptyRow, ValueError),
    "negative-start": (_TransferNegativeStart, ValueError),
    "sets-state": (_TransferSetsState, RuntimeError),
}


class TestTransferFailures:
    """A ``transfer`` is held to what ``scatter`` is: a raise, a malformed
    row (not a 3-tuple, a non-int bound, not ``0 <= start < end``) or a
    state update is an ``IcmProgramError`` of the scatter phase at the
    overlap ``[start, end)`` — in-process and across the worker pipe."""

    def test_the_well_formed_base_runs(self):
        result = api.run(tiny_graph(), _TransferBase(), options=EXECUTORS["serial"])
        assert result.metrics.scatter_calls == result.metrics.messages_sent == 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("case", BAD_TRANSFER)
    def test_bad_transfer_is_a_program_error_with_context(self, case, executor):
        program, cause = BAD_TRANSFER[case]
        with pytest.raises(IcmProgramError) as err:
            api.run(tiny_graph(), program(), options=EXECUTORS[executor])
        assert err.value.phase == "scatter"
        assert err.value.vertex == "a"
        assert err.value.superstep == 1
        assert err.value.interval == Interval(0, 10)
        assert isinstance(err.value.original, cause)


@pytest.mark.usefixtures("executor")
class TestMessagingEdgeCases:
    def test_direct_send_to_unknown_vertex_is_dropped(self):
        """Messages to ids outside the graph are silently discarded at the
        barrier (matching Giraph's resolve-to-nothing default)."""

        class Ghost(Base):
            def compute(self, ctx, interval, state, messages):
                if ctx.superstep == 1 and ctx.vertex_id == "a":
                    ctx.send("phantom", Interval(0, 5), 1)
                    ctx.set_state(interval, 1)

        result = IntervalCentricEngine(tiny_graph(), Ghost()).run()
        assert result.metrics.supersteps >= 2  # engine didn't crash

    def test_message_outside_lifespan_never_computes(self):
        """A message entirely outside the destination's lifespan activates
        the vertex but warp yields no triples — no compute, no corruption."""
        b = TemporalGraphBuilder()
        b.add_vertex("a", 0, 10)
        b.add_vertex("late", 0, 3)
        b.add_edge("a", "late", 0, 3, eid="al")
        g = b.build()

        calls = []

        class Probe(Base):
            def compute(self, ctx, interval, state, messages):
                calls.append((ctx.superstep, ctx.vertex_id, interval))
                super().compute(ctx, interval, state, messages)

            def scatter(self, ctx, edge, interval, state):
                return [(Interval(5, FOREVER), state)]  # beyond late's life

        IntervalCentricEngine(g, Probe()).run()
        assert all(not (s > 1 and v == "late") for s, v, _ in calls)
