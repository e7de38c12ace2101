"""Engine-mechanics tests: aggregators, master control, direct messaging,
fixed supersteps, guards and the suppression heuristics."""

import pickle

import pytest

from repro import api
from repro.core.combiner import min_combiner
from repro.core.engine import (
    IcmProgramError,
    IntervalCentricEngine,
    VertexProcessor,
    _complement,
)
from repro.core.interval import FOREVER, Interval
from repro.core.messages import message
from repro.core.program import IntervalProgram
from repro.graph.builder import TemporalGraphBuilder

from ..runtime.test_golden_serial import EXECUTORS
from ._reference_impls import rows_of


def line_graph(n=4, horizon=10):
    b = TemporalGraphBuilder()
    for i in range(n):
        b.add_vertex(f"v{i}", 0, horizon)
    for i in range(n - 1):
        b.add_edge(f"v{i}", f"v{i + 1}", 0, horizon)
    return b.build()


class Flood(IntervalProgram):
    name = "flood"

    def __init__(self):
        self.combiner = min_combiner()

    def init(self, ctx):
        ctx.set_state(ctx.lifespan, FOREVER)

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep == 1:
            if ctx.vertex_id == "v0":
                ctx.set_state(interval, 0)
            return
        best = min(messages)
        if best < state:
            ctx.set_state(interval, best)

    def scatter(self, ctx, edge, interval, state):
        if state >= FOREVER:
            return None
        return [(interval, state + 1)]


@pytest.mark.usefixtures("executor")
class TestBasicLoop:
    def test_flood_on_line(self):
        result = IntervalCentricEngine(line_graph(), Flood()).run()
        for i in range(4):
            assert result.value_at(f"v{i}", 5) == i

    def test_supersteps_and_activation(self):
        result = IntervalCentricEngine(line_graph(), Flood()).run()
        m = result.metrics
        assert m.supersteps == 4  # one hop per superstep, halt when silent
        # superstep1: 4 calls; then one call per newly informed vertex.
        assert m.compute_calls == 4 + 3

    def test_max_superstep_guard(self):
        class PingPong(IntervalProgram):
            name = "pingpong"

            def init(self, ctx):
                ctx.set_state(ctx.lifespan, 0)

            def compute(self, ctx, interval, state, messages):
                ctx.set_state(interval, state + 1)

            def scatter(self, ctx, edge, interval, state):
                return [(interval, state)]

        b = TemporalGraphBuilder()
        b.add_vertices(["a", "b"])
        b.add_edge("a", "b")
        b.add_edge("b", "a")
        with pytest.raises(RuntimeError, match="exceeded"):
            api.build_engine(b.build(), PingPong(), options={"max_supersteps": 5}).run()


class TestAggregatorsAndMaster:
    def test_aggregate_and_read_next_superstep(self):
        observed = {}

        class Agg(Flood):
            def aggregators(self):
                return {"reached": lambda a, b: a + b}

            def compute(self, ctx, interval, state, messages):
                if ctx.superstep > 1:
                    observed[ctx.superstep] = ctx.get_aggregate("reached")
                super().compute(ctx, interval, state, messages)
                if ctx.state.value_at(0) < FOREVER:
                    ctx.aggregate("reached", 1)

        # White-box observation via the `observed` closure: in-process only.
        api.build_engine(line_graph(), Agg(), options={"executor": "serial"}).run()
        # superstep 2 sees superstep 1's reduction: only v0 contributed
        # (and only *active* vertices contribute, so each later superstep
        # reduces exactly the frontier vertex's contribution).
        assert observed[2] == 1
        assert observed[3] == 1

    @pytest.mark.usefixtures("executor")
    def test_unregistered_aggregator_raises_with_context(self):
        from repro.core.engine import IcmProgramError

        class Bad(Flood):
            def compute(self, ctx, interval, state, messages):
                ctx.aggregate("nope", 1)

        with pytest.raises(IcmProgramError) as err:
            IntervalCentricEngine(line_graph(), Bad()).run()
        assert isinstance(err.value.original, KeyError)
        assert err.value.phase == "compute"
        assert err.value.superstep == 1

    @pytest.mark.usefixtures("executor")
    def test_master_halt_stops_early(self):
        class Halter(Flood):
            def master_compute(self, master):
                if master.superstep == 2:
                    master.halt()

        result = IntervalCentricEngine(line_graph(), Halter()).run()
        assert result.metrics.supersteps == 2
        assert result.value_at("v3", 5) == FOREVER  # flood cut short

    def test_master_aggregate_override(self):
        seen = {}

        class Overrider(Flood):
            def aggregators(self):
                return {"x": lambda a, b: a + b}

            def compute(self, ctx, interval, state, messages):
                if ctx.superstep == 2 and ctx.vertex_id == "v1":
                    seen["x"] = ctx.get_aggregate("x")
                super().compute(ctx, interval, state, messages)

            def master_compute(self, master):
                if master.superstep == 1:
                    master.set_aggregate("x", 42)

        api.build_engine(line_graph(), Overrider(), options={"executor": "serial"}).run()
        assert seen["x"] == 42


class TestDirectMessaging:
    def test_send_reaches_arbitrary_vertex(self):
        received = []

        class Pinger(IntervalProgram):
            name = "pinger"

            def init(self, ctx):
                ctx.set_state(ctx.lifespan, None)

            def compute(self, ctx, interval, state, messages):
                if ctx.superstep == 1 and ctx.vertex_id == "v0":
                    ctx.send("v3", Interval(2, 5), "hello")  # no edge v0→v3
                for m in messages:
                    received.append((ctx.vertex_id, interval, m))

        result = api.build_engine(line_graph(), Pinger(), options={"executor": "serial"}).run()
        assert received == [("v3", Interval(2, 5), "hello")]
        assert result.metrics.messages_sent == 1


@pytest.mark.usefixtures("executor")
class TestStateUpdateGuards:
    def test_compute_cannot_update_outside_active_interval(self):
        class Escaper(Flood):
            def compute(self, ctx, interval, state, messages):
                if ctx.superstep == 2:
                    ctx.set_state(ctx.lifespan, 0)  # exceeds active interval
                else:
                    super().compute(ctx, interval, state, messages)

        from repro.core.engine import IcmProgramError

        b = TemporalGraphBuilder()
        b.add_vertices(["a", "b"], 0, 10)
        b.add_edge("a", "b", 2, 5)

        class Seed(Escaper):
            def compute(self, ctx, interval, state, messages):
                if ctx.superstep == 1:
                    if ctx.vertex_id == "a":
                        ctx.set_state(interval, 0)
                    return
                ctx.set_state(ctx.lifespan, 0)

        with pytest.raises(IcmProgramError, match="sub-intervals"):
            IntervalCentricEngine(b.build(), Seed()).run()

    def test_scatter_cannot_update_state(self):
        class BadScatter(Flood):
            def scatter(self, ctx, edge, interval, state):
                ctx.set_state(interval, -1)
                return None

        with pytest.raises(RuntimeError, match="scatter must not"):
            IntervalCentricEngine(line_graph(), BadScatter()).run()


class _ListScatterSetsState(Flood):
    """``scatter`` that updates state, returning a list."""

    def scatter(self, ctx, edge, interval, state):
        ctx.set_state(interval, state + 1)
        return [(interval, state + 1)]


class _GeneratorScatterSetsState(Flood):
    """The same program as a generator: its body runs while the engine
    iterates what ``scatter`` returned, not while it calls ``scatter``."""

    def scatter(self, ctx, edge, interval, state):
        ctx.set_state(interval, state + 1)
        yield (interval, state + 1)


class _InitRaises(Flood):
    def init(self, ctx):
        if ctx.vertex_id == "v2":
            raise KeyError("no seed for v2")
        super().init(ctx)


class TestGuardsUnderBothExecutors:
    """Programs are module-level so they (and the error) cross a worker pipe."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "program", [_ListScatterSetsState, _GeneratorScatterSetsState]
    )
    def test_scatter_cannot_update_state_however_it_returns(self, program, executor):
        """The scatter phase stays armed until the returned iterable has been
        consumed: the generator twin used to slip past the guard and
        re-scatter its own update one superstep late, for ever."""
        with pytest.raises(IcmProgramError, match="scatter must not") as err:
            api.run(
                line_graph(), program(),
                options={**EXECUTORS[executor], "max_supersteps": 12},
            )
        assert err.value.phase == "scatter"
        assert (err.value.vertex, err.value.superstep) == ("v0", 1)
        assert isinstance(err.value.original, RuntimeError)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_a_failing_init_carries_its_context(self, executor):
        with pytest.raises(IcmProgramError) as err:
            api.run(line_graph(), _InitRaises(), options=EXECUTORS[executor])
        assert err.value.phase == "init"
        assert (err.value.vertex, err.value.superstep) == ("v2", 1)
        assert err.value.interval == Interval(0, 10)
        assert isinstance(err.value.original, KeyError)
        if executor == "serial":  # the pipe carries the error, not its cause
            assert err.value.__cause__ is err.value.original
        clone = pickle.loads(pickle.dumps(err.value))
        assert (clone.phase, clone.vertex, clone.superstep, clone.interval) == (
            "init", "v2", 1, Interval(0, 10),
        )
        assert str(clone) == str(err.value)


class TestSuppressionHeuristics:
    SPAN = Interval(0, 50)

    def make_engine(self, **kw):
        """The processor a worker runtime would build for this engine."""
        engine = api.build_engine(line_graph(), Flood(), options=kw)
        return VertexProcessor(
            engine.graph, engine.program, engine.cluster.compute_model,
            engine.config.warp,
        )

    def test_threshold_respected(self):
        engine = self.make_engine(warp_suppression_threshold=0.5)
        unit = [message(t, t + 1, t) for t in range(4)]
        long = [message(0, 8, 9)]
        assert engine.should_suppress_warp(rows_of(unit), self.SPAN)
        assert not engine.should_suppress_warp(rows_of(unit[:1] + long * 3), self.SPAN)

    def test_unbounded_messages_never_suppressed(self):
        engine = self.make_engine()
        msgs = [message(t, t + 1, t) for t in range(9)]
        msgs.append(message(3, FOREVER, 1))
        assert not engine.should_suppress_warp(rows_of(msgs), Interval(0, FOREVER))

    def test_unbounded_message_clipped_by_bounded_lifespan(self):
        """A till-∞ message into a bounded-lifespan vertex expands to at
        most the lifespan, so it no longer vetoes suppression outright."""
        engine = self.make_engine()
        msgs = [message(t, t + 1, t) for t in range(9)]
        msgs.append(message(3, FOREVER, 1))
        assert engine.should_suppress_warp(rows_of(msgs), Interval(0, 10))

    def test_expansion_cap(self):
        engine = self.make_engine()
        msgs = [message(t, t + 1, t) for t in range(8)] + [message(0, 40, 1)]
        # 8 units + one 40-long: expansion 48 > 4 * 9 → refuse.
        assert not engine.should_suppress_warp(rows_of(msgs), self.SPAN)

    def test_disabled(self):
        engine = self.make_engine(enable_warp_suppression=False)
        assert not engine.should_suppress_warp(rows_of([message(0, 1, 1)]), self.SPAN)

    def test_dead_unit_traffic_cannot_force_suppression(self):
        """Regression: unit messages entirely outside the lifespan used to
        count toward the unit fraction, flipping vertices with genuinely
        interval-shaped live traffic onto the time-point path."""
        engine = self.make_engine()
        lifespan = Interval(0, 10)
        live = [message(0, 9, 5)]  # one long, warp-worthy message
        dead = [message(20 + t, 21 + t, t) for t in range(9)]
        assert not engine.should_suppress_warp(rows_of(live + dead), lifespan)

    def test_dead_long_traffic_cannot_veto_suppression(self):
        """Regression: a long message outside the lifespan used to blow the
        expansion cap for a vertex whose live traffic is all unit-length."""
        engine = self.make_engine()
        lifespan = Interval(0, 10)
        live = [message(t, t + 1, t) for t in range(6)]
        dead = [message(10, 45, 1)]
        assert engine.should_suppress_warp(rows_of(live + dead), lifespan)
        # The live units alone obviously suppress; dead traffic must not
        # change the verdict.
        assert engine.should_suppress_warp(rows_of(live), lifespan)

    def test_all_dead_traffic_never_suppresses(self):
        engine = self.make_engine()
        msgs = [message(30 + t, 31 + t, t) for t in range(5)]
        assert not engine.should_suppress_warp(rows_of(msgs), Interval(0, 10))


class TestVertexPropertyPrepartitioning:
    """Paper footnote 2: the computing unit becomes an *interval property
    vertex* — superstep 1 invokes compute once per static-property
    sub-interval."""

    def make_graph(self):
        b = TemporalGraphBuilder()
        b.add_vertex("a", 0, 12, props={"zone": [(0, 4, "red"), (4, 12, "blue")]})
        b.add_vertex("b", 0, 12)
        b.add_edge("a", "b", 0, 12)
        return b.build()

    def test_superstep1_called_per_property_interval(self):
        calls = []

        class Probe(IntervalProgram):
            name = "probe"

            def compute(self, ctx, interval, state, messages):
                if ctx.superstep == 1:
                    calls.append((ctx.vertex_id, interval,
                                  ctx.vertex_property("zone", interval.start)))

            def scatter(self, ctx, edge, interval, state):
                return None

        api.run(
            self.make_graph(), Probe(),
            options={"prepartition_by_vertex_properties": True, "executor": "serial"},
        )
        assert (("a", Interval(0, 4), "red")) in calls
        assert (("a", Interval(4, 12), "blue")) in calls
        assert (("b", Interval(0, 12), None)) in calls

    def test_default_is_single_call_per_vertex(self):
        calls = []

        class Probe(IntervalProgram):
            name = "probe"

            def compute(self, ctx, interval, state, messages):
                calls.append((ctx.vertex_id, interval))

            def scatter(self, ctx, edge, interval, state):
                return None

        api.build_engine(self.make_graph(), Probe(), options={"executor": "serial"}).run()
        assert len(calls) == 2


class TestComplementHelper:
    def test_gaps(self):
        lifespan = Interval(0, 10)
        covered = [Interval(2, 4), Interval(6, 7)]
        assert _complement(lifespan, covered) == [
            Interval(0, 2), Interval(4, 6), Interval(7, 10),
        ]

    def test_full_cover(self):
        assert _complement(Interval(0, 5), [Interval(0, 5)]) == []

    def test_empty_cover(self):
        assert _complement(Interval(3, 8), []) == [Interval(3, 8)]

    def test_cover_exceeding_lifespan(self):
        assert _complement(Interval(3, 8), [Interval(0, 5)]) == [Interval(5, 8)]
