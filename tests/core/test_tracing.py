"""Tests for the execution tracer."""

from repro import api
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.engine import IntervalCentricEngine
from repro.core.interval import FOREVER, Interval
from repro.core.tracing import ExecutionTracer
from repro.datasets import transit_graph


def traced_run(**options):
    tracer = ExecutionTracer()
    engine = api.build_engine(
        transit_graph(), TemporalSSSP("A"), options={"tracer": tracer, **options}
    )
    result = engine.run()
    return tracer, result


class TestEventCapture:
    def test_counts_match_metrics(self):
        tracer, result = traced_run()
        assert len(tracer.computes) == result.metrics.compute_calls
        assert len(tracer.scatters) == result.metrics.scatter_calls
        assert len(tracer.sends) == result.metrics.messages_sent

    def test_supersteps(self):
        tracer, result = traced_run()
        assert tracer.supersteps() == [1, 2, 3]

    def test_paper_warp_groups_at_B(self):
        tracer, _ = traced_run(enable_warp_combiner=False)
        b_calls = tracer.computes_of("B", superstep=2)
        assert [(e.interval, sorted(e.messages)) for e in b_calls] == [
            (Interval(4, 6), [4]),
            (Interval(6, FOREVER), [3, 4]),
        ]

    def test_messages_between(self):
        tracer, _ = traced_run()
        to_b = tracer.messages_between("A", "B")
        assert [(e.interval, e.value) for e in to_b] == [
            (Interval(4, FOREVER), 4),
            (Interval(6, FOREVER), 3),
        ]

    def test_scatter_events_record_edges(self):
        tracer, _ = traced_run()
        ab = [e for e in tracer.scatters if e.edge == "AB"]
        assert [(e.interval, e.state) for e in ab] == [
            (Interval(3, 5), 0),
            (Interval(5, 6), 0),
        ]


class TestRendering:
    def test_render_full(self):
        tracer, _ = traced_run()
        text = tracer.render()
        assert "=== superstep 1 ===" in text
        assert "=== superstep 3 ===" in text
        assert "send 'A' -> 'B'" in text

    def test_render_restricted(self):
        tracer, _ = traced_run()
        text = tracer.render(vertices={"E"})
        assert "compute 'E'" in text
        assert "compute 'B'" not in text
        # Messages addressed *to* E still show.
        assert "-> 'E'" in text

    def test_no_tracer_is_default(self):
        engine = IntervalCentricEngine(transit_graph(), TemporalSSSP("A"))
        assert engine.tracer is None
        engine.run()  # runs fine without hooks
