"""Direct unit tests for the engine's warm-start/rescatter surface
(the streaming layer's contract, tested here without the streaming
wrapper)."""

import pytest

from repro.algorithms.td.sssp import INFINITY, TemporalSSSP
from repro.core.engine import IntervalCentricEngine
from repro.core.interval import Interval
from repro.core.state import states_equal_pointwise
from repro.graph.builder import TemporalGraphBuilder

pytestmark = pytest.mark.usefixtures("executor")


def chain(n=4, horizon=10, costs=None):
    b = TemporalGraphBuilder()
    for i in range(n):
        b.add_vertex(f"v{i}", 0, horizon)
    for i in range(n - 1):
        b.add_edge(f"v{i}", f"v{i + 1}", 0, horizon,
                   props={"travel-cost": (costs or {}).get(i, 1), "travel-time": 1})
    return b.build()


class TestWarmStart:
    def test_warm_run_with_no_changes_is_a_noop(self):
        g = chain()
        first = IntervalCentricEngine(g, TemporalSSSP("v0")).run()
        warm = IntervalCentricEngine(g, TemporalSSSP("v0")).run(
            warm_states=first.states
        )
        assert warm.metrics.compute_calls == 0
        for vid in g.vertex_ids():
            assert states_equal_pointwise(first.states[vid], warm.states[vid])

    def test_warm_states_are_copied_not_aliased(self):
        g = chain()
        first = IntervalCentricEngine(g, TemporalSSSP("v0")).run()
        warm = IntervalCentricEngine(g, TemporalSSSP("v0")).run(
            warm_states=first.states, rescatter={"v0": [Interval(0, 10)]}
        )
        assert warm.states["v1"] is not first.states["v1"]

    def test_rescatter_propagates_from_current_state(self):
        g = chain()
        first = IntervalCentricEngine(g, TemporalSSSP("v0")).run()
        warm = IntervalCentricEngine(g, TemporalSSSP("v0")).run(
            warm_states=first.states, rescatter={"v0": [Interval(0, 10)]}
        )
        # Re-delivery changes nothing (monotone) but does run the machinery.
        assert warm.metrics.messages_sent > 0
        for vid in g.vertex_ids():
            assert states_equal_pointwise(first.states[vid], warm.states[vid])

    def test_new_vertex_initialised_in_warm_run(self):
        g1 = chain(3)
        first = IntervalCentricEngine(g1, TemporalSSSP("v0")).run()
        # Rebuild with an extra vertex and edge, reusing old states.
        b = TemporalGraphBuilder()
        for i in range(4):
            b.add_vertex(f"v{i}", 0, 10)
        for i in range(2):
            b.add_edge(f"v{i}", f"v{i + 1}", 0, 10,
                       props={"travel-cost": 1, "travel-time": 1})
        b.add_edge("v2", "v3", 0, 10, props={"travel-cost": 1, "travel-time": 1})
        g2 = b.build()
        warm = IntervalCentricEngine(g2, TemporalSSSP("v0")).run(
            warm_states=first.states, rescatter={"v2": [Interval(0, 10)]}
        )
        scratch = IntervalCentricEngine(g2, TemporalSSSP("v0")).run()
        for vid in g2.vertex_ids():
            assert states_equal_pointwise(warm.states[vid], scratch.states[vid])

    def test_partial_rescatter_windows(self):
        """Rescattering only a window re-sends only messages for it."""
        g = chain(2)
        first = IntervalCentricEngine(g, TemporalSSSP("v0")).run()
        warm = IntervalCentricEngine(g, TemporalSSSP("v0")).run(
            warm_states=first.states, rescatter={"v0": [Interval(4, 6)]}
        )
        sends = warm.metrics.messages_sent
        full = IntervalCentricEngine(g, TemporalSSSP("v0")).run(
            warm_states=first.states, rescatter={"v0": [Interval(0, 10)]}
        )
        assert sends <= full.metrics.messages_sent
