"""Tests for temporal closeness centrality."""

import pytest

from ._reference import temporal_eat
from repro.algorithms.td.closeness import most_central, temporal_closeness
from repro.datasets import transit_graph


class TestTransitCloseness:
    @pytest.mark.usefixtures("executor")
    def test_matches_manual_computation(self):
        g = transit_graph()
        closeness, metrics = temporal_closeness(g, sources=["A"])
        # From A (start 0): B at 4, C at 2, D at 3, E at 6; F unreachable.
        expected = 1 / 4 + 1 / 2 + 1 / 3 + 1 / 6
        assert closeness["A"] == pytest.approx(expected)
        assert metrics.compute_calls > 0

    @pytest.mark.usefixtures("executor")
    def test_all_sources_default(self):
        g = transit_graph()
        closeness, _ = temporal_closeness(g)
        assert set(closeness) == set("ABCDEF")
        # F has no outgoing edges: closeness 0.
        assert closeness["F"] == 0.0
        # A reaches the most vertices earliest.
        assert most_central(closeness, 1)[0][0] == "A"

    @pytest.mark.usefixtures("executor")
    def test_consistent_with_reference_eat(self, ):
        g = transit_graph()
        closeness, _ = temporal_closeness(g, sources=["B"])
        # The grid reference needs a horizon past the last arrival (the
        # final departures at t=8 land at t=9 == time_horizon()).
        arrivals = temporal_eat(g, "B", horizon=g.time_horizon() + 2)
        start = g.vertex("B").lifespan.start
        expected = sum(
            1.0 / (a - start)
            for vid, a in arrivals.items()
            if vid != "B" and a is not None and a > start
        )
        assert closeness["B"] == pytest.approx(expected)

    def test_most_central_deterministic_ties(self):
        ranked = most_central({"x": 1.0, "a": 1.0, "b": 0.5}, k=2)
        assert ranked == [("a", 1.0), ("x", 1.0)]
