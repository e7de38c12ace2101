"""Tests for temporal SSSP journey reconstruction."""

import pytest

from ._reference import temporal_sssp_grid
from repro.algorithms.td.journeys import (
    TemporalSSSPJourneys,
    journey_cost,
    reconstruct_journey,
)
from repro.algorithms.td.sssp import INFINITY, TemporalSSSP
from repro.core.engine import IntervalCentricEngine
from repro.datasets import transit_graph


@pytest.fixture(scope="module")
def transit():
    graph = transit_graph()
    result = IntervalCentricEngine(graph, TemporalSSSPJourneys("A")).run()
    return graph, result


@pytest.mark.usefixtures("executor")
class TestCostsUnchanged:
    def test_costs_match_plain_sssp(self, transit, graph, horizon):
        """Carrying provenance must not change the optimal costs — checked
        on both the transit example and random graphs."""
        t_graph, t_result = transit
        plain = IntervalCentricEngine(t_graph, TemporalSSSP("A")).run()
        for vid in "ABCDEF":
            for t in (0, 4, 6, 9):
                assert t_result.value_at(vid, t)[0] == plain.value_at(vid, t)

        result = IntervalCentricEngine(graph, TemporalSSSPJourneys("v0")).run()
        grid = temporal_sssp_grid(graph, "v0", horizon=horizon)
        for vid, row in grid.items():
            for t in range(horizon):
                assert result.value_at(vid, t)[0] == row[t], (vid, t)


class TestTransitItineraries:
    def test_paper_journey_to_E(self, transit):
        """The paper's walk-through: A departs 5 → B (cost 3), B departs 8
        → E arriving 9, total cost 5."""
        graph, result = transit
        legs = reconstruct_journey(result, graph, "A", "E", at=10)
        assert [str(l) for l in legs] == [
            "A --dep 5, cost 3--> B (arr 6)",
            "B --dep 8, cost 2--> E (arr 9)",
        ]
        assert journey_cost(legs) == 5

    def test_earlier_arrival_uses_other_route(self, transit):
        """Arriving by 7 forces the costlier A→C→E route (cost 7)."""
        graph, result = transit
        legs = reconstruct_journey(result, graph, "A", "E", at=7)
        assert [(l.src, l.dst) for l in legs] == [("A", "C"), ("C", "E")]
        assert journey_cost(legs) == 7

    def test_unreachable(self, transit):
        graph, result = transit
        assert reconstruct_journey(result, graph, "A", "F", at=9) is None
        assert reconstruct_journey(result, graph, "A", "E", at=4) is None

    def test_journey_to_source_is_empty(self, transit):
        graph, result = transit
        assert reconstruct_journey(result, graph, "A", "A", at=5) == []


@pytest.mark.usefixtures("executor")
class TestJourneyValidity:
    def test_random_graph_journeys_are_time_respecting(self, graph, horizon):
        """Every reconstructed journey must be temporally consistent and
        cost exactly what the state claims."""
        result = IntervalCentricEngine(graph, TemporalSSSPJourneys("v0")).run()
        for vid in graph.vertex_ids():
            at = horizon - 1
            state_cost = result.value_at(vid, at)[0]
            legs = reconstruct_journey(result, graph, "v0", vid, at=at)
            if state_cost >= INFINITY:
                assert legs is None or vid == "v0"
                continue
            assert legs is not None, vid
            assert journey_cost(legs) == state_cost or vid == "v0"
            # Time-respecting: departures never precede arrivals.
            clock = 0
            for leg in legs:
                assert leg.departure >= clock
                assert leg.arrival == leg.departure + 1  # tt = 1 in conftest
                clock = leg.arrival
                edge_alive = any(
                    e.dst == leg.dst and e.lifespan.contains_point(leg.departure)
                    for e in graph.out_edges(leg.src)
                )
                assert edge_alive
