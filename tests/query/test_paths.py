"""Tests for journey enumeration."""

import pytest

from repro.core.interval import Interval
from repro.datasets import transit_graph
from repro.query.paths import find_journeys, iter_journeys


class TestTransitJourneys:
    def test_journeys_A_to_E(self):
        g = transit_graph()
        journeys = find_journeys(g, "A", "E", window=Interval(0, 12), max_legs=3)
        routes = [tuple(leg.edge.eid for leg in j.legs) for j in journeys]
        assert ("AC", "CE") in routes
        assert ("AB", "BE") in routes
        # The A→C→E journey arrives first (6) at cost 7.
        first = journeys[0]
        assert first.arrival == 6
        assert first.cost == 7
        assert first.duration == first.arrival - first.departure

    def test_journeys_respect_time(self):
        g = transit_graph()
        for journey in iter_journeys(g, "A", "E", window=Interval(0, 12), max_legs=4):
            clock = journey.departure
            for leg in journey.legs:
                assert leg.departure >= clock
                assert leg.edge.lifespan.contains_point(leg.departure)
                clock = leg.arrival

    def test_no_journey_to_F(self):
        g = transit_graph()
        assert find_journeys(g, "A", "F", window=Interval(0, 12), max_legs=5) == []

    def test_window_restricts(self):
        g = transit_graph()
        # Only the early A→C→E connection fits before t=7.
        journeys = find_journeys(g, "A", "E", window=Interval(0, 7), max_legs=3)
        assert [tuple(l.edge.eid for l in j.legs) for j in journeys] == [("AC", "CE")]

    def test_max_legs(self):
        g = transit_graph()
        assert find_journeys(g, "A", "E", window=Interval(0, 12), max_legs=1) == []

    def test_max_results_cap(self):
        g = transit_graph()
        journeys = list(iter_journeys(g, "A", "E", window=Interval(0, 12),
                                      max_legs=4, max_results=1))
        assert len(journeys) == 1

    @pytest.mark.usefixtures("executor")
    def test_consistency_with_reachability(self):
        """A journey exists iff RH says the target is reachable (within the
        enumerator's hop bound on this small graph)."""
        from repro.algorithms.td.reach import TemporalReachability, is_reachable
        from repro.core.engine import IntervalCentricEngine

        g = transit_graph()
        result = IntervalCentricEngine(g, TemporalReachability("A")).run()
        for vid in "BCDEF":
            journeys = find_journeys(g, "A", vid, window=Interval(0, 12), max_legs=5)
            assert bool(journeys) == is_reachable(result.states[vid]), vid

    @pytest.mark.usefixtures("executor")
    def test_cheapest_enumerated_matches_sssp(self):
        """The cheapest enumerated journey to E costs what SSSP reports."""
        from repro.algorithms.td.sssp import TemporalSSSP
        from repro.core.engine import IntervalCentricEngine

        g = transit_graph()
        sssp = IntervalCentricEngine(g, TemporalSSSP("A")).run()
        journeys = find_journeys(g, "A", "E", window=Interval(0, 12), max_legs=4)
        cheapest = min(j.cost for j in journeys)
        assert cheapest == min(v for _, v in sssp.states["E"])

    def test_revisits_flag(self):
        from repro.graph.builder import TemporalGraphBuilder

        b = TemporalGraphBuilder()
        b.add_vertices(["x", "y"], 0, 10)
        b.add_edge("x", "y", 0, 10, eid="xy")
        b.add_edge("y", "x", 0, 10, eid="yx")
        g = b.build()
        without = find_journeys(g, "x", "x", window=Interval(0, 10), max_legs=2)
        assert without == []  # x starts visited
        with_rev = find_journeys(g, "x", "x", window=Interval(0, 10),
                                 max_legs=2, allow_revisits=True)
        assert [tuple(l.edge.eid for l in j.legs) for j in with_rev] == [("xy", "yx")]
