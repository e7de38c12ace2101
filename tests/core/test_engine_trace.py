"""End-to-end engine tests against the paper's traced SSSP run (Fig. 2).

The transit graph (``repro.datasets.transit``) reconstructs Fig. 1(a); the
paper's walk-through of superstep-by-superstep behaviour pins down the
engine's warp wiring, scatter invocation rules and final states.
"""

import pytest

from repro import api
from repro.algorithms.td.sssp import INFINITY, TemporalSSSP
from repro.core.engine import IntervalCentricEngine
from repro.core.interval import FOREVER, Interval
from repro.datasets.transit import EXPECTED_SSSP_FROM_A, transit_graph


class RecordingSSSP(TemporalSSSP):
    """SSSP that logs every compute and scatter invocation."""

    def __init__(self, source):
        super().__init__(source)
        self.compute_log = []
        self.scatter_log = []

    def compute(self, ctx, interval, state, messages):
        self.compute_log.append(
            (ctx.superstep, ctx.vertex_id, interval, sorted(messages))
        )
        super().compute(ctx, interval, state, messages)

    def scatter(self, ctx, edge, interval, state):
        self.scatter_log.append((ctx.superstep, ctx.vertex_id, edge.eid, interval, state))
        return super().scatter(ctx, edge, interval, state)


@pytest.fixture(scope="module")
def trace():
    graph = transit_graph()
    program = RecordingSSSP("A")
    engine = api.build_engine(
        graph, program, graph_name="transit",
        options={
            "enable_warp_combiner": False,  # keep full message groups observable
            "executor": "serial",  # the program logs calls in-process
        },
    )
    result = engine.run()
    return program, result


def expected_state(vid):
    out = []
    for start, end, cost in EXPECTED_SSSP_FROM_A[vid]:
        iv = Interval(start, FOREVER if end is None else end)
        out.append((iv, INFINITY if cost is None else cost))
    return out


class TestFinalStates:
    @pytest.mark.parametrize("vid", list("ABCDEF"))
    def test_final_state_matches_paper(self, trace, vid):
        _, result = trace
        assert result.states[vid].partitions() == expected_state(vid)

    def test_F_unreachable_for_temporal_reasons(self, trace):
        """F is topologically connected (E→F) but the edge expires before
        E is ever reachable — a time-respecting constraint."""
        _, result = trace
        assert result.value_at("F", 5) == INFINITY

    def test_terminates_in_three_supersteps(self, trace):
        _, result = trace
        assert result.metrics.supersteps == 3


class TestPaperTrace:
    def test_superstep1_computes_every_vertex_once(self, trace):
        program, _ = trace
        ss1 = [entry for entry in program.compute_log if entry[0] == 1]
        assert sorted(v for _, v, _, _ in ss1) == list("ABCDEF")
        for _, _, interval, messages in ss1:
            assert interval == Interval(0, FOREVER)
            assert messages == []

    def test_A_scatter_called_twice_for_edge_AB(self, trace):
        """Two interval properties ⟨[3,5),4⟩ and ⟨[5,6),3⟩ → two calls."""
        program, _ = trace
        ab = [e for e in program.scatter_log if e[1] == "A" and e[2] == "AB"]
        assert [(e[3], e[4]) for e in ab] == [
            (Interval(3, 5), 0),
            (Interval(5, 6), 0),
        ]

    def test_warp_at_B_superstep2(self, trace):
        """Compute at B: [4,6) with {4} and [6,∞) with {3,4}."""
        program, _ = trace
        b_calls = [e for e in program.compute_log if e[0] == 2 and e[1] == "B"]
        assert [(e[2], e[3]) for e in b_calls] == [
            (Interval(4, 6), [4]),
            (Interval(6, FOREVER), [3, 4]),
        ]

    def test_scatter_B_to_C_superstep2(self, trace):
        """Scatter on B→C for property ⟨[8,9),2⟩ overlapping ⟨[6,∞),3⟩."""
        program, _ = trace
        bc = [e for e in program.scatter_log if e[1] == "B" and e[2] == "BC"]
        assert bc == [(2, "B", "BC", Interval(8, 9), 3)]

    def test_warp_at_E_superstep3(self, trace):
        """Warp yields ⟨[6,9),∞,{7}⟩ and ⟨[9,∞),∞,{5,7}⟩."""
        program, _ = trace
        e_calls = [e for e in program.compute_log if e[0] == 3 and e[1] == "E"]
        assert [(e[2], e[3]) for e in e_calls] == [
            (Interval(6, 9), [7]),
            (Interval(9, FOREVER), [5, 7]),
        ]

    def test_C_receives_non_improving_message_superstep3(self, trace):
        """⟨[9,∞),5⟩ arrives at C whose state is already 3 → no update."""
        program, result = trace
        c_calls = [e for e in program.compute_log if e[0] == 3 and e[1] == "C"]
        assert c_calls == [(3, "C", Interval(9, FOREVER), [5])]
        assert result.value_at("C", 9) == 3


class TestEngineVsTransformedCounts:
    def test_icm_needs_far_fewer_calls_than_transformed(self):
        """The intro's headline: the interval-centric run touches far fewer
        (vertex, interval) units than VCM on the transformed graph."""
        from repro.baselines.td.sssp import TgbSSSP
        from repro.baselines.tgb import run_tgb

        graph = transit_graph()
        icm = IntervalCentricEngine(graph, TemporalSSSP("A"), graph_name="transit").run()
        tgb = run_tgb(graph, TgbSSSP("A"), graph_name="transit")
        assert icm.metrics.compute_calls < tgb.metrics.compute_calls
        assert icm.metrics.messages_sent < tgb.metrics.total_messages


class TestCombinerEquivalence:
    def test_warp_combiner_does_not_change_results(self):
        graph = transit_graph()
        with_comb = IntervalCentricEngine(graph, TemporalSSSP("A")).run()
        without = api.run(
            graph, TemporalSSSP("A"),
            options={"enable_warp_combiner": False, "enable_receiver_combiner": False},
        )
        for vid in "ABCDEF":
            assert with_comb.states[vid].partitions() == without.states[vid].partitions()

    def test_suppression_does_not_change_results(self):
        graph = transit_graph()
        on = IntervalCentricEngine(graph, TemporalSSSP("A")).run()
        off = api.run(
            graph, TemporalSSSP("A"), options={"enable_warp_suppression": False}
        )
        for vid in "ABCDEF":
            assert on.states[vid].partitions() == off.states[vid].partitions()
