"""Property-based equivalence: ICM vs brute-force references on random
temporal graphs (stronger than the fixed-seed suites).

The differential net under the engine's hot path: all twelve programs —
the ones the two engine workloads of ``benchmarks/e2e`` run (BFS, SSSP, EAT,
RH, FAST, TMST, LD on ``td_frontier``; PR on ``pr_dense``), WCC, SCC's
peeling passes and the two non-combinable ones (LCC, TC: whole message
groups reach ``compute``) — each against its dense reference in
``repro.algorithms.reference``, on generated graphs whose
vertex lifespans vary and whose ``travel-cost`` and ``travel-time`` both
change mid-edge — so edges have several property pieces, states fragment,
and messages land partly outside their receiver's lifespan.  Each property
runs under the serial executor by name and, on a smaller example budget
(every run forks), under two worker processes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms.reference import (
    snapshot_bfs,
    snapshot_lcc,
    snapshot_pagerank,
    snapshot_scc,
    snapshot_tc,
    snapshot_wcc,
    temporal_eat,
    temporal_fast,
    temporal_ld,
    temporal_reach_grid,
    temporal_sssp_grid,
    temporal_tmst_arrivals,
)
from repro.algorithms.td.eat import TemporalEAT, earliest_arrival
from repro.algorithms.td.fast import TemporalFAST, fastest_duration
from repro.algorithms.td.lcc import TemporalLCC, lcc_value
from repro.algorithms.td.ld import TemporalLD, latest_departure
from repro.algorithms.td.reach import TemporalReachability
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.td.tc import TemporalTC, tc_count
from repro.algorithms.td.tmst import TemporalTMST, tmst_tree
from repro.algorithms.ti.bfs import TemporalBFS
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.algorithms.ti.scc import run_icm_scc
from repro.algorithms.ti.wcc import TemporalWCC, make_undirected
from repro.core.interval import Interval
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.snapshots import snapshot_at

from ..runtime.test_golden_serial import EXECUTORS

HORIZON = 8
SOURCE = "v0"

SERIAL = EXECUTORS["serial"]
TWO_PROCESSES = EXECUTORS["parallel"]
#: Example budget of the forked leg, per algorithm.
FORKED_EXAMPLES = 20


def _regimes(draw, start, end, values):
    """A property spec over ``[start, end)``: one value, or — occasionally —
    two regimes split at an interior point."""
    value = draw(values)
    if end - start >= 2 and draw(st.booleans()):
        mid = draw(st.integers(min_value=start + 1, max_value=end - 1))
        return [(start, mid, value), (mid, end, draw(values))]
    return [(start, end, value)]


@st.composite
def temporal_graph(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    b = TemporalGraphBuilder()
    spans = []
    for i in range(n):
        # Most vertices live over the whole horizon; some join late or
        # leave early (the source too).
        start, end = 0, HORIZON
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            start = draw(st.integers(min_value=0, max_value=HORIZON - 2))
            end = draw(st.integers(min_value=start + 2, max_value=HORIZON))
        spans.append(Interval(start, end))
        b.add_vertex(f"v{i}", start, end)
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        if dst == src:
            dst = (dst + 1) % n
        common = spans[src].intersect(spans[dst])
        if common is None:
            continue  # the endpoints never coexist (constraint 2)
        start = draw(st.integers(min_value=common.start, max_value=common.end - 1))
        end = draw(st.integers(min_value=start + 1, max_value=common.end))
        b.add_edge(
            f"v{src}", f"v{dst}", start, end,
            props={
                "travel-cost": _regimes(draw, start, end, st.integers(1, 4)),
                "travel-time": _regimes(draw, start, end, st.integers(1, 2)),
            },
        )
    return b.build()


def _run(graph, program, options):
    return api.run(graph, program, options=options)


# -- the properties: check(graph, executor options) ---------------------------


def check_sssp(graph, options):
    result = _run(graph, TemporalSSSP(SOURCE), options)
    grid = temporal_sssp_grid(graph, SOURCE, horizon=HORIZON)
    for vid, row in grid.items():
        lifespan = graph.vertex(vid).lifespan
        for t in range(lifespan.start, min(lifespan.end, HORIZON)):
            assert result.value_at(vid, t) == row[t], (vid, t)


def check_eat(graph, options):
    result = _run(graph, TemporalEAT(SOURCE), options)
    expected = temporal_eat(graph, SOURCE, horizon=HORIZON)
    for vid, arrival in expected.items():
        got = earliest_arrival(result.states[vid])
        if arrival is None:
            assert got is None or got >= HORIZON, vid
        else:
            assert got == arrival, vid


def check_reachability(graph, options):
    result = _run(graph, TemporalReachability(SOURCE), options)
    grid = temporal_reach_grid(graph, SOURCE, horizon=HORIZON)
    for vid, row in grid.items():
        lifespan = graph.vertex(vid).lifespan
        for t in range(lifespan.start, min(lifespan.end, HORIZON)):
            assert bool(result.value_at(vid, t)) == row[t], (vid, t)


def check_fast(graph, options):
    result = _run(graph, TemporalFAST(SOURCE, horizon=HORIZON), options)
    expected = temporal_fast(graph, SOURCE, horizon=HORIZON)
    for vid, duration in expected.items():
        assert fastest_duration(result.states[vid]) == duration, vid


def check_ld(graph, options):
    target, deadline = "v1", HORIZON - 1
    result = _run(graph.reversed(), TemporalLD(target, deadline), options)
    expected = temporal_ld(graph, target, deadline, horizon=HORIZON)
    for vid, departure in expected.items():
        if vid == target:
            continue  # the target's own LD is definitional
        assert latest_departure(result.states[vid]) == departure, vid


def check_tmst(graph, options):
    result = _run(graph, TemporalTMST(SOURCE), options)
    expected = temporal_tmst_arrivals(graph, SOURCE, horizon=HORIZON)
    tree = tmst_tree(result.states, SOURCE)
    for vid, arrival in expected.items():
        if vid == SOURCE:
            continue
        if arrival is None:
            assert vid not in tree or tree[vid][0] >= HORIZON, vid
        else:
            assert tree[vid][0] == arrival, vid


def check_bfs(graph, options):
    result = _run(graph, TemporalBFS(SOURCE), options)
    for t in range(HORIZON):
        snap = snapshot_at(graph, t)
        if not snap.has_vertex(SOURCE):
            continue  # no source, no traversal at this time-point
        for vid, dist in snapshot_bfs(snap, SOURCE).items():
            assert result.value_at(vid, t) == dist, (vid, t)


def check_wcc(graph, options):
    result = _run(make_undirected(graph), TemporalWCC(), options)
    for t in range(HORIZON):
        expected = snapshot_wcc(snapshot_at(graph, t))
        for vid, label in expected.items():
            assert result.value_at(vid, t) == label, (vid, t)


def check_pagerank(graph, options):
    result = _run(graph, TemporalPageRank(graph), options)
    for t in range(HORIZON):
        expected = snapshot_pagerank(snapshot_at(graph, t))
        for vid, rank in expected.items():
            assert result.value_at(vid, t) == pytest.approx(rank), (vid, t)


def check_scc(graph, options):
    result = run_icm_scc(graph, icm_options=options)
    for t in range(HORIZON):
        expected = snapshot_scc(snapshot_at(graph, t))
        for vid, label in expected.items():
            assert result.component_at(vid, t) == label, (vid, t)


def check_lcc(graph, options):
    result = _run(graph, TemporalLCC(), options)
    for t in range(HORIZON):
        expected = snapshot_lcc(snapshot_at(graph, t))
        for vid, lcc in expected.items():
            assert lcc_value(result.value_at(vid, t)) == pytest.approx(lcc), (vid, t)


def check_tc(graph, options):
    result = _run(graph, TemporalTC(), options)
    for t in range(HORIZON):
        expected = snapshot_tc(snapshot_at(graph, t))
        for vid, count in expected.items():
            assert tc_count(result.value_at(vid, t)) == count, (vid, t)


CHECKS = {
    "SSSP": check_sssp,
    "EAT": check_eat,
    "RH": check_reachability,
    "FAST": check_fast,
    "LD": check_ld,
    "TMST": check_tmst,
    "BFS": check_bfs,
    "WCC": check_wcc,
    "PR": check_pagerank,
    "SCC": check_scc,
    "LCC": check_lcc,
    "TC": check_tc,
}


# -- serial leg ---------------------------------------------------------------


@given(temporal_graph())
@settings(max_examples=80, deadline=None)
def test_sssp_matches_grid(graph):
    check_sssp(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=80, deadline=None)
def test_eat_matches_reference(graph):
    check_eat(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=80, deadline=None)
def test_reachability_matches_grid_pointwise(graph):
    check_reachability(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=60, deadline=None)
def test_fast_matches_reference(graph):
    check_fast(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=60, deadline=None)
def test_ld_matches_reference(graph):
    check_ld(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=60, deadline=None)
def test_tmst_arrivals_match_reference(graph):
    check_tmst(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=60, deadline=None)
def test_bfs_matches_per_snapshot(graph):
    check_bfs(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=60, deadline=None)
def test_wcc_matches_per_snapshot(graph):
    check_wcc(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=40, deadline=None)
def test_pagerank_matches_per_snapshot(graph):
    check_pagerank(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=40, deadline=None)
def test_scc_matches_per_snapshot(graph):
    check_scc(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=60, deadline=None)
def test_lcc_matches_per_snapshot(graph):
    check_lcc(graph, SERIAL)


@given(temporal_graph())
@settings(max_examples=60, deadline=None)
def test_tc_matches_per_snapshot(graph):
    check_tc(graph, SERIAL)


# -- two-process leg ----------------------------------------------------------


@pytest.mark.parametrize("algorithm", CHECKS)
def test_matches_reference_on_two_processes(algorithm):
    check = CHECKS[algorithm]

    @given(temporal_graph())
    @settings(max_examples=FORKED_EXAMPLES, deadline=None)
    def on_two_processes(graph):
        check(graph, TWO_PROCESSES)

    on_two_processes()
