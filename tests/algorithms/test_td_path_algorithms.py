"""Correctness of the TD path algorithms (SSSP, EAT, FAST, LD, TMST, RH)
against dense dynamic-programming references, on all three platforms."""

import pytest

from repro.algorithms.reference import (
    INF,
    temporal_eat,
    temporal_fast,
    temporal_ld,
    temporal_reach_grid,
    temporal_sssp_grid,
)
from repro.algorithms.td.eat import TemporalEAT, earliest_arrival
from repro.algorithms.td.fast import TemporalFAST, fastest_duration
from repro.algorithms.td.ld import TemporalLD, latest_departure
from repro.algorithms.td.reach import TemporalReachability, is_reachable
from repro.algorithms.td.sssp import INFINITY, TemporalSSSP
from repro.algorithms.td.tmst import TemporalTMST, tmst_tree
from repro.baselines.goffish import GoffishEngine
from repro.baselines.td.eat import GoffishEAT, TgbEAT
from repro.baselines.td.fast import GoffishFAST, TgbFAST, tgb_fastest_duration
from repro.baselines.td.ld import GoffishLD, TgbLD, tgb_latest_departure
from repro.baselines.td.reach import GoffishReachability, TgbReachability
from repro.baselines.td.sssp import GoffishSSSP, TgbSSSP
from repro.baselines.td.tmst import GoffishTMST, TgbTMST
from repro.baselines.tgb import run_tgb
from repro.core.engine import IntervalCentricEngine
from repro.graph.transform import build_transformed_graph

SOURCE = "v0"
TARGET = "v1"


class TestSSSP:
    def test_icm_matches_grid_pointwise(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalSSSP(SOURCE)).run()
        grid = temporal_sssp_grid(graph, SOURCE, horizon=horizon)
        for vid, row in grid.items():
            for t in range(horizon):
                assert result.value_at(vid, t) == row[t], (vid, t)

    def test_tgb_matches_grid_pointwise(self, graph, horizon):
        res = run_tgb(graph, TgbSSSP(SOURCE), horizon=horizon)
        grid = temporal_sssp_grid(graph, SOURCE, horizon=horizon)
        for vid, row in grid.items():
            for t in range(horizon):
                value = res.pointwise(vid, t, default=INFINITY)
                assert value == row[t], (vid, t)

    def test_goffish_matches_grid_pointwise(self, graph, horizon):
        res = GoffishEngine(graph, GoffishSSSP(SOURCE), horizon=horizon).run()
        grid = temporal_sssp_grid(graph, SOURCE, horizon=horizon)
        for vid, row in grid.items():
            for t in range(horizon):
                assert res.value_at(vid, t, default=INFINITY) == row[t], (vid, t)


class TestEAT:
    def test_icm_matches_reference(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalEAT(SOURCE)).run()
        expected = temporal_eat(graph, SOURCE, horizon=horizon)
        for vid, arrival in expected.items():
            got = earliest_arrival(result.states[vid])
            if arrival is None:
                assert got is None or got >= horizon, vid
            else:
                assert got == arrival, vid

    def test_tgb_matches_reference(self, graph, horizon):
        res = run_tgb(graph, TgbEAT(SOURCE), horizon=horizon)
        expected = temporal_eat(graph, SOURCE, horizon=horizon)
        for vid, arrival in expected.items():
            arrivals = [v for _, v in res.replicas_of(vid) if v is not None and v < INF]
            got = min(arrivals, default=None)
            if arrival is None:
                assert got is None or got >= horizon, vid
            else:
                assert got == arrival, vid

    def test_goffish_matches_reference(self, graph, horizon):
        res = GoffishEngine(graph, GoffishEAT(SOURCE), horizon=horizon).run()
        expected = temporal_eat(graph, SOURCE, horizon=horizon)
        for vid, arrival in expected.items():
            value = res.values.get(vid)
            got = None if value is None or value >= INF else value
            if arrival is None:
                assert got is None or got >= horizon, vid
            else:
                assert got == arrival, vid


class TestReachability:
    def test_icm_matches_reference(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalReachability(SOURCE)).run()
        grid = temporal_reach_grid(graph, SOURCE, horizon=horizon)
        for vid, row in grid.items():
            assert is_reachable(result.states[vid]) == any(row), vid

    def test_icm_pointwise(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalReachability(SOURCE)).run()
        grid = temporal_reach_grid(graph, SOURCE, horizon=horizon)
        for vid, row in grid.items():
            for t in range(horizon):
                assert bool(result.value_at(vid, t)) == row[t], (vid, t)

    def test_tgb_matches_reference(self, graph, horizon):
        res = run_tgb(graph, TgbReachability(SOURCE), horizon=horizon)
        grid = temporal_reach_grid(graph, SOURCE, horizon=horizon)
        for vid, row in grid.items():
            got = any(v for _, v in res.replicas_of(vid) if v)
            assert got == any(row), vid

    def test_goffish_matches_reference(self, graph, horizon):
        res = GoffishEngine(graph, GoffishReachability(SOURCE), horizon=horizon).run()
        grid = temporal_reach_grid(graph, SOURCE, horizon=horizon)
        for vid, row in grid.items():
            assert bool(res.values.get(vid)) == any(row), vid


class TestFAST:
    def test_icm_matches_reference(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalFAST(SOURCE, horizon=horizon)).run()
        expected = temporal_fast(graph, SOURCE, horizon=horizon)
        for vid, duration in expected.items():
            got = fastest_duration(result.states[vid])
            assert got == duration, vid

    def test_tgb_matches_reference(self, graph, horizon):
        res = run_tgb(graph, TgbFAST(SOURCE), horizon=horizon)
        expected = temporal_fast(graph, SOURCE, horizon=horizon)
        for vid, duration in expected.items():
            if vid == SOURCE:
                continue  # source replicas trivially carry start = own time
            assert tgb_fastest_duration(res, vid) == duration, vid

    def test_goffish_matches_reference(self, graph, horizon):
        res = GoffishEngine(graph, GoffishFAST(SOURCE), horizon=horizon).run()
        expected = temporal_fast(graph, SOURCE, horizon=horizon)
        for vid, duration in expected.items():
            if vid == SOURCE:
                continue
            value = res.values.get(vid)
            got = None if value is None or value[1] >= INF else value[1]
            assert got == duration, vid


class TestLD:
    def test_icm_matches_reference(self, graph, horizon):
        deadline = horizon - 1
        result = IntervalCentricEngine(
            graph.reversed(), TemporalLD(TARGET, deadline)
        ).run()
        expected = temporal_ld(graph, TARGET, deadline, horizon=horizon)
        for vid, departure in expected.items():
            if vid == TARGET:
                continue  # the target's own LD is definitional
            assert latest_departure(result.states[vid]) == departure, vid

    def test_tgb_matches_reference(self, graph, horizon):
        deadline = horizon - 1
        transformed = build_transformed_graph(graph, horizon=horizon).reversed()
        res = run_tgb(graph, TgbLD(TARGET, deadline), transformed=transformed,
                      horizon=horizon)
        expected = temporal_ld(graph, TARGET, deadline, horizon=horizon)
        for vid, departure in expected.items():
            if vid == TARGET:
                continue
            assert tgb_latest_departure(res, vid, deadline) == departure, vid

    def test_goffish_matches_reference(self, graph, horizon):
        deadline = horizon - 1
        res = GoffishEngine(
            graph.reversed(), GoffishLD(TARGET, deadline),
            horizon=horizon, direction=-1,
        ).run()
        expected = temporal_ld(graph, TARGET, deadline, horizon=horizon)
        for vid, departure in expected.items():
            if vid == TARGET:
                continue
            value = res.values.get(vid, -1)
            got = None if value is None or value < 0 else value
            assert got == departure, vid


class TestTMST:
    def test_icm_arrivals_match_eat(self, graph, horizon):
        result = IntervalCentricEngine(graph, TemporalTMST(SOURCE)).run()
        expected = temporal_eat(graph, SOURCE, horizon=horizon)
        tree = tmst_tree(result.states, SOURCE)
        for vid, arrival in expected.items():
            if vid == SOURCE:
                continue
            if arrival is None:
                assert vid not in tree or tree[vid][0] >= horizon, vid
            else:
                assert tree[vid][0] == arrival, vid

    def test_icm_tree_edges_are_valid(self, graph, horizon):
        """Each tree edge must correspond to a real, temporally valid hop."""
        result = IntervalCentricEngine(graph, TemporalTMST(SOURCE)).run()
        arrivals = temporal_eat(graph, SOURCE, horizon=horizon)
        tree = tmst_tree(result.states, SOURCE)
        for child, (arrival, parent) in tree.items():
            if arrival >= horizon:
                continue
            parent_arrival = 0 if parent == SOURCE else arrivals[parent]
            assert parent_arrival is not None
            # Some edge parent→child departs at arrival-1 (travel time 1)
            # at or after the parent's own arrival.
            dep = arrival - 1
            assert dep >= parent_arrival
            assert any(
                e.dst == child and e.lifespan.contains_point(dep)
                for e in graph.out_edges(parent)
            ), (child, parent)

    def test_tgb_arrivals_match_eat(self, graph, horizon):
        res = run_tgb(graph, TgbTMST(SOURCE), horizon=horizon)
        expected = temporal_eat(graph, SOURCE, horizon=horizon)
        for vid, arrival in expected.items():
            if vid == SOURCE:
                continue
            entries = [v for _, v in res.replicas_of(vid) if v is not None and v[0] < INF]
            got = min(entries, default=None)
            if arrival is None:
                assert got is None, vid
            else:
                assert got[0] == arrival, vid

    def test_goffish_arrivals_match_eat(self, graph, horizon):
        res = GoffishEngine(graph, GoffishTMST(SOURCE), horizon=horizon).run()
        expected = temporal_eat(graph, SOURCE, horizon=horizon)
        for vid, arrival in expected.items():
            if vid == SOURCE:
                continue
            value = res.values.get(vid)
            got = None if value is None or value[0] >= INF else value[0]
            if arrival is None:
                assert got is None, vid
            else:
                assert got == arrival, vid
