"""Integration: every (algorithm × platform) cell runs and the platforms
produce conceptually equivalent outcomes (paper Sec. VII-B1)."""

import pytest

from repro.algorithms import (
    ALL_ALGORITHMS,
    TD_ALGORITHMS,
    TI_ALGORITHMS,
    platforms_for,
    run_algorithm,
)
from repro.datasets import reddit

GRAPH = reddit(scale=0.25)
GRAPH_NAME = "reddit-small"


@pytest.mark.usefixtures("executor")
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_every_platform_runs(algorithm):
    for platform in platforms_for(algorithm):
        outcome = run_algorithm(algorithm, platform, GRAPH, graph_name=GRAPH_NAME)
        metrics = outcome.metrics
        assert metrics.compute_calls > 0, (algorithm, platform)
        assert metrics.supersteps > 0, (algorithm, platform)
        assert metrics.platform == platform or metrics.platform == "GRAPHITE"


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run_algorithm("BOGUS", "GRAPHITE", GRAPH)


def test_platform_matrix_matches_paper():
    """TI on GRAPHITE/MSB/Chlonos; TD on GRAPHITE/TGB/GoFFish."""
    for algorithm in TI_ALGORITHMS:
        assert platforms_for(algorithm) == ("GRAPHITE", "MSB", "Chlonos")
        with pytest.raises(ValueError):
            run_algorithm(algorithm, "TGB", GRAPH)
    for algorithm in TD_ALGORITHMS:
        assert platforms_for(algorithm) == ("GRAPHITE", "TGB", "GoFFish")
        with pytest.raises(ValueError):
            run_algorithm(algorithm, "MSB", GRAPH)


@pytest.mark.usefixtures("executor")
class TestCrossPlatformEquivalence:
    """Sample result agreement through the runner layer (the per-algorithm
    suites verify against references exhaustively; here we pin the runner's
    own wiring — sources, targets, reversals — to be consistent)."""

    def test_bfs_values_agree(self):
        icm = run_algorithm("BFS", "GRAPHITE", GRAPH)
        msb = run_algorithm("BFS", "MSB", GRAPH)
        chl = run_algorithm("BFS", "Chlonos", GRAPH)
        horizon = GRAPH.time_horizon()
        for vid in GRAPH.vertex_ids():
            for t in range(horizon):
                assert (
                    icm.result.value_at(vid, t)
                    == msb.result.values[t][vid]
                    == chl.result.values[t][vid]
                ), (vid, t)

    def test_sssp_values_agree(self):
        from repro.algorithms.td.sssp import INFINITY

        icm = run_algorithm("SSSP", "GRAPHITE", GRAPH)
        tgb = run_algorithm("SSSP", "TGB", GRAPH)
        gof = run_algorithm("SSSP", "GoFFish", GRAPH)
        horizon = GRAPH.time_horizon()
        for vid in GRAPH.vertex_ids():
            for t in range(horizon):
                expected = icm.result.value_at(vid, t)
                assert tgb.result.pointwise(vid, t, default=INFINITY) == expected
                assert gof.result.value_at(vid, t, default=INFINITY) == expected

    def test_lcc_values_agree(self):
        from repro.algorithms.td.lcc import lcc_value

        icm = run_algorithm("LCC", "GRAPHITE", GRAPH)
        tgb = run_algorithm("LCC", "TGB", GRAPH)
        horizon = GRAPH.time_horizon()
        for vid in GRAPH.vertex_ids():
            for t in range(horizon):
                assert lcc_value(icm.result.value_at(vid, t)) == pytest.approx(
                    lcc_value(tgb.result.replica_values.get((vid, t)))
                ), (vid, t)
