"""Unit tests for the (algorithm × platform) runner layer."""

import pytest

from repro.algorithms.runners import (
    ALL_ALGORITHMS,
    TD_ALGORITHMS,
    TI_ALGORITHMS,
    default_source,
    default_target,
    platforms_for,
    run_algorithm,
)
from repro.datasets import transit_graph
from repro.graph.builder import TemporalGraphBuilder


class TestDefaults:
    def test_default_source_is_max_out_degree(self):
        g = transit_graph()
        assert default_source(g) == "A"  # 3 out-edges

    def test_default_target_is_max_in_degree(self):
        g = transit_graph()
        # C and E both have 2 in-edges; ties break towards the larger id.
        assert default_target(g) == "E"

    def test_deterministic_on_ties(self):
        b = TemporalGraphBuilder()
        b.add_vertices(["x", "y", "z"])
        g = b.build()
        assert default_source(g) == default_source(g) == "z"


@pytest.mark.usefixtures("executor")
class TestDefaultsResolvedWhereConsumed:
    """Each default walks the whole adjacency (a view per edge on a compact
    graph), so ``run_algorithm`` resolves one only in the branch that
    takes it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.algorithms import runners

        counts = {"source": 0, "target": 0}

        def counting(name, fn):
            def wrapper(graph):
                counts[name] += 1
                return fn(graph)
            return wrapper

        monkeypatch.setattr(
            runners, "default_source", counting("source", runners.default_source))
        monkeypatch.setattr(
            runners, "default_target", counting("target", runners.default_target))
        return counts

    @pytest.mark.parametrize("algorithm", ["PR", "WCC", "SCC", "LCC", "TC"])
    def test_sourceless_algorithms_resolve_neither(self, calls, algorithm):
        run_algorithm(algorithm, "GRAPHITE", transit_graph())
        assert calls == {"source": 0, "target": 0}

    def test_explicit_source_resolves_neither(self, calls):
        run_algorithm("SSSP", "GRAPHITE", transit_graph(), source="B")
        assert calls == {"source": 0, "target": 0}

    def test_sssp_resolves_the_source_once_and_no_target(self, calls):
        run_algorithm("SSSP", "GRAPHITE", transit_graph())
        assert calls == {"source": 1, "target": 0}

    @pytest.mark.parametrize("platform", ["GRAPHITE", "TGB", "GoFFish"])
    def test_ld_resolves_the_target_once_and_no_source(self, calls, platform):
        g = transit_graph()
        default = run_algorithm("LD", platform, g)
        assert calls == {"source": 0, "target": 1}
        explicit = run_algorithm(
            "LD", platform, g,
            target=default_target(g), deadline=g.time_horizon() - 1,
        )
        assert calls == {"source": 0, "target": 1}
        answer = {
            "GRAPHITE": lambda res: {vid: list(st) for vid, st in res.states.items()},
            "TGB": lambda res: res.replica_values,
            "GoFFish": lambda res: (res.values, res.observed),
        }[platform]
        assert answer(default.result) == answer(explicit.result)


class TestMatrixShape:
    def test_algorithm_lists_cover_paper(self):
        assert set(TI_ALGORITHMS) == {"BFS", "WCC", "SCC", "PR"}
        assert set(TD_ALGORITHMS) == {
            "SSSP", "EAT", "FAST", "LD", "TMST", "RH", "LCC", "TC"}
        assert len(ALL_ALGORITHMS) == 12

    def test_platforms_for(self):
        assert platforms_for("PR") == ("GRAPHITE", "MSB", "Chlonos")
        assert platforms_for("LCC") == ("GRAPHITE", "TGB", "GoFFish")


class TestParameterPlumbing:
    @pytest.mark.usefixtures("executor")
    def test_explicit_source_used(self):
        g = transit_graph()
        outcome = run_algorithm("SSSP", "GRAPHITE", g, source="B")
        # From B only C and E are reachable.
        from repro.algorithms.td.sssp import INFINITY

        assert outcome.result.value_at("E", 9) < INFINITY
        assert outcome.result.value_at("D", 9) >= INFINITY

    @pytest.mark.usefixtures("executor")
    def test_icm_options_forwarded(self):
        g = transit_graph()
        baseline = run_algorithm("SSSP", "GRAPHITE", g)
        no_combiner = run_algorithm(
            "SSSP", "GRAPHITE", g,
            icm_options={"enable_warp_combiner": False,
                         "enable_receiver_combiner": False},
        )
        assert no_combiner.metrics.combiner_reductions == 0
        assert baseline.metrics.combiner_reductions >= 0
        for vid in "ABCDEF":
            assert (baseline.result.value_at(vid, 9)
                    == no_combiner.result.value_at(vid, 9))

    @pytest.mark.usefixtures("executor")
    def test_deadline_for_ld(self):
        g = transit_graph()
        tight = run_algorithm("LD", "GRAPHITE", g, target="E", deadline=6)
        loose = run_algorithm("LD", "GRAPHITE", g, target="E", deadline=10)
        from repro.algorithms.td.ld import latest_departure

        # With deadline 6 only the A→C→E corridor works (depart A by 1).
        assert latest_departure(tight.result.states["A"]) == 1
        assert latest_departure(loose.result.states["A"]) == 5

    def test_metrics_labelled(self):
        g = transit_graph()
        outcome = run_algorithm("RH", "TGB", g, graph_name="transit")
        assert outcome.metrics.platform == "TGB"
        assert outcome.metrics.graph == "transit"
        assert outcome.algorithm == "RH"


_GRAPHITE_ONLY = """
import json, sys
from repro.algorithms import ALL_ALGORITHMS, run_algorithm
from repro.datasets import transit_graph
for algorithm in ALL_ALGORITHMS:
    run_algorithm(algorithm, "GRAPHITE", transit_graph())
print(json.dumps(sorted(sys.modules)))
"""


class TestPlatformLayering:
    """The baseline platforms are a layer the ICM path never loads: a
    GRAPHITE program's module holds no baseline variant, and each variant
    the runner resolves is the one its package's lazy name gives."""

    def test_graphite_runs_load_no_baseline(self):
        import json

        from .._fresh_interpreter import run_fresh

        modules = json.loads(run_fresh(_GRAPHITE_ONLY).splitlines()[-1])
        layered = ("repro.baselines", "repro.graph.transform", "repro.graph.snapshots")
        loaded = [m for m in modules if m.startswith(layered)]
        assert not loaded, f"GRAPHITE runs imported {loaded}"

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_resolved_programs_are_the_lazy_names(self, algorithm):
        import importlib

        from repro.algorithms import runners

        layer = "ti" if algorithm in TI_ALGORITHMS else "td"
        package = importlib.import_module(f"repro.algorithms.{layer}")
        for platform in platforms_for(algorithm):
            program = runners._program(algorithm, platform)
            assert getattr(package, program.__name__) is program
            home = "repro.algorithms" if platform == "GRAPHITE" else "repro.baselines"
            assert program.__module__.startswith(f"{home}.{layer}."), program
