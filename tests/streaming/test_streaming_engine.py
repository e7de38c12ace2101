"""Tests for the streaming (incremental) ICM engine.

Core contract: after any sequence of appends, ``compute()`` returns
states pointwise-identical to a from-scratch run on the final graph —
while touching far less than the whole graph.
"""

import random

import pytest

from repro.algorithms.td.eat import TemporalEAT
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.pagerank import TemporalPageRank
from repro.baselines.ti.pagerank import SnapshotPageRank
from repro.core.engine import IntervalCentricEngine
from repro.core.state import states_equal_pointwise
from repro.graph.builder import TemporalGraphBuilder
from repro.streaming import StreamingIntervalEngine

HORIZON = 12


def full_run(graph, program):
    return IntervalCentricEngine(graph, program).run()


class TestBasics:
    def test_rejects_non_monotone_programs(self):
        b = TemporalGraphBuilder()
        b.add_vertex("a")
        g = b.build()
        with pytest.raises(ValueError, match="incremental_safe"):
            StreamingIntervalEngine(TemporalPageRank(g))

    def test_first_compute_is_full_run(self):
        stream = StreamingIntervalEngine(TemporalSSSP("a"))
        stream.add_vertex("a", 0, HORIZON)
        stream.add_vertex("b", 0, HORIZON)
        stream.add_edge("a", "b", 1, 4, props={"travel-cost": 2, "travel-time": 1})
        result = stream.compute()
        assert result.value_at("b", 5) == 2
        assert stream.refreshes == 0

    def test_constraint_checks(self):
        stream = StreamingIntervalEngine(TemporalSSSP("a"))
        stream.add_vertex("a", 0, 5)
        with pytest.raises(ValueError, match="constraint 1"):
            stream.add_vertex("a")
        with pytest.raises(ValueError, match="unknown vertex"):
            stream.add_edge("a", "zzz")
        with pytest.raises(ValueError, match="constraint 2"):
            stream.add_edge("a", "a", 0, 9)
        stream.add_edge("a", "a", 0, 5, eid="loop")
        with pytest.raises(ValueError, match="constraint 1"):
            stream.add_edge("a", "a", 0, 5, eid="loop")
        assert stream.pending_updates == 1

    def test_engine_options_validated_at_construction(self):
        # Regression: a typo'd option used to surface only when compute()
        # built its engine — possibly many appends later.
        with pytest.raises(TypeError, match="unknown engine option"):
            StreamingIntervalEngine(TemporalSSSP("a"), chekpoint_every=3)
        with pytest.raises(ValueError, match="partitioner kind"):
            StreamingIntervalEngine(TemporalSSSP("a"), partitioner="metis")

    def test_valid_engine_options_accepted(self):
        stream = StreamingIntervalEngine(TemporalSSSP("a"), checkpoint_every=0)
        stream.add_vertex("a", 0, HORIZON)
        assert stream.compute().value_at("a", 1) == 0

    def test_pending_updates_counter(self):
        stream = StreamingIntervalEngine(TemporalSSSP("a"))
        stream.add_vertex("a", 0, HORIZON)
        stream.add_vertex("b", 0, HORIZON)
        stream.compute()
        stream.add_edge("a", "b", 0, 2)
        assert stream.pending_updates == 1
        stream.compute()
        assert stream.pending_updates == 0


class TestIncrementalEquivalence:
    def _stream_vs_scratch(self, seed, program_factory, checkpoints=4):
        """Random append stream; after each checkpoint compare with a
        from-scratch run on the same graph."""
        rng = random.Random(seed)
        n = 8
        stream = StreamingIntervalEngine(program_factory())
        for i in range(n):
            stream.add_vertex(f"v{i}", 0, HORIZON)
        for checkpoint in range(checkpoints):
            for _ in range(rng.randint(1, 5)):
                src = rng.randrange(n)
                dst = rng.randrange(n)
                if dst == src:
                    dst = (dst + 1) % n
                start = rng.randrange(HORIZON - 1)
                end = rng.randint(start + 1, HORIZON)
                stream.add_edge(
                    f"v{src}", f"v{dst}", start, end,
                    props={"travel-cost": rng.randint(1, 3), "travel-time": 1},
                )
            incremental = stream.compute()
            scratch = full_run(stream.graph, program_factory())
            for vid in stream.graph.vertex_ids():
                assert states_equal_pointwise(
                    incremental.states[vid], scratch.states[vid]
                ), (seed, checkpoint, vid)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_sssp_streams_match_scratch(self, seed):
        self._stream_vs_scratch(seed, lambda: TemporalSSSP("v0"))

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_eat_streams_match_scratch(self, seed):
        self._stream_vs_scratch(seed, lambda: TemporalEAT("v0"))

    def test_new_vertices_incrementally(self):
        stream = StreamingIntervalEngine(TemporalSSSP("a"))
        stream.add_vertex("a", 0, HORIZON)
        stream.add_vertex("b", 0, HORIZON)
        stream.add_edge("a", "b", 0, 5, props={"travel-cost": 1, "travel-time": 1})
        stream.compute()
        # A vertex arriving later, immediately wired in.
        stream.add_vertex("c", 0, HORIZON)
        stream.add_edge("b", "c", 3, 8, props={"travel-cost": 2, "travel-time": 1})
        result = stream.compute()
        scratch = full_run(stream.graph, TemporalSSSP("a"))
        for vid in ("a", "b", "c"):
            assert states_equal_pointwise(result.states[vid], scratch.states[vid])

    def test_refresh_touches_less_than_scratch(self):
        """The economics: a refresh after one new edge must cost far fewer
        compute calls than recomputing the whole graph."""
        stream = StreamingIntervalEngine(TemporalSSSP("v0"))
        n = 30
        for i in range(n):
            stream.add_vertex(f"v{i}", 0, HORIZON)
        for i in range(n - 1):
            stream.add_edge(f"v{i}", f"v{i + 1}", 0, HORIZON,
                            props={"travel-cost": 1, "travel-time": 1})
        stream.compute()
        scratch_calls = full_run(stream.graph, TemporalSSSP("v0")).metrics.compute_calls
        # Append one fringe edge near the end of the chain.
        stream.add_edge("v27", "v29", 2, 6, props={"travel-cost": 1, "travel-time": 1})
        refresh = stream.compute()
        assert refresh.metrics.compute_calls < scratch_calls / 3

    def test_cumulative_metrics(self):
        stream = StreamingIntervalEngine(TemporalEAT("a"))
        stream.add_vertex("a", 0, HORIZON)
        stream.add_vertex("b", 0, HORIZON)
        stream.compute()
        first_total = stream.total_metrics.compute_calls
        stream.add_edge("a", "b", 0, 4, props={"travel-time": 1})
        stream.compute()
        assert stream.refreshes == 1
        assert stream.total_metrics.compute_calls > first_total
