"""Property-based tests: every engine optimisation is semantics-neutral.

The paper's engineering optimisations (Sec. VI) must never change results
— only costs.  These tests run SSSP/EAT over randomly generated temporal
graphs with each optimisation toggled and require pointwise-identical
final states, plus direct properties of the message-set transformations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms.td.eat import TemporalEAT
from repro.algorithms.td.sssp import TemporalSSSP
from repro.core.combiner import coalesce_messages, min_combiner
from repro.core.interval import FOREVER, Interval
from repro.core.state import states_equal_pointwise
from repro.graph.builder import TemporalGraphBuilder

HORIZON = 10


@st.composite
def temporal_graph(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    b = TemporalGraphBuilder()
    for i in range(n):
        b.add_vertex(f"v{i}", 0, HORIZON)
    n_edges = draw(st.integers(min_value=1, max_value=14))
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        if dst == src:
            dst = (dst + 1) % n
        start = draw(st.integers(min_value=0, max_value=HORIZON - 1))
        end = draw(st.integers(min_value=start + 1, max_value=HORIZON))
        cost = draw(st.integers(min_value=1, max_value=4))
        b.add_edge(f"v{src}", f"v{dst}", start, end,
                   props={"travel-cost": [(start, end, cost)], "travel-time": 1})
    return b.build()


def _states(graph, program_factory, **options):
    return api.build_engine(graph, program_factory(), options=options).run().states


OPTION_SETS = [
    {"enable_warp_combiner": False},
    {"enable_receiver_combiner": False},
    {"enable_dominated_elimination": False},
    {"enable_warp_suppression": False},
    {"coalesce_states": False},
    {"enable_warp_combiner": False, "enable_receiver_combiner": False,
     "enable_dominated_elimination": False, "enable_warp_suppression": False,
     "coalesce_states": False},
]


@pytest.mark.usefixtures("executor")
@given(temporal_graph(), st.sampled_from(range(len(OPTION_SETS))))
@settings(max_examples=120, deadline=None)
def test_sssp_invariant_under_optimisations(graph, option_idx):
    baseline = _states(graph, lambda: TemporalSSSP("v0"))
    variant = _states(graph, lambda: TemporalSSSP("v0"), **OPTION_SETS[option_idx])
    for vid in graph.vertex_ids():
        assert states_equal_pointwise(baseline[vid], variant[vid]), (
            vid, OPTION_SETS[option_idx])


@pytest.mark.usefixtures("executor")
@given(temporal_graph(), st.sampled_from(range(len(OPTION_SETS))))
@settings(max_examples=80, deadline=None)
def test_eat_invariant_under_optimisations(graph, option_idx):
    baseline = _states(graph, lambda: TemporalEAT("v0"))
    variant = _states(graph, lambda: TemporalEAT("v0"), **OPTION_SETS[option_idx])
    for vid in graph.vertex_ids():
        assert states_equal_pointwise(baseline[vid], variant[vid]), vid


@pytest.mark.usefixtures("executor")
@given(temporal_graph(), st.sampled_from(range(len(OPTION_SETS))))
@settings(max_examples=60, deadline=None)
def test_rh_invariant_under_optimisations(graph, option_idx):
    from repro.algorithms.td.reach import TemporalReachability

    baseline = _states(graph, lambda: TemporalReachability("v0"))
    variant = _states(
        graph, lambda: TemporalReachability("v0"), **OPTION_SETS[option_idx]
    )
    for vid in graph.vertex_ids():
        assert states_equal_pointwise(baseline[vid], variant[vid]), vid


@pytest.mark.usefixtures("executor")
@given(temporal_graph(), st.sampled_from(range(len(OPTION_SETS))))
@settings(max_examples=60, deadline=None)
def test_tmst_invariant_under_optimisations(graph, option_idx):
    from repro.algorithms.td.tmst import TemporalTMST

    baseline = _states(graph, lambda: TemporalTMST("v0"))
    variant = _states(graph, lambda: TemporalTMST("v0"), **OPTION_SETS[option_idx])
    for vid in graph.vertex_ids():
        assert states_equal_pointwise(baseline[vid], variant[vid]), vid


# -- direct properties of the message transformations --------------------------


@st.composite
def message_batch(draw):
    """The engine's internal message shape: ``(start, end, value)`` rows."""
    n = draw(st.integers(min_value=1, max_value=10))
    msgs = []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=20))
        length = draw(st.one_of(st.integers(min_value=1, max_value=10), st.none()))
        end = FOREVER if length is None else start + length
        value = draw(st.integers(min_value=0, max_value=5))
        msgs.append((start, end, value))
    return msgs


def _values_at(rows, t):
    return [value for start, end, value in rows if start <= t < end]


def _pointwise_min(rows, t):
    covering = _values_at(rows, t)
    return min(covering) if covering else None


@given(message_batch())
@settings(max_examples=300, deadline=None)
def test_dominated_elimination_preserves_pointwise_fold(msgs):
    pruned = min_combiner().combine_dominated(msgs)
    assert len(pruned) <= len(msgs)
    for t in range(0, 35):
        assert _pointwise_min(pruned, t) == _pointwise_min(msgs, t)
    # Unbounded tail too.
    assert _pointwise_min(pruned, 10**9) == _pointwise_min(msgs, 10**9)


@given(message_batch())
@settings(max_examples=300, deadline=None)
def test_dominated_elimination_is_idempotent(msgs):
    combiner = min_combiner()
    once = combiner.combine_dominated(msgs)
    assert combiner.combine_dominated(once) == once


@given(message_batch(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_coalesce_preserves_pointwise_value_sets(msgs, allow_overlap):
    merged = coalesce_messages(msgs, allow_overlap=allow_overlap)
    assert len(merged) <= len(msgs)
    for t in list(range(0, 35)) + [10**9]:
        before = set(_values_at(msgs, t))
        after = set(_values_at(merged, t))
        assert before == after, t


@given(message_batch())
@settings(max_examples=300, deadline=None)
def test_coalesce_without_overlap_preserves_multiplicity(msgs):
    """Adjacent-only merging never changes per-point value multisets."""
    merged = coalesce_messages(msgs, allow_overlap=False)
    for t in list(range(0, 35)) + [10**9]:
        before = sorted(_values_at(msgs, t))
        after = sorted(_values_at(merged, t))
        assert before == after, t
