"""Tests for durable top-k queries."""

import pytest

from repro.core.interval import Interval
from repro.query import Timeline, durable_top_k


def iv(a, b):
    return Interval(a, b)


def test_single_leader():
    timelines = {
        "a": Timeline([(iv(0, 10), 5)]),
        "b": Timeline([(iv(0, 10), 3)]),
        "c": Timeline([(iv(0, 10), 1)]),
    }
    ranked = durable_top_k(timelines, k=1)
    assert ranked == [("a", 10, [iv(0, 10)])]


def test_lead_changes_over_time():
    timelines = {
        "a": Timeline([(iv(0, 4), 9), (iv(4, 10), 1)]),
        "b": Timeline([(iv(0, 4), 2), (iv(4, 10), 8)]),
    }
    ranked = durable_top_k(timelines, k=1)
    assert ranked == [
        ("b", 6, [iv(4, 10)]),
        ("a", 4, [iv(0, 4)]),
    ]


def test_k2_includes_both():
    timelines = {
        "a": Timeline([(iv(0, 6), 9)]),
        "b": Timeline([(iv(0, 6), 5)]),
        "c": Timeline([(iv(0, 6), 1)]),
    }
    ranked = durable_top_k(timelines, k=2)
    assert [(vid, dur) for vid, dur, _ in ranked] == [("a", 6), ("b", 6)]


def test_absent_entities_not_ranked():
    timelines = {
        "early": Timeline([(iv(0, 3), 1)]),
        "late": Timeline([(iv(5, 8), 1)]),
    }
    ranked = durable_top_k(timelines, k=1)
    # Each leads while the other is absent; the gap [3,5) ranks nobody.
    assert sorted((vid, dur) for vid, dur, _ in ranked) == [("early", 3), ("late", 3)]


def test_smallest_score_mode():
    timelines = {
        "cheap": Timeline([(iv(0, 5), 1)]),
        "pricey": Timeline([(iv(0, 5), 9)]),
    }
    ranked = durable_top_k(timelines, k=1, reverse=False)
    assert ranked[0][0] == "cheap"


def test_deterministic_ties():
    timelines = {
        "x": Timeline([(iv(0, 4), 7)]),
        "a": Timeline([(iv(0, 4), 7)]),
    }
    ranked = durable_top_k(timelines, k=1)
    assert ranked[0][0] == "a"  # ties break by id


def test_intervals_coalesce():
    timelines = {
        "a": Timeline([(iv(0, 3), 9), (iv(3, 6), 8)]),  # boundary at 3
        "b": Timeline([(iv(0, 6), 1)]),
    }
    ranked = durable_top_k(timelines, k=1)
    assert ranked[0] == ("a", 6, [iv(0, 6)])


@pytest.mark.usefixtures("executor")
def test_with_pagerank_states():
    """End-to-end: most durably top-ranked vertex of a temporal PR run."""
    from repro.algorithms.ti.pagerank import TemporalPageRank
    from repro.core.engine import IntervalCentricEngine
    from repro.datasets import reddit
    from repro.query import state_timeline

    graph = reddit(scale=0.3)
    result = IntervalCentricEngine(graph, TemporalPageRank(graph)).run()
    timelines = {vid: state_timeline(result, vid) for vid in graph.vertex_ids()}
    ranked = durable_top_k(timelines, k=3)
    assert ranked
    total = graph.time_horizon()
    assert all(0 < duration <= total for _, duration, _ in ranked)
    # The most durable entry stays in the per-instant top-3 for a
    # non-trivial stretch (rank churns on this fast-evolving surrogate).
    assert ranked[0][1] >= total // 4
