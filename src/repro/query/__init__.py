"""Temporal query layer: timelines, slices, and graph/result analytics.

The paper's future work proposes "query capabilities over temporal
property graphs"; this package provides a small TGA-inspired operator set
over the library's native types.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Timeline",
    "align",
    "aggregate",
    "temporal_slice",
    "vertex_subgraph",
    "edge_subgraph",
    "between",
    "degree_timeline",
    "durable_top_k",
    "vertex_count_timeline",
    "edge_count_timeline",
    "property_timeline",
    "state_timeline",
    "top_k_at",
    "when_stable",
    "total_over_time",
    "Journey",
    "JourneyLeg",
    "iter_journeys",
    "find_journeys",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".analytics": (
        "degree_timeline", "durable_top_k", "edge_count_timeline",
        "property_timeline", "state_timeline", "top_k_at", "total_over_time",
        "vertex_count_timeline", "when_stable",
    ),
    ".paths": ("Journey", "JourneyLeg", "find_journeys", "iter_journeys"),
    ".slice": ("between", "edge_subgraph", "temporal_slice", "vertex_subgraph"),
    ".timeline": ("Timeline", "aggregate", "align"),
})
