"""Deterministic default endpoints for a run that names none.

Split from `repro.algorithms.runners` so that a job which only needs a
source (``from repro.algorithms import default_source``) does not compile
the whole evaluation-matrix dispatcher.
"""

from __future__ import annotations

from typing import Any


def default_source(graph) -> Any:
    """A deterministic interesting source: the max out-degree vertex."""
    return max(graph.vertex_ids(), key=lambda vid: (graph.out_degree(vid), str(vid)))


def default_target(graph) -> Any:
    """A deterministic interesting target: the max in-degree vertex."""
    return max(graph.vertex_ids(), key=lambda vid: (graph.in_degree(vid), str(vid)))
