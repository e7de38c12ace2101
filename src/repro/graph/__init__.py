"""Temporal property graph model, snapshots, transformed graphs, IO.

Loading a graph from disk or by dataset name goes through the
:func:`repro.api.load_graph` front door; the per-format entry points
this package used to export (``load_graph``, ``load_graph_binary``,
``load_snap_edgelist``, ``load_contact_sequence``) remain importable as
deprecation shims but warn — new code should not sniff formats by hand.
"""

import warnings

from .binary_io import dump_graph_binary
from .builder import TemporalGraphBuilder
from .compact import CompactEdge, CompactGraph, CompactVertex, resolve_graph_store
from .io import dump_graph
from .model import EdgePiece, TemporalEdge, TemporalGraph, TemporalVertex
from .properties import PropertySet, PropertyTimeline
from .snapshots import (
    StaticEdge,
    StaticGraph,
    iter_snapshots,
    largest_snapshot,
    snapshot_at,
    snapshot_sizes,
)
from .stats import DatasetStats, dataset_stats, memory_footprint, resident_bytes
from .transform import CHAIN, build_transformed_graph, transformed_size
from .window import GraphWindow

__all__ = [
    "TemporalGraph",
    "TemporalVertex",
    "TemporalEdge",
    "EdgePiece",
    "TemporalGraphBuilder",
    "CompactGraph",
    "CompactVertex",
    "CompactEdge",
    "GraphWindow",
    "resolve_graph_store",
    "PropertySet",
    "PropertyTimeline",
    "StaticGraph",
    "StaticEdge",
    "snapshot_at",
    "iter_snapshots",
    "snapshot_sizes",
    "largest_snapshot",
    "build_transformed_graph",
    "transformed_size",
    "CHAIN",
    "DatasetStats",
    "dataset_stats",
    "memory_footprint",
    "resident_bytes",
    "dump_graph",
    "load_graph",
    "dump_graph_binary",
    "load_graph_binary",
    "load_snap_edgelist",
    "load_contact_sequence",
]

# Deprecated load entry points, kept importable for one release: resolve
# lazily so the warning fires at *use*, and point at the front door.
_DEPRECATED_LOADERS = {
    "load_graph": ("repro.graph.io", "load_graph"),
    "load_graph_binary": ("repro.graph.binary_io", "load_graph_binary"),
    "load_snap_edgelist": ("repro.graph.parsers", "load_snap_edgelist"),
    "load_contact_sequence": ("repro.graph.parsers", "load_contact_sequence"),
}


def __getattr__(name):
    target = _DEPRECATED_LOADERS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = target
    warnings.warn(
        f"repro.graph.{name} is deprecated; use repro.api.load_graph "
        f"(format auto-detection covers this loader)",
        DeprecationWarning,
        stacklevel=2,
    )
    import importlib

    return getattr(importlib.import_module(module), attr)
