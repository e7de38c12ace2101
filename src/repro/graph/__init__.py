"""Temporal property graph model, snapshots, transformed graphs, IO.

Loading a graph from disk or by dataset name goes through the
:func:`repro.api.load_graph` front door; the per-format entry points
this package used to export (``load_graph``, ``load_graph_binary``,
``load_snap_edgelist``, ``load_contact_sequence``) remain importable as
deprecation shims but warn — new code should not sniff formats by hand.
"""

import warnings
from importlib import import_module

from repro._lazy import lazy_exports

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

_lazy_getattr, __dir__ = lazy_exports(globals(), {
    ".binary_io": ("dump_graph_binary",),
    ".builder": ("TemporalGraphBuilder",),
    ".compact": (
        "CompactEdge", "CompactGraph", "CompactVertex", "resolve_graph_store",
    ),
    ".io": ("dump_graph",),
    ".model": ("EdgePiece", "TemporalEdge", "TemporalGraph", "TemporalVertex"),
    ".properties": ("PropertySet", "PropertyTimeline"),
    ".snapshots": (
        "StaticEdge", "StaticGraph", "iter_snapshots", "largest_snapshot",
        "snapshot_at", "snapshot_sizes",
    ),
    ".stats": (
        "DatasetStats", "dataset_stats", "memory_footprint", "resident_bytes",
    ),
    ".transform": ("CHAIN", "build_transformed_graph", "transformed_size"),
    ".window": ("GraphWindow",),
})

# Deprecated load entry points, kept importable for one release: never
# cached, so the warning fires at every *use*, and it points at the front
# door.
_DEPRECATED_LOADERS = {
    "load_graph": ("repro.graph.io", "load_graph"),
    "load_graph_binary": ("repro.graph.binary_io", "load_graph_binary"),
    "load_snap_edgelist": ("repro.graph.parsers", "load_snap_edgelist"),
    "load_contact_sequence": ("repro.graph.parsers", "load_contact_sequence"),
}


def __getattr__(name):
    target = _DEPRECATED_LOADERS.get(name)
    if target is None:
        return _lazy_getattr(name)
    module, attr = target
    warnings.warn(
        f"repro.graph.{name} is deprecated; use repro.api.load_graph "
        f"(format auto-detection covers this loader)",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(import_module(module), attr)
