"""Temporal property graph model, snapshots, transformed graphs, IO.

Loading a graph from disk or by dataset name goes through the
:func:`repro.api.load_graph` front door; the per-format loaders live in
their modules (`repro.graph.io`, `repro.graph.binary_io`,
`repro.graph.parsers`) and are not re-exported here.
"""

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
    "dump_graph_binary",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".binary_io": ("dump_graph_binary",),
    ".builder": ("TemporalGraphBuilder",),
    ".compact": ("CompactEdge", "CompactGraph", "CompactVertex"),
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
