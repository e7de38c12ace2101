"""Time-independent algorithms: BFS, WCC, SCC, PageRank."""

from repro._lazy import lazy_exports

__all__ = [
    "TemporalBFS",
    "SnapshotBFS",
    "UNREACHED",
    "TemporalWCC",
    "SnapshotWCC",
    "make_undirected",
    "TemporalPageRank",
    "SnapshotPageRank",
    "vertex_count_timeline",
    "run_icm_scc",
    "run_snapshot_scc",
    "run_chlonos_scc",
    "SccResult",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".bfs": ("SnapshotBFS", "TemporalBFS", "UNREACHED"),
    ".pagerank": ("SnapshotPageRank", "TemporalPageRank", "vertex_count_timeline"),
    ".scc": ("SccResult", "run_chlonos_scc", "run_icm_scc", "run_snapshot_scc"),
    ".wcc": ("SnapshotWCC", "TemporalWCC", "make_undirected"),
})
