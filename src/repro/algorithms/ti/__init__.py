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
    ".bfs": ("TemporalBFS", "UNREACHED"),
    ".pagerank": ("TemporalPageRank", "vertex_count_timeline"),
    ".scc": ("SccResult", "run_icm_scc"),
    ".wcc": ("TemporalWCC", "make_undirected"),
    # The baseline platforms' user logic (paper Sec. VII-A3).
    "repro.baselines.ti.bfs": ("SnapshotBFS",),
    "repro.baselines.ti.pagerank": ("SnapshotPageRank",),
    "repro.baselines.ti.scc": ("run_chlonos_scc", "run_snapshot_scc"),
    "repro.baselines.ti.wcc": ("SnapshotWCC",),
})
