"""The four baseline platforms of the paper's evaluation (Sec. VII-A3)."""

from repro._lazy import lazy_exports

__all__ = [
    "VertexProgram",
    "VertexCentricEngine",
    "VcmContext",
    "VcmMaster",
    "VcmResult",
    "run_msb",
    "MultiSnapshotResult",
    "run_chlonos",
    "ChlonosEngine",
    "ChlonosResult",
    "run_tgb",
    "TgbResult",
    "ChainForwardingProgram",
    "GoffishEngine",
    "GoffishProgram",
    "GoffishContext",
    "GoffishResult",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".chlonos": ("ChlonosEngine", "ChlonosResult", "run_chlonos"),
    ".goffish": (
        "GoffishContext", "GoffishEngine", "GoffishProgram", "GoffishResult",
    ),
    ".msb": ("MultiSnapshotResult", "run_msb"),
    ".tgb": ("ChainForwardingProgram", "TgbResult", "run_tgb"),
    ".vcm": (
        "VcmContext", "VcmMaster", "VcmResult", "VertexCentricEngine",
        "VertexProgram",
    ),
})
