"""The 12 TI and TD algorithms of the paper's evaluation (Sec. V, VII-A1)."""

from repro._lazy import lazy_exports

__all__ = [
    "TI_ALGORITHMS",
    "TD_ALGORITHMS",
    "ALL_ALGORITHMS",
    "TI_PLATFORMS",
    "TD_PLATFORMS",
    "platforms_for",
    "run_algorithm",
    "RunOutcome",
    "default_source",
    "default_target",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".defaults": ("default_source", "default_target"),
    ".runners": (
        "ALL_ALGORITHMS", "TD_ALGORITHMS", "TD_PLATFORMS", "TI_ALGORITHMS",
        "TI_PLATFORMS", "RunOutcome", "platforms_for", "run_algorithm",
    ),
})
