"""Streaming extension: incremental ICM over append-only temporal graphs."""

from repro._lazy import lazy_exports

__all__ = ["StreamingIntervalEngine"]

__getattr__, __dir__ = lazy_exports(
    globals(), {".engine": ("StreamingIntervalEngine",)}
)
