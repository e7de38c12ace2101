"""repro.serve — the long-lived query-serving tier.

Batch runs (`repro.api.run`) build an engine, execute once, and throw
everything away.  This package keeps the expensive parts resident — the
loaded graph, its partitioned placement, a warm executor per concurrency
lane — and answers ``(algorithm, params, interval, options)`` queries
against them, fronted by a FIFO admission queue with typed backpressure
and an interval-aware LRU result cache whose keys carry graph and config
fingerprints (see ``docs/serving.md``).

Entry points: :func:`repro.api.serve` builds a
:class:`~repro.serve.service.GraphService`; ``repro serve`` /
``repro query`` expose it over a Unix socket via
:class:`~repro.serve.daemon.ServeDaemon` and
:class:`~repro.serve.client.QueryClient`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BadQueryError",
    "CacheStats",
    "GraphService",
    "MetricsEndpoint",
    "QueryAnswer",
    "QueryRequest",
    "QueryTimeoutError",
    "QueueFullError",
    "ResultCache",
    "ServeError",
    "ServeMetrics",
    "error_for_code",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cache": ("CacheStats", "ResultCache"),
    ".errors": (
        "BadQueryError", "QueryTimeoutError", "QueueFullError", "ServeError",
        "error_for_code",
    ),
    ".metrics_http": ("MetricsEndpoint",),
    ".service": ("GraphService", "QueryAnswer", "QueryRequest", "ServeMetrics"),
})
