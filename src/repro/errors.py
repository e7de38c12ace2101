"""One front door for the error taxonomy.

Every layer of the stack raises its own exception types — cluster
lifecycle misuse, worker deaths, unrecoverable runs, serving-tier
backpressure, and (new) graph-format problems.  This module re-exports
them all so callers can catch one hierarchy::

    from repro import errors
    try:
        graph = api.load_graph(path)
    except errors.GraphFormatError as exc:
        print(exc.code, exc)

Each class carries a **stable string code** (``code`` attribute), the
same codes the serve daemon puts on the wire (``serve/errors.py``
rebuilds typed exceptions from them via ``error_for_code``).  Codes are
part of the compatibility surface: renaming one breaks clients, so they
are pinned by ``tests/test_errors.py``.

Re-exports are lazy (`repro._lazy`) so importing this module never drags
in the runtime or serving tiers.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "ERROR_CODES",
    "GraphFormatError",
    "ClusterLifecycleError",
    "WorkerDiedError",
    "UnrecoverableRunError",
    "QueueFullError",
    "ServeError",
    "QueryTimeoutError",
    "BadQueryError",
    "error_code",
]


class GraphFormatError(ValueError):
    """A graph source could not be recognised, parsed, or mapped.

    Raised by ``api.load_graph`` (unknown format, failed sniffing, bad
    magic/version, truncated compact file) and by the compact encoder
    (unstorable vertex ids or property values).
    """

    code = "graph_format"


#: Stable string code → where the exception class lives.  The serving
#: daemon transports the subset of these raised during query handling;
#: ``error_code`` reads the same attribute off any caught exception.
ERROR_CODES = {
    "graph_format": ("repro.errors", "GraphFormatError"),
    "cluster_lifecycle": ("repro.runtime.cluster", "ClusterLifecycleError"),
    "worker_died": ("repro.runtime.faults", "WorkerDiedError"),
    "unrecoverable_run": ("repro.runtime.faults", "UnrecoverableRunError"),
    "serve_error": ("repro.serve.errors", "ServeError"),
    "queue_full": ("repro.serve.errors", "QueueFullError"),
    "timeout": ("repro.serve.errors", "QueryTimeoutError"),
    "bad_query": ("repro.serve.errors", "BadQueryError"),
}


def error_code(exc: BaseException) -> str:
    """The stable string code of ``exc``, or ``"error"`` for foreign types."""
    return getattr(type(exc), "code", "error")


__getattr__, __dir__ = lazy_exports(globals(), {
    module: [name for home, name in ERROR_CODES.values() if home == module]
    for module, _ in ERROR_CODES.values()
    if module != __name__
})
