"""One front door for the error taxonomy.

Every layer of the stack raises its own exception types — cluster
lifecycle misuse, worker deaths, unrecoverable runs, serving-tier
backpressure, and graph-format problems.  This module defines the ones
every run may raise (a graph format, a worker death, an unrecoverable run —
so the engine catches them without loading the runtime tier that raises
them) and re-exports the rest, so callers can catch one hierarchy::

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

from typing import Optional

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


class WorkerDiedError(RuntimeError):
    """A parallel worker process died (crash, kill, or silent nonzero exit).

    Distinct from a user-program exception: those are pickled back over the
    pipe and re-raised as themselves.  This error means the *process* is
    gone and its partition state with it.
    """

    code = "worker_died"

    def __init__(self, worker: int, superstep: int, exitcode: Optional[int] = None,
                 detail: str = ""):
        suffix = f" (exit code {exitcode})" if exitcode is not None else ""
        extra = f": {detail}" if detail else ""
        super().__init__(
            f"parallel worker {worker} died at superstep {superstep}{suffix}{extra}"
        )
        self.worker = worker
        self.superstep = superstep
        self.exitcode = exitcode

    def __reduce__(self):
        return (WorkerDiedError, (self.worker, self.superstep, self.exitcode))


class UnrecoverableRunError(RuntimeError):
    """Worker failure that recovery could not (or was not allowed to) absorb."""

    code = "unrecoverable_run"


#: Stable string code → where the exception class lives.  The serving
#: daemon transports the subset of these raised during query handling;
#: ``error_code`` reads the same attribute off any caught exception.
ERROR_CODES = {
    "graph_format": ("repro.errors", "GraphFormatError"),
    "cluster_lifecycle": ("repro.runtime.cluster", "ClusterLifecycleError"),
    "worker_died": ("repro.errors", "WorkerDiedError"),
    "unrecoverable_run": ("repro.errors", "UnrecoverableRunError"),
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
