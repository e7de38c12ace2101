"""Structured observability for interval-centric runs.

``repro.obs`` is the run-visibility layer the paper's evaluation
(Sec. VII) implicitly demands: per-superstep compute/messaging splits,
message and byte counts, checkpoint/recovery costs — produced as a typed,
schema-versioned event stream plus a declarative metric registry, and
rendered by exporters (JSON-lines trace, Prometheus text, human tables).

Quickstart::

    from repro import api
    from repro.obs import InMemoryEvents

    mem = InMemoryEvents()
    result = api.run(graph, program, observe=mem)
    for etype, superstep, data in mem.logical():
        ...

    api.run(graph, program, observe="run.trace")  # JSON-lines file
    # then:  python -m repro report run.trace

Design guarantees:

* observability never perturbs modeled quantities — a fully-instrumented
  run reports the same counters and modeled makespan as a bare one;
* serial and parallel executors emit **identical logical event
  sequences** (wall-clock facts are segregated into each record's
  ``wall`` field);
* observability configuration never enters the checkpoint config
  fingerprint — traced runs resume untraced checkpoints and vice versa.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventStream",
    "Histogram",
    "InMemoryEvents",
    "JsonlTraceWriter",
    "MetricRegistry",
    "MetricSpec",
    "RECOVERY_METRICS",
    "RUN_METRICS",
    "RunObserver",
    "SERVE_METRICS",
    "WORKER_SPAN_PHASES",
    "logical_sequence",
    "logical_view",
    "prometheus_text",
    "read_trace",
    "render_report",
    "render_summary",
    "render_timeline",
    "render_workers",
    "split_runs",
    "validate_event",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".events": (
        "EVENT_SCHEMA_VERSION", "EVENT_TYPES", "EventStream",
        "WORKER_SPAN_PHASES", "logical_view", "validate_event",
    ),
    ".exporters": (
        "logical_sequence", "prometheus_text", "read_trace", "render_report",
        "render_summary", "render_timeline", "render_workers", "split_runs",
    ),
    ".observers": ("InMemoryEvents", "JsonlTraceWriter", "RunObserver"),
    ".registry": (
        "RECOVERY_METRICS", "RUN_METRICS", "SERVE_METRICS", "Histogram",
        "MetricRegistry", "MetricSpec",
    ),
})
