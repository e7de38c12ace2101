"""Exporters: every rendering of run metrics and traces in one place.

Three output formats over the same data:

* :func:`render_summary` — the human metric table (used by the CLI, by
  ``repro report`` and by benchmark logs; formerly ``cli._print_metrics``);
* :func:`prometheus_text` — Prometheus text exposition of a
  :class:`~repro.runtime.metrics.RunMetrics`, names/types/help derived
  from the metric registry;
* :func:`render_report` / :func:`render_timeline` — Table-4-style
  per-algorithm breakdown and a per-superstep phase timeline, regenerated
  from a saved JSON-lines trace rather than a live run.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import WORKER_SPAN_PHASES, decode_event, logical_view
from repro.obs.registry import RECOVERY_METRICS, RUN_METRICS, SERVE_METRICS

__all__ = [
    "logical_sequence",
    "prometheus_text",
    "read_trace",
    "render_report",
    "render_summary",
    "render_timeline",
    "render_workers",
    "split_runs",
]


# -- metrics ------------------------------------------------------------------


def _is_serve_metrics(metrics) -> bool:
    """Serving-tier counters (`repro.serve.ServeMetrics`) vs run metrics."""
    return hasattr(metrics, "queries_served")


def render_summary(metrics) -> str:
    """The standard human-readable metric table (one run).

    Layout matches the historic ``cli._print_metrics`` exactly for the
    core rows; durability rows appear only when checkpointing or
    recovery actually happened.  A :class:`~repro.serve.ServeMetrics`
    renders the serving-tier table instead (one long-lived service, many
    runs).
    """
    if _is_serve_metrics(metrics):
        return _render_serve_summary(metrics)
    rows = [
        ("platform", metrics.platform),
        ("algorithm", metrics.algorithm),
        ("supersteps", metrics.supersteps),
        ("compute calls", metrics.compute_calls),
        ("scatter calls", metrics.scatter_calls),
        ("messages", metrics.messages_sent),
        ("system messages", metrics.system_messages),
        ("message bytes", metrics.message_bytes),
        ("local / remote", f"{metrics.local_messages} / {metrics.remote_messages}"),
        ("modeled makespan", f"{metrics.modeled_makespan * 1e3:.3f} ms"),
        ("  compute+", f"{metrics.modeled_compute_time * 1e3:.3f} ms"),
        ("  messaging", f"{metrics.messaging_time * 1e3:.3f} ms"),
        ("  barriers", f"{metrics.barrier_time * 1e3:.3f} ms"),
        ("wall time", f"{metrics.makespan * 1e3:.3f} ms"),
    ]
    recovery = getattr(metrics, "recovery", None)
    if recovery is not None and (
        recovery.checkpoints_written or recovery.restarts
    ):
        rows.append(("checkpoints",
                     f"{recovery.checkpoints_written} "
                     f"({recovery.checkpoint_bytes} bytes, "
                     f"{recovery.checkpoint_seconds * 1e3:.3f} ms)"))
        rows.append(("restarts",
                     f"{recovery.restarts} "
                     f"({recovery.replayed_supersteps} supersteps replayed)"))
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"  {label.ljust(width)}  {value}" for label, value in rows)


def _render_serve_summary(metrics) -> str:
    """The serving-tier metric table (one service lifetime)."""
    lookups = metrics.cache_hits + metrics.cache_misses
    rows = [
        ("graph", metrics.graph),
        ("executor", metrics.executor),
        ("queries admitted", metrics.queries_admitted),
        ("queries served", metrics.queries_served),
        ("  rejected / timed out / failed",
         f"{metrics.queries_rejected} / {metrics.queries_timed_out} / "
         f"{metrics.queries_failed}"),
        ("cache hits / misses", f"{metrics.cache_hits} / {metrics.cache_misses}"),
        ("cache hit rate",
         f"{metrics.cache_hit_rate:.3f}" if lookups else "n/a"),
        ("cache bytes",
         f"{metrics.cache_bytes} ({metrics.cache_entries} entries, "
         f"{metrics.cache_evictions} evicted)"),
        ("queue depth", f"{metrics.queue_depth} (peak {metrics.queue_depth_peak})"),
        ("query time", f"{metrics.query_seconds * 1e3:.3f} ms total, "
                       f"{metrics.last_query_seconds * 1e3:.3f} ms last"),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"  {label.ljust(width)}  {value}" for label, value in rows)


def _prom_name(spec) -> str:
    name = f"repro_{spec.name}"
    if spec.kind in ("time", "histogram") and spec.unit == "seconds" \
            and not name.endswith("_seconds"):
        name += "_seconds"
    if spec.kind == "counter":
        name += "_total"
    return name


def _prom_escape(value: Any) -> str:
    """Label-value escaping per the text exposition format: backslash,
    double quote, and line feed."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(pairs: Iterable[Tuple[str, str]]) -> str:
    inner = ",".join(
        '%s="%s"' % (k, _prom_escape(v)) for k, v in pairs if v
    )
    return "{%s}" % inner if inner else ""


def _prom_float(value: float) -> str:
    """A float sample value; Prometheus spells infinities ``+Inf``/``-Inf``."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def prometheus_text(metrics) -> str:
    """Prometheus text-format exposition of one run's metrics.

    Counter/gauge/histogram typing, units and help strings all come from
    the metric registry, so this stays in lockstep with ``RunMetrics`` —
    and with ``ServeMetrics``, which expose the serving registry instead
    (including its ``histogram``-kind latency distribution, rendered as
    the standard ``_bucket``/``_sum``/``_count`` series).
    """
    label_pairs = (
        ("platform", metrics.platform),
        ("algorithm", metrics.algorithm),
        ("graph", metrics.graph),
        ("executor", metrics.executor),
    )
    labels = _prom_labels(label_pairs)
    lines: List[str] = []

    def emit_histogram(name, labelled, histogram):
        base = [(k, v) for k, v in labelled if v]
        for le, count in histogram.cumulative():
            bucket = _prom_labels((*base, ("le", _prom_float(le))))
            lines.append(f"{name}_bucket{bucket} {count}")
        lines.append(f"{name}_sum{labels} {_prom_float(histogram.sum)}")
        lines.append(f"{name}_count{labels} {histogram.count}")

    def emit(registry, source):
        for spec in registry:
            name = _prom_name(spec)
            value = getattr(source, spec.name)
            if spec.kind == "histogram":
                lines.append(f"# HELP {name} {spec.help}")
                lines.append(f"# TYPE {name} histogram")
                emit_histogram(name, label_pairs, value)
                continue
            prom_type = "counter" if spec.kind == "counter" else "gauge"
            lines.append(f"# HELP {name} {spec.help}")
            lines.append(f"# TYPE {name} {prom_type}")
            if spec.value == "int":
                lines.append(f"{name}{labels} {value}")
            else:
                lines.append(f"{name}{labels} {_prom_float(value)}")

    if _is_serve_metrics(metrics):
        emit(SERVE_METRICS, metrics)
        return "\n".join(lines) + "\n"
    emit(RUN_METRICS, metrics)
    recovery = getattr(metrics, "recovery", None)
    if recovery is not None:
        emit(RECOVERY_METRICS, recovery)
    return "\n".join(lines) + "\n"


# -- traces -------------------------------------------------------------------


def read_trace(path) -> List[Dict[str, Any]]:
    """Load and validate every record of a JSON-lines trace file.

    A malformed record mid-file is corruption and raises.  A malformed
    *final* record is the signature of a run killed mid-write (the trace
    writer flushes per event, so everything up to the torn line is
    intact) — it is dropped with a warning instead, which is what lets
    post-mortem tooling read the trace of a SIGKILLed run.
    """
    records = []
    bad: Optional[Tuple[int, str, ValueError]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if bad is not None:
                # The malformed line was not the last one: corruption.
                raise ValueError(f"{path}:{bad[0]}: {bad[2]}") from None
            try:
                records.append(decode_event(line))
            except ValueError as exc:
                bad = (lineno, line, exc)
    if bad is not None:
        warnings.warn(
            f"{path}:{bad[0]}: dropping truncated trailing trace record "
            f"(run killed mid-write?): {bad[2]}",
            stacklevel=2,
        )
    return records


def logical_sequence(records) -> List[Tuple[str, Optional[int], Tuple]]:
    """The trace's deterministic projection — what CI diffs across
    executors (wall-clock facts stripped).

    ``worker_span`` records are excluded: their count is a property of
    the executor shape (one per worker per superstep), so a serial trace
    and an N-process parallel trace of the same run legitimately differ
    there.  Span comparison between runs at equal process counts is
    ``scripts/diff_traces.py``'s separate check.
    """
    return [logical_view(r) for r in records if r["type"] != "worker_span"]


def split_runs(records) -> List[List[Dict[str, Any]]]:
    """Split a (possibly multi-run) trace on ``run_start`` markers."""
    runs: List[List[Dict[str, Any]]] = []
    for record in records:
        if record["type"] == "run_start" or not runs:
            runs.append([])
        runs[-1].append(record)
    return runs


def render_timeline(records) -> str:
    """A per-superstep phase table for one run's records.

    After fault recovery a superstep may appear twice (the replay
    re-emits it); the latest emission wins, matching the state that
    actually survived.
    """
    steps: Dict[int, Dict[str, Any]] = {}
    for record in records:
        superstep = record["superstep"]
        if superstep is None:
            continue
        row = steps.setdefault(superstep, {})
        data = record["data"]
        if record["type"] == "compute_phase":
            row["compute"] = data["compute_calls"]
            row["warp"] = data["warp_calls"]
        elif record["type"] == "scatter_phase":
            row["scatter"] = data["scatter_calls"]
            row["messages"] = data["messages"]
            row["bytes"] = data["message_bytes"]
        elif record["type"] == "superstep_end":
            row["active"] = data["active"]
            row["compute_ms"] = data["modeled_compute_s"] * 1e3
            row["messaging_ms"] = data["modeled_messaging_s"] * 1e3
        elif record["type"] == "checkpoint_write":
            row["ckpt"] = True
    header = (f"  {'step':>4s} {'compute':>8s} {'warp':>6s} {'scatter':>8s} "
              f"{'messages':>9s} {'bytes':>8s} {'active':>7s} "
              f"{'compute':>10s} {'messaging':>10s}")
    lines = [header]
    for superstep in sorted(steps):
        row = steps[superstep]
        mark = "*" if row.get("ckpt") else " "
        lines.append(
            f"  {superstep:4d} {row.get('compute', 0):8d} "
            f"{row.get('warp', 0):6d} {row.get('scatter', 0):8d} "
            f"{row.get('messages', 0):9d} {row.get('bytes', 0):8d} "
            f"{row.get('active', 0):7d} "
            f"{row.get('compute_ms', 0.0):7.3f} ms "
            f"{row.get('messaging_ms', 0.0):7.3f} ms{mark}"
        )
    if len(lines) > 1 and any(steps[s].get("ckpt") for s in steps):
        lines.append("  (* = checkpoint written at this superstep)")
    return "\n".join(lines)


def render_report(records) -> str:
    """A Table-4-style per-algorithm breakdown regenerated from a trace.

    Runs sharing (platform, algorithm, graph) — e.g. SCC's peeling
    rounds appended to one trace file — are aggregated into one row.
    """
    groups: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    order: List[Tuple[str, str, str]] = []
    for run in split_runs(records):
        start = next((r for r in run if r["type"] == "run_start"), None)
        end = next((r for r in run if r["type"] == "run_end"), None)
        if start is None or end is None:
            continue
        key = (
            start["data"]["platform"],
            start["data"]["algorithm"],
            start["data"]["graph"],
        )
        if key not in groups:
            groups[key] = {
                "runs": 0, "supersteps": 0, "compute_calls": 0,
                "scatter_calls": 0, "messages_sent": 0, "message_bytes": 0,
                "modeled_makespan_s": 0.0,
            }
            order.append(key)
        agg = groups[key]
        agg["runs"] += 1
        for field in ("supersteps", "compute_calls", "scatter_calls",
                      "messages_sent", "message_bytes", "modeled_makespan_s"):
            agg[field] += end["data"][field]
    header = (f"  {'platform':10s} {'algorithm':14s} {'graph':10s} "
              f"{'runs':>5s} {'steps':>6s} {'calls':>9s} {'messages':>9s} "
              f"{'bytes':>9s} {'makespan':>12s}")
    lines = [header]
    for key in order:
        platform, algorithm, graph = key
        agg = groups[key]
        lines.append(
            f"  {platform:10s} {algorithm:14s} {graph:10s} "
            f"{agg['runs']:5d} {agg['supersteps']:6d} "
            f"{agg['compute_calls']:9d} {agg['messages_sent']:9d} "
            f"{agg['message_bytes']:9d} "
            f"{agg['modeled_makespan_s'] * 1e3:9.3f} ms"
        )
    if len(lines) == 1:
        lines.append("  (no completed runs in trace)")
    return "\n".join(lines)


def render_workers(records) -> str:
    """Per-worker, per-phase wall-clock breakdown with imbalance ratios.

    Aggregates every ``worker_span`` record (schema v5) across the trace:
    one row per worker with its total seconds in each phase, then one
    imbalance line per phase — max over mean across workers, the
    straggler metric the paper's load-balance discussion (Table 4,
    Figs. 7–9) reasons about.  Replayed supersteps after fault recovery
    keep only their latest emission, matching ``render_timeline``.
    """
    # (superstep, worker) → phase dict; later emissions win.
    latest: Dict[Tuple[int, int], Dict[str, float]] = {}
    for record in records:
        if record["type"] != "worker_span":
            continue
        wall = record["wall"]
        latest[(record["superstep"], record["data"]["worker"])] = {
            phase: wall.get(f"{phase}_s", 0.0) for phase in WORKER_SPAN_PHASES
        }
    if not latest:
        return "  (no worker_span records in trace — schema v5 required)"
    per_worker: Dict[int, Dict[str, float]] = {}
    for (_superstep, worker), spans in latest.items():
        agg = per_worker.setdefault(
            worker, {phase: 0.0 for phase in WORKER_SPAN_PHASES}
        )
        for phase, seconds in spans.items():
            agg[phase] += seconds
    columns = (*WORKER_SPAN_PHASES, "total")

    def row(label: str, cells) -> str:
        return f"  {label:>8s}" + "".join(f" {cell:>14s}" for cell in cells)

    lines = [row("worker", columns)]
    for worker in sorted(per_worker):
        agg = per_worker[worker]
        cells = [f"{agg[phase] * 1e3:.3f} ms" for phase in WORKER_SPAN_PHASES]
        cells.append(f"{sum(agg.values()) * 1e3:.3f} ms")
        lines.append(row(str(worker), cells))

    def imbalance(values) -> str:
        mean = sum(values) / len(values)
        return f"{max(values) / mean:.2f}x" if mean > 0 else "n/a"

    ratio_cells = [
        imbalance([per_worker[w][phase] for w in per_worker])
        for phase in WORKER_SPAN_PHASES
    ]
    ratio_cells.append(
        imbalance([sum(per_worker[w].values()) for w in per_worker])
    )
    lines.append(row("max/mean", ratio_cells))
    lines.append(
        f"  ({len(latest)} spans over "
        f"{len({s for s, _ in latest})} superstep(s), "
        f"{len(per_worker)} worker(s); max/mean near 1.00x = balanced)"
    )
    return "\n".join(lines)
