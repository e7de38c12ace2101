"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       Execute one algorithm on one platform over a surrogate
              dataset and print its metrics.
``compare``   Run an algorithm on every applicable platform (a one-row
              slice of the paper's Table 2).
``datasets``  Print Table-1 style statistics for the built-in surrogates.
``convert``   Dump a surrogate dataset to a graph file (text, binary,
              or compact columnar).
``trace``     Render a Fig-2-style execution trace of an ICM run.
``report``    Rebuild a Table-4-style breakdown from a saved event trace.
``journeys``  Enumerate time-respecting journeys between two vertices.
``serve``     Run a long-lived query daemon over a resident graph.
``query``     Query (or inspect / shut down) a running daemon.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import api
from repro.algorithms.runners import ALL_ALGORITHMS

# Each command imports what it runs (a daemon start loads no exporter,
# dataset generator or algorithm), so the dataset names are spelled out;
# ``tests/test_cli.py`` holds them to `repro.datasets.SURROGATES`.
DATASET_CHOICES = (
    "transit", "gplus", "locality", "mag", "reddit", "twitter", "usrn", "webuk",
)


def _load(name: str, scale: float):
    return api.load_graph(name, format="dataset", scale=scale)


def add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The engine-selection flags every engine-running command shares
    (``run``, ``compare``, ``trace``, ``serve``, …).  One definition site:
    a flag added or renamed here reaches all of them identically —
    :func:`engine_options` is its parsing counterpart and a regression
    test pins the two against drift."""
    parser.add_argument("--executor", choices=("serial", "parallel"),
                        default=None,
                        help="execution backend for GRAPHITE runs "
                             "(default: serial)")
    parser.add_argument("--processes", type=int, default=None,
                        help="worker processes for --executor parallel "
                             "(default: one per available core)")
    parser.add_argument("--partitioner",
                        choices=("hash", "range", "greedy", "interval_greedy"),
                        default=None,
                        help="vertex-to-worker placement for GRAPHITE runs "
                             "(default: hash)")


def engine_options(args: argparse.Namespace) -> dict:
    """Map the :func:`add_engine_flags` flags (plus the run-only
    checkpoint flags) to flat engine options for
    :meth:`EngineConfig.with_options` — shared by ``run``, ``compare``
    and ``serve`` so the two daemons of the CLI can never drift apart in
    how they configure an engine."""
    options: dict = {}
    if getattr(args, "executor", None) is not None:
        options["executor"] = args.executor
    if getattr(args, "processes", None) is not None:
        options["executor_processes"] = args.processes
    if getattr(args, "partitioner", None) is not None:
        options["partitioner"] = args.partitioner
    if getattr(args, "checkpoint_every", None) is not None:
        options["checkpoint_every"] = args.checkpoint_every
    if getattr(args, "checkpoint_dir", None) is not None:
        options["checkpoint_dir"] = args.checkpoint_dir
    return options


# Backwards-compatible alias (the helper predates the serving tier).
_icm_options = engine_options


def cmd_run(args: argparse.Namespace) -> int:
    from repro.algorithms.runners import run_algorithm
    from repro.obs.exporters import prometheus_text, render_summary
    from repro.runtime.cluster import SimulatedCluster

    graph = _load(args.dataset, args.scale)
    outcome = run_algorithm(
        args.algorithm, args.platform, graph,
        cluster=SimulatedCluster(args.workers),
        graph_name=args.dataset,
        icm_options=engine_options(args),
        observe=args.trace_out,
        resume_from=args.resume,
    )
    print(f"{args.algorithm} on {args.dataset} "
          f"({graph.num_vertices} vertices, {graph.num_edges} edges):")
    print(render_summary(outcome.metrics))
    if args.trace_out is not None:
        print(f"  trace written to {args.trace_out}")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(outcome.metrics))
        print(f"  metrics written to {args.metrics_out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _load(args.dataset, args.scale)
    print(f"{args.algorithm} on {args.dataset}: platform comparison")
    print(f"  {'platform':10s} {'calls':>9s} {'messages':>9s} {'makespan':>12s}")
    base: Optional[float] = None
    outcomes = api.compare(
        args.algorithm, graph, workers=args.workers,
        graph_name=args.dataset, options=engine_options(args),
    )
    for outcome in outcomes:
        metrics = outcome.metrics
        if base is None:
            base = metrics.modeled_makespan
        ratio = metrics.modeled_makespan / base
        print(f"  {outcome.platform:10s} {metrics.compute_calls:9d} "
              f"{metrics.total_messages:9d} {metrics.modeled_makespan * 1e3:9.3f} ms "
              f"({ratio:.2f}x)")
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    from repro.graph.stats import dataset_stats

    print(f"{'name':9s} {'|V|':>6s} {'|E|':>6s} {'snaps':>6s} "
          f"{'E-life':>7s} {'P-life':>7s}")
    for name in DATASET_CHOICES:
        graph = _load(name, args.scale)
        stats = dataset_stats(graph, name)
        print(f"{name:9s} {stats.interval_v:6d} {stats.interval_e:6d} "
              f"{stats.num_snapshots:6d} {stats.avg_edge_lifespan:7.2f} "
              f"{stats.avg_property_lifespan:7.2f}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    graph = _load(args.dataset, args.scale)
    if args.format == "text":
        from repro.graph.io import dump_graph

        dump_graph(graph, args.output)
    elif args.format == "binary":
        from repro.graph.binary_io import dump_graph_binary

        dump_graph_binary(graph, args.output)
    else:  # compact
        from repro.graph.compact import CompactGraph

        CompactGraph.from_temporal(graph).dump(args.output)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
          f"to {args.output} ({args.format})")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.algorithms.runners import default_source
    from repro.core.tracing import ExecutionTracer

    graph = _load(args.dataset, args.scale)
    source = default_source(graph)
    tracer = ExecutionTracer()
    # Only GRAPHITE runs are traceable; build the program like the runner.
    from repro.algorithms.td.eat import TemporalEAT
    from repro.algorithms.td.reach import TemporalReachability
    from repro.algorithms.td.sssp import TemporalSSSP
    from repro.algorithms.ti.bfs import TemporalBFS

    programs = {
        "SSSP": lambda: TemporalSSSP(source),
        "EAT": lambda: TemporalEAT(source),
        "RH": lambda: TemporalReachability(source),
        "BFS": lambda: TemporalBFS(source),
    }
    if args.algorithm not in programs:
        print(f"trace supports {sorted(programs)}; got {args.algorithm}")
        return 2
    if args.executor == "parallel":
        print("trace requires the serial executor (tracing hooks run in-process)")
        return 2
    engine = api.build_engine(
        graph, programs[args.algorithm](), graph_name=args.dataset,
        options={"tracer": tracer, "executor": "serial"},
    )
    engine.run()
    vertices = set(args.vertices) if args.vertices else None
    print(f"{args.algorithm} on {args.dataset} from source {source!r}:")
    print(tracer.render(vertices=vertices))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.exporters import (
        read_trace,
        render_report,
        render_timeline,
        render_workers,
    )

    try:
        records = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}")
        return 2
    if args.workers:
        print(f"per-worker phase breakdown of {args.trace}:")
        print(render_workers(records))
    elif args.timeline:
        print(f"timeline of {args.trace}:")
        print(render_timeline(records))
    else:
        print(f"report from {args.trace} ({len(records)} events):")
        print(render_report(records))
    return 0


def cmd_journeys(args: argparse.Namespace) -> int:
    from repro.core.interval import Interval
    from repro.query.paths import find_journeys

    graph = _load(args.dataset, args.scale)
    for vid in (args.source, args.target):
        if not graph.has_vertex(vid):
            print(f"no vertex {vid!r} in {args.dataset}; "
                  f"ids look like: {graph.vertex_ids()[:5]}")
            return 2
    window = Interval(0, args.by if args.by is not None else graph.time_horizon())
    journeys = find_journeys(
        graph, args.source, args.target,
        window=window, max_legs=args.max_legs, max_results=args.limit,
    )
    if not journeys:
        print(f"no time-respecting journey {args.source} → {args.target} "
              f"within {window} and ≤{args.max_legs} legs")
        return 1
    print(f"{len(journeys)} journey(s) {args.source} → {args.target} within {window}:")
    for journey in journeys:
        print(f"  arr {journey.arrival:>3}  cost {journey.cost:>3}  "
              f"dur {journey.duration:>3}  {journey}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve.daemon import ServeDaemon

    if args.graph is not None:
        # A graph file beats the dataset flags; compact files are mmap'd,
        # so a restarted daemon shares the OS page cache with its
        # predecessor instead of re-decoding the graph.  A daemon reads
        # bytes it did not just write, for a long time: check the image's
        # digest once, here.
        graph = api.load_graph(args.graph, verify=True)
        graph_name = args.graph
    else:
        graph = _load(args.dataset, args.scale)
        graph_name = args.dataset
    options = engine_options(args)
    if args.max_concurrency is not None:
        options["serve_max_concurrency"] = args.max_concurrency
    if args.queue_depth is not None:
        options["serve_queue_depth"] = args.queue_depth
    if args.cache_bytes is not None:
        options["serve_cache_bytes"] = args.cache_bytes
    if args.timeout is not None:
        options["serve_timeout_s"] = args.timeout
    service = api.serve(
        graph, graph_name=graph_name, workers=args.workers,
        options=options, observe=args.trace_out,
    )
    daemon = ServeDaemon(service, args.socket)
    daemon.start()

    def _stop(signum, frame):
        daemon.request_shutdown()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(f"serving {graph_name} ({graph.num_vertices} vertices, "
          f"{graph.num_edges} edges) on {args.socket}", flush=True)
    endpoint = None
    if args.metrics_port is not None:
        from repro.serve.metrics_http import MetricsEndpoint

        endpoint = MetricsEndpoint(service, args.metrics_port).start()
        print(f"metrics on http://127.0.0.1:{endpoint.port}/metrics",
              flush=True)
    try:
        daemon.serve_forever()
    finally:
        if endpoint is not None:
            endpoint.stop()
    from repro.obs.exporters import prometheus_text, render_summary

    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(service.metrics))
        print(f"  metrics written to {args.metrics_out}")
    print("shut down cleanly:")
    print(render_summary(service.metrics))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.client import QueryClient
    from repro.serve.errors import ServeError

    try:
        with QueryClient.connect(args.socket) as client:
            if args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            if args.shutdown:
                client.shutdown()
                print("daemon shutting down")
                return 0
            if args.algorithm is None:
                print("query needs an algorithm (or --stats / --shutdown)")
                return 2
            params = {"source": args.source} if args.source else {}
            options: dict = {}
            if args.timeout is not None:
                options["timeout_s"] = args.timeout
            if args.no_cache:
                options["no_cache"] = True
            answer = client.query(
                args.algorithm,
                params=params,
                interval=tuple(args.interval) if args.interval else None,
                options=options,
            )
    except ServeError as exc:
        print(f"query failed [{exc.code}]: {exc}")
        return 1
    if args.json:
        print(answer.payload)
        return 0
    doc = answer.doc
    window = (f"[{answer.interval[0]}, {answer.interval[1]})"
              if answer.interval else "full horizon")
    print(f"{answer.algorithm} over {window}: "
          f"{len(doc['vertices'])} vertices, "
          f"{'cache hit' if answer.cache_hit else 'computed'}, "
          f"{answer.latency_s * 1e3:.3f} ms (--json for full results)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRAPHITE / interval-centric temporal graph computing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dataset", choices=DATASET_CHOICES, default="twitter")
        p.add_argument("--scale", type=float, default=0.5,
                       help="surrogate size multiplier (default 0.5)")
        p.add_argument("--workers", type=int, default=8,
                       help="simulated cluster size (default 8)")
        add_engine_flags(p)

    p_run = sub.add_parser("run", help="run one algorithm on one platform")
    p_run.add_argument("algorithm", choices=ALL_ALGORITHMS)
    p_run.add_argument("--platform", default="GRAPHITE")
    p_run.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="write a checkpoint every N supersteps "
                            "(GRAPHITE; default: REPRO_CHECKPOINT_EVERY or off)")
    p_run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="checkpoint directory (default: REPRO_CHECKPOINT_DIR "
                            "or a temporary directory)")
    p_run.add_argument("--resume", default=None, metavar="DIR",
                       help="resume a GRAPHITE run from a checkpoint directory "
                            "written by --checkpoint-every; continues at "
                            "superstep N+1 with bit-identical results")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="append a JSON-lines event trace of the run "
                            "(GRAPHITE; read it back with `repro report`)")
    p_run.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the run's metrics in Prometheus text format")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="run on every applicable platform")
    p_cmp.add_argument("algorithm", choices=ALL_ALGORITHMS)
    add_common(p_cmp)
    p_cmp.set_defaults(fn=cmd_compare)

    p_ds = sub.add_parser("datasets", help="show surrogate dataset statistics")
    p_ds.add_argument("--scale", type=float, default=0.5)
    p_ds.set_defaults(fn=cmd_datasets)

    p_cv = sub.add_parser("convert", help="dump a dataset to a graph file")
    p_cv.add_argument("output", help="output file path")
    p_cv.add_argument("--format", choices=("text", "binary", "compact"),
                      default="text",
                      help="output encoding: human-readable text, the v1 "
                           "binary object stream, or the v3 compact columnar "
                           "image (mmap-able; `repro serve --graph` loads it "
                           "zero-copy)")
    add_common(p_cv)
    p_cv.set_defaults(fn=cmd_convert)

    p_rp = sub.add_parser("report", help="summarise a saved event trace")
    p_rp.add_argument("trace", help="JSON-lines trace file written by "
                                    "`repro run --trace-out`")
    p_rp.add_argument("--timeline", action="store_true",
                      help="per-superstep phase table instead of the "
                           "per-algorithm breakdown")
    p_rp.add_argument("--workers", action="store_true",
                      help="per-worker phase breakdown with straggler "
                           "(max/mean) imbalance ratios, from the trace's "
                           "worker_span records")
    p_rp.set_defaults(fn=cmd_report)

    p_tr = sub.add_parser("trace", help="render an execution trace")
    p_tr.add_argument("algorithm", choices=("SSSP", "EAT", "RH", "BFS"))
    p_tr.add_argument("--vertices", nargs="*", default=None,
                      help="restrict the trace to these vertex ids")
    add_common(p_tr)
    p_tr.set_defaults(fn=cmd_trace)

    p_jn = sub.add_parser("journeys", help="enumerate time-respecting journeys")
    p_jn.add_argument("source")
    p_jn.add_argument("target")
    p_jn.add_argument("--by", type=int, default=None,
                      help="arrive before this time-point (default: horizon)")
    p_jn.add_argument("--max-legs", type=int, default=4)
    p_jn.add_argument("--limit", type=int, default=20)
    add_common(p_jn)
    p_jn.set_defaults(fn=cmd_journeys)

    p_sv = sub.add_parser("serve",
                          help="serve queries over a resident graph")
    p_sv.add_argument("--socket", required=True, metavar="PATH",
                      help="Unix socket path to listen on")
    p_sv.add_argument("--graph", default=None, metavar="PATH",
                      help="serve this graph file instead of a surrogate "
                           "dataset (any api.load_graph format; compact "
                           "files are mmap'd read-only)")
    p_sv.add_argument("--max-concurrency", type=int, default=None,
                      help="execution lanes (default: REPRO_SERVE_CONCURRENCY "
                           "or 1)")
    p_sv.add_argument("--queue-depth", type=int, default=None,
                      help="admission queue depth before queries are "
                           "rejected (default: REPRO_SERVE_QUEUE_DEPTH or 8)")
    p_sv.add_argument("--cache-bytes", type=int, default=None,
                      help="result cache byte budget, 0 disables "
                           "(default: REPRO_SERVE_CACHE_BYTES or 16 MiB)")
    p_sv.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="default per-query deadline in seconds "
                           "(default: REPRO_SERVE_TIMEOUT_S or none)")
    p_sv.add_argument("--trace-out", default=None, metavar="FILE",
                      help="append a JSON-lines event trace of all queries "
                           "and the runs answering them")
    p_sv.add_argument("--metrics-out", default=None, metavar="FILE",
                      help="write serving metrics in Prometheus text format "
                           "on shutdown")
    p_sv.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                      help="serve live Prometheus metrics (plus per-lane "
                           "heartbeat gauges) over HTTP GET /metrics on "
                           "127.0.0.1:PORT while the daemon runs (0 picks "
                           "a free port, printed at startup)")
    add_common(p_sv)
    p_sv.set_defaults(fn=cmd_serve)

    p_q = sub.add_parser("query", help="query a running serve daemon")
    p_q.add_argument("algorithm", nargs="?",
                     choices=("BFS", "SSSP", "PR", "EAT", "RH"),
                     help="algorithm to query (omit with --stats/--shutdown)")
    p_q.add_argument("--socket", required=True, metavar="PATH",
                     help="the daemon's Unix socket path")
    p_q.add_argument("--source", default=None,
                     help="source vertex id (default: highest out-degree)")
    p_q.add_argument("--interval", nargs=2, type=int, default=None,
                     metavar=("START", "END"),
                     help="half-open query interval; omit for the full graph")
    p_q.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="per-query deadline in seconds")
    p_q.add_argument("--no-cache", action="store_true",
                     help="bypass the daemon's result cache")
    p_q.add_argument("--json", action="store_true",
                     help="print the full result JSON document")
    p_q.add_argument("--stats", action="store_true",
                     help="print the daemon's serving counters and exit")
    p_q.add_argument("--shutdown", action="store_true",
                     help="ask the daemon to shut down cleanly and exit")
    p_q.set_defaults(fn=cmd_query)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
