"""The benchmark's workloads: four engine runs, two cold batch jobs and two
serving phases.  README.md says why each is here.

Every workload drives the program only through its public surface and
passes no optional knob except ``executor`` / ``executor_processes`` and
``serve --cache-bytes``.  A workload exposes

``setup()``        build inputs, start services, one warm-up operation;
                   repeatable after ``close()``
``steps``          the operations of one repetition, by name
``run_step()``     one timed operation -> ``(result, Sample)``
``check()``        untimed correctness of one result
``verify()``       untimed end-of-run cross-checks -> ``(attempted, failed)``
``trace()``        the traced round -> per-layer metrics
``close()``        stop every process the workload started
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from measure import (Sample, Sampler, SpanRecorder, child_env, clock, median,
                     percentile)

from repro import api
from repro.algorithms import default_source, run_algorithm
from repro.algorithms.td.eat import TemporalEAT
from repro.algorithms.td.reach import TemporalReachability
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.ti.bfs import TemporalBFS
from repro.core.interval import Interval
from repro.core.results_io import export_states_csv, export_states_json
from repro.datasets import mag, twitter, usrn
from repro.graph.compact import CompactGraph
from repro.graph.io import dump_graph
from repro.graph.stats import resident_bytes
from repro.obs import InMemoryEvents
from repro.query.slice import temporal_slice
from repro.serve import wire
from repro.serve.client import QueryClient

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0

#: Smaller than the CLI's 16 MiB default so that the cache holds ~25 of
#: the 11-31 KB answers: the traced round's 32 misses evict, and the
#: 16-key hot set of the hit phase still fits.
CACHE_BYTES = 512 * 1024

_PHASES = ("compute", "scatter", "encode", "exchange_wait", "barrier_wait")

#: ``RunMetrics`` counters that must repeat exactly; name -> attribute.
_COUNTS = {
    "core.supersteps": "supersteps",
    "core.compute_calls": "compute_calls",
    "core.scatter_calls": "scatter_calls",
    "core.messages": "total_messages",
    "core.message_bytes": "message_bytes",
    "core.warp_calls": "warp_calls",
    "core.warp_suppressed_vertices": "warp_suppressed_vertices",
    "core.combiner_reductions": "combiner_reductions",
    "cluster.local_messages": "local_messages",
    "cluster.remote_messages": "remote_messages",
    "cluster.remote_message_bytes": "remote_message_bytes",
}
#: Counters of the process-to-process exchange (0 on the serial executor).
_EXCHANGE_COUNTS = {
    "executor.exchange_bytes": "exchange_bytes",
    "executor.exchange_raw_bytes": "exchange_raw_bytes",
}


class Pins:
    """sha-256 of canonical outputs for the default seed (expected.json).

    Other seeds are covered by the cross-checks (serial = 2-process, job
    CSV = in-process CSV, socket payload = in-process payload)."""

    PATH = HERE / "expected.json"

    def __init__(self, seed: int, repin: bool):
        self.active = seed == DEFAULT_SEED
        self.repin = repin
        self.table: Dict[str, Any] = {}
        if self.PATH.exists():
            self.table = json.loads(self.PATH.read_text(encoding="utf-8"))

    def check(self, key: str, digest: Dict[str, Any]) -> bool:
        if not self.active:
            return True
        if self.repin:
            self.table[key] = digest
            return True
        return _same_digest(self.table.get(key), digest)

    def save(self) -> None:
        if self.repin and self.active:
            self.PATH.write_text(
                json.dumps(self.table, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )


def _same_digest(a: Optional[Dict[str, Any]], b: Dict[str, Any]) -> bool:
    """Equal digests; a ``weighted_sum`` (PageRank) at 1e-9 relative."""
    if a is None or set(a) != set(b):
        return False
    for key, value in b.items():
        if key == "weighted_sum":
            if abs(a[key] - value) > 1e-9 * max(abs(a[key]), abs(value)):
                return False
        elif a[key] != value:
            return False
    return True


def states_digest(result, approx: bool = False) -> Dict[str, Any]:
    """Digest of a run's final states in their canonical CSV export.

    ``approx`` (float-valued PageRank): the ``vertex,start,end`` keys hash
    exactly and the values fold into one position-weighted sum."""
    buf = io.StringIO()
    rows = export_states_csv(result, buf)
    text = buf.getvalue()
    if not approx:
        return {"rows": rows, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    keys = hashlib.sha256()
    total = 0.0
    for vertex, start, end, value in list(csv.reader(io.StringIO(text)))[1:]:
        key = f"{vertex},{start},{end}\n".encode()
        keys.update(key)
        total += (1.0 + zlib.crc32(key) % 1024 / 1024.0) * float(value)
    return {"rows": rows, "keys_sha256": keys.hexdigest(), "weighted_sum": total}


def _counts(metrics, table=_COUNTS) -> Dict[str, int]:
    return {name: getattr(metrics, attr) for name, attr in table.items()}


def _sum_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0.0) + value


def _median_layers(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per layer name, the median over traced executions."""
    names = {name for sample in samples for name in sample}
    return {n: median(s.get(n, 0.0) for s in samples) for n in names}


class Context:
    """What one benchmark run shares with its workload."""

    def __init__(self, seed: int, smoke: bool, tmp: str, repin: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.sampler = Sampler()
        self.recorder = SpanRecorder()
        self.pins = Pins(seed, repin)
        #: Correctness failures, for the report.
        self.errors: List[str] = []

    def fail(self, message: str) -> bool:
        self.errors.append(message)
        return False


def graph_layer_probe(ctx: Context, graph, layers: Dict[str, float]) -> None:
    """Direct calls into the ``graph`` and ``results_io`` layers on the
    workload's own graph: what loading, freezing and dumping it cost."""
    sampler = ctx.sampler
    text_path = os.path.join(ctx.tmp, "probe.txt")
    compact_path = os.path.join(ctx.tmp, "probe.itgr2")
    dump_graph(graph, text_path)
    compact, sample = sampler.time(lambda: CompactGraph.from_temporal(graph))
    layers["graph.freeze_s"] = sample.norm
    _, sample = sampler.time(lambda: compact.dump(compact_path))
    layers["graph.dump_compact_s"] = sample.norm
    _, sample = sampler.time(lambda: api.load_graph(text_path))
    layers["graph.load_text_s"] = sample.norm
    loaded, sample = sampler.time(lambda: api.load_graph(compact_path))
    layers["graph.load_compact_s"] = sample.norm
    layers["graph.text_file_bytes"] = os.path.getsize(text_path)
    layers["graph.compact_file_bytes"] = os.path.getsize(compact_path)
    layers["graph.resident_bytes_heap"] = resident_bytes(graph)
    layers["graph.resident_bytes_compact"] = resident_bytes(loaded)

    result = api.run(graph, TemporalSSSP(default_source(graph)))
    buf = io.StringIO()
    rows, sample = sampler.time(lambda: export_states_csv(result, buf))
    layers["results_io.export_csv_s"] = sample.norm
    layers["results_io.export_rows"] = rows
    layers["results_io.export_bytes"] = len(buf.getvalue().encode())
    _, sample = sampler.time(lambda: export_states_json(result, io.StringIO()))
    layers["results_io.export_json_s"] = sample.norm


# -- engine ----------------------------------------------------------------------


@contextmanager
def engine_spans(recorder: SpanRecorder):
    """Record ``api.build_engine`` and ``engine.run`` as spans while
    ``run_algorithm`` is driven from outside, by wrapping the front door
    for the duration of the traced round.  Worker phase spans come from
    the result's always-recorded ``supersteps_detail[*].worker_spans``."""
    original = api.build_engine

    def build_engine(*args, **kwargs):
        with recorder.span("engine.build"):
            engine = original(*args, **kwargs)
        run = engine.run

        def traced_run(**run_kwargs):
            with recorder.span("engine.run") as span:
                result = run(**run_kwargs)
            phases, _ = _blocking_phases(result.metrics)
            for phase, seconds in phases.items():
                recorder.add(f"worker.{phase}", seconds, parent=span["id"])
            return result

        engine.run = traced_run
        return engine

    api.build_engine = build_engine
    try:
        yield
    finally:
        api.build_engine = original


def _blocking_phases(metrics) -> Tuple[Dict[str, float], float]:
    """Per phase, seconds summed over supersteps of the slowest worker
    (the blocking path), and the compute imbalance sum-of-max over
    sum-of-mean of compute + scatter."""
    phases = dict.fromkeys(_PHASES, 0.0)
    busy_max = busy_mean = 0.0
    for step in metrics.supersteps_detail:
        spans = step.worker_spans
        for phase in _PHASES:
            phases[phase] += max(s[phase] for s in spans)
        busy = [s["compute"] + s["scatter"] for s in spans]
        busy_max += max(busy)
        busy_mean += sum(busy) / len(busy)
    return phases, (busy_max / busy_mean if busy_mean else 1.0)


class EngineWorkload:
    """Repetitions of ``run_algorithm`` over one resident graph."""

    ops_per_rep = 1

    def __init__(self, name, dataset, base_seed, scale, smoke_scale,
                 algorithms, processes=1, approx=False):
        self.name = name
        self.dataset = dataset
        self.base_seed = base_seed
        self.scales = (scale, smoke_scale)
        self.steps = tuple(algorithms)
        self.processes = processes
        self.approx = approx
        self.reference: Dict[str, Any] = {}
        self.generate_s: List[float] = []

    def prepare(self, ctx: Context) -> None:
        self.ctx = ctx
        self.scale = self.scales[1] if ctx.smoke else self.scales[0]

    def setup(self) -> None:
        self.graph, sample = self.ctx.sampler.time(
            lambda: self.dataset(self.scale, self.base_seed + self.ctx.seed)
        )
        self.generate_s.append(sample.norm)
        self._execute(self.steps[0])

    def _execute(self, algorithm, serial=False, observe=None):
        options = {}
        if self.processes > 1 and not serial:
            options = {"executor": "parallel",
                       "executor_processes": self.processes}
        return run_algorithm(algorithm, "GRAPHITE", self.graph,
                             icm_options=options, observe=observe)

    def run_step(self, step: str):
        return self.ctx.sampler.time(lambda: self._execute(step))

    def _facts(self, outcome) -> Dict[str, Any]:
        return {"digest": states_digest(outcome.result, self.approx),
                "counts": _counts(outcome.metrics)}

    def check(self, step: str, outcome) -> bool:
        """States and modeled counters repeat exactly from run to run."""
        facts = self._facts(outcome)
        expected = self.reference.setdefault(step, facts)
        if facts != expected:
            return self.ctx.fail(f"{self.name}/{step}: states or counters "
                                 f"differ between repetitions")
        return True

    def work_units(self) -> float:
        return sum(f["counts"]["core.messages"] for f in self.reference.values())

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process or of its largest reaped worker."""
        return max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    def verify(self) -> Tuple[int, int]:
        """Pinned digests (default seed) and serial = 2-process states."""
        attempted = failed = 0
        tag = f"{self.dataset.__name__}-{self.scale}"
        for step, facts in self.reference.items():
            attempted += 1
            ok = self.ctx.pins.check(f"{tag}/{step}", facts["digest"])
            if not ok:
                self.ctx.fail(f"{self.name}/{step}: states differ from "
                              f"expected.json")
            if ok and self.processes > 1:
                serial = self._facts(self._execute(step, serial=True))
                ok = serial == facts
                if not ok:
                    self.ctx.fail(f"{self.name}/{step}: 2-process states or "
                                  f"counters differ from serial")
            failed += not ok
        return attempted, failed

    def trace(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        """Alternate untraced, traced (and, for 2-process workloads,
        serial) repetitions; at least two, more while time remains."""
        ctx, rec = self.ctx, self.ctx.recorder
        plain: Dict[str, List[float]] = {s: [] for s in self.steps}
        traced: Dict[str, List[float]] = {s: [] for s in self.steps}
        serial: Dict[str, List[float]] = {s: [] for s in self.steps}
        layer_samples: Dict[str, List[Dict[str, float]]] = {s: [] for s in self.steps}
        gauges: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        events = 0
        attempted = failed = 0
        deadline = clock() + seconds
        rep = 0
        while rep < 2 or clock() < deadline:
            counts, events = {}, 0
            for step in self.steps:
                outcome, sample = self.run_step(step)
                attempted += 1
                failed += not self.check(step, outcome)
                plain[step].append(sample.norm)

                observer = InMemoryEvents()
                trace_id = f"{self.name}/{rep}/{step}"
                with rec.trace(trace_id), engine_spans(rec):
                    def traced_op():
                        with rec.span("run_algorithm"):
                            return self._execute(step, observe=observer)
                    outcome, sample = ctx.sampler.time(traced_op)
                attempted += 1
                failed += not self.check(step, outcome)
                traced[step].append(sample.norm)
                layers = {n: s * sample.factor
                          for n, s in rec.self_times(trace_id).items()}
                layers["wall"] = sample.norm
                layers["exchange"] = outcome.metrics.exchange_time * sample.factor
                layer_samples[step].append(layers)

                m = outcome.metrics
                _sum_into(counts, _counts(m))
                _sum_into(counts, _counts(m, _EXCHANGE_COUNTS))
                events += len(observer.records)
                gauges["core.peak_inflight_messages"] = max(
                    gauges.get("core.peak_inflight_messages", 0),
                    m.peak_inflight_messages)
                gauges["partitioner.edge_cut"] = m.partition_edge_cut
                gauges["partitioner.imbalance"] = m.partition_imbalance
                gauges["executor.compute_imbalance"] = max(
                    gauges.get("executor.compute_imbalance", 0.0),
                    _blocking_phases(m)[1])

                if self.processes > 1:
                    _, sample = ctx.sampler.time(
                        lambda: self._execute(step, serial=True))
                    serial[step].append(sample.norm)
            rep += 1

        total: Dict[str, float] = {}
        for step in self.steps:
            _sum_into(total, _median_layers(layer_samples[step]))
        plain_s = sum(median(v) for v in plain.values())
        traced_s = sum(median(v) for v in traced.values())
        messages = counts["core.messages"]
        out = dict(counts)
        out.update(gauges)
        out.update({
            "datasets.generate_s": median(self.generate_s),
            "runners.other_s": total["run_algorithm"],
            "engine.build_s": total["engine.build"],
            "engine.run_s": sum(total[k] for k in total
                                if k == "engine.run" or k.startswith("worker.")),
            "core.compute_s": total["worker.compute"],
            "core.scatter_s": total["worker.scatter"],
            "core.us_per_message": 1e6 * plain_s / messages,
            "core.messages_per_scatter_call":
                messages / max(1, counts["core.scatter_calls"]),
            "executor.encode_s": total["worker.encode"],
            "executor.exchange_wait_s": total["worker.exchange_wait"],
            "executor.barrier_wait_s": total["worker.barrier_wait"],
            "executor.exchange_s": total["exchange"],
            "executor.loop_other_s": total["engine.run"],
            "executor.speedup_2p": (
                sum(median(v) for v in serial.values()) / plain_s
                if self.processes > 1 else 0.0),
            "obs.trace_overhead_ratio": traced_s / plain_s,
            "obs.events": events,
            "trace.coverage": 1.0 - total["run_algorithm"] / total["wall"],
            "trace.op_wall_ms": 1e3 * plain_s,
        })
        graph_layer_probe(ctx, self.graph, out)
        return out, attempted, failed

    def close(self) -> None:
        pass


# -- batch ------------------------------------------------------------------------

class BatchWorkload:
    """Fresh-interpreter jobs: import, load a graph file, run SSSP, export
    the states as CSV (job.py).  Warm page cache and ``.pyc`` (this
    process imported the same modules and has just written the file),
    cold process."""

    ops_per_rep = 1
    steps = ("job",)

    def __init__(self, name: str, fmt: str):
        self.name = name
        self.fmt = fmt
        self.reference: Optional[Dict[str, Any]] = None
        self.generate_s: List[float] = []
        self.rss_mb: List[float] = []

    def prepare(self, ctx: Context) -> None:
        self.ctx = ctx
        self.scale = 1.5 if ctx.smoke else 4.0
        self.path = os.path.join(
            ctx.tmp, "usrn.txt" if self.fmt == "text" else "usrn.itgr2")
        self.csv_path = os.path.join(ctx.tmp, "states.csv")

    def setup(self) -> None:
        self.graph, sample = self.ctx.sampler.time(
            lambda: usrn(self.scale, 13 + self.ctx.seed))
        self.generate_s.append(sample.norm)
        if self.fmt == "text":
            dump_graph(self.graph, self.path)
        else:
            CompactGraph.from_temporal(self.graph).dump(self.path)

    def run_step(self, step: str):
        """One job, ``Popen`` to exit.  The job probes the host after each
        of its stages, so every stage is normalised by the probes at its
        own two ends; the job's value is the sum over its stages."""
        sampler = self.ctx.sampler
        if os.path.exists(self.csv_path):
            os.unlink(self.csv_path)
        probes = sampler.probe()
        resumed = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), self.path, self.csv_path],
            env=child_env(), capture_output=True, text=True, timeout=150,
        )
        ended = time.time()
        job: Dict[str, Any] = {"proc": proc, "report": None, "stages": {}}
        marks = []
        if proc.returncode == 0:
            job["report"] = json.loads(proc.stdout.strip().splitlines()[-1])
            marks = job["report"]["stages"]
        marks = marks + [{"name": "exit", "ended": ended,
                          "probes": sampler.probe()}]
        raw = norm = 0.0
        for mark in marks:
            stage = Sample(mark["ended"] - resumed,
                           sampler.factor(probes + mark["probes"]))
            job["stages"][mark["name"]] = stage
            raw += stage.raw
            norm += stage.norm
            probes, resumed = mark["probes"], mark.get("resumed")
        return job, Sample(raw, norm / raw)

    def check(self, step: str, job) -> bool:
        """Exit 0 and a CSV equal to the in-process run's over the
        generated graph (so text-job CSV = compact-job CSV)."""
        proc, report = job["proc"], job["report"]
        if report is None:
            return self.ctx.fail(f"{self.name}: job exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")
        if self.reference is None:
            result = api.run(self.graph, TemporalSSSP(default_source(self.graph)))
            self.reference = states_digest(result)
        with open(self.csv_path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if {"rows": report["rows"], "sha256": sha} != self.reference:
            return self.ctx.fail(f"{self.name}: exported CSV differs from "
                                 f"the in-process run")
        self.rss_mb.append(report["maxrss_kb"] / 1024.0)
        return True

    def work_units(self) -> float:
        """Vertices taken from file to exported states (the exported row
        count moves with the seed while the job's time does not)."""
        return self.graph.num_vertices

    def peak_rss_mb(self) -> float:
        return median(self.rss_mb)

    def verify(self) -> Tuple[int, int]:
        if self.reference is None:
            return 1, 1
        ok = self.ctx.pins.check(f"usrn-{self.scale}/SSSP-job", self.reference)
        if not ok:
            self.ctx.fail(f"{self.name}: states differ from expected.json")
        return 1, int(not ok)

    def trace(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        """Jobs split into the stages job.py stamps, then the direct layer
        calls on the same graph."""
        rec = self.ctx.recorder
        samples: List[Dict[str, float]] = []
        attempted = failed = 0
        report: Dict[str, Any] = {}
        deadline = clock() + seconds / 2
        while len(samples) < 2 or clock() < deadline:
            job, sample = self.run_step("job")
            attempted += 1
            if not self.check("job", job):
                failed += 1
                if failed >= 3:
                    return {}, attempted, failed
                continue
            report = job["report"]
            with rec.trace(f"{self.name}/{len(samples)}"):
                rec.add("job", sample.raw)
                root = len(rec.spans) - 1
                for name, stage in job["stages"].items():
                    rec.add(f"job.{name}", stage.raw, parent=root)
            layers = {name: stage.norm for name, stage in job["stages"].items()}
            layers["wall"] = sample.norm
            samples.append(layers)
        total = _median_layers(samples)
        out = {
            "datasets.generate_s": median(self.generate_s),
            "job.spawn_import_s": total["spawn_import"],
            "job.load_s": total["load"],
            "job.run_s": total["run"],
            "job.export_s": total["export"],
            "job.other_s": total["exit"],
            "core.messages": report["messages"],
            "core.supersteps": report["supersteps"],
            "trace.coverage": 1.0 - total["exit"] / total["wall"],
            "trace.op_wall_ms": 1e3 * total["wall"],
        }
        graph_layer_probe(self.ctx, self.graph, out)
        return out, attempted, failed

    def close(self) -> None:
        pass


# -- serve ------------------------------------------------------------------------

_PROGRAMS = {"BFS": TemporalBFS, "SSSP": TemporalSSSP,
             "EAT": TemporalEAT, "RH": TemporalReachability}
#: One repetition of the miss mix: every served algorithm over the full
#: horizon and over a window.  PR is left out (10x slower; it would make
#: miss latency bimodal -- ``pr_dense`` covers it).
_MISS_STEPS = tuple(f"{alg}/{shape}" for alg in _PROGRAMS
                    for shape in ("full", "sliced"))


class ServeWorkload:
    """``python -m repro serve`` over a compact file, driven closed-loop
    over its Unix socket from this process: one connection, except for
    the traced loaded-hit phase (two = ``nproc`` on the reference host)."""

    def __init__(self, name: str, phase: str):
        self.name = name
        self.phase = phase
        self.steps = _MISS_STEPS if phase == "miss" else ("hits",)
        self.ops_per_rep = len(self.steps)
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[QueryClient] = None
        self.start_s: List[float] = []
        self.generate_s: List[float] = []
        self.missed: List[Tuple[tuple, Any]] = []
        self.hot: List[Tuple[tuple, str]] = []
        self.rss_mb = 0.0

    def prepare(self, ctx: Context) -> None:
        self.ctx = ctx
        self.scale = 0.5 if ctx.smoke else 2.0
        # The daemon runs inside the temporary directory and is given
        # relative names: the graph name is part of every payload, and
        # AF_UNIX paths are limited to ~108 bytes.
        self.graph_name = "twitter.itgr2"
        self.graph_path = os.path.join(ctx.tmp, self.graph_name)
        sock = os.path.join(ctx.tmp, "serve.sock")
        self.sock = sock if len(sock) < 100 else os.path.relpath(sock)
        self.batch = 32 if ctx.smoke else 96
        # One closed-loop connection and the daemon never run at the same
        # time, so they share one CPU: left to the scheduler, hit latency
        # is whatever the hypervisor's cross-vCPU wake-up costs that run
        # (0.09 or 0.16 ms; 4-13 ms with the two forced apart).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # -- daemon lifecycle ------------------------------------------------------

    def setup(self) -> None:
        ctx = self.ctx
        self.graph, sample = ctx.sampler.time(
            lambda: twitter(self.scale, 19 + ctx.seed))
        self.generate_s.append(sample.norm)
        CompactGraph.from_temporal(self.graph).dump(self.graph_path)
        _, sample = ctx.sampler.time(self._start_daemon)
        self.start_s.append(sample.norm)

        self.rng = random.Random(ctx.seed)
        self.vertices = sorted(self.graph.vertex_ids())
        horizon = self.graph.time_horizon()
        spans = [(a, b) for a in range(horizon) for b in range(a + 4, horizon + 1)
                 if (a, b) != (0, horizon)]
        # 24 distinct windows: 3x the service's slice memo of 8.
        self.windows = self.rng.sample(spans, 24)
        self.seen = set()
        self.missed, self.hot = [], []
        # Warm-up: the heaviest kind of query the mix holds, so that the
        # daemon's peak memory does not depend on which keys a seed draws.
        warm_up = ("SSSP", default_source(self.graph), None)
        self.seen.add(warm_up)
        self._query(warm_up)

    def _start_daemon(self) -> None:
        log = open(os.path.join(self.ctx.tmp, "daemon.log"), "ab")
        with log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--graph", self.graph_name, "--socket", "serve.sock",
                 "--cache-bytes", str(CACHE_BYTES)],
                cwd=self.ctx.tmp, env=child_env(), stdout=log, stderr=log,
            )
        self.client = QueryClient.connect(self.sock, timeout_s=60.0)
        if not self.client.ping():
            raise RuntimeError("daemon did not answer pong")

    def _stop_daemon(self) -> None:
        """Ask the daemon to exit, insist if it does not, and wait."""
        if self.proc is None:
            return
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.rss_mb = int(line.split()[1]) / 1024.0
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=20)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc = self.client = None
            if os.path.exists(self.sock):
                os.unlink(self.sock)

    close = _stop_daemon

    # -- keys and queries --------------------------------------------------------

    def _fresh_key(self, step: str, window: Optional[tuple] = None) -> tuple:
        """A never-seen ``(algorithm, source, interval)`` of the step's kind."""
        algorithm, shape = step.split("/")
        while True:
            source = self.rng.choice(self.vertices)
            interval = None
            if shape == "sliced":
                interval = window or self.rng.choice(self.windows)
            key = (algorithm, source, interval)
            if key not in self.seen:
                self.seen.add(key)
                return key

    def _query(self, key: tuple, client: Optional[QueryClient] = None, **options):
        algorithm, source, interval = key
        return (client or self.client).query(
            algorithm, params={"source": source}, interval=interval,
            options=options)

    def _hit_batch(self) -> Tuple[List[float], List[float], bool]:
        """Round-robin hits on the hot set: client round trips, the
        service's own latencies, and whether every answer was a hit
        carrying its miss payload."""
        rtts: List[float] = []
        served: List[float] = []
        ok = True
        for i in range(self.batch):
            key, payload = self.hot[i % len(self.hot)]
            t0 = clock()
            answer = self._query(key)
            rtts.append(clock() - t0)
            served.append(answer.latency_s)
            ok = ok and answer.cache_hit and answer.payload == payload
        return rtts, served, ok

    def _fill_hot_set(self) -> None:
        """Two keys of every miss kind; their miss payloads are what every
        later hit must return.  The eight sliced keys take eight distinct
        windows -- exactly the service's slice memo -- so that the daemon's
        memory does not depend on how many windows a seed draws twice."""
        windows = iter(self.rng.sample(self.windows, len(_MISS_STEPS)))
        for step in _MISS_STEPS * 2:
            key = self._fresh_key(step, next(windows) if "sliced" in step else None)
            self.hot.append((key, self._query(key).payload))

    def run_step(self, step: str):
        sampler = self.ctx.sampler
        if self.phase == "miss":
            key = self._fresh_key(step)
            answer, sample = sampler.time(lambda: self._query(key))
            self.missed.append((key, answer))
            return (key, answer), sample
        if not self.hot:
            self._fill_hot_set()
        (rtts, _, ok), sample = sampler.time(self._hit_batch)
        return ok, Sample(median(rtts), sample.factor)

    def check(self, step: str, result) -> bool:
        if self.phase == "hit":
            return result or self.ctx.fail(
                f"{self.name}: a hit missed the cache or returned a payload "
                f"other than its miss payload")
        _, answer = result
        if answer.cache_hit or not answer.payload:
            return self.ctx.fail(f"{self.name}: a never-seen key hit the cache")
        return True

    def work_units(self) -> float:
        return 1.0

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def _in_process(self, keys: List[tuple]) -> Tuple[List[str], List[float]]:
        """The same keys through an in-process ``api.serve`` over the heap
        graph the file was frozen from."""
        payloads, seconds = [], []
        with api.serve(self.graph, graph_name=self.graph_name) as service:
            for algorithm, source, interval in keys:
                answer, sample = self.ctx.sampler.time(lambda: service.query(
                    algorithm, params={"source": source}, interval=interval))
                payloads.append(answer.payload)
                seconds.append(sample.norm)
        return payloads, seconds

    def verify(self, sample_size: int = 4) -> Tuple[int, int]:
        """Socket payload = in-process ``GraphService`` payload, on the
        first few keys; their sha-256 is pinned for the default seed."""
        served = self.hot if self.phase == "hit" else [
            (key, answer.payload) for key, answer in self.missed]
        served = served[:sample_size]
        if not served:
            return 1, 1
        payloads, _ = self._in_process([key for key, _ in served])
        failed = 0
        digest = hashlib.sha256()
        for (key, payload), expected in zip(served, payloads):
            digest.update(payload.encode())
            if payload != expected:
                failed += 1
                self.ctx.fail(f"{self.name}: socket payload of {key} differs "
                              f"from the in-process service's")
        pinned = self.ctx.pins.check(
            f"twitter-{self.scale}/{self.phase}-payloads",
            {"queries": len(served), "sha256": digest.hexdigest()})
        if not pinned:
            failed += 1
            self.ctx.fail(f"{self.name}: payloads differ from expected.json")
        return len(served) + 1, failed

    # -- traced round --------------------------------------------------------------

    def trace(self, seconds: float) -> Tuple[Dict[str, float], int, int]:
        """A fixed plan, so that cache and service counters repeat exactly
        for a seed: ``seconds`` does not bound it."""
        out: Dict[str, float] = {
            "datasets.generate_s": median(self.generate_s),
            "service.start_s": median(self.start_s),
        }
        if self.phase == "miss":
            attempted, failed = self._trace_misses(out)
        else:
            attempted, failed = self._trace_hits(out)
        graph_layer_probe(self.ctx, self.graph, out)
        return out, attempted, failed

    def _service_counters(self, out) -> None:
        """Ping round trips and the daemon's counters, read while only the
        single-connection phases have run (so they repeat exactly)."""
        sampler = self.ctx.sampler
        pings = [sampler.time(self.client.ping)[1].norm
                 for _ in range(20 if self.ctx.smoke else 200)]
        out["wire.ping_rtt_ms"] = 1e3 * median(pings)
        stats = self.client.stats()
        for name, key in (
                ("cache.hits", "cache_hits"), ("cache.misses", "cache_misses"),
                ("cache.evictions", "cache_evictions"),
                ("cache.entries", "cache_entries"), ("cache.bytes", "cache_bytes"),
                ("service.queue_depth_peak", "queue_depth_peak"),
                ("service.rejected", "queries_rejected"),
                ("service.timed_out", "queries_timed_out"),
                ("service.failed", "queries_failed")):
            out[name] = stats[key]

    def _wire_costs(self, out, payloads: List[str]) -> None:
        out["wire.payload_bytes_mean"] = sum(map(len, payloads)) / len(payloads)
        typical = sorted(payloads, key=len)[len(payloads) // 2]
        frame = ("ok", typical, (("cache_hit", True), ("latency_s", 0.001),
                                 ("query_id", 7)))
        _, sample = self.ctx.sampler.time(
            lambda: wire.decode_frame(wire.encode_frame(frame)))
        out["wire.encode_decode_ms"] = 1e3 * sample.norm

    def _trace_misses(self, out) -> Tuple[int, int]:
        ctx, rec = self.ctx, self.ctx.recorder
        reps = 1 if ctx.smoke else 4
        rtt: Dict[str, List[float]] = {"full": [], "sliced": []}
        submit, overhead = [], []
        attempted = failed = 0
        for rep in range(reps):
            for step in _MISS_STEPS:
                (key, answer), sample = self.run_step(step)
                attempted += 1
                failed += not self.check(step, (key, answer))
                with rec.trace(f"{self.name}/{rep}/{step}"):
                    rec.add("client.query", sample.raw)
                    rec.add("service.submit", answer.latency_s,
                            parent=len(rec.spans) - 1)
                rtt[step.split("/")[1]].append(sample.norm)
                submit.append(answer.latency_s * sample.factor)
                overhead.append(sample.norm - answer.latency_s * sample.factor)
        every = rtt["full"] + rtt["sliced"]
        out.update({
            "trace.op_wall_ms": 1e3 * median(every),
            "client.miss_p90_ms": 1e3 * percentile(every, 0.9),
            "slice.full_miss_p50_ms": 1e3 * median(rtt["full"]),
            "slice.sliced_miss_p50_ms": 1e3 * median(rtt["sliced"]),
            "service.submit_miss_ms": 1e3 * median(submit),
            "wire.miss_overhead_ms": 1e3 * median(overhead),
        })
        self._wire_costs(out, [a.payload for _, a in self.missed])
        self._service_counters(out)

        # The first two repetitions again: through an in-process service,
        # then call by call.
        replay = self.missed[:2 * len(_MISS_STEPS)]
        payloads, seconds = self._in_process([key for key, _ in replay])
        out["service.inproc_miss_ms"] = 1e3 * median(seconds)
        samples = []
        for i, ((key, answer), expected) in enumerate(zip(replay, payloads)):
            attempted += 1
            trace_id = f"{self.name}/replay/{i}"
            with rec.trace(trace_id):
                payload, sample = ctx.sampler.time(lambda: self._replay(key))
            if not answer.payload == expected == payload:
                failed += 1
                ctx.fail(f"{self.name}: payloads of {key} differ between "
                         f"socket, in-process service and direct calls")
            layers = {n: s * sample.factor
                      for n, s in rec.self_times(trace_id).items()}
            layers["wall"] = sample.norm
            samples.append(layers)
        total = _median_layers(samples)
        out.update({
            "slice.temporal_slice_ms": 1e3 * median(
                s["query.temporal_slice"] for s in samples
                if "query.temporal_slice" in s),
            "engine.build_s": total["engine.build"],
            "engine.run_s": total["engine.run"],
            "results_io.export_json_s": total["results_io.export_json"],
            "trace.coverage": 1.0 - total["replay"] / total["wall"],
        })
        return attempted, failed

    def _replay(self, key: tuple) -> str:
        """What the service does for a miss, as direct public calls."""
        rec = self.ctx.recorder
        algorithm, source, interval = key
        with rec.span("replay"):
            graph = self.graph
            if interval is not None:
                with rec.span("query.temporal_slice"):
                    graph = temporal_slice(graph, Interval(*interval))
            with rec.span("engine.build"):
                engine = api.build_engine(graph, _PROGRAMS[algorithm](source),
                                          graph_name=self.graph_name)
            with rec.span("engine.run"):
                result = engine.run()
            with rec.span("results_io.export_json"):
                doc = export_states_json(result, io.StringIO())
                return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                  default=str)

    def _trace_hits(self, out) -> Tuple[int, int]:
        ctx = self.ctx
        self._fill_hot_set()
        rtts: List[float] = []
        submit: List[float] = []
        attempted = failed = 0

        def hits(sink_rtt, sink_submit) -> bool:
            (raw, served, ok), sample = ctx.sampler.time(self._hit_batch)
            sink_rtt.extend(r * sample.factor for r in raw)
            sink_submit.extend(s * sample.factor for s in served)
            return ok

        for _ in range(2 if ctx.smoke else 4):
            attempted += 1
            failed += not hits(rtts, submit)
        self._service_counters(out)

        # Loaded: the same hits on this connection while a second one keeps
        # the single lane busy with cache-bypassing misses, until it has
        # had `wanted` of them answered.
        wanted = 2 if ctx.smoke else 6
        stop = threading.Event()
        answered: List[Any] = []
        errors: List[BaseException] = []

        def keep_lane_busy() -> None:
            try:
                with QueryClient.connect(self.sock) as other:
                    while not stop.is_set():
                        key = self._fresh_key(self.rng.choice(_MISS_STEPS))
                        answered.append(
                            self._query(key, client=other, no_cache=True))
            except BaseException as exc:  # surfaced below as a failed op
                errors.append(exc)

        loaded: List[float] = []
        thread = threading.Thread(target=keep_lane_busy)
        thread.start()
        try:
            deadline = clock() + 30.0
            while len(answered) < wanted and not errors and clock() < deadline:
                attempted += 1
                failed += not hits(loaded, [])
        finally:
            stop.set()
            thread.join()
        if errors or len(answered) < wanted:
            failed += 1
            ctx.fail(f"{self.name}: background connection had "
                     f"{len(answered)}/{wanted} misses answered: {errors!r}")
        out.update({
            "trace.op_wall_ms": 1e3 * median(rtts),
            "trace.coverage": 1.0,
            "client.hit_p99_ms": 1e3 * percentile(rtts, 0.99),
            "client.loaded_hit_p50_ms": 1e3 * median(loaded),
            "client.loaded_hit_p90_ms": 1e3 * percentile(loaded, 0.9),
            "service.submit_hit_ms": 1e3 * median(submit),
            "wire.hit_overhead_ms": 1e3 * median(
                r - s for r, s in zip(rtts, submit)),
        })
        self._wire_costs(out, [payload for _, payload in self.hot])
        return attempted, failed


_TD = ("BFS", "SSSP", "EAT", "RH", "FAST", "TMST", "LD")

WORKLOADS = {w.name: w for w in (
    EngineWorkload("pr_dense", mag, 17, 0.3, 0.1, ("PR",), approx=True),
    EngineWorkload("td_frontier", usrn, 13, 2.0, 1.0, _TD),
    EngineWorkload("pr_dense_2p", mag, 17, 0.3, 0.1, ("PR",),
                   processes=2, approx=True),
    EngineWorkload("td_frontier_2p", usrn, 13, 2.0, 1.0, _TD, processes=2),
    BatchWorkload("batch_text", "text"),
    BatchWorkload("batch_compact", "compact"),
    ServeWorkload("serve_miss", "miss"),
    ServeWorkload("serve_hit", "hit"),
)}
