#!/usr/bin/env python
"""Kernel micro-benchmarks with a persisted perf-regression gate.

Times the engine's hot kernels on synthetic workloads —

* **warp**        — ``time_warp`` over 10k messages (plain and combiner),
                    against the retained per-partition reference sweep;
* **state**       — ``PartitionedState.set_many`` bulk updates, against
                    sequential ``set()`` calls;
* **encode**      — message codec round-trip (no reference; tracked as
                    time normalised by a pure-Python calibration loop,
                    timed beside each repeat, so the number is comparable
                    across machines);
* **checkpoint**  — a full interval-centric run (~10k messages) with
                    barrier checkpointing
                    (``checkpoint_every=4``) against the plain run, after
                    asserting identical states.  The gated metric is the
                    *overhead ratio* (checkpointed / plain wall-clock,
                    the two run in turn), hardware-independent like a
                    speedup; full mode enforces a hard <15% ceiling.
* **observability** — the same engine workload fully instrumented (JSON-lines
                    trace writer + in-memory event observer) against the
                    uninstrumented run, after asserting identical states.
                    Gated like checkpointing, with a hard <10% ceiling in
                    full mode: structured events are emitted per superstep,
                    not per message, so tracing must stay near-free.
* **span_overhead** — the engine workload on the *parallel* executor,
                    fully instrumented (per-worker ``worker_span`` phase
                    records, trace writer flushing per event) against the
                    bare parallel run, after asserting identical states
                    and untouched modeled metrics.  Hard <10% ceiling in
                    full mode: per-worker tracing must stay near-free.
* **partition**     — the locality synthetic graph under greedy (LDG) and
                    interval-greedy partitioning against Giraph-style hash
                    partitioning (paper Sec. VII-A4), after asserting
                    bit-identical states across every partitioner and both
                    executors.  The gated metric is the deterministic
                    remote-barrier-byte ratio hash/greedy (a "speedup":
                    higher is better, hardware-independent); both greedy
                    variants must cut remote bytes ≥30% vs hash.
* **exchange**      — sender-side combining on the parallel barrier
                    data plane: the min-combiner flood on the locality
                    graph, combined vs uncombined wire.  Deterministic
                    byte counts, no wall-clock; ``exchange_raw_bytes``
                    (what an uncombined wire would carry) must be
                    invariant, and the gated ratio uncombined/combined
                    must show a ≥25% real-byte cut (floor 1.33×).

Multi-core engine speedup and serving-cache latency are not measured here:
``benchmarks/e2e`` reports them as wall-clock (``executor.speedup_2p``,
``serve_hit`` / ``serve_miss``).

Results are written to ``BENCH_kernels.json`` at the repository root: a
committed **baseline** plus a bounded run **history**, so the repo carries
its own perf trajectory.  On every run the script compares against the
baseline and **fails loudly (exit 1) on a >20% regression**.  Speedup-based
metrics (optimised vs reference implementation) are hardware-independent,
which is what makes the gate meaningful on CI machines that never produced
the baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full gate
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_kernels.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for tests.core._reference_impls

from repro import api  # noqa: E402
from repro.core.interval import Interval  # noqa: E402
from repro.core.messages import IntervalMessage  # noqa: E402
from repro.core.program import IntervalProgram  # noqa: E402
from repro.core.combiner import min_combiner  # noqa: E402
from repro.core.state import PartitionedState  # noqa: E402
from repro.core.warp import time_warp  # noqa: E402
from repro.graph.builder import TemporalGraphBuilder  # noqa: E402
from repro.obs.exporters import render_summary  # noqa: E402
from repro.obs.observers import InMemoryEvents, JsonlTraceWriter  # noqa: E402
from repro.obs.registry import RUN_METRICS  # noqa: E402
from repro.runtime.cluster import SimulatedCluster  # noqa: E402
from repro.runtime.encoding import decode_message, encode_message  # noqa: E402

from tests.core._reference_impls import (  # noqa: E402
    reference_set_sequence,
    reference_time_warp,
)

RESULTS_PATH = REPO_ROOT / "BENCH_kernels.json"
# Fail on regression vs the baseline: 20% in full mode; smoke runs are
# short and live on noisy shared CI runners, so they get a wider band —
# the smoke gate is a sanity check, the full gate is the contract.
REGRESSION_TOLERANCE = {"full": 0.20, "smoke": 0.50}
HISTORY_LIMIT = 50
SPEEDUP_FLOOR = {
    "warp_10k": 3.0,
    # ≥30% remote-byte reduction vs hash ⇒ hash/greedy ratio ≥ 1/0.7.
    "partition_quality": 1.43,
    # ≥25% real-wire byte cut from sender-side combining ⇒ ratio ≥ 1/0.75.
    # Deterministic byte counts, so this binds on any host.
    "exchange_bytes": 1.33,
    # mmap-loading a compact image must be ≥5× faster than decoding the
    # v1 object stream of the same 10k-vertex graph — the point of the
    # columnar format is that a restarted daemon is queryable while the
    # object decoder would still be allocating.
    "compact_load": 5.0,
}  # acceptance bars
#: Hard ceiling on overhead-style metrics (instrumented / plain wall-clock).
#: The checkpoint cadence of 4 must cost <15% on the 10k-message workload;
#: full observability instrumentation must cost <10% on the same workload.
#: ``span_overhead`` caps the worker_span event emission + per-event trace
#: flush on the parallel executor at <10% — per-worker tracing must stay
#: near-free or nobody will leave it on.
OVERHEAD_CAP = {
    "checkpoint_overhead": 1.15,
    "observability_overhead": 1.10,
    "span_overhead": 1.10,
}
SIZES = {
    "full": dict(
        warp_messages=10_000, warp_partitions=64, warp_span=20_000,
        state_updates=5_000, state_span=20_000,
        encode_messages=20_000, repeats=3,
        engine_vertices=160, engine_fanout=7, engine_span=64,
        engine_supersteps=4, engine_shards=4, engine_procs=4,
        locality_scale=1.0,
        compact_vertices=10_000, compact_fanout=4, compact_span=1_000,
    ),
    "smoke": dict(
        warp_messages=3_000, warp_partitions=48, warp_span=3_000,
        state_updates=1_000, state_span=4_000,
        encode_messages=4_000, repeats=3,
        engine_vertices=60, engine_fanout=5, engine_span=32,
        engine_supersteps=4, engine_shards=4, engine_procs=2,
        locality_scale=0.5,
        compact_vertices=2_000, compact_fanout=3, compact_span=500,
    ),
}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock over ``repeats`` runs (noise-robust)."""
    return min(_timed(fn) for _ in range(repeats))


def best_of_alternating(first, second, repeats: int) -> tuple[float, float]:
    """Minimum wall-clock of each of two functions over ``repeats`` runs,
    run in turn — first, second, first, … — so that a stretch of host noise
    falls on both sides of a ratio instead of on one side's whole series."""
    a = b = float("inf")
    for _ in range(repeats):
        a = min(a, _timed(first))
        b = min(b, _timed(second))
    return a, b


def _calibration_loop():
    acc = 0
    for i in range(2_000_00):
        acc += i % 7
    return acc


def calibration_seconds() -> float:
    """A fixed pure-Python workload; normalising by it makes absolute
    timings roughly comparable across machines and interpreters."""
    return best_of(_calibration_loop, 3)


def best_normalized(fn, repeats: int) -> tuple[float, float]:
    """``(best wall-clock, best normalized)`` over ``repeats`` runs of ``fn``.

    Each run is normalised by the calibration loop timed right before and
    right after it (their mean): a stretch of host noise slows the
    calibration beside a run as much as the run itself, where a single
    calibration at start-up would leave the run's share of the noise in
    the ratio."""
    best = ratio = float("inf")
    for _ in range(repeats):
        before = _timed(_calibration_loop)
        elapsed = _timed(fn)
        after = _timed(_calibration_loop)
        best = min(best, elapsed)
        ratio = min(ratio, 2 * elapsed / (before + after))
    return best, ratio


# -- synthetic workloads -------------------------------------------------------


def make_partitions(rng, n, span):
    bounds = sorted(rng.sample(range(1, span), n - 1))
    cuts = [0, *bounds, span]
    return [
        (Interval(lo, hi), i % 5)
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]


def make_messages(rng, m, span, max_len=60):
    out = []
    for _ in range(m):
        start = rng.randrange(span)
        out.append((Interval(start, start + rng.randint(1, max_len)), rng.randrange(100)))
    return out


def make_updates(rng, u, span, max_len=12):
    out = []
    for _ in range(u):
        start = rng.randrange(span - max_len)
        out.append((Interval(start, start + rng.randint(1, max_len)), rng.randrange(8)))
    return out


# -- kernels -------------------------------------------------------------------


def bench_warp(sizes, repeats):
    rng = random.Random(0xC0FFEE)
    outer = make_partitions(rng, sizes["warp_partitions"], sizes["warp_span"])
    inner = make_messages(rng, sizes["warp_messages"], sizes["warp_span"] - 100)
    sanity_new = time_warp(outer, inner)
    sanity_ref = reference_time_warp(outer, inner)
    assert sanity_new == sanity_ref, "warp kernel diverged from its oracle"
    opt = best_of(lambda: time_warp(outer, inner), repeats)
    ref = best_of(lambda: reference_time_warp(outer, inner), repeats)
    return {"opt_s": opt, "ref_s": ref, "speedup": ref / opt}


def bench_warp_combine(sizes, repeats):
    rng = random.Random(0xBEEF)
    outer = make_partitions(rng, sizes["warp_partitions"], sizes["warp_span"])
    inner = make_messages(rng, sizes["warp_messages"], sizes["warp_span"] - 100)
    assert time_warp(outer, inner, min) == reference_time_warp(outer, inner, min)
    opt = best_of(lambda: time_warp(outer, inner, min), repeats)
    ref = best_of(lambda: reference_time_warp(outer, inner, min), repeats)
    return {"opt_s": opt, "ref_s": ref, "speedup": ref / opt}


def bench_state(sizes, repeats):
    rng = random.Random(0xDEAD)
    span = sizes["state_span"]
    updates = make_updates(rng, sizes["state_updates"], span)

    def bulk():
        state = PartitionedState(Interval(0, span), 0)
        state.set_many(updates)
        return state

    def sequential():
        state = PartitionedState(Interval(0, span), 0)
        reference_set_sequence(state, updates)
        return state

    from repro.core.state import states_equal_pointwise
    assert states_equal_pointwise(bulk(), sequential()), (
        "bulk state kernel diverged from sequential sets"
    )
    opt = best_of(bulk, repeats)
    ref = best_of(sequential, repeats)
    return {"opt_s": opt, "ref_s": ref, "speedup": ref / opt}


def bench_encode(sizes, repeats):
    rng = random.Random(0xFEED)
    msgs = [
        IntervalMessage(
            Interval(t, t + rng.randint(1, 9)),
            (rng.randrange(1000), f"v{t % 37}"),
        )
        for t in range(sizes["encode_messages"])
    ]

    def roundtrip():
        for m in msgs:
            decode_message(encode_message(m))

    opt, normalized = best_normalized(roundtrip, repeats)
    return {"opt_s": opt, "normalized": normalized}


class _FloodMin(IntervalProgram):
    """Fixed-superstep label flood: every vertex computes and scatters each
    round, so the message volume is ``supersteps × edge-overlaps`` and both
    executors get a dense, evenly spread workload."""

    name = "bench-flood"

    def __init__(self, supersteps: int):
        self.fixed_supersteps = supersteps

    def init(self, ctx):
        # Deterministic label derived from the "v<i>" id (hash() is salted
        # per interpreter, which would break cross-run reproducibility).
        ctx.set_state(ctx.lifespan, (int(ctx.vertex_id[1:]) * 31) % 977)

    def compute(self, ctx, interval, state, messages):
        best = min(messages) if messages else state
        ctx.set_state(interval, min(state, best) if state is not None else best)

    def scatter(self, ctx, edge, interval, state):
        return [(interval, state)]


class _FloodMinCombined(_FloodMin):
    """The flood with a selective min combiner and full-lifespan messages.

    Every sender process folds duplicate (destination, interval) pairs
    before they reach the wire, making the combined/uncombined byte split
    big enough to gate — ``_FloodMin``'s per-edge clipped intervals almost
    never coincide, which would leave the sender-side combiner nothing to
    fold and the bench vacuous.
    """

    name = "bench-flood-min"

    def __init__(self, supersteps: int):
        super().__init__(supersteps)
        self.combiner = min_combiner()

    def scatter(self, ctx, edge, interval, state):
        return [(ctx.lifespan, state)]


def _build_engine_workload(sizes):
    rng = random.Random(0xACE5)
    span = sizes["engine_span"]
    n = sizes["engine_vertices"]
    builder = TemporalGraphBuilder()
    builder.add_vertices([f"v{i}" for i in range(n)], 0, span)
    for i in range(n):
        for _ in range(sizes["engine_fanout"]):
            j = rng.randrange(n)
            if j == i:
                continue
            start = rng.randrange(span - 2)
            builder.add_edge(f"v{i}", f"v{j}", start, rng.randint(start + 1, span))
    return builder.build()


#: Alternating repeats of the checkpoint-overhead ratio, at least.
CHECKPOINT_REPEATS = 9


def bench_checkpoint_overhead(sizes, repeats):
    """Barrier checkpointing (cadence 4) vs the plain serial run.

    The ratio is hardware-independent: both runs execute the identical
    superstep schedule, so the quotient isolates the snapshot + encode +
    fsync-free atomic-rename cost of `repro.runtime.checkpoint`.
    """
    graph = _build_engine_workload(sizes)
    shards = sizes["engine_shards"]
    supersteps = sizes["engine_supersteps"]

    def run(checkpoint_dir=None):
        return api.run(
            graph, _FloodMin(supersteps), cluster=SimulatedCluster(shards),
            options={
                "executor": "serial",
                # 0 disables checkpointing outright (immune to env knobs).
                "checkpoint_every": 4 if checkpoint_dir else 0,
                "checkpoint_dir": checkpoint_dir,
            },
        )

    ckpt_dir = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        plain = run()
        ckpt = run(ckpt_dir)
        assert {v: list(s) for v, s in plain.states.items()} == \
               {v: list(s) for v, s in ckpt.states.items()}, (
            "checkpointed engine run diverged from the plain run"
        )
        assert ckpt.metrics.recovery.checkpoints_written > 0, (
            "checkpoint cadence never fired on the bench workload"
        )
        # Runs of ~30 ms under --smoke: a single burst of host noise on the
        # checkpointed side has read past the gate's limit at 3 repeats.
        plain_s, ckpt_s = best_of_alternating(
            run, lambda: run(ckpt_dir), max(repeats, CHECKPOINT_REPEATS)
        )
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    return {
        "opt_s": ckpt_s,
        "ref_s": plain_s,
        "overhead": ckpt_s / plain_s,
        "checkpoints": ckpt.metrics.recovery.checkpoints_written,
        "checkpoint_bytes": ckpt.metrics.recovery.checkpoint_bytes,
        "messages": plain.metrics.messages_sent,
    }


def bench_observability_overhead(sizes, repeats):
    """Fully instrumented engine run vs the bare run, same workload.

    "Fully instrumented" means both shipping observers at once: the
    JSON-lines trace writer (I/O per event) and the in-memory collector.
    Events are superstep-granular, so the quotient bounds the cost of the
    whole `repro.obs` layer, not of one exporter.
    """
    graph = _build_engine_workload(sizes)
    shards = sizes["engine_shards"]
    supersteps = sizes["engine_supersteps"]

    def run(observe=None):
        return api.run(
            graph, _FloodMin(supersteps), cluster=SimulatedCluster(shards),
            options={"executor": "serial", "checkpoint_every": 0},
            observe=observe,
        )

    trace_dir = tempfile.mkdtemp(prefix="bench-obs-")
    trace_path = os.path.join(trace_dir, "bench.trace")

    def instrumented():
        return run(observe=[InMemoryEvents(), JsonlTraceWriter(trace_path)])

    try:
        plain = run()
        events = InMemoryEvents()
        observed = run(observe=[events, JsonlTraceWriter(trace_path)])
        assert {v: list(s) for v, s in plain.states.items()} == \
               {v: list(s) for v, s in observed.states.items()}, (
            "instrumented engine run diverged from the plain run"
        )
        assert events.records, "instrumented run emitted no events"
        modeled = RUN_METRICS.names(modeled=True)
        assert all(
            getattr(plain.metrics, f) == getattr(observed.metrics, f)
            for f in modeled
        ), "observation perturbed the modeled metrics"
        # Benchmark logs share the CLI's metric renderer (one code path).
        print(render_summary(observed.metrics))
        plain_s, instrumented_s = best_of_alternating(run, instrumented, repeats)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return {
        "opt_s": instrumented_s,
        "ref_s": plain_s,
        "overhead": instrumented_s / plain_s,
        "events": len(events.records),
        "messages": plain.metrics.messages_sent,
    }


def bench_span_overhead(sizes, repeats):
    """Per-worker phase spans (schema v5) on the *parallel* executor:
    fully instrumented run vs the bare parallel run, same workload.

    The span machinery has two cost sites — the unconditional in-worker
    phase timers (perf_counter pairs around scatter/encode/exchange,
    present in both runs) and the observer-side ``worker_span`` event
    emission with its per-event trace flush (instrumented run only).
    The gated quotient bounds the second; the first shows in
    ``benchmarks/e2e``'s ``executor.speedup_2p``.
    """
    graph = _build_engine_workload(sizes)
    shards = sizes["engine_shards"]
    supersteps = sizes["engine_supersteps"]
    procs = sizes["engine_procs"]

    def run(observe=None):
        return api.run(
            graph, _FloodMin(supersteps), cluster=SimulatedCluster(shards),
            options={
                "executor": "parallel",
                "executor_processes": procs,
                "checkpoint_every": 0,
            },
            observe=observe,
        )

    trace_dir = tempfile.mkdtemp(prefix="bench-span-")
    trace_path = os.path.join(trace_dir, "bench.trace")

    def instrumented():
        return run(observe=[InMemoryEvents(), JsonlTraceWriter(trace_path)])

    try:
        plain = run()
        events = InMemoryEvents()
        observed = run(observe=[events, JsonlTraceWriter(trace_path)])
        assert {v: list(s) for v, s in plain.states.items()} == \
               {v: list(s) for v, s in observed.states.items()}, (
            "span-instrumented parallel run diverged from the plain run"
        )
        spans = events.of_type("worker_span")
        assert spans, "parallel run emitted no worker_span events"
        workers = {s["data"]["worker"] for s in spans}
        assert workers == set(range(procs)), (
            f"expected spans from workers {set(range(procs))}, got {workers}"
        )
        for span in spans:
            wall = span["wall"]
            for phase in span["data"]["phases"]:
                assert 0.0 <= wall[f"{phase}_s"] <= wall["total_s"] + 1e-12, (
                    f"span phase {phase} out of bounds: {wall}"
                )
        modeled = RUN_METRICS.names(modeled=True)
        assert all(
            getattr(plain.metrics, f) == getattr(observed.metrics, f)
            for f in modeled
        ), "span capture perturbed the modeled metrics"
        plain_s, instrumented_s = best_of_alternating(run, instrumented, repeats)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return {
        "opt_s": instrumented_s,
        "ref_s": plain_s,
        "overhead": instrumented_s / plain_s,
        "events": len(events.records),
        "spans": len(spans),
        "processes": procs,
        "messages": plain.metrics.messages_sent,
    }


def bench_partition_quality(sizes):
    """Remote barrier-exchange bytes under each partitioner (Sec. VII-A4).

    Runs the flood workload on the community-structured ``locality``
    surrogate with 4 workers.  Every quantity gated here is *modeled* and
    therefore deterministic — no repeats, no wall-clock — which is what
    lets CI enforce the ≥30% remote-byte reduction exactly.  Results must
    be bit-identical across all partitioners (placement moves messages,
    never changes states) and across executors under the greedy placement.
    """
    from repro.datasets.synthetic import locality

    graph = locality(sizes["locality_scale"])
    supersteps = sizes["engine_supersteps"]
    workers = 4

    def run(partitioner, executor="serial", processes=None):
        return api.run(
            graph, _FloodMin(supersteps), cluster=SimulatedCluster(workers),
            options={
                "partitioner": partitioner,
                "executor": executor,
                "executor_processes": processes,
                "checkpoint_every": 0,
            },
        )

    runs = {kind: run(kind) for kind in ("hash", "greedy", "interval_greedy")}
    greedy_parallel = run("greedy", "parallel", 2)

    def states_of(result):
        return {v: list(s) for v, s in result.states.items()}

    reference = states_of(runs["hash"])
    for kind, result in runs.items():
        assert states_of(result) == reference, (
            f"partitioner {kind} changed the computed states"
        )
    assert states_of(greedy_parallel) == reference, (
        "parallel greedy run diverged from serial"
    )
    assert (
        greedy_parallel.metrics.remote_message_bytes
        == runs["greedy"].metrics.remote_message_bytes
    ), "executors disagree on remote barrier bytes under greedy partitioning"

    hash_bytes = runs["hash"].metrics.remote_message_bytes
    for kind in ("greedy", "interval_greedy"):
        kind_bytes = runs[kind].metrics.remote_message_bytes
        assert kind_bytes <= 0.7 * hash_bytes, (
            f"{kind} cut remote bytes only "
            f"{1 - kind_bytes / hash_bytes:.1%} vs hash (need >=30%)"
        )

    greedy_bytes = runs["greedy"].metrics.remote_message_bytes
    return {
        "speedup": hash_bytes / greedy_bytes,
        "hash_remote_bytes": hash_bytes,
        "greedy_remote_bytes": greedy_bytes,
        "interval_greedy_remote_bytes":
            runs["interval_greedy"].metrics.remote_message_bytes,
        "hash_edge_cut": runs["hash"].metrics.partition_edge_cut,
        "greedy_edge_cut": runs["greedy"].metrics.partition_edge_cut,
        "interval_greedy_edge_cut":
            runs["interval_greedy"].metrics.partition_edge_cut,
        "workers": workers,
    }


def bench_exchange_bytes(sizes):
    """Real wire bytes with sender-side combining on vs off.

    Runs the min-combiner flood on the ``locality`` surrogate on two worker
    processes with combining enabled and disabled.  Everything
    gated here is a deterministic byte count — no repeats, no wall-clock:
    ``exchange_raw_bytes`` (the bytes an uncombined wire would carry, the
    count-preserving invariant behind the charging discipline) must be
    bit-identical across both runs, and the gated "speedup" is the
    real-wire ratio uncombined/combined.  The 1.33× floor is the ≥25%
    remote-byte cut the combining layer promises.
    """
    from repro.datasets.synthetic import locality

    graph = locality(sizes["locality_scale"])
    supersteps = sizes["engine_supersteps"]
    workers = 4

    def run(executor="parallel", combine=True):
        return api.run(
            graph, _FloodMinCombined(supersteps), cluster=SimulatedCluster(workers),
            options={
                "executor": executor,
                "executor_processes": 2 if executor == "parallel" else None,
                "exchange_combine": combine,
                "checkpoint_every": 0,
            },
        )

    def states_of(result):
        return {v: list(s) for v, s in result.states.items()}

    serial = run("serial")
    combined = run()
    plain = run(combine=False)
    reference = states_of(serial)
    assert states_of(combined) == reference, (
        "combined parallel run diverged from serial"
    )
    assert states_of(plain) == reference, (
        "uncombined parallel run diverged from serial"
    )
    assert combined.metrics.exchange_raw_bytes == plain.metrics.exchange_raw_bytes, (
        "combining changed the raw (uncombined-equivalent) wire accounting"
    )
    modeled = RUN_METRICS.names(modeled=True)
    assert all(
        getattr(combined.metrics, f) == getattr(plain.metrics, f) for f in modeled
    ), "sender-side combining perturbed the modeled metrics"

    return {
        "speedup": plain.metrics.exchange_bytes / combined.metrics.exchange_bytes,
        "plain_bytes": plain.metrics.exchange_bytes,
        "combined_bytes": combined.metrics.exchange_bytes,
        "raw_bytes": combined.metrics.exchange_raw_bytes,
        "workers": workers,
        "processes": 2,
    }


def _build_compact_workload(sizes):
    """A property-bearing temporal graph at compact-benchmark scale.

    Every edge carries a two-entry ``w`` timeline so the compact image's
    property columns and piece-cut tables are exercised, not just the
    topology arrays.
    """
    rng = random.Random(0x5EED)
    span = sizes["compact_span"]
    n = sizes["compact_vertices"]
    builder = TemporalGraphBuilder()
    builder.add_vertices([f"v{i}" for i in range(n)], 0, span)
    for i in range(n):
        for _ in range(sizes["compact_fanout"]):
            j = rng.randrange(n)
            if j == i:
                continue
            start = rng.randrange(span - 4)
            end = rng.randint(start + 2, span)
            mid = rng.randint(start + 1, end - 1)
            builder.add_edge(
                f"v{i}", f"v{j}", start, end,
                props={"w": [(start, mid, rng.randrange(50)),
                             (mid, end, rng.randrange(50))]},
            )
    return builder.build()


def bench_compact_build(sizes, repeats):
    """Freezing a heap graph into the compact columnar image.

    Correctness first: the frozen graph must carry the same checkpoint
    fingerprint as its heap source (the bit-identity contract).  The
    gated metric is build wall-clock normalised by the calibration loop
    timed beside each repeat (host-robust); resident bytes of both stores
    ride along for the record.
    """
    from repro.graph.compact import CompactGraph
    from repro.graph.stats import resident_bytes
    from repro.runtime.checkpoint import graph_fingerprint

    graph = _build_compact_workload(sizes)
    compact = CompactGraph.from_temporal(graph)
    assert graph_fingerprint(compact) == graph_fingerprint(graph), (
        "compact graph fingerprint diverged from its heap source"
    )
    opt, normalized = best_normalized(lambda: CompactGraph.from_temporal(graph), repeats)
    return {
        "opt_s": opt,
        "normalized": normalized,
        "heap_bytes": resident_bytes(graph),
        "resident_bytes": compact.nbytes,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
    }


def bench_compact_load(sizes, repeats):
    """mmap-loading the compact image vs decoding the v1 object stream.

    Dumps the same graph in both on-disk formats, then times
    ``CompactGraph.load`` (header parse + id table, pages faulted lazily)
    against ``load_graph_binary`` (rebuilds every vertex/edge/interval/
    property object).  The compact load must reproduce the source's
    checkpoint fingerprint exactly — unlike v1, which re-sorts
    enumeration order on round-trip, the compact image preserves it —
    and the v1 load is checked structurally.
    """
    import tempfile

    from repro.graph.binary_io import dump_graph_binary, load_graph_binary
    from repro.graph.compact import CompactGraph
    from repro.runtime.checkpoint import graph_fingerprint

    graph = _build_compact_workload(sizes)
    want = graph_fingerprint(graph)
    with tempfile.TemporaryDirectory(prefix="bench_compact_") as tmp:
        v1_path = os.path.join(tmp, "graph.itgr")
        v2_path = os.path.join(tmp, "graph.itgr2")
        dump_graph_binary(graph, v1_path)
        CompactGraph.from_temporal(graph).dump(v2_path)

        loaded_v1 = load_graph_binary(v1_path)
        loaded_v2 = CompactGraph.load(v2_path)
        assert graph_fingerprint(loaded_v2) == want, "compact round-trip diverged"
        assert (loaded_v1.num_vertices, loaded_v1.num_edges) == (
            graph.num_vertices, graph.num_edges
        ), "v1 round-trip diverged"
        loaded_v2.close()

        def load_compact():
            g = CompactGraph.load(v2_path)
            g.close()

        ref = best_of(lambda: load_graph_binary(v1_path), repeats)
        opt = best_of(load_compact, repeats)
        v1_bytes = os.path.getsize(v1_path)
        v2_bytes = os.path.getsize(v2_path)
    return {
        "opt_s": opt,
        "ref_s": ref,
        "speedup": ref / opt,
        "v1_bytes": v1_bytes,
        "v2_bytes": v2_bytes,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
    }


# -- gate ----------------------------------------------------------------------


def gate_metric(kernel: str, result: dict) -> tuple[str, float, bool]:
    """(metric name, value, higher_is_better) used for regression checks."""
    if "overhead" in result:
        return "overhead", result["overhead"], False
    if "speedup" in result:
        return "speedup", result["speedup"], True
    return "normalized", result["normalized"], False


def check_regressions(results: dict, baseline: dict, mode: str) -> list[str]:
    failures = []
    tolerance = REGRESSION_TOLERANCE[mode]
    for kernel, result in results.items():
        metric, value, higher_better = gate_metric(kernel, result)
        cap = OVERHEAD_CAP.get(kernel)
        if cap is not None and metric == "overhead" and mode == "full" and value > cap:
            failures.append(
                f"{kernel}: overhead {value:.3f}x above the {cap:.2f}x hard ceiling"
            )
        floor = SPEEDUP_FLOOR.get(kernel)
        if floor is not None and metric == "speedup" and mode == "full" and value < floor:
            failures.append(
                f"{kernel}: speedup {value:.2f}x below the {floor:.1f}x acceptance floor"
            )
        base = baseline.get(kernel)
        if not base or metric not in base:
            continue
        ref = base[metric]
        pct = int(tolerance * 100)
        if higher_better:
            limit = ref * (1.0 - tolerance)
            if value < limit:
                failures.append(
                    f"{kernel}: {metric} {value:.2f} regressed >{pct}% vs baseline "
                    f"{ref:.2f} (limit {limit:.2f})"
                )
        else:
            limit = ref * (1.0 + tolerance)
            if value > limit:
                failures.append(
                    f"{kernel}: {metric} {value:.3f} regressed >{pct}% vs baseline "
                    f"{ref:.3f} (limit {limit:.3f})"
                )
    return failures


def load_store() -> dict:
    if RESULTS_PATH.exists():
        try:
            return json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            print(f"warning: {RESULTS_PATH} is corrupt; starting fresh", file=sys.stderr)
    return {"schema": 1, "baseline": {}, "history": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workloads (single repeat)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record this run as the new baseline for its mode")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and gate only; leave BENCH_kernels.json alone")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    sizes = SIZES[mode]
    repeats = sizes["repeats"]

    print(f"bench_kernels [{mode}] — warp/state/encode")
    calib = calibration_seconds()
    print(f"  calibration loop: {calib * 1e3:8.2f} ms")

    results = {}
    for name, fn in (
        ("warp_10k", lambda: bench_warp(sizes, repeats)),
        ("warp_combine_10k", lambda: bench_warp_combine(sizes, repeats)),
        ("state_bulk_update", lambda: bench_state(sizes, repeats)),
        ("encode_roundtrip", lambda: bench_encode(sizes, repeats)),
        ("checkpoint_overhead", lambda: bench_checkpoint_overhead(sizes, repeats)),
        ("observability_overhead",
         lambda: bench_observability_overhead(sizes, repeats)),
        ("span_overhead", lambda: bench_span_overhead(sizes, repeats)),
        ("partition_quality", lambda: bench_partition_quality(sizes)),
        ("exchange_bytes", lambda: bench_exchange_bytes(sizes)),
        ("compact_build", lambda: bench_compact_build(sizes, repeats)),
        ("compact_load", lambda: bench_compact_load(sizes, repeats)),
    ):
        result = fn()
        results[name] = result
        if "combined_bytes" in result:
            print(
                f"  {name:20s} plain {result['plain_bytes']:6d} B   "
                f"combined {result['combined_bytes']:6d} B   "
                f"raw {result['raw_bytes']:6d} B   "
                f"ratio {result['speedup']:5.2f}x"
            )
        elif "hash_remote_bytes" in result:
            print(
                f"  {name:20s} hash {result['hash_remote_bytes']:6d} B   "
                f"greedy {result['greedy_remote_bytes']:6d} B   "
                f"ival {result['interval_greedy_remote_bytes']:6d} B   "
                f"ratio {result['speedup']:5.2f}x   "
                f"(cut {result['hash_edge_cut']:.2f}→{result['greedy_edge_cut']:.2f})"
            )
        elif "resident_bytes" in result:
            print(
                f"  {name:20s} opt {result['opt_s'] * 1e3:8.2f} ms   "
                f"normalized {result['normalized']:.3f}   "
                f"({result['resident_bytes']} B compact vs "
                f"{result['heap_bytes']} B heap-modeled, "
                f"{result['edges']} edges)"
            )
        elif "overhead" in result:
            if "checkpoints" in result:
                extra = (f"({result['checkpoints']} ckpts, "
                         f"{result['checkpoint_bytes']} bytes)")
            else:
                extra = f"({result['events']} events)"
            print(
                f"  {name:20s} opt {result['opt_s'] * 1e3:8.2f} ms   "
                f"ref {result['ref_s'] * 1e3:9.2f} ms   "
                f"overhead {result['overhead']:5.3f}x   "
                f"{extra}"
            )
        elif "speedup" in result:
            print(
                f"  {name:20s} opt {result['opt_s'] * 1e3:8.2f} ms   "
                f"ref {result['ref_s'] * 1e3:9.2f} ms   "
                f"speedup {result['speedup']:6.2f}x"
            )
        else:
            print(
                f"  {name:20s} opt {result['opt_s'] * 1e3:8.2f} ms   "
                f"normalized {result['normalized']:.3f}"
            )

    store = load_store()
    baseline = store.get("baseline", {}).get(mode, {})
    failures = [] if args.update_baseline else check_regressions(results, baseline, mode)

    if not args.no_write:
        store.setdefault("baseline", {})
        if args.update_baseline or not store["baseline"].get(mode):
            store["baseline"][mode] = results
            print(f"  baseline[{mode}] {'updated' if args.update_baseline else 'recorded'}")
        else:
            # Adopt kernels the committed baseline has never seen (a newly
            # added bench case) without disturbing the existing numbers.
            for kernel, result in results.items():
                if kernel not in store["baseline"][mode]:
                    store["baseline"][mode][kernel] = result
                    print(f"  baseline[{mode}] adopted new kernel {kernel}")
        store.setdefault("history", []).append(
            {
                "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "mode": mode,
                "python": ".".join(map(str, sys.version_info[:3])),
                "results": results,
                "calibration_s": calib,
            }
        )
        store["history"] = store["history"][-HISTORY_LIMIT:]
        RESULTS_PATH.write_text(
            json.dumps(store, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"  wrote {RESULTS_PATH.relative_to(REPO_ROOT)}")

    if failures:
        print("\nPERF REGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  ✗ {failure}", file=sys.stderr)
        return 1
    print(f"  gate: ok (tolerance ±{int(REGRESSION_TOLERANCE[mode] * 100)}% vs committed baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
