"""Barrier accounting: traffic classification, compute attribution, load.

Runs the same program under both executors — with a non-default partitioner
seed, so vertex→worker placement differs from every other test — and checks
that the barrier folds per-worker quantities identically.
"""

import pickle
import random

import pytest

from repro import api
from repro.algorithms.td.sssp import TemporalSSSP
from repro.algorithms.runners import default_source, run_algorithm
from repro.core.combiner import min_combiner, sum_combiner
from repro.core.engine import IntervalCentricEngine
from repro.core.messages import message
from repro.core.program import IntervalProgram
from repro.core.tracing import ExecutionTracer
from repro.datasets import load_surrogate, transit_graph
from repro.graph.builder import TemporalGraphBuilder
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.encoding import encode_routed_batch, encoded_message_size
from repro.runtime.executor import _ShardPayload, _WorkerRuntime
from repro.runtime.partitioner import HashPartitioner

from ..core._reference_impls import rows_of

WORKERS = 3
SEED = 7


def _cluster():
    return SimulatedCluster(WORKERS, partitioner=HashPartitioner(WORKERS, seed=SEED))


def _run(executor):
    graph = transit_graph()
    engine = api.build_engine(
        graph, TemporalSSSP(default_source(graph)), cluster=_cluster(),
        options={"executor": executor, "executor_processes": 2},
    )
    return engine.run()


@pytest.fixture(scope="module")
def runs():
    return {"serial": _run("serial"), "parallel": _run("parallel")}


@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_local_remote_split_is_exhaustive(runs, executor):
    metrics = runs[executor].metrics
    assert metrics.messages_sent > 0
    assert metrics.local_messages + metrics.remote_messages == (
        metrics.messages_sent + metrics.system_messages
    )
    # With 3 workers and a spread-out transit graph some traffic must cross.
    assert metrics.remote_messages > 0


def test_traffic_classification_matches_partitioner(runs):
    serial, parallel = runs["serial"].metrics, runs["parallel"].metrics
    assert serial.local_messages == parallel.local_messages
    assert serial.remote_messages == parallel.remote_messages
    assert serial.message_bytes == parallel.message_bytes


@pytest.mark.parametrize("executor", ["serial", "parallel"])
def test_per_worker_compute_attribution(runs, executor):
    metrics = runs[executor].metrics
    details = metrics.supersteps_detail
    assert len(details) == metrics.supersteps
    # Every superstep that processed vertices charged its slowest worker.
    assert any(step.max_worker_compute_time > 0 for step in details)
    assert metrics.modeled_compute_time == pytest.approx(
        sum(step.max_worker_compute_time for step in details)
    )


def test_modeled_compute_identical_across_executors(runs):
    # Per-shard sums fold in canonical order, so even the float sums agree
    # bitwise between executors.
    serial = [s.max_worker_compute_time for s in runs["serial"].metrics.supersteps_detail]
    parallel = [s.max_worker_compute_time for s in runs["parallel"].metrics.supersteps_detail]
    assert serial == parallel


def test_worker_load_is_placement_only():
    graph = transit_graph()
    vids = graph.vertex_ids()
    load_a = _cluster().worker_load(vids)
    load_b = _cluster().worker_load(vids)
    assert load_a == load_b
    assert sum(load_a) == graph.num_vertices
    # seed=7 places vertices differently from the default seed.
    default = SimulatedCluster(WORKERS).worker_load(vids)
    assert sum(default) == graph.num_vertices


def test_serial_has_single_wall_time_per_step(runs):
    for step in runs["serial"].metrics.supersteps_detail:
        assert len(step.worker_wall_times) == 1
        assert step.worker_wall_times[0] == step.compute_time


def test_parallel_reports_real_exchange(runs):
    metrics = runs["parallel"].metrics
    # 2 processes over 3 shards: shard 2 shares a process with shard 0, so
    # some remote-shard traffic crosses a real pipe.
    assert metrics.exchange_bytes > 0
    assert len(metrics.supersteps_detail[0].worker_wall_times) == 2
    assert metrics.worker_wall_time > 0
    # Serial runs never touch the wire.
    assert runs["serial"].metrics.exchange_bytes == 0


# -- the batched send sink ---------------------------------------------------
#
# The processor hands the worker runtime one ``send_batch(src, dst, rows)``
# per (vertex, destination), the messages as ``(start, end, value)`` rows.
# Routing, classification and sizing happen once per batch; everything
# observable must equal what one call per message (``ctx.send`` — a batch
# of one row) leaves behind.


def _placed_vertices():
    """``(src, same, near, far)``: two vertices on shard 0, one on shard 1
    (hosted by the same process below) and one on shard 2 (another one)."""
    part = HashPartitioner(WORKERS, seed=SEED)
    by_shard = {}
    for i in range(40):
        by_shard.setdefault(part.worker_of(f"v{i}"), []).append(f"v{i}")
    return (*by_shard[0][:2], by_shard[1][0], by_shard[2][0])


_SRC, _SAME, _NEAR, _FAR = _placed_vertices()
_SHARD_TO_PROC = [0, 0, 1]
#: Repeated intervals, so the sender-side fold has entries to fold into —
#: and a second batch to the far vertex, so it folds across batches too.
_BURST_A = [message(0, 4, 5), message(0, 4, 3), message(2, 6, 9),
            message(0, 4, 7), message(2, 6, 1)]
_BURST_B = [message(2, 6, 0), message(7, 8, 2), message(0, 4, 4)]
_PLAN = [(_SAME, _BURST_A), (_NEAR, _BURST_A), (_FAR, _BURST_A), (_FAR, _BURST_B)]


class _Burst(IntervalProgram):
    """Superstep 1: the source vertex sends ``_PLAN`` from inside compute —
    one batch per plan row through the runtime's sink, or one direct
    ``ctx.send`` per message."""

    name = "burst"
    combiner = min_combiner()

    def __init__(self, batched: bool):
        self.batched = batched

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep != 1 or ctx.vertex_id != _SRC:
            return
        for dst, msgs in _PLAN:
            if self.batched:
                ctx._engine.send_batch(_SRC, dst, rows_of(msgs))
            else:
                for m in msgs:
                    ctx.send(dst, m.interval, m.value)

    def scatter(self, ctx, edge, interval, state):
        return None


def _burst_step(batched: bool, fold: bool, traced: bool):
    """Run superstep 1 of ``_Burst`` on process 0's runtime; returns
    ``(runtime, report, tracer)``."""
    b = TemporalGraphBuilder()
    for vid in (_SRC, _SAME, _NEAR, _FAR):
        b.add_vertex(vid, 0, 10)
    graph = b.build()
    engine = IntervalCentricEngine(graph, _Burst(batched), cluster=_cluster())
    engine._seq = {v.vid: i for i, v in enumerate(graph.vertices())}
    tracer = ExecutionTracer() if traced else None
    # A cold run: the runtime derives its own vertices' states (not _FAR's).
    runtime = _WorkerRuntime(
        _ShardPayload.of(engine, _SHARD_TO_PROC, 0, {}, {}, False, combine=fold),
        tracer=tracer,
    )
    return runtime, runtime.step(1, {}, ()), tracer


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("fold", [False, True], ids=["raw", "fold"])
def test_send_batch_equals_batches_of_one(fold, traced):
    batched, rep_b, tracer_b = _burst_step(True, fold, traced)
    single, rep_s, tracer_s = _burst_step(False, fold, traced)

    # Same shard and other-shard-same-process stay in ``_pending``, the
    # other process's go to ``_out`` — in send order, entry for entry.
    assert batched._pending == single._pending
    assert [e[1] for e in batched._pending] == [_SAME] * 5 + [_NEAR] * 5
    assert [e[2] for e in batched._pending] == rows_of(_BURST_A + _BURST_A)
    assert batched._out == single._out
    assert list(batched._out) == [1]
    for key in ("traffic", "raw_wire", "out", "exchange_bytes"):
        assert rep_b[key] == rep_s[key], key

    n = sum(len(msgs) for _, msgs in _PLAN)
    assert rep_b["traffic"]["app"] == n
    assert rep_b["traffic"]["local"] == len(_BURST_A)          # same shard only
    assert rep_b["traffic"]["remote"] == n - len(_BURST_A)
    sent = [m for _, msgs in _PLAN for m in msgs]
    assert rep_b["traffic"]["bytes_total"] == sum(map(encoded_message_size, sent))
    assert rep_b["traffic"]["bytes_remote"] == sum(
        map(encoded_message_size, sent[len(_BURST_A):])
    )
    # The raw wire footprint is what the uncombined entries would encode to.
    seq = batched.seq[_SRC]
    raw_entries = [(seq, _FAR, row) for row in rows_of(_BURST_A + _BURST_B)]
    assert rep_b["raw_wire"] == (
        len(encode_routed_batch(raw_entries)) - len(encode_routed_batch([]))
    )

    scan_s = batched._scan_s
    if fold:
        # One entry per distinct interval, at its first message's position;
        # (count, charge) carry what the fold replaced.
        assert batched._out[1] == [
            (seq, _FAR, (0, 4, 3), 4, 4 * scan_s),
            (seq, _FAR, (2, 6, 0), 3, 3 * scan_s),
            (seq, _FAR, (7, 8, 2)),
        ]
    else:
        assert batched._out[1] == raw_entries

    if traced:
        # One ``on_send`` per message, in send order, whatever the batching.
        assert tracer_b.sends == tracer_s.sends
        assert [(e.dst, e.interval, e.value) for e in tracer_b.sends] == [
            (dst, m.interval, m.value) for dst, msgs in _PLAN for m in msgs
        ]
        assert {e.superstep for e in tracer_b.sends} == {1}
        assert {e.src for e in tracer_b.sends} == {_SRC}


# -- exchange_bytes is counted at send time -----------------------------------
#
# The barrier ships each destination's entries pickled, and
# ``exchange_bytes`` is what those entries occupy in the routed-batch
# format (`repro.runtime.encoding`, the checkpoint shards' pending
# section), counted entry by entry as they are sent and folded.  Random
# bursts pin that count to the codec: every case must report exactly the
# encoded size of what it shipped.

RANDOM_CASES = 60
RANDOM_SEED = 0x5EED34

#: Vertex ids of three kinds; 300 of them, so sender seqs pass 127.
_MIXED_IDS = [
    vid for i in range(100) for vid in (f"v{i}", 1000 + i * 37, (i, "t"))
]


class _RandomBurst(IntervalProgram):
    """Superstep 1: each vertex in ``plan`` sends its ``(dst, rows)``
    batches through the runtime's sink."""

    name = "random-burst"

    def __init__(self, combiner, plan):
        self.combiner = combiner
        self.plan = plan

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep == 1:
            for dst, rows in self.plan.get(ctx.vertex_id, ()):
                ctx._engine.send_batch(ctx.vertex_id, dst, rows)

    def scatter(self, ctx, edge, interval, state):
        return None


def _random_rows(rng, kind, hot):
    """Rows of one batch: mostly fresh intervals, or — ``hot`` — repeats of
    one interval, so a fold count passes 127."""
    value = {
        "int": lambda: rng.choice([0, 5, 127, 128, 300, 70_000]),
        "float": lambda: rng.uniform(-1e6, 1e6),
        "tuple": lambda: (rng.randrange(200), rng.choice([1.5, 2, 40_000])),
    }[kind]
    if hot:
        return [(3, 9, value()) for _ in range(rng.randint(60, 140))]
    rows = []
    for _ in range(rng.randint(1, 6)):
        start = rng.choice([0, 1, 126, 127, 128, 5_000])
        end = start + rng.choice([1, 2, 200])
        rows.append((start, end, value()))
    return rows


def _random_case(rng):
    """One runtime's superstep 1 over a random plan; returns its report and
    every cross-process ``(seq, dst, row)`` it sent."""
    combiner = rng.choice([min_combiner, sum_combiner])()
    fold = rng.random() < 0.7
    varint = rng.random() < 0.7
    # Sum adds numbers only; min also orders the tuple payloads FAST sends.
    kind = rng.choice(["int", "float", "tuple"] if combiner.selective else ["int", "float"])
    part = HashPartitioner(WORKERS, seed=SEED)
    b = TemporalGraphBuilder()
    for vid in _MIXED_IDS:
        b.add_vertex(vid, 0, 10)
    graph = b.build()
    seq = {v.vid: i for i, v in enumerate(graph.vertices())}
    senders = [v for v in _MIXED_IDS if _SHARD_TO_PROC[part.worker_of(v)] == 0]
    plan: dict = {}
    for _ in range(rng.randint(1, 12)):
        src = rng.choice(senders)
        rows = _random_rows(rng, kind, hot=rng.random() < 0.25)
        plan.setdefault(src, []).append((rng.choice(_MIXED_IDS), rows))
    cluster = SimulatedCluster(WORKERS, partitioner=part, varint_encoding=varint)
    engine = IntervalCentricEngine(graph, _RandomBurst(combiner, plan), cluster=cluster)
    engine._seq = seq
    runtime = _WorkerRuntime(
        _ShardPayload.of(engine, _SHARD_TO_PROC, 0, {}, {}, False, combine=fold)
    )
    crossing = [
        (seq[src], dst, row)
        for src, batches in plan.items()
        for dst, rows in batches
        if _SHARD_TO_PROC[part.worker_of(dst)] == 1
        for row in rows
    ]
    return runtime.step(1, {}, ()), crossing


def test_exchange_bytes_is_the_routed_codec_size_of_what_ships():
    rng = random.Random(RANDOM_SEED)
    folded = large_counts = high_seqs = 0
    id_kinds = set()
    for case in range(RANDOM_CASES):
        case_seed = rng.randrange(2**32)
        report, crossing = _random_case(random.Random(case_seed))
        shipped = {d: pickle.loads(buf) for d, buf in report["out"].items()}
        context = f"case {case} (random.Random({case_seed}))"
        assert report["exchange_bytes"] == sum(
            len(encode_routed_batch(entries)) for entries in shipped.values()
        ), context
        # The raw footprint: each crossing message as its own entry.
        assert report["raw_wire"] == sum(
            len(encode_routed_batch([e])) - 2 for e in crossing
        ), context
        counts = [e[3] for entries in shipped.values() for e in entries if len(e) > 3]
        folded += bool(counts)
        large_counts += any(c >= 128 for c in counts)
        high_seqs += any(e[0] >= 128 for e in crossing)
        id_kinds |= {type(e[1]) for e in crossing}
    # The axes the cases were drawn for were all reached.
    assert folded and large_counts and high_seqs
    assert id_kinds == {str, int, tuple}


#: ``(exchange_bytes, exchange_raw_bytes)`` per process count and program,
#: recorded while the barrier still shipped codec-encoded batches: the
#: seven TD programs on usrn(1.0) and PR on mag(0.1), default cluster.
EXCHANGE_PINS = {
    2: {"PR": (79532, 79479), "BFS": (4685, 5496), "EAT": (4416, 5050),
        "FAST": (118375, 118299), "LD": (4685, 5496), "RH": (4147, 4604),
        "SSSP": (12763, 13655), "TMST": (6366, 8277)},
    3: {"PR": (102757, 102633), "BFS": (4629, 4890), "EAT": (4318, 4494),
        "FAST": (105558, 105389), "LD": (4629, 4890), "RH": (4007, 4098),
        "SSSP": (11886, 12162), "TMST": (6574, 7363)},
}


@pytest.mark.parametrize("processes", sorted(EXCHANGE_PINS))
def test_exchange_bytes_equal_the_codec_era_values(processes):
    graphs = {"usrn": load_surrogate("usrn", 1.0), "mag": load_surrogate("mag", 0.1)}
    options = {"executor": "parallel", "executor_processes": processes}
    for algorithm, pinned in EXCHANGE_PINS[processes].items():
        graph = graphs["mag" if algorithm == "PR" else "usrn"]
        metrics = run_algorithm(algorithm, "GRAPHITE", graph, icm_options=options).metrics
        assert (metrics.exchange_bytes, metrics.exchange_raw_bytes) == pinned, algorithm
