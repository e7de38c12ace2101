"""Seeded parity properties of the unboxed message path.

PageRank's path keeps ints where it used to box: the fixed-superstep cover
is C-sorted ``(start, end)`` pairs walked by ``engine._complement``,
``coalesce`` sorts with a C key, ``VertexContext.out_degree_rows`` answers
from a memo, and a worker runtime parks one pending entry per same-process
batch.  Each property below generates ``RANDOM_CASES`` cases from
``RANDOM_SEED`` and holds the production code to the retained oracle in
``_reference_impls`` (or to the per-message view it replaced); a failure
names the case's seed, and ``random.Random(seed)`` replays that case alone.
"""

import random
from operator import itemgetter
from types import SimpleNamespace

import pytest

from repro.core.combiner import sum_combiner
from repro.core.context import VertexContext
from repro.core.engine import IntervalCentricEngine, _complement
from repro.core.interval import FOREVER, Interval, coalesce
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState
from repro.graph.builder import TemporalGraphBuilder
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.executor import _ShardPayload, _WorkerRuntime

from ._reference_impls import (
    reference_coalesce,
    reference_complement,
    reference_cover,
    reference_out_degree_segments,
)

RANDOM_CASES = 300
RANDOM_SEED = 0x1C3A


def _seeds():
    return range(RANDOM_SEED, RANDOM_SEED + RANDOM_CASES)


def _bounds(rng: random.Random, horizon: int) -> tuple[int, int]:
    """A random ``start < end`` in ``[0, horizon]``, or open-ended."""
    start = rng.randrange(horizon)
    if rng.random() < 0.15:
        return start, FOREVER
    return start, rng.randrange(start + 1, horizon + 1)


# -- the fixed-superstep cover and its complement ----------------------------


def _rows_around(rng: random.Random, lifespan: Interval) -> list[tuple[int, int, float]]:
    """Rows outside, straddling, inside and covering ``lifespan``, with
    repeats and ends at ``FOREVER``."""
    lo = lifespan.start
    hi = lifespan.end if lifespan.end < FOREVER else lo + 30
    rows = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.randrange(6)
        if kind == 0 and lo > 0:  # wholly before
            start = rng.randrange(lo)
            end = rng.randrange(start + 1, lo + 1)
        elif kind == 1:  # wholly after (or from the lifespan's end on)
            start = rng.randrange(hi, hi + 10)
            end = rng.choice((start + rng.randrange(1, 5), FOREVER))
        elif kind == 2:  # straddles an end
            start = rng.randrange(max(lo - 5, 0), hi)
            end = rng.randrange(start + 1, hi + 6)
        elif kind == 3:  # covers the whole lifespan
            start = rng.randrange(lo + 1) if lo else 0
            end = FOREVER if lifespan.end >= FOREVER else rng.choice((hi, hi + 3, FOREVER))
        elif kind == 4 and rows:  # a repeat of an earlier row's interval
            start, end, _ = rng.choice(rows)
        else:  # inside
            start = rng.randrange(lo, hi)
            end = rng.randrange(start + 1, hi + 1)
        rows.append((start, end, rng.random()))
    return rows


@pytest.mark.parametrize("path", ["suppressed", "warp"])
def test_pair_cover_complement_equals_interval_oracle(path):
    """Both covers the engine builds — the suppressed path's from the inbox
    rows, the warp path's from the warp triples — leave the gaps the boxed,
    clipped and coalesced cover left."""
    for seed in _seeds():
        rng = random.Random(seed)
        lifespan = Interval(*_bounds(rng, 40))
        rows = _rows_around(rng, lifespan)
        if path == "suppressed":
            covered = sorted(map(itemgetter(0, 1), rows))
        else:
            triples = [(Interval(s, e), v, [v]) for s, e, v in rows]
            rng.shuffle(triples)
            covered = sorted([(iv.start, iv.end) for iv, _, _ in triples])
        expected = reference_complement(lifespan, reference_cover(lifespan, rows))
        assert _complement(lifespan, covered) == expected, f"case seed {seed}: {lifespan} {rows}"


def test_key_sorted_coalesce_equals_sorted_oracle():
    """Same cover, and the same objects: the C key breaks ties as
    ``Interval.__lt__`` did, so the first of equal intervals survives."""
    for seed in _seeds():
        rng = random.Random(seed)
        intervals = [Interval(*_bounds(rng, 25)) for _ in range(rng.randrange(0, 10))]
        intervals += [Interval(iv.start, iv.end) for iv in rng.sample(intervals, len(intervals) // 2)]
        rng.shuffle(intervals)
        got = coalesce(intervals)
        expected = reference_coalesce(intervals)
        assert got == expected, f"case seed {seed}: {intervals}"
        inputs = {id(iv) for iv in intervals}

        def kept(cover):
            return [id(iv) if id(iv) in inputs else None for iv in cover]

        assert kept(got) == kept(expected), f"case seed {seed}: {intervals}"


# -- memoised out-degree rows ------------------------------------------------


def _degree_context(rng: random.Random) -> tuple[VertexContext, list]:
    b = TemporalGraphBuilder()
    b.add_vertex("a")
    for k in range(4):
        b.add_vertex(f"n{k}")
    for k in range(rng.randrange(0, 7)):
        start, end = _bounds(rng, 30)
        b.add_edge("a", f"n{rng.randrange(4)}", start, end, eid=f"e{k}")
    graph = b.build()
    vertex = graph.vertex("a")
    ctx = VertexContext(vertex, PartitionedState(vertex.lifespan), SimpleNamespace(graph=graph))
    return ctx, graph.out_edges("a")


def test_memoised_out_degree_rows_equal_unmemoised():
    for seed in _seeds():
        rng = random.Random(seed)
        ctx, edges = _degree_context(rng)
        windows = [_bounds(rng, 35) for _ in range(rng.randrange(1, 6))]
        first = {}
        for _ in range(20):
            start, end = rng.choice(windows)
            rows = ctx.out_degree_rows(start, end)
            expected = tuple(
                (iv.start, iv.end, degree)
                for iv, degree in reference_out_degree_segments(edges, Interval(start, end))
            )
            assert rows == expected, f"case seed {seed}: [{start}, {end})"
            # Memoised: a repeat is the same object, not a recomputation.
            assert first.setdefault((start, end), rows) is rows, f"case seed {seed}"
        with pytest.raises(TypeError):
            rows[0] = (0, 1, 99)
        with pytest.raises(AttributeError):
            rows.append((0, 1, 99))
        assert ctx.out_degree_rows(start, end) == expected, f"case seed {seed}"


# -- batch pending entries ---------------------------------------------------


class _Scatterer(IntervalProgram):
    """Superstep 1: every vertex sends its planned batches through the
    runtime's sink.  Later supersteps send nothing."""

    name = "scatterer"
    combiner = sum_combiner()

    def __init__(self, plan):
        self.plan = plan

    def compute(self, ctx, interval, state, messages):
        if ctx.superstep == 1:
            for dst, rows in self.plan.get(ctx.vertex_id, ()):
                ctx._engine.send_batch(ctx.vertex_id, dst, list(rows))

    def scatter(self, ctx, edge, interval, state):
        return None


def _pending_runtime(rng: random.Random):
    """A one-process runtime of 3 shards after superstep 1 of a random send
    plan, and random per-message entries as a checkpoint restores them;
    ``(runtime, restored)``."""
    vids = [f"v{k}" for k in range(6)]
    b = TemporalGraphBuilder()
    for vid in vids:
        b.add_vertex(vid, 0, 20)
    graph = b.build()
    plan = {
        src: [
            (rng.choice(vids), [(*_bounds(rng, 20), rng.random()) for _ in range(rng.randrange(1, 4))])
            for _ in range(rng.randrange(0, 3))
        ]
        for src in vids
    }
    engine = IntervalCentricEngine(graph, _Scatterer(plan), cluster=SimulatedCluster(3))
    engine._seq = {vid: k for k, vid in enumerate(vids)}
    runtime = _WorkerRuntime(_ShardPayload.of(engine, [0, 0, 0], 0, {}, {}, False))
    runtime.step(1, {}, ())
    restored = []
    for _ in range(rng.randrange(0, 5)):
        row = (*_bounds(rng, 20), rng.random())
        entry = (rng.randrange(6), rng.choice(vids), row)
        if rng.random() < 0.3:  # a sender-side folded entry
            count = rng.randrange(2, 5)
            entry += (count, count * 1e-6)
        restored.append(entry)
    return runtime, restored


def _inboxes_seen(runtime) -> list:
    """Superstep 2's ``(vertex, inbox, extra_raw)`` per processed vertex."""
    seen = []
    process = runtime.processor.process

    def recording(ctx, messages, metrics, send_batch, extra_raw=0):
        seen.append((ctx.vertex_id, list(messages), extra_raw))
        return process(ctx, messages, metrics, send_batch, extra_raw)

    runtime.processor.process = recording
    runtime.step(2, {}, ())
    return seen


def test_pending_entries_expand_batches_in_delivery_order():
    """A runtime holding restored per-message entries beside batch entries
    lists them one message each, in order — and its next superstep sees
    the inboxes a runtime holding that per-message list sees."""
    for seed in _seeds():
        rng = random.Random(seed)
        runtime, restored = _pending_runtime(rng)
        twin, _ = _pending_runtime(random.Random(seed))
        plan = runtime.program.plan
        sent = [
            (runtime.seq[src], dst, row)
            for src in runtime.vids
            for dst, rows in plan[src]
            for row in rows
        ]
        assert runtime.pending_entries() == sent, f"case seed {seed}"

        runtime._pending = restored + runtime._pending
        expected = restored + sent
        assert runtime.pending_entries() == expected, f"case seed {seed}"
        twin._pending = expected
        assert _inboxes_seen(runtime) == _inboxes_seen(twin), f"case seed {seed}"
