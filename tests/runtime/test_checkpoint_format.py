"""Property tests for the checkpoint shard format and routed-batch codec.

The checkpoint format *is* the wire format (`repro.runtime.encoding`), so
these properties pin both at once: any payload/interval/batch the executors
can ship between processes must round-trip through a checkpoint shard —
including the awkward corners (empty batches, interval bounds at and beyond
the ``FOREVER`` sentinel, unicode vertex ids, checkpoints with no shards).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import FOREVER, Interval
from repro.core.messages import IntervalMessage
from repro.core.state import PartitionedState
from repro.runtime.checkpoint import (
    CheckpointError,
    ExecutorSnapshot,
    decode_shard,
    encode_shard,
    load_checkpoint,
    write_checkpoint,
)
from repro.runtime.encoding import decode_routed_batch, encode_routed_batch
from repro.runtime.metrics import RunMetrics

from ._reference_impls import reference_encode_routed_batch
from .test_golden_serial import EXECUTORS, GOLDEN, _twitter_bfs

# -- strategies ---------------------------------------------------------------

# Vertex ids as they appear across the algorithm suite: strings (unicode
# included — real datasets carry station/user names), ints, and tuples.
vertex_ids = st.one_of(
    st.text(min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**40),
    st.tuples(st.text(max_size=4), st.integers(min_value=0, max_value=99)),
)

# Message/state payloads: every tag of the wire codec, including the
# big-int path (values at and beyond the FOREVER sentinel).
payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.sampled_from([FOREVER, FOREVER + 1, -FOREVER, 2**62 - 1]),
        st.floats(allow_nan=False, allow_infinity=True),
        st.text(max_size=12),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=4,
)

# Interval bounds stress the varint/flag paths: unit, unbounded, and
# big-int starts (the paper's FOREVER sentinel is 2**62).
starts = st.one_of(
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=2**32, max_value=2**61),
)
intervals = starts.flatmap(
    lambda s: st.one_of(
        st.just(Interval(s)),  # unbounded (till FOREVER)
        st.just(Interval(s, s + 1)),  # unit
        st.integers(min_value=s + 1, max_value=FOREVER).map(
            lambda e: Interval(s, e)
        ),
    )
)

# Pending messages are the engine's ``(start, end, value)`` rows.
messages = st.builds(lambda iv, value: (iv.start, iv.end, value), intervals, payloads)
entries = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**20), vertex_ids, messages),
    max_size=12,
)


def _states(draw_values, lifespan: Interval) -> PartitionedState:
    state = PartitionedState(lifespan, draw_values[0], coalesce=False)
    span = lifespan.end - lifespan.start
    for i, value in enumerate(draw_values[1:], start=1):
        if i >= span:
            break
        state.set(Interval(lifespan.start + i, lifespan.start + i + 1), value)
    return state


# -- routed batch round-trip ---------------------------------------------------


class TestRoutedBatchRoundTrip:
    @given(batch=entries)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, batch):
        assert decode_routed_batch(encode_routed_batch(batch)) == batch

    def test_empty_batch(self):
        assert decode_routed_batch(encode_routed_batch([])) == []

    def test_big_int_interval_bounds(self):
        batch = [
            (0, "v", (2**61, FOREVER, FOREVER + 7)),
            (1, "v", (0, FOREVER, -FOREVER)),
        ]
        assert decode_routed_batch(encode_routed_batch(batch)) == batch

    def test_unicode_vertex_ids(self):
        batch = [(3, "駅🚉", (1, 2, "значение"))]
        assert decode_routed_batch(encode_routed_batch(batch)) == batch


# -- shard round-trip ----------------------------------------------------------


class TestShardRoundTrip:
    @given(
        vids=st.lists(vertex_ids, min_size=1, max_size=5, unique=True),
        values=st.lists(payloads, min_size=1, max_size=5),
        start=st.integers(min_value=0, max_value=50),
        span=st.integers(min_value=1, max_value=20),
        pending=entries,
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, vids, values, start, span, pending):
        lifespan = Interval(start, start + span)
        states = [(vid, _states(values, lifespan)) for vid in vids]
        blob = encode_shard(states, pending)
        back_states, back_pending = decode_shard(blob, coalesce=False)
        assert back_pending == pending
        assert set(back_states) == set(vids)
        for vid, state in states:
            assert back_states[vid].parts() == state.parts()
            assert list(back_states[vid]) == list(state)

    def test_empty_shard(self):
        states, pending = decode_shard(encode_shard([], []))
        assert states == {} and pending == []

    def test_shards_written_by_the_object_encoder_resume_here(self, tmp_path):
        """Messages became rows without the bytes moving: every shard of a
        real checkpoint — sender-combined 5-tuple entries included — is
        byte for byte what the reference encoder writes from the same
        pending messages boxed as ``IntervalMessage``s, and the run resumes
        from the files it wrote to the pinned uninterrupted result."""
        _twitter_bfs({**EXECUTORS["parallel"], "checkpoint_every": 1,
                      "checkpoint_dir": str(tmp_path)})
        step = tmp_path / "step-000002"
        combined = 0
        for shard in sorted(step.glob("shard-*.bin")):
            blob = shard.read_bytes()
            states, pending = decode_shard(blob)
            boxed = [
                (seq, dst, IntervalMessage(Interval(start, end), value), *tail)
                for seq, dst, (start, end, value), *tail in pending
            ]
            combined += sum(len(entry) > 3 for entry in boxed)
            head = encode_shard(list(states.items()), [])
            head = head[: len(head) - len(encode_routed_batch([]))]
            rewritten = head + reference_encode_routed_batch(boxed)
            assert rewritten == blob
            shard.write_bytes(rewritten)
        assert combined, "no sender-combined entry; the case tests nothing"
        resumed = _twitter_bfs(EXECUTORS["serial"], resume_from=str(step))
        assert resumed == GOLDEN["uninterrupted/twitter-BFS"]

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            decode_shard(b"NOPE" + b"\x00" * 8)

    def test_partition_boundaries_survive_verbatim(self):
        """No re-coalescing on load: equal adjacent values keep their
        boundary, so a resumed run's partition walk is bit-identical."""
        state = PartitionedState(Interval(0, 10), "x", coalesce=True)
        state._starts = [0, 5]
        state._ends = [5, 10]
        state._values = ["same", "same"]
        back, _ = decode_shard(encode_shard([("v", state)], []))
        assert back["v"].parts() == (Interval(0, 10), [5, 10], ["same", "same"])


# -- manifest round-trip -------------------------------------------------------


class TestManifest:
    def test_zero_shard_checkpoint(self, tmp_path):
        """A checkpoint of an empty computation: no shard files at all."""
        info = write_checkpoint(
            tmp_path,
            superstep=3,
            snapshot=ExecutorSnapshot(states={}, pending=[]),
            aggregates={},
            metrics=RunMetrics(),
            config_hash="cafe",
            num_workers=4,
            worker_of=lambda vid: 0,
        )
        assert not list(info.path.glob("shard-*.bin"))
        ckpt = load_checkpoint(info.path)
        assert ckpt.superstep == 3
        assert ckpt.states == {} and ckpt.pending == []
        assert ckpt.config_hash == "cafe"

    @given(aggs=st.dictionaries(st.text(max_size=8), payloads, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_aggregates_roundtrip(self, aggs, tmp_path_factory):
        root = tmp_path_factory.mktemp("aggs")
        info = write_checkpoint(
            root,
            superstep=1,
            snapshot=ExecutorSnapshot(states={}, pending=[]),
            aggregates=aggs,
            metrics=RunMetrics(),
            config_hash="",
            num_workers=1,
            worker_of=lambda vid: 0,
        )
        assert load_checkpoint(info.path).aggregates == aggs

    def test_pending_merge_is_stable_across_shards(self, tmp_path):
        """Same-seq entries from different shards keep per-shard order."""
        msgs = [
            (7, "a", (0, 1, 1)),
            (7, "a", (0, 1, 2)),
            (5, "b", (0, 1, 3)),
        ]
        info = write_checkpoint(
            tmp_path,
            superstep=1,
            snapshot=ExecutorSnapshot(states={}, pending=msgs),
            aggregates={},
            metrics=RunMetrics(),
            config_hash="",
            num_workers=2,
            worker_of=lambda vid: 0 if vid == "a" else 1,
        )
        ckpt = load_checkpoint(info.path)
        assert ckpt.pending == [msgs[2], msgs[0], msgs[1]]
