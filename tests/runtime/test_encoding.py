"""Tests for the varint wire encoding (paper Sec. VI, interval messages)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import FOREVER, Interval
from repro.core.messages import IntervalMessage, message
from repro.runtime.encoding import (
    MAX_PAYLOAD_DEPTH,
    ROUTED_BATCH_FORMAT,
    _decode_routed_entries,
    decode_interval,
    decode_message,
    decode_payload,
    decode_routed_batch,
    decode_varint,
    encode_interval,
    encode_message,
    encode_payload,
    encode_routed_batch,
    encode_varint,
    encoded_batch_size,
    encoded_message_size,
    interval_size,
    payload_size,
    routed_entries_size,
    varint_size,
)

from ..core._reference_impls import reference_payload_size, rows_of
from ._reference_impls import (
    reference_encode_routed_batch,
    reference_encoded_batch_size,
)


class TestVarint:
    @pytest.mark.parametrize("n", [0, 1, 127, 128, 300, 2**20, 2**62])
    def test_roundtrip(self, n):
        value, offset = decode_varint(encode_varint(n))
        assert value == n

    @pytest.mark.parametrize("n,size", [(0, 1), (127, 1), (128, 2), (2**14, 3)])
    def test_size(self, n, size):
        assert varint_size(n) == size
        assert len(encode_varint(n)) == size

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)


class TestIntervalCodec:
    @pytest.mark.parametrize("iv", [
        Interval(0, 1), Interval(5, 6), Interval(3, 100),
        Interval(0), Interval(12345),
    ])
    def test_roundtrip(self, iv):
        decoded, _ = decode_interval(encode_interval(iv))
        assert decoded == iv

    def test_unit_interval_saves_end_point(self):
        """Unit-length intervals transmit one time-point plus a flag."""
        assert interval_size(Interval(5, 6)) < interval_size(Interval(5, 600))

    def test_unbounded_interval_saves_end_point(self):
        """'Those that span till ∞' pass just the start and a flag,
        saving the 8-byte long (paper Sec. VI)."""
        assert interval_size(Interval(5)) == interval_size(Interval(5, 6))

    def test_fixed_width_mode_is_16_bytes(self):
        assert interval_size(Interval(3, 9), varint=False) == 16

    def test_size_matches_encoding(self):
        for iv in [Interval(0, 1), Interval(7), Interval(2, 900)]:
            assert interval_size(iv) == len(encode_interval(iv))


class TestPayloadCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 42, -17, 3.5, "hello", "",
        (1, 2, 3), ("a", (2, False), None), FOREVER,
        FOREVER + 1, FOREVER + 12345, 2 * FOREVER, FOREVER**2,
    ])
    def test_roundtrip(self, value):
        decoded, _ = decode_payload(encode_payload(value))
        if isinstance(value, list):
            value = tuple(value)
        assert decoded == value

    def test_big_int_is_not_clamped_to_forever(self):
        """Regression: any int above FOREVER used to decode as exactly
        FOREVER, silently corrupting e.g. FOREVER + weight cost sums."""
        for value in (FOREVER + 1, FOREVER + 7, FOREVER + 2**40):
            decoded, _ = decode_payload(encode_payload(value))
            assert decoded == value

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode_payload({"a": 1})

    def test_size_matches_encoding(self):
        for value in [None, 42, -3, 2.5, "xyz", (1, "a", None)]:
            assert payload_size(value) == len(encode_payload(value))


class TestMessageCodec:
    def test_roundtrip(self):
        msg = message(4, 9, (3, "B"))
        assert decode_message(encode_message(msg)) == msg

    def test_trailing_bytes_rejected(self):
        raw = encode_message(message(0, 1, 5)) + b"\x00"
        with pytest.raises(ValueError):
            decode_message(raw)

    def test_varint_shrinks_messages_substantially(self):
        """The headline claim: message sizes drop 59-78% with varints.

        For the dominant message shape (small interval + small int cost),
        the varint layout must cut the fixed-width size by at least half.
        """
        msgs = [message(t, t + 1, t % 9) for t in range(64)]
        msgs += [IntervalMessage(Interval(t), t % 9) for t in range(64)]
        varint_bytes = sum(encoded_message_size(m, varint=True) for m in msgs)
        fixed_bytes = sum(encoded_message_size(m, varint=False) for m in msgs)
        drop = 1 - varint_bytes / fixed_bytes
        assert 0.5 < drop < 0.95


@given(
    st.integers(min_value=0, max_value=2**40),
    st.one_of(st.just(None), st.integers(min_value=1, max_value=2**20)),
)
@settings(max_examples=200, deadline=None)
def test_interval_roundtrip_property(start, length):
    iv = Interval(start, FOREVER if length is None else start + length)
    decoded, consumed = decode_interval(encode_interval(iv))
    assert decoded == iv
    assert consumed == interval_size(iv)


payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        # The full int range, including "infinite cost" sums above FOREVER
        # (e.g. FOREVER + weight in SSSP/EAT) and their negatives.
        st.integers(min_value=-(2**80), max_value=2**80),
        st.integers(min_value=FOREVER - 4, max_value=FOREVER + 2**20),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda inner: st.tuples(inner, inner),
    max_leaves=6,
)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_payload_roundtrip_property(value):
    decoded, consumed = decode_payload(encode_payload(value))
    assert decoded == value
    assert consumed == payload_size(value)


def test_fixed_width_mode_charges_full_length_prefixes():
    """Regression: fixed-width mode used to charge varint-sized length
    prefixes for strings and tuples, understating the baseline the paper's
    59–78% byte-drop claim is measured against."""
    assert payload_size("abc", varint=False) == 1 + 8 + 3
    assert payload_size((1, 2), varint=False) == 1 + 8 + 2 * (1 + 8)
    assert payload_size((), varint=False) == 1 + 8


@given(
    st.integers(min_value=0, max_value=2**40),
    st.one_of(st.just(None), st.integers(min_value=1, max_value=2**20)),
    payloads,
)
@settings(max_examples=200, deadline=None)
def test_message_roundtrip_property(start, length, value):
    msg = IntervalMessage(
        Interval(start, FOREVER if length is None else start + length), value
    )
    decoded = decode_message(encode_message(msg))
    assert decoded == msg
    assert len(encode_message(msg)) == encoded_message_size(msg)


@given(
    st.lists(
        st.tuples(
            # Both sides of the inline sizer's 1-byte / 2-byte varint edges.
            st.one_of(st.integers(0, 300), st.integers(2**14 - 3, 2**40)),
            st.one_of(st.none(), st.integers(1, 300), st.integers(2**14 - 3, 2**20)),
            st.one_of(payloads, st.integers(-3, 300), st.booleans()),
        ),
        max_size=12,
    )
)
@settings(max_examples=300, deadline=None)
def test_batch_size_is_the_sum_of_message_sizes(items):
    """``encoded_batch_size`` sizes ``(start, end, value)`` rows, the common
    shapes inline; it must stay exactly the per-message sum over the same
    messages boxed, in both encoding modes."""
    msgs = [
        IntervalMessage(
            Interval(start, FOREVER if length is None else start + length), value
        )
        for start, length, value in items
    ]
    for varint in (True, False):
        assert encoded_batch_size(rows_of(msgs), varint=varint) == (
            reference_encoded_batch_size(msgs, varint=varint)
        )


# -- routed batches (wire format 2) -------------------------------------------

_SCAN_S = 5e-7  # ComputeModel.per_message_scan_s default

routed_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**40),  # sender seq
        payloads,                                   # destination vertex id
        st.integers(min_value=0, max_value=2**30),  # interval start
        # interval length: unit, ordinary, or None for a FOREVER end
        st.one_of(st.none(), st.just(1), st.integers(min_value=1, max_value=2**20)),
        payloads,                                   # message value
        st.integers(min_value=1, max_value=2**20),  # raw message count
    ),
    max_size=30,
)


def _build_entries(raw):
    """Mixed 3-tuple (count 1) and 5-tuple (combined) routed entries, with
    the charge the sender would compute: ``count * per_message_scan_s``.
    Returns the entries twice: around ``(start, end, value)`` rows, as the
    engine carries them, and around ``IntervalMessage``s, as the reference
    encoder takes them."""
    rows, boxed = [], []
    for seq, dst, start, length, value, count in raw:
        end = FOREVER if length is None else start + length
        tail = () if count == 1 else (count, count * _SCAN_S)
        rows.append((seq, dst, (start, end, value), *tail))
        boxed.append((seq, dst, IntervalMessage(Interval(start, end), value), *tail))
    return rows, boxed


@given(routed_entries)
@settings(max_examples=200, deadline=None)
def test_routed_batch_roundtrip_property(raw):
    entries, boxed = _build_entries(raw)
    buf = encode_routed_batch(entries)
    assert buf[0] == ROUTED_BATCH_FORMAT
    # The wire did not move when messages became rows: byte for byte what
    # the object encoder wrote.
    assert buf == reference_encode_routed_batch(boxed)
    decoded = decode_routed_batch(buf)
    assert decoded == entries
    # Combined entries must carry their exact float charge through the wire
    # (struct '<d' is lossless) and it must equal count x scan cost — the
    # receiver recomputes the charge from the integer count, and the tests
    # here pin that both spellings agree bit-for-bit.
    for entry in decoded:
        if len(entry) == 5:
            assert entry[4] == entry[3] * _SCAN_S


@given(routed_entries)
@settings(max_examples=100, deadline=None)
def test_routed_batch_decodes_from_offset_in_larger_buffer(raw):
    """A batch can be decoded out of a larger buffer: decode honours the
    offset and reports where the batch ended instead of demanding an
    exact-length buffer."""
    entries, _ = _build_entries(raw)
    frame = encode_routed_batch(entries)
    buf = bytearray(b"\xff" * 7)
    buf += frame
    buf += b"\xee" * 11
    decoded, end = _decode_routed_entries(buf, 7)
    assert decoded == entries
    assert end == 7 + len(frame)


def test_routed_batch_rejects_old_format_naming_both_versions():
    """A format-1 batch (no leading format byte — its first byte is the
    entry-count varint) must be refused with both wire versions named, not
    misdecoded."""
    legacy_first_byte = bytes([1])  # count varint of a 1-entry v1 batch
    with pytest.raises(ValueError, match=r"format 1.*format 2|format 2.*format 1"):
        decode_routed_batch(legacy_first_byte + b"\x00" * 8)


def test_routed_batch_rejects_future_format():
    with pytest.raises(ValueError, match="format 7"):
        decode_routed_batch(bytes([7]) + b"\x00" * 4)


def test_routed_batch_rejects_trailing_bytes():
    buf = encode_routed_batch([(0, "v1", (0, 1, 5))]) + b"\x00"
    with pytest.raises(ValueError, match="trailing"):
        decode_routed_batch(buf)


@pytest.mark.parametrize("start,end", [(9, 9), (9, 3), (FOREVER, None)])
def test_routed_batch_rejects_an_empty_interval(start, end):
    """Decoded rows are never boxed, so the decoder itself refuses what
    ``Interval()`` refuses — with the same error — instead of letting an
    ``end <= start`` row off a crafted frame into an inbox."""
    frame = bytearray([ROUTED_BATCH_FORMAT, 1])         # one entry
    frame += encode_varint(0) + encode_payload("v1")    # seq, destination
    if end is None:                                     # unbounded flag
        frame += bytes([0x02]) + encode_varint(start)
    else:
        frame += bytes([0x00]) + encode_varint(start) + encode_varint(end)
    frame += encode_payload(5) + encode_varint(1)       # value, raw count
    with pytest.raises(ValueError) as crafted:
        decode_routed_batch(bytes(frame))
    with pytest.raises(ValueError) as boxed:
        Interval(start, FOREVER if end is None else end)
    assert str(crafted.value) == str(boxed.value)


def test_routed_entries_size_matches_uncombined_encoding():
    """``routed_entries_size`` is the byte accounting behind
    ``exchange_raw_bytes``: it must equal exactly what one sender's
    uncombined 3-tuple entries to one destination contribute to an encoded
    batch, with or without a pre-computed body size."""
    empty = len(encode_routed_batch([]))
    cases = [
        (7, "stop:42", [message(3, 9, 14)]),
        (123456, ("line", 8), [IntervalMessage(Interval(0, 2**20), -5.5),
                               message(0, 1, 0.25), message(4, 5, (1, "x"))]),
    ]
    for seq, dst, msgs in cases:
        rows = rows_of(msgs)
        wire = len(encode_routed_batch([(seq, dst, row) for row in rows])) - empty
        assert routed_entries_size(seq, dst, rows) == wire
        assert routed_entries_size(seq, dst, rows, encoded_batch_size(rows)) == wire


# -- the iterative sizer and the inline tuple case against the recursive one ----

_small = st.one_of(
    st.integers(-2, 130),                       # both sides of 0 and of 0x80
    st.integers(FOREVER - 2, FOREVER + 130),    # the big-int tag
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
_flat_tuples = st.one_of(
    st.lists(_small, max_size=4).map(tuple),
    # 127 items is the last length the inline case takes, 128 the first
    # it hands back (a two-byte length prefix).
    st.tuples(st.sampled_from([0, 1, 126, 127, 128, 129]), _small).map(
        lambda nv: (nv[1],) * nv[0]
    ),
)
_nested = st.recursive(
    st.one_of(_small, _flat_tuples),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple), st.lists(inner, max_size=3)
    ),
    max_leaves=8,
)


@given(_nested)
@settings(max_examples=400, deadline=None)
def test_payload_size_matches_the_recursive_sizer(value):
    for varint in (True, False):
        assert payload_size(value, varint=varint) == reference_payload_size(
            value, varint=varint
        )
    assert payload_size(value) == len(encode_payload(value))


@given(
    st.lists(
        st.tuples(
            st.integers(0, 300),
            st.one_of(st.none(), st.integers(1, 300)),
            st.one_of(_flat_tuples, _nested),
        ),
        max_size=8,
    )
)
@settings(max_examples=400, deadline=None)
def test_batch_size_of_tuple_payloads_is_the_sum_of_recursive_sizes(items):
    """Flat tuples of small ints / floats are sized inside the batch loop;
    everything else (bools, negatives, big ints, strings, nesting, 128 items)
    must leave it for the general sizer — same numbers either way."""
    rows = [
        (start, FOREVER if length is None else start + length, value)
        for start, length, value in items
    ]
    for varint in (True, False):
        want = sum(
            interval_size(Interval(start, end), varint=varint)
            + reference_payload_size(value, varint=varint)
            for start, end, value in rows
        )
        assert encoded_batch_size(rows, varint=varint) == want


def test_inline_tuple_sizing_named_shapes():
    for value, size in [
        ((), 2), ((3, 4), 6), ((3, 0.5), 13), ((127,), 4), ((128,), 5),
        ((True, 3), 5), ((-1, 3), 6), ((FOREVER, 3), 6), ((3, "ab"), 8),
        (((1, 2), 3), 10), ((1,) * 127, 2 + 254), ((1,) * 128, 3 + 256),
    ]:
        assert encoded_batch_size([(0, 1, value)]) == 2 + size, value
        assert payload_size(value) == size == len(encode_payload(value)), value


def _nest(depth):
    value = 7
    for _ in range(depth):
        value = (value,)
    return value


def test_deep_payloads_are_sized_without_recursion_and_refused_by_depth():
    """The sizer walks levels, not frames: the deepest payload it accepts
    is a number it states, and one far past the interpreter's recursion
    limit is a ``ValueError``, not a ``RecursionError``."""
    deepest = _nest(MAX_PAYLOAD_DEPTH)
    assert payload_size(deepest) == 2 * MAX_PAYLOAD_DEPTH + 2
    assert payload_size(deepest) == len(encode_payload(deepest))
    for depth in (MAX_PAYLOAD_DEPTH + 1, 10_000):
        with pytest.raises(ValueError, match="nested deeper"):
            payload_size(_nest(depth))
        with pytest.raises(ValueError, match="nested deeper"):
            encoded_batch_size([(0, 1, _nest(depth))])
