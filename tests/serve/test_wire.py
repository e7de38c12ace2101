"""Tests for the serving wire frames (length prefix + versioned body).

Mirrors ``tests/runtime/test_encoding.py``: the frames reuse the engine's
tagged varint payload codec, so the same recursive value strategy must
round-trip through a frame bit-exactly, and version mismatches must be
rejected naming both versions.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interval import FOREVER
from repro.runtime.encoding import encode_payload, encode_varint
from repro.serve.wire import (
    EOF,
    MAX_FRAME_BYTES,
    SERVE_WIRE_FORMAT,
    decode_frame,
    decode_frame_body,
    encode_frame,
    encode_frame_body,
    items_to_dict,
    query_value,
    read_frame,
    write_frame,
)

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
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
def test_frame_roundtrip_property(value):
    decoded, end = decode_frame(encode_frame(value))
    assert decoded == value
    assert end == len(encode_frame(value))


@given(payloads)
@settings(max_examples=100, deadline=None)
def test_frame_body_roundtrip_property(value):
    body = encode_frame_body(value)
    assert body[0] == SERVE_WIRE_FORMAT
    assert decode_frame_body(body) == value


@given(st.lists(payloads, max_size=5))
@settings(max_examples=100, deadline=None)
def test_concatenated_frames_decode_sequentially(values):
    """A socket delivers frames back to back; each decode must report
    exactly where the next one starts."""
    buf = b"".join(encode_frame(v) for v in values)
    offset = 0
    decoded = []
    for _ in values:
        value, offset = decode_frame(buf, offset)
        decoded.append(value)
    assert decoded == values
    assert offset == len(buf)


@given(st.lists(payloads, max_size=5))
@settings(max_examples=100, deadline=None)
def test_read_frame_streams_frames_and_reports_clean_eof(values):
    stream = io.BytesIO(b"".join(encode_frame(v) for v in values))
    decoded = []
    while (value := read_frame(stream.read)) is not EOF:
        decoded.append(value)
    assert decoded == values


class TestVersionRejection:
    def test_future_version_rejected_naming_both_versions(self):
        body = bytes((SERVE_WIRE_FORMAT + 1,)) + encode_payload(("ping",))
        with pytest.raises(ValueError, match=r"format 2.*format 1|format 1.*format 2"):
            decode_frame_body(body)

    def test_stale_version_rejected(self):
        with pytest.raises(ValueError, match=r"format 0"):
            decode_frame_body(bytes((0,)) + encode_payload(None))

    def test_version_checked_before_payload(self):
        """A mismatched frame must be refused without attempting to parse
        its (possibly incompatible) payload bytes."""
        with pytest.raises(ValueError, match="wire format"):
            decode_frame_body(bytes((SERVE_WIRE_FORMAT + 1,)) + b"\xff\xff")


class TestMalformedFrames:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            decode_frame_body(b"")

    def test_trailing_bytes_rejected(self):
        body = encode_frame_body(("ping",)) + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            decode_frame_body(body)

    def test_truncated_frame_rejected(self):
        frame = encode_frame(("stats",))
        with pytest.raises(ValueError, match="truncated"):
            decode_frame(frame[:-1])

    def test_read_frame_raises_on_eof_mid_body(self):
        frame = encode_frame(("stats",))
        stream = io.BytesIO(frame[:-1])
        with pytest.raises(ValueError, match="mid-frame"):
            read_frame(stream.read)

    def test_read_frame_raises_on_eof_mid_length_prefix(self):
        # A length varint with its continuation bit set, then EOF.
        stream = io.BytesIO(encode_varint(2**20)[:1])
        with pytest.raises(ValueError, match="mid-frame"):
            read_frame(stream.read)

    @pytest.mark.parametrize(
        "header",
        [b"\xff" * 11, encode_varint(1 << 60), encode_varint(MAX_FRAME_BYTES + 1)],
        ids=["runaway-prefix", "one-EiB-length", "one-past-the-limit"],
    )
    def test_read_frame_bounds_the_header_before_reading_a_body(self, header):
        stream = io.BytesIO(header + b"\x00" * 64)
        with pytest.raises(ValueError, match=str(MAX_FRAME_BYTES)):
            read_frame(stream.read)
        assert stream.tell() <= 5  # nothing past the prefix was consumed

    def test_read_frame_accepts_a_header_at_the_limit(self):
        stream = io.BytesIO(encode_varint(MAX_FRAME_BYTES))
        with pytest.raises(ValueError, match=f"0/{MAX_FRAME_BYTES} body"):
            read_frame(stream.read)

    def test_read_frame_eof_sentinel_on_empty_stream(self):
        assert read_frame(io.BytesIO(b"").read) is EOF

    def test_none_valued_frame_is_not_mistaken_for_eof(self):
        stream = io.BytesIO(encode_frame(None))
        assert read_frame(stream.read) is None
        assert read_frame(stream.read) is EOF


class TestRequestHelpers:
    def test_query_value_canonicalises_param_order(self):
        a = query_value("BFS", {"b": 1, "a": 2}, (0, 5), {"no_cache": True})
        b = query_value("BFS", {"a": 2, "b": 1}, (0, 5), {"no_cache": True})
        assert a == b
        assert a[2] == (("a", 2), ("b", 1))

    def test_query_value_roundtrips_through_a_frame(self):
        value = query_value("SSSP", {"source": "A"}, (0, None),
                            {"timeout_s": 1.5})
        assert decode_frame(encode_frame(value))[0] == value

    def test_items_to_dict_inverts_items(self):
        value = query_value("PR", {"x": 1}, None, {"hold_s": 0.5})
        assert items_to_dict(value[2]) == {"x": 1}
        assert items_to_dict(value[4]) == {"hold_s": 0.5}
        assert items_to_dict(()) == {}

    def test_items_to_dict_rejects_malformed_pairs(self):
        with pytest.raises(ValueError, match="malformed"):
            items_to_dict((("a", 1, 2),))

    def test_write_frame_sends_whole_encoding(self):
        sent = []

        class Sock:
            def sendall(self, buf):
                sent.append(bytes(buf))

        write_frame(Sock(), ("pong",))
        assert b"".join(sent) == encode_frame(("pong",))
