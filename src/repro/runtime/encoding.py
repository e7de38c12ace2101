"""Wire encoding for interval messages (paper Sec. VI, "Interval Messages").

GRAPHITE transmits billions of messages; the paper reports that switching to
variable byte-length numbers shrinks message sizes by 59–78%, and that
unit-length and open-ended intervals are sent as a single time-point plus a
flag, saving an 8-byte long each.

This module implements that scheme faithfully:

* unsigned **LEB128 varints** for all integers,
* a one-byte **header** whose flag bits mark unit-length intervals
  (``end == start + 1``) and open-ended intervals (``end == FOREVER``), in
  which cases only the start point is transmitted,
* a small tagged payload encoding for the value types algorithms use
  (ints, floats, bools, strings, ``None``, tuples/lists).

Both a real codec (``encode_message`` / ``decode_message``) and a fast
size-only estimator (``encoded_message_size``) are provided; the simulated
network charges bytes using the latter, and tests assert the two agree.
"""

from __future__ import annotations

import struct
from typing import Any, Optional

from repro.core.interval import FOREVER, Interval
from repro.core.messages import IntervalMessage

# Header flag bits.
_FLAG_UNIT = 0x01
_FLAG_UNBOUNDED = 0x02

# Payload type tags.
_TAG_NONE = 0
_TAG_INT = 1
_TAG_NEG_INT = 2
_TAG_FLOAT = 3
_TAG_TRUE = 4
_TAG_FALSE = 5
_TAG_STR = 6
_TAG_TUPLE = 7
_TAG_BIG_INT = 8  # ints at/above FOREVER (e.g. "infinite cost" sentinels)


def _encode_varint_into(n: int, out: bytearray) -> None:
    """Append the unsigned LEB128 form of ``n`` without allocating."""
    if n < 0:
        raise ValueError("varint encodes non-negative integers only")
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def encode_varint(n: int) -> bytes:
    """Unsigned LEB128."""
    out = bytearray()
    _encode_varint_into(n, out)
    return bytes(out)


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Return ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def varint_size(n: int) -> int:
    """Encoded size in bytes without allocating."""
    if n < 0:
        raise ValueError("varint encodes non-negative integers only")
    size = 1
    while n >= 0x80:
        n >>= 7
        size += 1
    return size


# -- interval ---------------------------------------------------------------


def _encode_span_into(start: int, end: int, out: bytearray) -> None:
    """Append the wire form of ``[start, end)`` without allocating."""
    flags = 0
    if end - start == 1:
        flags |= _FLAG_UNIT
    if end >= FOREVER:
        flags |= _FLAG_UNBOUNDED
    out.append(flags)
    _encode_varint_into(start, out)
    if not flags:
        _encode_varint_into(end, out)


def encode_interval(interval: Interval) -> bytes:
    """Header byte + varint start [+ varint end when needed]."""
    out = bytearray()
    _encode_span_into(interval.start, interval.end, out)
    return bytes(out)


def _decode_span(buf: bytes, offset: int) -> tuple[int, int, int]:
    """``(start, end, next_offset)`` of an encoded interval, refusing what
    ``Interval()`` refuses: bytes are outside input, rows are not boxed."""
    flags = buf[offset]
    offset += 1
    start, offset = decode_varint(buf, offset)
    if flags & _FLAG_UNBOUNDED:
        end = FOREVER
    elif flags & _FLAG_UNIT:
        end = start + 1
    else:
        end, offset = decode_varint(buf, offset)
    if start >= end:
        raise ValueError(f"empty interval [{start}, {end})")
    return start, end, offset


def decode_interval(buf: bytes, offset: int = 0) -> tuple[Interval, int]:
    """Inverse of :func:`encode_interval`; returns ``(interval, offset)``."""
    start, end, offset = _decode_span(buf, offset)
    return Interval(start, end), offset


def interval_size(interval: Interval, *, varint: bool = True) -> int:
    """Size of the encoded interval; ``varint=False`` models the naive
    fixed-width two-longs layout the paper starts from (2 × 8 bytes)."""
    if not varint:
        return 16
    size = 1 + varint_size(interval.start)
    if not (interval.is_unit or interval.is_unbounded):
        size += varint_size(interval.end)
    return size


# -- payload ----------------------------------------------------------------


def encode_payload(value: Any) -> bytes:
    """Encode a message payload with the tagged varint scheme."""
    out = bytearray()
    _encode_payload_into(value, out)
    return bytes(out)


def _encode_payload_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        if value >= FOREVER:
            # Cost sums like FOREVER + weight must round-trip exactly, so
            # the excess over the sentinel rides along as a (small) varint.
            out.append(_TAG_BIG_INT)
            _encode_varint_into(value - FOREVER, out)
        elif value >= 0:
            out.append(_TAG_INT)
            _encode_varint_into(value, out)
        else:
            out.append(_TAG_NEG_INT)
            _encode_varint_into(-value, out)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        _encode_varint_into(len(raw), out)
        out += raw
    elif isinstance(value, (tuple, list)):
        out.append(_TAG_TUPLE)
        _encode_varint_into(len(value), out)
        for item in value:
            _encode_payload_into(item, out)
    else:
        raise TypeError(f"unsupported message payload type: {type(value).__name__}")


def decode_payload(buf: bytes, offset: int = 0) -> tuple[Any, int]:
    """Inverse of :func:`encode_payload`; returns ``(value, offset)``."""
    tag = buf[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_BIG_INT:
        excess, offset = decode_varint(buf, offset)
        return FOREVER + excess, offset
    if tag == _TAG_INT:
        return decode_varint(buf, offset)
    if tag == _TAG_NEG_INT:
        value, offset = decode_varint(buf, offset)
        return -value, offset
    if tag == _TAG_FLOAT:
        return struct.unpack_from("<d", buf, offset)[0], offset + 8
    if tag == _TAG_STR:
        length, offset = decode_varint(buf, offset)
        return buf[offset : offset + length].decode("utf-8"), offset + length
    if tag == _TAG_TUPLE:
        length, offset = decode_varint(buf, offset)
        items = []
        for _ in range(length):
            item, offset = decode_payload(buf, offset)
            items.append(item)
        return tuple(items), offset
    raise ValueError(f"unknown payload tag {tag}")


#: Deepest container nesting :func:`payload_size` accepts: the codec recurses
#: once per level, so the sizing sink refuses first, with a typed error.
MAX_PAYLOAD_DEPTH = 200


def payload_size(value: Any, *, varint: bool = True) -> int:
    """Size of the encoded payload; fixed-width mode charges 8 bytes per
    scalar — and per length prefix — as a Java long/double layout would.
    Containers are sized level by level (a sum does not care in which order
    it visits items), so nesting costs no Python stack."""
    total = 0
    level = [value]
    for _ in range(MAX_PAYLOAD_DEPTH + 1):
        deeper: list[Any] = []
        for item in level:
            if item is None or isinstance(item, bool):
                total += 1
            elif isinstance(item, int):
                if not varint:
                    total += 9
                elif item >= FOREVER:
                    total += 1 + varint_size(item - FOREVER)
                else:
                    total += 1 + varint_size(abs(item))
            elif isinstance(item, float):
                total += 9
            elif isinstance(item, str):
                raw_len = len(item.encode("utf-8"))
                total += 1 + (varint_size(raw_len) if varint else 8) + raw_len
            elif isinstance(item, (tuple, list)):
                total += 1 + (varint_size(len(item)) if varint else 8)
                deeper += item
            else:
                kind = type(item).__name__
                raise TypeError(f"unsupported message payload type: {kind}")
        if not deeper:
            return total
        level = deeper
    raise ValueError(f"message payload nested deeper than {MAX_PAYLOAD_DEPTH} levels")


# -- whole messages -----------------------------------------------------------


def encode_message(msg: IntervalMessage) -> bytes:
    """Full wire form of a message: interval header + tagged payload."""
    return encode_interval(msg.interval) + encode_payload(msg.value)


def decode_message(buf: bytes) -> IntervalMessage:
    """Inverse of :func:`encode_message`; rejects trailing bytes."""
    interval, offset = decode_interval(buf)
    value, offset = decode_payload(buf, offset)
    if offset != len(buf):
        raise ValueError("trailing bytes after message")
    return IntervalMessage(interval, value)


def encoded_message_size(msg: IntervalMessage, *, varint: bool = True) -> int:
    """Bytes this message occupies on the (simulated) wire."""
    return interval_size(msg.interval, varint=varint) + payload_size(
        msg.value, varint=varint
    )


def encoded_batch_size(messages, *, varint: bool = True) -> int:
    """Aggregate wire size of a batch of ``(start, end, value)`` rows, sized
    in one pass.

    Exactly the sum of :func:`encoded_message_size` over the same messages
    boxed.  The worker runtime sizes each per-destination batch with one
    call, and the common shapes — time-points below 128, a float or small
    non-negative int payload, a flat tuple of those — are sized inline,
    without a Python call per message; anything else falls back to the
    per-field sizers.
    """
    total = 0
    if not varint:
        for _, _, value in messages:
            total += 16 + payload_size(value, varint=False)
        return total
    for start, end, value in messages:
        total += 2 if start < 0x80 else 1 + varint_size(start)
        if end - start != 1 and end < FOREVER:  # neither unit nor open-ended
            total += 1 if end < 0x80 else varint_size(end)
        kind = type(value)
        if kind is float:
            total += 9
        elif kind is int and 0 <= value < 0x80:
            total += 2
        elif kind is tuple and len(value) < 0x80:
            # A flat tuple of such scalars (FAST / TMST / LD payloads):
            # tag + length + items, abandoned at the first other item.
            size = 2
            for item in value:
                kind = type(item)
                if kind is int and 0 <= item < 0x80:
                    size += 2
                elif kind is float:
                    size += 9
                else:
                    size = payload_size(value)
                    break
            total += size
        else:
            total += payload_size(value)
    return total


# -- routed batches (checkpoint pending messages) -----------------------------
#
# A routed batch is a list of messages awaiting delivery.  Each entry
# carries the sending vertex's global sequence number so the receiver can
# restore the exact serial delivery order (stable sort by ``seq``), the
# destination vertex id (any payload-encodable value), and the message
# itself as a ``(start, end, value)`` row — the engine's one internal
# message shape.  A checkpoint shard's pending section is the format's only
# user; the live barrier ships the same entries pickled and reports their
# size in this format as ``exchange_bytes``.
#
# Wire format 2 prefixes the buffer with a format byte and gives every
# entry a trailing varint *raw message count*.  A count above 1 marks a
# sender-side combined entry: ``count`` raw messages to the same
# (destination, interval) were pre-folded before crossing the wire, and
# the entry additionally carries the exact modeled per-message scan charge
# (one IEEE-754 double) those raw messages would have cost the receiver —
# so the receiver can keep modeled compute and ``combiner_reductions``
# bit-identical to serial without ever seeing the raw messages.  Format 1
# (no format byte, no counts) is refused by name: checkpoints that embed
# it are version-bumped in lockstep.

ROUTED_BATCH_FORMAT = 2


def encode_routed_batch_into(entries, out: bytearray) -> None:
    """Append the wire form of a routed batch to ``out`` without allocating.

    Entries are either ``(seq, dst_vid, row)`` 3-tuples (a raw message,
    count 1) or ``(seq, dst_vid, row, count, charge)`` 5-tuples (a combined
    entry standing in for ``count`` raw messages whose modeled receiver scan
    charge is ``charge`` seconds); ``row`` is ``(start, end, value)``.
    """
    out.append(ROUTED_BATCH_FORMAT)
    _encode_varint_into(len(entries), out)
    varint_into, payload_into, span_into = (
        _encode_varint_into, _encode_payload_into, _encode_span_into,
    )
    for entry in entries:
        if len(entry) == 3:
            seq, dst, (start, end, value) = entry
            count = 1
        else:
            seq, dst, (start, end, value), count, charge = entry
        varint_into(seq, out)
        payload_into(dst, out)
        span_into(start, end, out)
        payload_into(value, out)
        varint_into(count, out)
        if count > 1:
            out += struct.pack("<d", charge)


def encode_routed_batch(entries) -> bytes:
    """Encode routed entries (3- or 5-tuples) into one wire-format-2 buffer."""
    out = bytearray()
    encode_routed_batch_into(entries, out)
    return bytes(out)


def _decode_routed_entries(buf, offset: int = 0):
    """Decode a routed batch starting at ``offset``; returns
    ``(entries, next_offset)``.

    ``buf`` may be any byte sequence (``bytes`` or a reusable
    ``bytearray`` receive buffer larger than the frame) — the caller
    checks the final offset against the frame length if it cares about
    trailing bytes.  Combined entries come back as 5-tuples, raw entries
    as 3-tuples, each around a ``(start, end, value)`` row; a row
    ``Interval()`` would refuse (``end <= start``) is a ``ValueError``.
    """
    fmt = buf[offset]
    offset += 1
    if fmt != ROUTED_BATCH_FORMAT:
        raise ValueError(
            f"routed batch wire format {fmt} unsupported: this build speaks "
            f"format {ROUTED_BATCH_FORMAT} (format 1 batches carried no "
            f"format byte and no combined-entry counts)"
        )
    count, offset = decode_varint(buf, offset)
    entries = []
    for _ in range(count):
        seq, offset = decode_varint(buf, offset)
        dst, offset = decode_payload(buf, offset)
        start, end, offset = _decode_span(buf, offset)
        value, offset = decode_payload(buf, offset)
        raw, offset = decode_varint(buf, offset)
        msg = (start, end, value)
        if raw > 1:
            charge = struct.unpack_from("<d", buf, offset)[0]
            offset += 8
            entries.append((seq, dst, msg, raw, charge))
        else:
            entries.append((seq, dst, msg))
    return entries, offset


def decode_routed_batch(buf: bytes) -> list[tuple]:
    """Inverse of :func:`encode_routed_batch`; rejects trailing bytes."""
    entries, offset = _decode_routed_entries(buf, 0)
    if offset != len(buf):
        raise ValueError("trailing bytes after batch")
    return entries


def routed_entries_size(seq: int, dst: Any, messages, body: Optional[int] = None) -> int:
    """Wire bytes the *raw* (count-1) routed entries of one sender's batch
    to one destination occupy in format 2.

    The executor accumulates this per cross-process batch to report what
    the exchange would have shipped without sender-side combining
    (``exchange_raw_bytes``), and counts ``exchange_bytes`` from it.
    ``body`` is ``encoded_batch_size(messages)`` when the caller has
    already sized the batch.
    """
    if body is None:
        body = encoded_batch_size(messages)
    # Per entry: the seq varint, the destination, and the count varint
    # (always 1 for a raw entry) around the message itself.
    return len(messages) * (varint_size(seq) + payload_size(dst) + 1) + body
