"""Reference (object-path) wire codec, kept as the oracle for the row codec.

The routed-batch encoder and the batch sizer in ``repro.runtime.encoding``
take the engine's ``(start, end, value)`` rows; these are the versions that
took ``IntervalMessage`` objects, spelled out against the public per-field
codec only (``encode_varint`` / ``encode_payload``) plus the interval header
rules, so they do not move when the production batch paths are tuned.
``tests/runtime/test_encoding.py`` holds production to them byte for byte;
``test_checkpoint_format.py`` resumes from a shard they wrote.
"""

from __future__ import annotations

import struct

from repro.core.interval import Interval
from repro.runtime.encoding import (
    ROUTED_BATCH_FORMAT,
    encode_payload,
    encode_varint,
    encoded_message_size,
)


def reference_encode_interval(interval: Interval) -> bytes:
    """Header byte (unit / unbounded flags) + start [+ end when neither]."""
    flags = (0x01 if interval.is_unit else 0) | (0x02 if interval.is_unbounded else 0)
    out = bytes([flags]) + encode_varint(interval.start)
    if not flags:
        out += encode_varint(interval.end)
    return out


def reference_encode_routed_batch(entries) -> bytes:
    """``encode_routed_batch`` over ``(seq, dst, IntervalMessage)`` 3-tuples
    and ``(seq, dst, IntervalMessage, count, charge)`` 5-tuples."""
    out = bytearray([ROUTED_BATCH_FORMAT])
    out += encode_varint(len(entries))
    for entry in entries:
        if len(entry) == 3:
            seq, dst, msg = entry
            count = 1
        else:
            seq, dst, msg, count, charge = entry
        out += encode_varint(seq)
        out += encode_payload(dst)
        out += reference_encode_interval(msg.interval)
        out += encode_payload(msg.value)
        out += encode_varint(count)
        if count > 1:
            out += struct.pack("<d", charge)
    return bytes(out)


def reference_encoded_batch_size(messages, *, varint: bool = True) -> int:
    """``encoded_batch_size`` as its contract states it: the sum of the
    per-message sizer over the boxed messages."""
    return sum(encoded_message_size(m, varint=varint) for m in messages)
