"""Length-prefixed request/response frames for the serving socket.

One frame = a varint byte-length prefix followed by the frame body; the
body is a one-byte format version (:data:`SERVE_WIRE_FORMAT`) followed by
one value in the engine's tagged varint payload encoding
(`repro.runtime.encoding.encode_payload` — the same codec that carries
routed message batches; **no second serializer**).  Dicts travel as sorted
``(key, value)`` item tuples, intervals as ``(start, end)`` pairs with
``None`` for an unbounded end.

Request values::

    ("query", algorithm, params_items, interval_or_None, options_items)
    ("ping",)
    ("stats",)
    ("shutdown",)

Response values::

    ("ok", result_json, meta_items)   # results_io JSON document, verbatim
    ("pong",)
    ("stats", stats_json)
    ("bye",)
    ("err", code, message)            # re-raised typed on the client side

An unknown frame version is rejected eagerly, naming both versions, so a
stale client fails loudly instead of mis-parsing.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Tuple

from repro.runtime.encoding import (
    decode_payload,
    decode_varint,
    encode_payload,
    encode_varint,
)

__all__ = [
    "EOF",
    "MAX_FRAME_BYTES",
    "SERVE_WIRE_FORMAT",
    "decode_frame",
    "decode_frame_body",
    "encode_frame",
    "encode_frame_body",
    "items_to_dict",
    "query_value",
    "read_frame",
    "write_frame",
]

#: Current serve-frame format version.  Bumped on incompatible layout
#: changes; both sides reject a mismatched version by name.
SERVE_WIRE_FORMAT = 1

#: Largest frame body :func:`read_frame` accepts.  The length prefix is
#: the one number a peer can state without sending the bytes to back it,
#: so it is checked before any body byte is read.  The largest answers
#: in use are tens of kilobytes.
MAX_FRAME_BYTES = 64 << 20

#: A varint of at most this many bytes already spans ``MAX_FRAME_BYTES``.
_MAX_PREFIX_BYTES = 5

#: Clean end-of-stream marker returned by :func:`read_frame`.  A distinct
#: sentinel (not ``None``) because ``None`` is a perfectly valid frame
#: value in the payload codec.
EOF = object()


def encode_frame_body(value: Any) -> bytes:
    """Format byte + tagged-payload encoding of ``value``."""
    return bytes((SERVE_WIRE_FORMAT,)) + encode_payload(value)


def decode_frame_body(body: bytes) -> Any:
    """Inverse of :func:`encode_frame_body`; rejects version mismatches
    (naming both versions) and trailing bytes."""
    if not body:
        raise ValueError("empty serve frame body")
    version = body[0]
    if version != SERVE_WIRE_FORMAT:
        raise ValueError(
            f"serve frame carries wire format {version} but this build "
            f"speaks format {SERVE_WIRE_FORMAT}; refusing to decode a "
            "mismatched frame"
        )
    value, offset = decode_payload(body, 1)
    if offset != len(body):
        raise ValueError(
            f"serve frame has {len(body) - offset} trailing byte(s) after "
            "its payload"
        )
    return value


def encode_frame(value: Any) -> bytes:
    """One wire frame: varint body length, then the body."""
    body = encode_frame_body(value)
    return encode_varint(len(body)) + body


def decode_frame(buf: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one frame from ``buf``; returns ``(value, next_offset)``."""
    length, offset = decode_varint(buf, offset)
    end = offset + length
    if end > len(buf):
        raise ValueError(
            f"truncated serve frame: header promises {length} bytes, "
            f"{len(buf) - offset} available"
        )
    return decode_frame_body(bytes(buf[offset:end])), end


def read_frame(recv: Callable[[int], bytes]) -> Any:
    """Read one frame from a byte stream (``recv(n)`` → up to ``n`` bytes).

    Returns :data:`EOF` on a clean end-of-stream at a frame boundary;
    raises ``ValueError`` on EOF mid-frame (a torn write), on a length
    prefix longer than 5 bytes or promising more than
    :data:`MAX_FRAME_BYTES` (before reading any of the body), and on any
    decode failure.
    """
    # varint length prefix, one byte at a time (it is 1-3 bytes in practice)
    length = 0
    for index in range(_MAX_PREFIX_BYTES):
        chunk = recv(1)
        if not chunk:
            if index == 0:
                return EOF
            raise ValueError("connection closed mid-frame (in length prefix)")
        byte = chunk[0]
        length |= (byte & 0x7F) << (7 * index)
        if not byte & 0x80:
            break
    else:
        raise ValueError(
            f"serve frame length prefix exceeds {_MAX_PREFIX_BYTES} bytes "
            f"(a frame body is at most {MAX_FRAME_BYTES} bytes)"
        )
    if length > MAX_FRAME_BYTES:
        raise ValueError(
            f"serve frame header promises {length} bytes; the limit is "
            f"{MAX_FRAME_BYTES}"
        )
    body = bytearray()
    while len(body) < length:
        chunk = recv(length - len(body))
        if not chunk:
            raise ValueError(
                f"connection closed mid-frame ({len(body)}/{length} body "
                "bytes received)"
            )
        body.extend(chunk)
    return decode_frame_body(bytes(body))


def write_frame(sock, value: Any) -> None:
    """Encode ``value`` and send it whole on a socket."""
    sock.sendall(encode_frame(value))


# -- request construction helpers ---------------------------------------------


def _items(mapping: Optional[Mapping[str, Any]]) -> tuple:
    """A mapping as a canonical (sorted) item tuple — the dict spelling the
    payload codec understands, and the spelling cache keys canonicalise to."""
    if not mapping:
        return ()
    return tuple(sorted((str(k), v) for k, v in mapping.items()))


def items_to_dict(items: Any) -> dict:
    """Inverse of the item-tuple spelling (wire → dict)."""
    out = {}
    for pair in items or ():
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ValueError(f"malformed item pair {pair!r}")
        out[pair[0]] = pair[1]
    return out


def query_value(
    algorithm: str,
    params: Optional[Mapping[str, Any]] = None,
    interval: Optional[Tuple[int, Optional[int]]] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> tuple:
    """The request value for one query frame."""
    return ("query", algorithm, _items(params), interval, _items(options))
