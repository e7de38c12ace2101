"""Compact binary storage for temporal graphs (paper Sec. VIII).

The paper's future work includes exploring *storage strategies* for
temporal property graphs.  This module provides a varint-based binary
format that reuses the wire codec of ``repro.runtime.encoding``: intervals
are stored with the same unit/∞ flag tricks that shrink messages by
59–78%, vertex ids are interned into a string table, and property labels
are dictionary-encoded.

Layout::

    magic  b"ITGR" | version varint
    vertex-id table:   count, then len+utf8 per id
    label table:       count, then len+utf8 per label
    vertices:          count, then per vertex: id-ref, interval,
                       prop-count × (label-ref, interval, payload)
    edges:             count, then per edge: len+utf8 eid, src-ref,
                       dst-ref, interval, prop-count × (...)

The format typically lands at a fraction of the text format's size; the
exact ratio is asserted in the test-suite and reported by the storage
ablation bench.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, BinaryIO, Union

from repro.core.interval import Interval
from repro.runtime.encoding import (
    decode_interval,
    decode_payload,
    decode_varint,
    encode_interval,
    encode_payload,
    encode_varint,
)

from .model import TemporalEdge, TemporalGraph, TemporalVertex

MAGIC = b"ITGR"
VERSION = 1


def _atomic_write_bytes(payload: bytes, target: Path) -> None:
    """Stage, fsync, then atomically rename into place.

    The same staging discipline checkpoints use: a crash mid-dump leaves
    either the old file or the new one, never a truncated hybrid — which
    matters doubly for the compact format, whose files get mmap'd.
    """
    staging = target.with_name(f"{target.name}.staging.{os.getpid()}")
    try:
        with open(staging, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(staging, target)
    finally:
        if staging.exists():
            staging.unlink()


def dump_graph_binary(graph: TemporalGraph, target: Union[str, Path, BinaryIO]) -> int:
    """Write the graph; returns the number of bytes written.

    Path targets are written via a staged fsync + atomic rename, so a
    crashed dump can never leave a truncated graph file behind.
    """
    payload = _encode_graph(graph)
    if isinstance(target, (str, Path)):
        _atomic_write_bytes(payload, Path(target))
    else:
        target.write(payload)
    return len(payload)


def load_graph_binary(source: Union[str, Path, BinaryIO]) -> TemporalGraph:
    """Read a graph previously written by :func:`dump_graph_binary`."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raw = source.read()
    return _decode_graph(raw)


# -- encoding -----------------------------------------------------------------


def _encode_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += encode_varint(len(raw))
    out += raw


def _encode_graph(graph: TemporalGraph) -> bytes:
    out = bytearray(MAGIC)
    out += encode_varint(VERSION)

    vertices = sorted(graph.vertices(), key=lambda v: str(v.vid))
    vid_index = {v.vid: i for i, v in enumerate(vertices)}
    labels = sorted({
        label
        for owner in (*vertices, *graph.edges())
        for label in owner.properties
    })
    label_index = {label: i for i, label in enumerate(labels)}

    out += encode_varint(len(vertices))
    for v in vertices:
        _encode_str(out, str(v.vid))
    out += encode_varint(len(labels))
    for label in labels:
        _encode_str(out, label)

    out += encode_varint(len(vertices))
    for v in vertices:
        out += encode_varint(vid_index[v.vid])
        out += encode_interval(v.lifespan)
        _encode_properties(out, v, label_index)

    edges = sorted(graph.edges(), key=lambda e: str(e.eid))
    out += encode_varint(len(edges))
    for e in edges:
        _encode_str(out, str(e.eid))
        out += encode_varint(vid_index[e.src])
        out += encode_varint(vid_index[e.dst])
        out += encode_interval(e.lifespan)
        _encode_properties(out, e, label_index)
    return bytes(out)


def _encode_properties(out: bytearray, owner, label_index: dict[str, int]) -> None:
    entries: list[tuple[int, Interval, Any]] = []
    for label in owner.properties:
        for iv, value in owner.properties.timeline(label):
            entries.append((label_index[label], iv, value))
    out += encode_varint(len(entries))
    for label_ref, iv, value in entries:
        out += encode_varint(label_ref)
        out += encode_interval(iv)
        out += encode_payload(value)


# -- decoding ----------------------------------------------------------------


def _decode_str(raw: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint(raw, offset)
    return raw[offset : offset + length].decode("utf-8"), offset + length


def _decode_graph(raw: bytes) -> TemporalGraph:
    if raw[:4] != MAGIC:
        raise ValueError("not an ITGR binary temporal graph")
    offset = 4
    version, offset = decode_varint(raw, offset)
    if version != VERSION:
        hint = (
            f" (a version-{version} compact graph; open it with api.load_graph)"
            if version in (2, 3) else ""
        )
        raise ValueError(f"unsupported ITGR version {version}{hint}")

    n_vids, offset = decode_varint(raw, offset)
    vids: list[str] = []
    for _ in range(n_vids):
        vid, offset = _decode_str(raw, offset)
        vids.append(vid)
    n_labels, offset = decode_varint(raw, offset)
    labels: list[str] = []
    for _ in range(n_labels):
        label, offset = _decode_str(raw, offset)
        labels.append(label)

    graph = TemporalGraph()
    n_vertices, offset = decode_varint(raw, offset)
    for _ in range(n_vertices):
        ref, offset = decode_varint(raw, offset)
        lifespan, offset = decode_interval(raw, offset)
        vertex = TemporalVertex(vids[ref], lifespan)
        offset = _decode_properties(raw, offset, vertex, labels)
        graph._add_vertex(vertex)

    n_edges, offset = decode_varint(raw, offset)
    for _ in range(n_edges):
        eid, offset = _decode_str(raw, offset)
        src_ref, offset = decode_varint(raw, offset)
        dst_ref, offset = decode_varint(raw, offset)
        lifespan, offset = decode_interval(raw, offset)
        edge = TemporalEdge(eid, vids[src_ref], vids[dst_ref], lifespan)
        offset = _decode_properties(raw, offset, edge, labels)
        graph._add_edge(edge)

    if offset != len(raw):
        raise ValueError("trailing bytes after graph payload")
    graph.validate()
    return graph


def _decode_properties(raw: bytes, offset: int, owner, labels: list[str]) -> int:
    count, offset = decode_varint(raw, offset)
    for _ in range(count):
        label_ref, offset = decode_varint(raw, offset)
        iv, offset = decode_interval(raw, offset)
        value, offset = decode_payload(raw, offset)
        owner.properties.add(labels[label_ref], iv, value)
    return offset
