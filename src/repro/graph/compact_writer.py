"""The compact image's writer side, imported on first write.

Reading an ``ITGR`` image — binding its sections, slicing a piece index,
handing out views — is `repro.graph.compact`.  Everything that *makes*
bytes or a second object from a graph lives here, so a job that only maps
an image and runs on it never compiles it: the encoder
(:func:`_encode_compact`, behind ``CompactGraph.from_temporal``), the v2
piece-row derivation (:func:`_derive_piece_rows`, run by a v2 bind and the
oracle of the v3 encoder's columns), the move into shared memory
(:func:`share`, behind ``CompactGraph.ensure_shared``, with its pickle
reconstructor) and the heap rebuild (:func:`to_temporal`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Any

from repro.core.interval import Interval
from repro.errors import GraphFormatError
from repro.runtime.encoding import decode_payload, encode_payload

from .compact import (
    _DIGEST_BYTES,
    _HEADER_FIXED,
    _INT_SECTIONS,
    _SECTIONS,
    COMPACT_VERSION,
    MAGIC,
    CompactGraph,
    _align8,
    _digest,
)
from .model import TemporalEdge, TemporalGraph, TemporalVertex
from .properties import _EXACT_TYPES, intern_values


def _encode_id(value: Any, owner: str) -> bytes:
    try:
        return encode_payload(value)
    except TypeError as exc:
        raise GraphFormatError(
            f"{owner} id {value!r} is not storable in the compact format "
            f"(ids must be None/bool/int/float/str or tuples thereof)"
        ) from exc


def _encode_value(value: Any, owner: str, label: str) -> bytes:
    try:
        return encode_payload(value)
    except TypeError as exc:
        raise GraphFormatError(
            f"{owner} property {label!r} value {value!r} is not storable in "
            f"the compact format (values must be None/bool/int/float/str or "
            f"tuples thereof)"
        ) from exc


# -- encoder -------------------------------------------------------------------


def _encode_compact(graph: TemporalGraph) -> bytes:
    """Flatten a validated heap graph into one compact-format buffer.

    Enumeration order is load-bearing: vertices, edges and per-vertex
    out-edge lists are written in the source graph's iteration order, so
    ``engine._seq``, ``graph_fingerprint`` and checkpoint portability are
    preserved exactly.
    """
    vertices = list(graph.vertices())
    edges = list(graph.edges())
    nv, ne = len(vertices), len(edges)
    vidx = {v.vid: i for i, v in enumerate(vertices)}
    eidx = {e.eid: i for i, e in enumerate(edges)}

    labels = sorted(
        {label for v in vertices for label in v.properties}
        | {label for e in edges for label in e.properties}
    )
    lref = {label: i for i, label in enumerate(labels)}

    cols: dict[str, array] = {name: array("q") for name in _INT_SECTIONS}
    id_blob = bytearray()
    val_blob = bytearray()
    label_blob = bytearray()

    for label in labels:
        cols["label_off"].append(len(label_blob))
        label_blob += label.encode("utf-8")
    cols["label_off"].append(len(label_blob))

    # Every (label, value) a property entry can hold gets a small token, on
    # ``intern_values``' terms: values are one token when they are equal
    # *and* print alike (``1`` / ``True`` / ``1.0`` are three).  A value is
    # encoded once per token, and a piece's values dict is the tuple of the
    # tokens that hold over it — so the values table below is built from
    # tuples of ints, without a dict or a sweep per edge.
    tokens: dict[tuple, int] = {}
    token_ref: list[int] = []  # token → label ref
    token_bytes: list[bytes] = []  # token → encoded value
    token_at: list[int] = []  # token → offset of its first copy in val_blob

    def _append_entries(owner_name, props, label_col, start_col, end_col, val_col):
        """Append ``props``' entries to the four columns; the token of each
        (-1 where the value is ``None``: ``values_at`` reports no such label)."""
        entry_tokens: list[int] = []
        for label in props:  # PropertySet iteration order == insertion order
            ref = lref[label]
            for iv, value in props.timeline(label):
                kind = type(value)
                key = (ref, kind if kind in _EXACT_TYPES else repr(value), value)
                try:
                    token = tokens.get(key)
                except TypeError:  # unhashable (a list): storable, never shared
                    token, key = None, None
                if token is None:
                    token = len(token_ref)
                    token_ref.append(ref)
                    token_bytes.append(_encode_value(value, owner_name, label))
                    token_at.append(len(val_blob))
                    if key is not None:
                        tokens[key] = token
                label_col.append(ref)
                start_col.append(iv.start)
                end_col.append(iv.end)
                val_col.append(len(val_blob))
                val_blob.extend(token_bytes[token])
                entry_tokens.append(-1 if value is None else token)
        return entry_tokens

    cols["vp_off"].append(0)
    for v in vertices:
        cols["v_start"].append(v.lifespan.start)
        cols["v_end"].append(v.lifespan.end)
        cols["vid_off"].append(len(id_blob))
        id_blob += _encode_id(v.vid, f"vertex")
        _append_entries(
            f"vertex {v.vid!r}", v.properties,
            cols["vp_label"], cols["vp_start"], cols["vp_end"], cols["vp_val"],
        )
        cols["vp_off"].append(len(cols["vp_label"]))
    cols["vid_off"].append(len(id_blob))

    # The values table: each distinct values dict once — as the tuple of its
    # tokens, in label-insertion order — rows numbered in order of first use.
    rows: dict[tuple, int] = {}

    ep_label, ep_start, ep_end = cols["ep_label"], cols["ep_start"], cols["ep_end"]
    cut_start, piece_row = cols["cut_start"], cols["piece_row"]
    cols["ep_off"].append(0)
    cols["cut_off"].append(0)
    for e in edges:
        cols["e_src"].append(vidx[e.src])
        cols["e_dst"].append(vidx[e.dst])
        cols["e_start"].append(e.lifespan.start)
        cols["e_end"].append(e.lifespan.end)
        cols["eid_off"].append(len(id_blob))
        id_blob += _encode_id(e.eid, "edge")
        lo = len(ep_label)
        entry_tokens = _append_entries(
            f"edge {e.eid!r}", e.properties, ep_label, ep_start, ep_end, cols["ep_val"],
        )
        cols["ep_off"].append(len(ep_label))
        # Scatter index: the lifespan cut at every property change point,
        # and per piece the row of the tokens that hold over it (what
        # ``properties.values_at`` answers anywhere inside the piece).
        span = e.lifespan
        starts, ends = ep_start[lo:], ep_end[lo:]
        cuts = sorted({span.start, span.end, *starts, *ends})
        at = {t: k for k, t in enumerate(cuts)}
        holding: dict[int, list[int]] = {}  # label ref → token per piece
        for ref, s, t, token in zip(ep_label[lo:], starts, ends, entry_tokens):
            column = holding.get(ref)
            if column is None:
                column = holding[ref] = [-1] * (len(cuts) - 1)
            column[at[s]:at[t]] = [token] * (at[t] - at[s])
        cut_start.extend(cuts[:-1])
        for held in zip(*holding.values()) if holding else [()]:
            if -1 in held:
                held = tuple([token for token in held if token >= 0])
            piece_row.append(rows.setdefault(held, len(rows)))
        cols["cut_off"].append(len(cut_start))
    cols["eid_off"].append(len(id_blob))
    for held in rows:
        cols["pv_off"].append(len(cols["pv_label"]))
        cols["pv_label"].extend([token_ref[token] for token in held])
        cols["pv_val"].extend([token_at[token] for token in held])
    cols["pv_off"].append(len(cols["pv_label"]))
    # Value-offset sentinels close the last entries.
    cols["vp_val"].append(len(val_blob))
    cols["ep_val"].append(len(val_blob))

    for v in vertices:
        cols["out_off"].append(len(cols["out_idx"]))
        for e in graph.out_edges(v.vid):
            cols["out_idx"].append(eidx[e.eid])
    cols["out_off"].append(len(cols["out_idx"]))
    for v in vertices:
        cols["in_off"].append(len(cols["in_idx"]))
        for e in graph.in_edges(v.vid):
            cols["in_idx"].append(eidx[e.eid])
    cols["in_off"].append(len(cols["in_idx"]))

    # Sanity: CSR totals must cover every edge exactly once.
    assert len(cols["out_idx"]) == ne and len(cols["in_idx"]) == ne

    blobs = {"id_blob": bytes(id_blob), "val_blob": bytes(val_blob),
             "label_blob": bytes(label_blob)}

    table_at = _HEADER_FIXED + _DIGEST_BYTES
    payload_at = _align8(table_at + len(_SECTIONS) * 16)
    offsets: list[tuple[int, int]] = []
    cursor = payload_at
    section_bytes: list[bytes] = []
    for name in _SECTIONS:
        data = cols[name].tobytes() if name in cols else blobs[name]
        cursor = _align8(cursor)
        offsets.append((cursor, len(data)))
        section_bytes.append(data)
        cursor += len(data)

    out = bytearray(cursor)
    out[0:4] = MAGIC
    out[4] = COMPACT_VERSION  # a one-byte varint
    out[8:16] = len(_SECTIONS).to_bytes(8, "little", signed=True)
    at = table_at
    for off, length in offsets:
        out[at:at + 8] = off.to_bytes(8, "little", signed=True)
        out[at + 8:at + 16] = length.to_bytes(8, "little", signed=True)
        at += 16
    for (off, length), data in zip(offsets, section_bytes):
        out[off:off + length] = data
    out[_HEADER_FIXED:table_at] = _digest(out)
    return bytes(out)


def _derive_piece_rows(graph: CompactGraph) -> tuple[array, list[dict]]:
    """``piece_row`` and the values table of ``graph``, from its cut and
    property-entry columns alone.

    What a v2 image does not carry: its bind runs this once.  It is also
    the oracle the v3 encoder's columns are tested against — each piece's
    dict assembled in one pass over the edge's entries, in label-insertion
    order (``properties.values_at`` at the piece's start, without building
    a ``PropertySet``), interned into the graph's pool, rows numbered in
    order of first use.
    """
    pool = graph._values
    blob, labels = graph._val_blob, graph._labels
    ep_off, ep_label, ep_val = graph._ep_off, graph._ep_label, graph._ep_val
    ep_start, ep_end = graph._ep_start, graph._ep_end
    piece_row = array("q")
    rows: list[dict] = []
    row_ids: dict[int, int] = {}
    for i in range(graph._ne):
        lo, hi = graph._cut_off[i], graph._cut_off[i + 1]
        starts = graph._cut_start[lo:hi].tolist()
        bounds = starts[1:] + [graph._e_end[i]]
        values: list[dict] = [{} for _ in starts]
        for j in range(ep_off[i], ep_off[i + 1]):
            value, _ = decode_payload(blob, ep_val[j])
            if value is None:
                continue  # values_at() skips absent/None values
            label = labels[ep_label[j]]
            s, e = ep_start[j], ep_end[j]
            # Pieces never straddle a property boundary, so the
            # entry covers a contiguous run of whole pieces.
            k = bisect_right(starts, s) - 1
            if k < 0:
                k = 0
            while k < len(starts) and starts[k] < e:
                if bounds[k] > s:
                    values[k][label] = value
                k += 1
        for v in values:
            shared = intern_values(pool, tuple(v), tuple(v.values()))
            row = row_ids.get(id(shared))
            if row is None:
                row = row_ids[id(shared)] = len(rows)
                rows.append(shared)
            piece_row.append(row)
    return piece_row, rows


# -- sharing and conversion ------------------------------------------------------


def share(graph: CompactGraph) -> CompactGraph:
    """Move ``graph``'s buffer into POSIX shared memory (idempotent):
    ``CompactGraph.ensure_shared``."""
    if graph._shm is not None or graph._mmap is not None:
        return graph
    from multiprocessing import shared_memory

    data = graph.to_bytes()
    shm = shared_memory.SharedMemory(create=True, size=len(data))
    shm.buf[:len(data)] = data
    graph._release_views()
    graph._shm = shm
    graph._shm_owner = True
    graph._bind(shm.buf[:len(data)])
    return graph


def _attach_shared(name: str, nbytes: int) -> CompactGraph:
    """Pickle reconstructor: attach to an existing shared-memory buffer."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    graph = CompactGraph(shm.buf[:nbytes])
    graph._shm = shm
    graph._shm_owner = False
    return graph


def to_temporal(graph: CompactGraph) -> TemporalGraph:
    """The equivalent heap graph (exact round-trip):
    ``CompactGraph.to_temporal``."""
    heap = TemporalGraph()
    for i in range(graph._nv):
        v = TemporalVertex(graph._vids[i], Interval(graph._v_start[i], graph._v_end[i]))
        v.properties = graph._props("vp", i, None)
        heap._add_vertex(v)
    for i in range(graph._ne):
        e = TemporalEdge(
            graph._eids[i],
            graph._vids[graph._e_src[i]], graph._vids[graph._e_dst[i]],
            Interval(graph._e_start[i], graph._e_end[i]),
        )
        e.properties = graph._props("ep", i, None)
        heap._add_edge(e)
    return heap
