"""Compact columnar storage for frozen temporal graphs.

:class:`CompactGraph` is the storage-layer counterpart of
:class:`~repro.graph.model.TemporalGraph`: the same validated temporal
property graph, held as flat ``int64`` arrays over a single contiguous
buffer instead of an object per vertex/edge/property entry —

* vertex lifespans and id offsets (``v_start``/``v_end``/``vid_off``),
* CSR out- and in-adjacency (``out_off``/``out_idx``, ``in_off``/``in_idx``),
* edge endpoints, lifespans and ids (``e_src``/``e_dst``/``e_start``/...),
* property change-points as per-entity entry runs
  (``vp_*``/``ep_*`` label/start/end/value-offset arrays), and
* precomputed per-edge **piece cut tables** (``cut_off``/``cut_start``),
  the property-constant sub-intervals both stores' resident
  :class:`~repro.graph.properties.PieceIndex` is cut at.

The layout follows the time-indexed array stores of Kairos
(arXiv:2401.02563) and Raphtory's frozen columnar graph
(arXiv:2306.16309); DESIGN.md §13 maps both onto this module.

Three properties make it more than a cache:

**Bit-identical semantics.**  Entity enumeration order, property label
order, lifespan clipping, ``pieces()`` cuts and ``values_at`` dicts all
reproduce the heap graph exactly, so engine runs, fingerprints and
checkpoints are interchangeable between the two stores (asserted across
all 12 algorithms by the equivalence tests).

**An mmap-able on-disk form.**  ``dump()`` writes the buffer as binary
graph format **v2** (same ``ITGR`` magic + version-varint framing as
:mod:`repro.graph.binary_io`); ``load()`` maps it read-only, so a served
graph's pages are shared between every process that maps the file.

**Zero-copy worker sharing.**  ``ensure_shared()`` migrates the buffer
into :mod:`multiprocessing.shared_memory`; pickling then ships only the
segment *name*, which is how ``ParallelExecutor`` avoids serialising the
graph per worker under the ``spawn`` start method (``fork`` already
shares the buffer copy-on-write).
"""

from __future__ import annotations

import mmap
import os
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.core.interval import FOREVER, Interval
from repro.errors import GraphFormatError
from repro.runtime.encoding import decode_payload, decode_varint, encode_payload
from .model import TemporalEdge, TemporalGraph, TemporalVertex, _PiecewiseEdge
from .properties import PieceIndex, PropertySet, intern_values

__all__ = [
    "COMPACT_VERSION",
    "GRAPH_STORE_KINDS",
    "CompactGraph",
    "CompactEdge",
    "CompactVertex",
    "resolve_graph_store",
]

MAGIC = b"ITGR"
#: Binary graph format version written by :meth:`CompactGraph.dump`
#: (version 1 is the varint object stream of ``graph/binary_io.py``).
COMPACT_VERSION = 2

#: Accepted values of ``REPRO_GRAPH_STORE`` / ``store=``.
GRAPH_STORE_KINDS = ("heap", "compact")

# Section order is the file format: 25 int64 arrays, then 3 byte blobs.
# The header carries an explicit (offset, length) table per section, so
# readers never have to re-derive the layout arithmetic.
_INT_SECTIONS = (
    "v_start", "v_end", "vid_off",
    "vp_off", "out_off", "out_idx", "in_off", "in_idx",
    "e_src", "e_dst", "e_start", "e_end", "eid_off",
    "ep_off", "cut_off", "cut_start",
    "vp_label", "vp_start", "vp_end", "vp_val",
    "ep_label", "ep_start", "ep_end", "ep_val",
    "label_off",
)
_BLOB_SECTIONS = ("id_blob", "val_blob", "label_blob")
_SECTIONS = _INT_SECTIONS + _BLOB_SECTIONS
_HEADER_FIXED = 16  # magic(4) + version varint(1) + pad(3) + n_sections(8)


def _align8(n: int) -> int:
    return (n + 7) & ~7


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

    def _append_entries(owner_name, props, label_col, start_col, end_col, val_col):
        count = 0
        for label in props:  # PropertySet iteration order == insertion order
            ref = lref[label]
            for iv, value in props.timeline(label):
                label_col.append(ref)
                start_col.append(iv.start)
                end_col.append(iv.end)
                val_col.append(len(val_blob))
                val_blob.extend(_encode_value(value, owner_name, label))
                count += 1
        return count

    vp_total = 0
    cols["vp_off"].append(0)
    for v in vertices:
        cols["v_start"].append(v.lifespan.start)
        cols["v_end"].append(v.lifespan.end)
        cols["vid_off"].append(len(id_blob))
        id_blob += _encode_id(v.vid, f"vertex")
        vp_total += _append_entries(
            f"vertex {v.vid!r}", v.properties,
            cols["vp_label"], cols["vp_start"], cols["vp_end"], cols["vp_val"],
        )
        cols["vp_off"].append(vp_total)
    cols["vid_off"].append(len(id_blob))

    ep_total = 0
    pieces_total = 0
    cols["ep_off"].append(0)
    cols["cut_off"].append(0)
    for e in edges:
        cols["e_src"].append(vidx[e.src])
        cols["e_dst"].append(vidx[e.dst])
        cols["e_start"].append(e.lifespan.start)
        cols["e_end"].append(e.lifespan.end)
        cols["eid_off"].append(len(id_blob))
        id_blob += _encode_id(e.eid, "edge")
        ep_total += _append_entries(
            f"edge {e.eid!r}", e.properties,
            cols["ep_label"], cols["ep_start"], cols["ep_end"], cols["ep_val"],
        )
        cols["ep_off"].append(ep_total)
        # Piece cut table: the full-lifespan property change points, the
        # exact cuts TemporalEdge.pieces(lifespan) derives per call.
        span = e.lifespan
        cols["cut_start"].append(span.start)
        pieces_total += 1
        for b in e.properties.boundaries():
            if span.start < b < span.end:
                cols["cut_start"].append(b)
                pieces_total += 1
        cols["cut_off"].append(pieces_total)
    cols["eid_off"].append(len(id_blob))
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

    table_at = _HEADER_FIXED
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
    return bytes(out)


# -- views ---------------------------------------------------------------------


class CompactVertex:
    """Read-only vertex view over the compact arrays.

    Exposes the :class:`~repro.graph.model.TemporalVertex` surface
    (``vid``/``lifespan``/``properties``); the property set is rebuilt
    lazily from the entry arrays and cached on the owning graph.
    """

    __slots__ = ("_graph", "_idx", "vid", "lifespan")

    def __init__(self, graph: "CompactGraph", idx: int, vid: Any, lifespan: Interval):
        self._graph = graph
        self._idx = idx
        self.vid = vid
        self.lifespan = lifespan

    @property
    def properties(self) -> PropertySet:
        return self._graph._vertex_props(self._idx)

    def __repr__(self) -> str:
        return f"Vertex({self.vid!r}, {self.lifespan})"


class CompactEdge(_PiecewiseEdge):
    """Read-only edge view over the compact arrays.

    ``pieces()`` is the heap edge's own body over the same
    :class:`~repro.graph.properties.PieceIndex` shape, built here from the
    precomputed cut table — same cuts, same ``values`` dicts in the same
    label order as :class:`~repro.graph.model.TemporalEdge`.
    """

    __slots__ = ("_graph", "_idx", "eid", "src", "dst", "lifespan")

    def __init__(self, graph, idx, eid, src, dst, lifespan):
        self._graph = graph
        self._idx = idx
        self.eid = eid
        self.src = src
        self.dst = dst
        self.lifespan = lifespan

    @property
    def properties(self) -> PropertySet:
        return self._graph._edge_props(self._idx)

    def piece_index(self) -> PieceIndex:
        return self._graph._piece_index(self._idx)

    def __repr__(self) -> str:
        return f"Edge({self.eid!r}: {self.src!r}->{self.dst!r}, {self.lifespan})"


# -- the graph -----------------------------------------------------------------


class CompactGraph:
    """A frozen temporal graph over one contiguous columnar buffer.

    Construct with :meth:`from_temporal` (from a validated heap graph),
    :meth:`load` (mmap of a v2 file) or :meth:`from_bytes`.  The query
    surface mirrors :class:`~repro.graph.model.TemporalGraph` verbatim;
    entity accessors hand out cached :class:`CompactVertex`/
    :class:`CompactEdge` views.
    """

    def __init__(self, buffer, *, _keepalive=None):
        self._keepalive = _keepalive  # open file/mmap/shm backing `buffer`
        self._shm = None
        self._shm_owner = False
        self._mmap = None
        self._file = None
        self._path: Optional[str] = None
        self._views: list = []
        self._bind(buffer)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_temporal(cls, graph: TemporalGraph) -> "CompactGraph":
        """Freeze a heap graph (validated first) into compact form."""
        graph.validate()
        return cls(_encode_compact(graph))

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompactGraph":
        return cls(data)

    @classmethod
    def load(cls, path: Union[str, Path], *, map: bool = True) -> "CompactGraph":
        """Open a binary v2 file, memory-mapped read-only by default.

        Mapped pages are shared with every other process that maps the
        same file — the serving tier's resident-graph story.
        """
        path = str(path)
        fh = open(path, "rb")
        if map:
            try:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # empty file
                fh.close()
                raise GraphFormatError(f"{path}: not a compact temporal graph ({exc})")
            try:
                graph = cls(mapped)
            except Exception:
                mapped.close()
                fh.close()
                raise
            graph._mmap = mapped
            graph._file = fh
            graph._path = path
        else:
            data = fh.read()
            fh.close()
            graph = cls(data)
            graph._path = path
        return graph

    def dump(self, target: Union[str, Path]) -> None:
        """Write the buffer as a binary v2 file (fsync + atomic rename)."""
        from .binary_io import _atomic_write_bytes
        _atomic_write_bytes(self.to_bytes(), Path(target))

    # -- binding -----------------------------------------------------------

    def _bind(self, buffer) -> None:
        mv = memoryview(buffer)
        self._views.append(mv)
        if mv.nbytes < _HEADER_FIXED or bytes(mv[0:4]) != MAGIC:
            raise GraphFormatError("not an ITGR compact temporal graph")
        version, _ = decode_varint(mv, 4)
        if version != COMPACT_VERSION:
            raise GraphFormatError(
                f"unsupported compact graph version {version} "
                f"(this build reads version {COMPACT_VERSION}; "
                f"version 1 files are read by api.load_graph)"
            )
        n_sections = int.from_bytes(bytes(mv[8:16]), "little", signed=True)
        if n_sections != len(_SECTIONS):
            raise GraphFormatError(
                f"compact graph header lists {n_sections} sections, "
                f"expected {len(_SECTIONS)}"
            )
        table = mv[_HEADER_FIXED:_HEADER_FIXED + n_sections * 16].cast("q")
        self._views.append(table)
        size = mv.nbytes
        sections: dict[str, Any] = {}
        for i, name in enumerate(_SECTIONS):
            off, length = table[2 * i], table[2 * i + 1]
            if off < 0 or length < 0 or off + length > size:
                raise GraphFormatError(
                    f"compact graph section {name!r} ([{off}, {off + length})) "
                    f"exceeds the {size}-byte buffer (truncated file?)"
                )
            sections[name] = mv[off:off + length]
        for name in _INT_SECTIONS:
            view = sections[name].cast("q")
            self._views.append(view)
            setattr(self, "_" + name, view)
        # Blobs are decoded with `bytes`-only helpers (str payloads call
        # `.decode`), so take one small copy each instead of holding more
        # buffer exports.
        self._id_blob = bytes(sections["id_blob"])
        self._val_blob = bytes(sections["val_blob"])
        self._label_blob = bytes(sections["label_blob"])
        self.nbytes = size

        nv = len(self._v_start)
        ne = len(self._e_src)
        if len(self._vid_off) != nv + 1 or len(self._out_off) != nv + 1:
            raise GraphFormatError("compact graph vertex tables disagree on |V|")
        if len(self._eid_off) != ne + 1 or len(self._cut_off) != ne + 1:
            raise GraphFormatError("compact graph edge tables disagree on |E|")
        self._nv = nv
        self._ne = ne

        self._labels = [
            self._label_blob[self._label_off[i]:self._label_off[i + 1]].decode("utf-8")
            for i in range(len(self._label_off) - 1)
        ]
        vid_off = self._vid_off
        self._vids = [
            decode_payload(self._id_blob, vid_off[i])[0] for i in range(nv)
        ]
        eid_off = self._eid_off
        self._eids = [
            decode_payload(self._id_blob, eid_off[i])[0] for i in range(ne)
        ]
        self._vid_index = {vid: i for i, vid in enumerate(self._vids)}
        self._eid_index = {eid: i for i, eid in enumerate(self._eids)}
        if len(self._vid_index) != nv:
            raise GraphFormatError("compact graph has duplicate vertex ids")

        self._vertex_cache: dict[int, CompactVertex] = {}
        self._edge_cache: dict[int, CompactEdge] = {}
        self._vprops: dict[int, PropertySet] = {}
        self._eprops: dict[int, PropertySet] = {}
        #: Graph-lifetime derived tables, as on the heap store (DESIGN.md
        #: §7): edge index → piece index, the pool interning their values
        #: dicts, the raw ``time_horizon()`` memo and the placement
        #: statistics per (workers, partitioner fingerprint).
        self._piece_cache: dict[int, PieceIndex] = {}
        self._values: dict = {}
        self._horizon: Optional[int] = None
        self._placement: dict = {}

    # -- internal view/property materialisation ----------------------------

    def _vertex_view(self, i: int) -> CompactVertex:
        view = self._vertex_cache.get(i)
        if view is None:
            view = CompactVertex(
                self, i, self._vids[i],
                Interval(self._v_start[i], self._v_end[i]),
            )
            self._vertex_cache[i] = view
        return view

    def _edge_view(self, i: int) -> CompactEdge:
        view = self._edge_cache.get(i)
        if view is None:
            view = CompactEdge(
                self, i, self._eids[i],
                self._vids[self._e_src[i]], self._vids[self._e_dst[i]],
                Interval(self._e_start[i], self._e_end[i]),
            )
            self._edge_cache[i] = view
        return view

    def _props(self, cache, i, off_col, label_col, start_col, end_col, val_col):
        props = cache.get(i)
        if props is None:
            props = PropertySet()
            lo, hi = off_col[i], off_col[i + 1]
            labels = self._labels
            blob = self._val_blob
            for j in range(lo, hi):
                value, _ = decode_payload(blob, val_col[j])
                props.add(
                    labels[label_col[j]],
                    Interval(start_col[j], end_col[j]),
                    value,
                )
            cache[i] = props
        return props

    def _vertex_props(self, i: int) -> PropertySet:
        return self._props(
            self._vprops, i, self._vp_off,
            self._vp_label, self._vp_start, self._vp_end, self._vp_val,
        )

    def _edge_props(self, i: int) -> PropertySet:
        return self._props(
            self._eprops, i, self._ep_off,
            self._ep_label, self._ep_start, self._ep_end, self._ep_val,
        )

    def _piece_index(self, i: int) -> PieceIndex:
        """The resident piece index of edge ``i`` (built on first use).

        Cut points are copied out of the precomputed ``cut_start`` run;
        each piece's values dict is assembled in one pass over the edge's
        property entries, in label-insertion order — exactly
        ``properties.values_at(lo)`` for the piece's start, without
        building a PropertySet.
        """
        index = self._piece_cache.get(i)
        if index is None:
            lo, hi = self._cut_off[i], self._cut_off[i + 1]
            starts = self._cut_start[lo:hi].tolist()
            bounds = starts[1:] + [self._e_end[i]]
            values: list[dict] = [{} for _ in starts]
            blob = self._val_blob
            labels = self._labels
            for j in range(self._ep_off[i], self._ep_off[i + 1]):
                value, _ = decode_payload(blob, self._ep_val[j])
                if value is None:
                    continue  # values_at() skips absent/None values
                label = labels[self._ep_label[j]]
                s, e = self._ep_start[j], self._ep_end[j]
                # Pieces never straddle a property boundary, so the
                # entry covers a contiguous run of whole pieces.
                k = bisect_right(starts, s) - 1
                if k < 0:
                    k = 0
                while k < len(starts) and starts[k] < e:
                    if bounds[k] > s:
                        values[k][label] = value
                    k += 1
            pool = self._values
            empty = intern_values(pool, (), ())
            index = self._piece_cache[i] = PieceIndex(
                (starts[0], *bounds),
                (
                    empty,
                    *[intern_values(pool, tuple(v), tuple(v.values())) for v in values],
                    empty,
                ),
            )
        return index

    # -- TemporalGraph query surface ---------------------------------------

    def vertex(self, vid: Any) -> CompactVertex:
        return self._vertex_view(self._vid_index[vid])

    def edge(self, eid: Any) -> CompactEdge:
        return self._edge_view(self._eid_index[eid])

    def has_vertex(self, vid: Any) -> bool:
        return vid in self._vid_index

    def vertices(self) -> Iterator[CompactVertex]:
        return (self._vertex_view(i) for i in range(self._nv))

    def edges(self) -> Iterator[CompactEdge]:
        return (self._edge_view(i) for i in range(self._ne))

    def vertex_ids(self) -> list:
        return list(self._vids)

    def out_edges(self, vid: Any) -> list:
        i = self._vid_index.get(vid)
        if i is None:
            return []
        off = self._out_off
        return [self._edge_view(self._out_idx[j]) for j in range(off[i], off[i + 1])]

    def in_edges(self, vid: Any) -> list:
        i = self._vid_index.get(vid)
        if i is None:
            return []
        off = self._in_off
        return [self._edge_view(self._in_idx[j]) for j in range(off[i], off[i + 1])]

    @property
    def num_vertices(self) -> int:
        return self._nv

    @property
    def num_edges(self) -> int:
        return self._ne

    def lifespan(self) -> Interval:
        """Hull of all vertex lifespans (the graph's lifespan)."""
        if not self._nv:
            raise ValueError("empty graph has no lifespan")
        return Interval(min(self._v_start), max(self._v_end))

    def time_horizon(self, default: int = 1) -> int:
        """Largest *bounded* end time across entities; snapshot count.

        Array mirror of ``TemporalGraph.time_horizon`` — vertex and edge
        lifespans plus *edge* property spans, exactly as the heap store
        counts them.
        """
        horizon = self._horizon
        if horizon is None:
            horizon = 0
            for end in self._v_end:
                if end < FOREVER and end > horizon:
                    horizon = end
            for end in self._e_end:
                if end < FOREVER and end > horizon:
                    horizon = end
            ep_off, ep_end = self._ep_off, self._ep_end
            ep_label = self._ep_label
            for i in range(self._ne):
                lo, hi = ep_off[i], ep_off[i + 1]
                span_end: dict[int, int] = {}
                for j in range(lo, hi):
                    ref = ep_label[j]
                    end = ep_end[j]
                    if end > span_end.get(ref, -1):
                        span_end[ref] = end
                for end in span_end.values():
                    if end < FOREVER and end > horizon:
                        horizon = end
            self._horizon = horizon
        return horizon if horizon > 0 else default

    def validate(self) -> None:
        """Structural soundness over the arrays (mirrors the heap checks)."""
        vs, ve = self._v_start, self._v_end
        for i in range(self._ne):
            s, d = self._e_src[i], self._e_dst[i]
            lo, hi = self._e_start[i], self._e_end[i]
            if not (vs[s] <= lo and hi <= ve[s]):
                raise ValueError(
                    f"edge {self._eids[i]!r} lifespan "
                    f"{Interval(lo, hi)} exceeds source "
                    f"{Interval(vs[s], ve[s])}"
                )
            if not (vs[d] <= lo and hi <= ve[d]):
                raise ValueError(
                    f"edge {self._eids[i]!r} lifespan "
                    f"{Interval(lo, hi)} exceeds sink "
                    f"{Interval(vs[d], ve[d])}"
                )
            for j in range(self._ep_off[i], self._ep_off[i + 1]):
                if not (lo <= self._ep_start[j] and self._ep_end[j] <= hi):
                    raise ValueError(
                        f"edge {self._eids[i]!r} property "
                        f"{self._labels[self._ep_label[j]]!r} interval "
                        f"{Interval(self._ep_start[j], self._ep_end[j])} "
                        f"exceeds lifespan {Interval(lo, hi)}"
                    )
        for i in range(self._nv):
            for j in range(self._vp_off[i], self._vp_off[i + 1]):
                if not (vs[i] <= self._vp_start[j] and self._vp_end[j] <= ve[i]):
                    raise ValueError(
                        f"vertex {self._vids[i]!r} property "
                        f"{self._labels[self._vp_label[j]]!r} interval "
                        f"{Interval(self._vp_start[j], self._vp_end[j])} "
                        f"exceeds lifespan {Interval(vs[i], ve[i])}"
                    )

    def reversed(self) -> "CompactGraph":
        """A compact copy with every edge direction flipped."""
        return CompactGraph.from_temporal(self.to_temporal().reversed())

    def window(self, start: int, end: int = FOREVER) -> "GraphWindow":
        """This graph during ``[start, end)``: a zero-copy, read-only view
        (:class:`~repro.graph.window.GraphWindow`), as on the heap store."""
        from .window import GraphWindow

        return GraphWindow(self, Interval(start, end))

    def __repr__(self) -> str:
        return (
            f"CompactGraph(|V|={self._nv}, |E|={self._ne}, "
            f"{self.nbytes} bytes)"
        )

    # -- fast paths for the engine and partitioners ------------------------

    def piece_indexes(self, vid: Any) -> list[tuple[CompactEdge, PieceIndex]]:
        """``(edge, piece index)`` per out-edge of ``vid`` — what scatter
        walks; the cuts and values come straight from the compact arrays."""
        i = self._vid_index.get(vid)
        if i is None:
            return []
        off = self._out_off
        return [
            (self._edge_view(k), self._piece_index(k))
            for k in self._out_idx[off[i]:off[i + 1]]
        ]

    def edge_records(self) -> Iterator[tuple[Any, Any, int, int]]:
        """``(src_vid, dst_vid, start, end)`` per edge, no view objects.

        The streaming form the partitioners consume: endpoint ids and
        lifespan bounds straight from the columnar arrays.
        """
        vids = self._vids
        e_src, e_dst = self._e_src, self._e_dst
        e_start, e_end = self._e_start, self._e_end
        for i in range(self._ne):
            yield vids[e_src[i]], vids[e_dst[i]], e_start[i], e_end[i]

    # -- conversion / serialisation ----------------------------------------

    def to_bytes(self) -> bytes:
        return bytes(self._views[0][:self.nbytes])

    def to_temporal(self) -> TemporalGraph:
        """Rebuild the equivalent heap graph (exact round-trip)."""
        graph = TemporalGraph()
        for i in range(self._nv):
            v = TemporalVertex(self._vids[i], Interval(self._v_start[i], self._v_end[i]))
            v.properties = self._vertex_props_copy(i)
            graph._add_vertex(v)
        for i in range(self._ne):
            e = TemporalEdge(
                self._eids[i],
                self._vids[self._e_src[i]], self._vids[self._e_dst[i]],
                Interval(self._e_start[i], self._e_end[i]),
            )
            e.properties = self._edge_props_copy(i)
            graph._add_edge(e)
        return graph

    def _vertex_props_copy(self, i: int) -> PropertySet:
        return self._fresh_props(
            i, self._vp_off, self._vp_label,
            self._vp_start, self._vp_end, self._vp_val,
        )

    def _edge_props_copy(self, i: int) -> PropertySet:
        return self._fresh_props(
            i, self._ep_off, self._ep_label,
            self._ep_start, self._ep_end, self._ep_val,
        )

    def _fresh_props(self, i, off_col, label_col, start_col, end_col, val_col):
        props = PropertySet()
        for j in range(off_col[i], off_col[i + 1]):
            value, _ = decode_payload(self._val_blob, val_col[j])
            props.add(
                self._labels[label_col[j]],
                Interval(start_col[j], end_col[j]),
                value,
            )
        return props

    # -- sharing / pickling ------------------------------------------------

    def ensure_shared(self) -> "CompactGraph":
        """Move the buffer into POSIX shared memory (idempotent).

        After this call, pickling ships only the segment name: workers
        attach to the same physical pages instead of receiving a copy.
        File-mapped graphs are already shareable (the path pickles) and
        are left alone.
        """
        if self._shm is not None or self._mmap is not None:
            return self
        from multiprocessing import shared_memory

        data = self.to_bytes()
        shm = shared_memory.SharedMemory(create=True, size=len(data))
        shm.buf[:len(data)] = data
        self._release_views()
        self._shm = shm
        self._shm_owner = True
        self._bind(shm.buf[:len(data)])
        return self

    def __reduce__(self):
        if self._shm is not None:
            return (_attach_shared, (self._shm.name, self.nbytes))
        if self._path is not None:
            return (CompactGraph.load, (self._path,))
        return (CompactGraph.from_bytes, (self.to_bytes(),))

    # -- lifecycle ---------------------------------------------------------

    def _release_views(self) -> None:
        for view in reversed(self._views):
            try:
                view.release()
            except BufferError:  # a derived view is still alive somewhere
                pass
        self._views = []

    def close(self) -> None:
        """Release buffer views and close any mmap/shared-memory backing.

        The owner of a shared-memory segment also unlinks it.  Views
        handed out earlier must not be used afterwards.
        """
        self._release_views()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._shm is not None:
            shm, owner = self._shm, self._shm_owner
            self._shm = None
            try:
                shm.close()
            except BufferError:
                pass
            if owner:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def _attach_shared(name: str, nbytes: int) -> CompactGraph:
    """Pickle reconstructor: attach to an existing shared-memory buffer."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    graph = CompactGraph(shm.buf[:nbytes])
    graph._shm = shm
    graph._shm_owner = False
    return graph


# -- store selection -----------------------------------------------------------


def resolve_graph_store(graph, store: Optional[str] = None, *, env=None):
    """Apply the graph-store choice to ``graph``.

    ``store`` may be ``"heap"`` (leave heap graphs alone), ``"compact"``
    (freeze heap graphs into :class:`CompactGraph`) or ``None``, which
    reads ``REPRO_GRAPH_STORE`` (default ``heap``).  Graphs that are
    already compact pass through untouched either way — the knob only
    decides whether heap graphs get frozen, it never thaws one.
    """
    if store is None:
        environ = os.environ if env is None else env
        store = environ.get("REPRO_GRAPH_STORE", "") or "heap"
    if store not in GRAPH_STORE_KINDS:
        raise ValueError(
            f"unknown graph store {store!r} (REPRO_GRAPH_STORE): "
            f"expected one of {', '.join(GRAPH_STORE_KINDS)}"
        )
    if store == "compact" and isinstance(graph, TemporalGraph):
        return CompactGraph.from_temporal(graph)
    return graph
