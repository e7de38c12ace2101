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
* the per-edge **scatter index**, stored: ``cut_off``/``cut_start`` (where
  each property-constant piece starts), ``piece_row`` (one int per piece)
  and the image-wide **values table** it points into
  (``pv_off``/``pv_label``/``pv_val``: each distinct values dict once, in
  label-insertion order).  An edge's resident
  :class:`~repro.graph.properties.PieceIndex` is two column slices and a
  row lookup per piece — nothing is decoded or bisected per property entry.

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
graph format **v3** (same ``ITGR`` magic + version-varint framing as
:mod:`repro.graph.binary_io`); ``load()`` maps it read-only, so a served
graph's pages are shared between every process that maps the file.  The
header carries a sha256 of everything behind it, checked on request
(``verify=True``); every bind checks the section table — alignment,
bounds, order and the lengths the columns must agree on — before the first
cast, and a column that points outside its target surfaces as
:class:`~repro.errors.GraphFormatError` naming the section, never as a
bare ``IndexError``.  **v2** images (no ``piece_row``, no values table, no
digest) keep loading: the bind derives both once, in memory
(`repro.graph.compact_writer._derive_piece_rows`), and every reader after
that is the same code.

**Zero-copy worker sharing.**  ``ensure_shared()`` migrates the buffer
into :mod:`multiprocessing.shared_memory`; pickling then ships only the
segment *name*, which is how ``ParallelExecutor`` avoids serialising the
graph per worker under the ``spawn`` start method (``fork`` already
shares the buffer copy-on-write).
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.core.interval import FOREVER, Interval
from repro.errors import GraphFormatError
from repro.runtime.encoding import decode_payload, decode_varint
from .model import TemporalGraph, _PiecewiseEdge
from .properties import PieceIndex, PropertySet, intern_values

__all__ = [
    "COMPACT_VERSION",
    "CompactGraph",
    "CompactEdge",
    "CompactVertex",
]

MAGIC = b"ITGR"
#: Binary graph format version written by :meth:`CompactGraph.dump`
#: (version 1 is the varint object stream of ``graph/binary_io.py``;
#: version 2, still read, is version 3 without the sections in
#: ``_V3_ONLY`` and without the digest).
COMPACT_VERSION = 3

# Section order is the file format: 29 int64 arrays, then 3 byte blobs.
# The header carries an explicit (offset, length) table per section, so
# readers never have to re-derive the layout arithmetic.
_INT_SECTIONS = (
    "v_start", "v_end", "vid_off",
    "vp_off", "out_off", "out_idx", "in_off", "in_idx",
    "e_src", "e_dst", "e_start", "e_end", "eid_off",
    "ep_off", "cut_off", "cut_start", "piece_row",
    "vp_label", "vp_start", "vp_end", "vp_val",
    "ep_label", "ep_start", "ep_end", "ep_val",
    "pv_off", "pv_label", "pv_val",
    "label_off",
)
_BLOB_SECTIONS = ("id_blob", "val_blob", "label_blob")
_SECTIONS = _INT_SECTIONS + _BLOB_SECTIONS
_V3_ONLY = frozenset({"piece_row", "pv_off", "pv_label", "pv_val"})
_HEADER_FIXED = 16  # magic(4) + version varint(1) + pad(3) + n_sections(8)
_DIGEST_BYTES = 32  # v3: sha256 of every byte behind it, before the table

#: What reading a column that points outside its target raises, here or in
#: the payload codec; re-raised as ``GraphFormatError`` naming the section.
_FAULTS = (IndexError, ValueError, RecursionError, struct.error)


def _malformed(sections: str, exc: Exception) -> GraphFormatError:
    if isinstance(exc, GraphFormatError):
        return exc
    return GraphFormatError(
        f"compact graph section {sections} is malformed "
        f"({type(exc).__name__}: {exc})"
    )


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _digest(image) -> bytes:
    """sha256 of a v3 image behind its digest field (table and sections)."""
    import hashlib

    return hashlib.sha256(memoryview(image)[_HEADER_FIXED + _DIGEST_BYTES:]).digest()


class _ValuesTable(dict):
    """Row number → the values dict of that row of a v3 image's table,
    decoded and interned into the graph's pool the first time a piece
    index asks for it."""

    __slots__ = ("_columns", "_labels", "_blob", "_pool")

    def __init__(self, columns, labels, blob, pool):
        self._columns = columns  # (pv_off, pv_label, pv_val)
        self._labels = labels
        self._blob = blob
        self._pool = pool

    def __missing__(self, row: int) -> dict:
        off, label, val = self._columns
        try:
            run = range(off[row], off[row + 1])
            names = tuple([self._labels[label[j]] for j in run])
            vals = tuple([decode_payload(self._blob, val[j])[0] for j in run])
        except _FAULTS as exc:
            raise _malformed("'pv_off' / 'pv_label' / 'pv_val'", exc) from exc
        values = self[row] = intern_values(self._pool, names, vals)
        return values


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
        return self._graph._props("vp", self._idx, self._graph._vprops)

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
        return self._graph._props("ep", self._idx, self._graph._eprops)

    def piece_index(self) -> PieceIndex:
        return self._graph._piece_index(self._idx)

    def __repr__(self) -> str:
        return f"Edge({self.eid!r}: {self.src!r}->{self.dst!r}, {self.lifespan})"


# -- the graph -----------------------------------------------------------------


class CompactGraph:
    """A frozen temporal graph over one contiguous columnar buffer.

    Construct with :meth:`from_temporal` (from a validated heap graph),
    :meth:`load` (mmap of a v3 — or v2 — file) or :meth:`from_bytes`.  The
    query surface mirrors :class:`~repro.graph.model.TemporalGraph`
    verbatim; entity accessors hand out cached :class:`CompactVertex`/
    :class:`CompactEdge` views.
    """

    #: The image is read-only: a compact graph never changes (compare
    #: :attr:`TemporalGraph.generation <repro.graph.model.TemporalGraph.generation>`).
    generation = 0

    def __init__(self, buffer, *, verify: bool = False, _keepalive=None):
        self._keepalive = _keepalive  # open file/mmap/shm backing `buffer`
        self._shm = None
        self._shm_owner = False
        self._mmap = None
        self._file = None
        self._path: Optional[str] = None
        self._views: list = []
        self._reversed: Optional[CompactGraph] = None
        try:
            self._bind(buffer, verify)
        except BaseException:
            # The caller closes what backs `buffer` (an mmap refuses to
            # close under a live export), so let go of it first.
            self._release_views()
            raise

    # -- construction ------------------------------------------------------

    @classmethod
    def from_temporal(cls, graph: TemporalGraph) -> "CompactGraph":
        """Freeze a heap graph (validated first) into compact form."""
        graph.validate()
        from .compact_writer import _encode_compact

        return cls(_encode_compact(graph))

    @classmethod
    def from_bytes(cls, data: bytes, *, verify: bool = False) -> "CompactGraph":
        """Bind an image held in memory; ``verify`` as in :meth:`load`."""
        return cls(data, verify=verify)

    @classmethod
    def load(
        cls, path: Union[str, Path], *, map: bool = True, verify: bool = False
    ) -> "CompactGraph":
        """Open a binary v3 (or v2) file, memory-mapped read-only by default.

        Mapped pages are shared with every other process that maps the
        same file — the serving tier's resident-graph story.
        ``verify=True`` recomputes the image's sha256 (one pass over the
        whole file) and refuses a mismatch; a v2 image carries no digest
        and gets the bind checks only.
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
                graph = cls(mapped, verify=verify)
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
            graph = cls(data, verify=verify)
            graph._path = path
        return graph

    def dump(self, target: Union[str, Path]) -> None:
        """Write the buffer as a binary file (fsync + atomic rename): v3,
        or the v2 image this graph was loaded from, as it is."""
        from .binary_io import _atomic_write_bytes
        _atomic_write_bytes(self.to_bytes(), Path(target))

    # -- binding -----------------------------------------------------------

    def _bind(self, buffer, verify: bool = False) -> None:
        mv = memoryview(buffer)
        self._views.append(mv)
        size = mv.nbytes
        if size < _HEADER_FIXED or bytes(mv[0:4]) != MAGIC:
            raise GraphFormatError("not an ITGR compact temporal graph")
        version, _ = decode_varint(mv, 4)
        if version not in (2, COMPACT_VERSION):
            raise GraphFormatError(
                f"unsupported compact graph version {version} "
                f"(this build reads versions 2 and {COMPACT_VERSION}; "
                f"version 1 files are read by api.load_graph)"
            )
        if version == 2:
            names = tuple(n for n in _SECTIONS if n not in _V3_ONLY)
            table_at = _HEADER_FIXED
        else:
            names = _SECTIONS
            table_at = _HEADER_FIXED + _DIGEST_BYTES
        n_sections = int.from_bytes(bytes(mv[8:16]), "little", signed=True)
        if n_sections != len(names) or bytes(mv[5:8]) != b"\0\0\0":
            raise GraphFormatError(
                f"compact graph v{version} header lists {n_sections} sections "
                f"(expected {len(names)}) after padding {bytes(mv[5:8])!r} "
                f"(expected zeros)"
            )
        table_end = table_at + n_sections * 16
        if table_end > size:
            raise GraphFormatError(
                f"compact graph section table exceeds the {size}-byte "
                f"buffer (truncated file?)"
            )
        if verify and version > 2 and bytes(mv[_HEADER_FIXED:table_at]) != _digest(mv):
            raise GraphFormatError(
                "compact graph image does not match its sha256 digest "
                "(corrupted, or edited after it was written)"
            )
        table = mv[table_at:table_end].cast("q")
        self._views.append(table)
        # Every section is checked before the first cast: inside the
        # buffer, behind its predecessor, and — the int columns — 8-byte
        # aligned, so a shifted or torn table cannot load and answer.
        sections: dict[str, Any] = {}
        floor = table_end
        for i, name in enumerate(names):
            off, length = table[2 * i], table[2 * i + 1]
            if off < floor or length < 0 or off + length > size:
                raise GraphFormatError(
                    f"compact graph section {name!r} ([{off}, {off + length})) "
                    f"overlaps its predecessor or exceeds the {size}-byte "
                    f"buffer (truncated file?)"
                )
            if name in _INT_SECTIONS and (off % 8 or length % 8):
                raise GraphFormatError(
                    f"compact graph section {name!r} ([{off}, {off + length})) "
                    f"is not 8-byte aligned"
                )
            sections[name] = mv[off:off + length]
            self._views.append(sections[name])
            floor = off + length
        for name in _INT_SECTIONS:
            if name in sections:
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
        self._nv = nv = len(self._v_start)
        self._ne = ne = len(self._e_src)
        self._check_lengths(version)

        try:
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
        except _FAULTS as exc:
            raise _malformed("'label_off' / 'vid_off' / 'eid_off'", exc) from exc
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
        #: dicts (``_rows``: the values-table rows decoded into it so
        #: far), the raw ``time_horizon()`` memo and the placement
        #: statistics per (workers, partitioner fingerprint).
        self._piece_cache: dict[int, PieceIndex] = {}
        self._values: dict = {}
        self._empty = intern_values(self._values, (), ())
        self._horizon: Optional[int] = None
        self._placement: dict = {}
        if version == 2:
            from .compact_writer import _derive_piece_rows

            try:
                self._piece_row, rows = _derive_piece_rows(self)
            except _FAULTS as exc:
                raise _malformed("'cut_off' / 'cut_start' / 'ep_*'", exc) from exc
            self._rows = dict(enumerate(rows))
        else:
            self._rows = _ValuesTable(
                (self._pv_off, self._pv_label, self._pv_val),
                self._labels, self._val_blob, self._values,
            )

    def _check_lengths(self, version: int) -> None:
        """The lengths and end points the columns must agree on — read off
        section sizes and each offset column's first and last entry, so a
        bind stays O(sections) however large the image."""
        nv, ne = self._nv, self._ne
        n_vp, n_ep = len(self._vp_label), len(self._ep_label)
        n_pieces = len(self._cut_start)
        lengths = {
            "v_end": nv, "vid_off": nv + 1, "vp_off": nv + 1,
            "out_off": nv + 1, "in_off": nv + 1, "out_idx": ne, "in_idx": ne,
            "e_dst": ne, "e_start": ne, "e_end": ne, "eid_off": ne + 1,
            "ep_off": ne + 1, "cut_off": ne + 1,
            "vp_start": n_vp, "vp_end": n_vp, "vp_val": n_vp + 1,
            "ep_start": n_ep, "ep_end": n_ep, "ep_val": n_ep + 1,
        }
        if version > 2:
            lengths.update(piece_row=n_pieces, pv_val=len(self._pv_label))
        for name, want in lengths.items():
            got = len(getattr(self, "_" + name))
            if got != want:
                raise GraphFormatError(
                    f"compact graph section {name!r} holds {got} entries, "
                    f"expected {want}"
                )
        # Offset column → (its first entry, its last entry); None: any.
        spans = {
            "vid_off": (0, self._eid_off[0]), "eid_off": (None, len(self._id_blob)),
            "vp_off": (0, n_vp), "ep_off": (0, n_ep),
            "out_off": (0, ne), "in_off": (0, ne), "cut_off": (0, n_pieces),
            "vp_val": (None, len(self._val_blob)),
            "ep_val": (None, len(self._val_blob)),
            "label_off": (0, len(self._label_blob)),
        }
        if version > 2:
            spans["pv_off"] = (0, len(self._pv_label))
        for name, (first, last) in spans.items():
            col = getattr(self, "_" + name)
            if not len(col) or first not in (None, col[0]) or last not in (None, col[-1]):
                raise GraphFormatError(
                    f"compact graph offset column {name!r} does not span "
                    f"the section it indexes"
                )

    # -- internal view/property materialisation ----------------------------

    def _vertex_view(self, i: int) -> CompactVertex:
        view = self._vertex_cache.get(i)
        if view is None:
            try:
                span = Interval(self._v_start[i], self._v_end[i])
            except _FAULTS as exc:
                raise _malformed("'v_start' / 'v_end'", exc) from exc
            view = self._vertex_cache[i] = CompactVertex(self, i, self._vids[i], span)
        return view

    def _edge_view(self, i: int) -> CompactEdge:
        view = self._edge_cache.get(i)
        if view is None:
            try:
                view = CompactEdge(
                    self, i, self._eids[i],
                    self._vids[self._e_src[i]], self._vids[self._e_dst[i]],
                    Interval(self._e_start[i], self._e_end[i]),
                )
            except _FAULTS as exc:
                raise _malformed(
                    "'out_idx' / 'in_idx' / 'e_src' / 'e_dst' / 'e_start' / 'e_end'", exc
                ) from exc
            self._edge_cache[i] = view
        return view

    def _props(self, kind: str, i: int, cache: Optional[dict]) -> PropertySet:
        """The property set of vertex (``kind="vp"``) or edge (``"ep"``)
        ``i``; kept in ``cache`` unless that is ``None`` (``to_temporal``
        hands each set to a new owner)."""
        props = cache.get(i) if cache is not None else None
        if props is None:
            off, label, start, end, val = (
                getattr(self, f"_{kind}_{col}")
                for col in ("off", "label", "start", "end", "val")
            )
            props = PropertySet()
            labels = self._labels
            blob = self._val_blob
            try:
                for j in range(off[i], off[i + 1]):
                    value, _ = decode_payload(blob, val[j])
                    props.add(labels[label[j]], Interval(start[j], end[j]), value)
            except _FAULTS as exc:
                raise _malformed(f"'{kind}_*' (property entries)", exc) from exc
            if cache is not None:
                cache[i] = props
        return props

    def _piece_index(self, i: int) -> PieceIndex:
        """The resident piece index of edge ``i`` (built on first use):
        the edge's run of ``cut_start`` closed by its lifespan's end, and
        per piece the values-table row ``piece_row`` names — two slices,
        no property entry is read."""
        index = self._piece_cache.get(i)
        if index is None:
            try:
                lo, hi = self._cut_off[i], self._cut_off[i + 1]
                rows, empty = self._rows, self._empty
                index = self._piece_cache[i] = PieceIndex(
                    (*self._cut_start[lo:hi], self._e_end[i]),
                    (empty, *[rows[r] for r in self._piece_row[lo:hi]], empty),
                )
            except _FAULTS as exc:
                raise _malformed("'cut_off' / 'cut_start' / 'piece_row'", exc) from exc
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
        return [self._edge_view(k) for k in self._out_idx[off[i]:off[i + 1]]]

    def in_edges(self, vid: Any) -> list:
        i = self._vid_index.get(vid)
        if i is None:
            return []
        off = self._in_off
        return [self._edge_view(k) for k in self._in_idx[off[i]:off[i + 1]]]

    def out_degree(self, vid: Any) -> int:
        """``len(out_edges(vid))`` as a CSR offset difference: no edge view."""
        i = self._vid_index.get(vid)
        return 0 if i is None else self._out_off[i + 1] - self._out_off[i]

    def in_degree(self, vid: Any) -> int:
        i = self._vid_index.get(vid)
        return 0 if i is None else self._in_off[i + 1] - self._in_off[i]

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
                for ref, end in zip(ep_label[lo:hi], ep_end[lo:hi]):
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
        """A compact copy with every edge direction flipped.

        Memoised: a compact graph never changes, so every call returns the
        same object — and a P ≥ 2 run on it finds the worker group an
        earlier run forked for it.  The memo keeps that one private
        reversed image alive for as long as this graph lives.
        """
        if self._reversed is None:
            self._reversed = CompactGraph.from_temporal(self.to_temporal().reversed())
        return self._reversed

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
        e_start, e_end = self._e_start, self._e_end
        try:
            for i, (s, d) in enumerate(zip(self._e_src, self._e_dst)):
                yield vids[s], vids[d], e_start[i], e_end[i]
        except IndexError as exc:
            raise _malformed("'e_src' / 'e_dst'", exc) from exc

    # -- conversion / serialisation ----------------------------------------

    def to_bytes(self) -> bytes:
        return bytes(self._views[0][:self.nbytes])

    def to_temporal(self) -> TemporalGraph:
        """Rebuild the equivalent heap graph (exact round-trip)."""
        from .compact_writer import to_temporal

        return to_temporal(self)

    # -- sharing / pickling ------------------------------------------------

    def ensure_shared(self) -> "CompactGraph":
        """Move the buffer into POSIX shared memory (idempotent).

        After this call, pickling ships only the segment name: workers
        attach to the same physical pages instead of receiving a copy.
        File-mapped graphs are already shareable (the path pickles) and
        are left alone.
        """
        from .compact_writer import share

        return share(self)

    def __reduce__(self):
        if self._shm is not None:
            from .compact_writer import _attach_shared

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
