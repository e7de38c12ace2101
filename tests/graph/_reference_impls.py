"""Reference (pre-optimisation) graph-layer implementations, kept as oracles.

* ``reference_load_text`` — the per-row text loader ``repro.graph.io._load``
  was before the one-pass bulk loader: every value through
  ``ast.literal_eval``, every property row through a fresh owner lookup and
  a sorted insert, ``validate()`` once at the end.
* ``reference_timeline_add`` — the bisect-and-two-probes insert
  ``PropertyTimeline.add`` ran for every entry before it got its append
  path.

* ``reference_piece_index`` — ``PropertySet.piece_index`` as it was defined
  before the one-sweep build: ``boundaries()`` for the cuts, one
  ``values_at`` (a bisection per label) per cut for the dicts.  Returns
  plain ``(cuts, values)``; interning is the production code's business.

* ``sections_of`` / ``v2_image`` — an ``ITGR`` compact image taken apart by
  its own section table, and a v3 image re-packed the way the v2 encoder
  laid one out (no ``piece_row``, no values table, no digest; 16-byte
  header, table, 8-aligned sections): what ``test_compact_image.py`` binds
  to hold the v2 compatibility path to the v3 reader.

Self-contained on purpose (nothing here calls the code it is the oracle
for); ``test_text_loader.py`` holds the production loader to them.
"""

from __future__ import annotations

import ast
from bisect import bisect_right
from typing import Any, TextIO

from repro.core.interval import FOREVER, Interval
from repro.graph.model import TemporalEdge, TemporalGraph, TemporalVertex
from repro.graph.properties import PropertySet, PropertyTimeline


def reference_timeline_add(timeline: PropertyTimeline, interval: Interval, value: Any) -> None:
    idx = bisect_right(timeline._starts, interval.start)
    if idx > 0 and timeline._entries[idx - 1][0].overlaps(interval):
        raise ValueError(
            f"property interval {interval} overlaps {timeline._entries[idx - 1][0]}"
        )
    if idx < len(timeline._entries) and timeline._entries[idx][0].overlaps(interval):
        raise ValueError(
            f"property interval {interval} overlaps {timeline._entries[idx][0]}"
        )
    timeline._starts.insert(idx, interval.start)
    timeline._entries.insert(idx, (interval, value))


def reference_piece_index(props: PropertySet) -> tuple[tuple, list[dict]]:
    bounds: set[int] = set()
    for timeline in props._timelines.values():
        for iv, _ in timeline._entries:
            bounds.update((iv.start, iv.end))
    cuts = tuple(sorted(bounds))
    values: list[dict] = [{}]
    for t in cuts:
        at_t = {}
        for label, timeline in props._timelines.items():
            idx = bisect_right(timeline._starts, t) - 1
            if idx >= 0:
                iv, value = timeline._entries[idx]
                if iv.start <= t < iv.end and value is not None:
                    at_t[label] = value
        values.append(at_t)
    return cuts, values


def _parse_time(token: str) -> int:
    return FOREVER if token == "inf" else int(token)


def _add_property(owner, label: str, interval: Interval, value: Any) -> None:
    timeline = owner.properties._timelines.setdefault(label, PropertyTimeline())
    reference_timeline_add(timeline, interval, value)


def reference_load_text(fh: TextIO) -> TemporalGraph:
    graph = TemporalGraph()
    edges_by_id: dict[str, TemporalEdge] = {}
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        kind = parts[0]
        try:
            if kind == "V":
                _, vid, s, e = parts
                graph._add_vertex(TemporalVertex(vid, Interval(_parse_time(s), _parse_time(e))))
            elif kind == "VP":
                _, vid, label, s, e, val = parts
                _add_property(
                    graph.vertex(vid), label,
                    Interval(_parse_time(s), _parse_time(e)), ast.literal_eval(val),
                )
            elif kind == "E":
                _, eid, src, dst, s, e = parts
                edge = TemporalEdge(eid, src, dst, Interval(_parse_time(s), _parse_time(e)))
                edges_by_id[eid] = edge
                graph._add_edge(edge)
            elif kind == "EP":
                _, eid, label, s, e, val = parts
                _add_property(
                    edges_by_id[eid], label,
                    Interval(_parse_time(s), _parse_time(e)), ast.literal_eval(val),
                )
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (ValueError, KeyError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from exc
    graph.validate()
    return graph


# -- ITGR compact images -------------------------------------------------------------

_V3_SECTIONS = (
    "v_start", "v_end", "vid_off", "vp_off", "out_off", "out_idx", "in_off",
    "in_idx", "e_src", "e_dst", "e_start", "e_end", "eid_off", "ep_off",
    "cut_off", "cut_start", "piece_row", "vp_label", "vp_start", "vp_end",
    "vp_val", "ep_label", "ep_start", "ep_end", "ep_val", "pv_off", "pv_label",
    "pv_val", "label_off", "id_blob", "val_blob", "label_blob",
)
_V3_ONLY = ("piece_row", "pv_off", "pv_label", "pv_val")


def sections_of(image: bytes) -> dict[str, tuple[int, int]]:
    """``{section: (offset, length)}`` of a v2 or v3 image, in table order."""
    version = image[4]
    names = [n for n in _V3_SECTIONS if version == 3 or n not in _V3_ONLY]
    table_at = 48 if version == 3 else 16
    assert int.from_bytes(image[8:16], "little") == len(names)
    return {
        name: (
            int.from_bytes(image[table_at + 16 * i:table_at + 16 * i + 8], "little"),
            int.from_bytes(image[table_at + 16 * i + 8:table_at + 16 * i + 16], "little"),
        )
        for i, name in enumerate(names)
    }


def v2_image(image: bytes) -> bytes:
    """The v2 image of the graph in v3 ``image``."""
    assert image[4] == 3
    kept = [(name, image[off:off + length])
            for name, (off, length) in sections_of(image).items() if name not in _V3_ONLY]
    cursor = (16 + 16 * len(kept) + 7) & ~7
    table = bytearray()
    body = bytearray()
    for _, data in kept:
        pad = -(cursor + len(body)) % 8
        body += bytes(pad)
        table += (cursor + len(body)).to_bytes(8, "little")
        table += len(data).to_bytes(8, "little")
        body += data
    header = b"ITGR\x02\0\0\0" + len(kept).to_bytes(8, "little")
    return bytes(header + table + bytes(cursor - 16 - len(table)) + body)
