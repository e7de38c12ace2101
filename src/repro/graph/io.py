"""Text serialisation of temporal graphs.

The format is a line-oriented, human-diffable analogue of the edge-list
files the paper loads from HDFS:

```
# comments and blank lines ignored
V <vid> <start> <end>
VP <vid> <label> <start> <end> <value>
E <eid> <src> <dst> <start> <end>
EP <eid> <label> <start> <end> <value>
```

``end`` may be the literal ``inf``.  Values are stored via ``repr`` and read
back as Python literals.  Rows may come in any order as long as an entity's
row precedes its property rows; a malformed file is a
:class:`~repro.errors.GraphFormatError` naming the line.  The full contract
is in ``docs/storage.md``.
"""

from __future__ import annotations

import ast
from math import isfinite
from pathlib import Path
from typing import Any, TextIO, Union

from repro.core.interval import FOREVER, Interval
from repro.errors import GraphFormatError
from .model import TemporalEdge, TemporalGraph, TemporalVertex


def dump_graph(graph: TemporalGraph, target: Union[str, Path, TextIO]) -> None:
    """Write ``graph`` to a path or open text handle.

    Raises
    ------
    ValueError
        A property value is a non-finite float (``inf`` / ``nan`` have no
        literal, so the file could not be loaded again).  A path target is
        removed rather than left holding the rows written so far, which
        would load as a smaller graph; an open handle keeps them.
    """
    if isinstance(target, (str, Path)):
        try:
            with open(target, "w", encoding="utf-8") as fh:
                _dump(graph, fh)
        except ValueError:
            Path(target).unlink(missing_ok=True)
            raise
    else:
        _dump(graph, target)


def load_graph(source: Union[str, Path, TextIO]) -> TemporalGraph:
    """Read a graph previously written by :func:`dump_graph`.

    Raises
    ------
    GraphFormatError
        ``text graph: line N: ...`` for a row that cannot be parsed or that
        breaks one of the model's three constraints.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _load(fh)
    return _load(source)


# -- internals ---------------------------------------------------------------

_CONSTANTS = {"True": True, "False": False, "None": None}


def _fmt_time(t: int) -> str:
    return "inf" if t >= FOREVER else str(t)


def _parse_time(token: str) -> int:
    return FOREVER if token == "inf" else int(token)


def _fmt_value(value: Any) -> str:
    if isinstance(value, float) and not isfinite(value):
        raise ValueError(f"non-finite float {value!r} has no literal to load it from")
    return repr(value)


def _parse_value(token: str) -> Any:
    """The value of a Python literal — what the fallback on the last lines
    returns for it, without the compiler for ``repr`` of a non-negative int
    (every property value the dataset generators write) and of a bool or
    ``None``.  Everything else — floats, strings, signs, ``1_000``, leading
    zeros, non-ASCII digits, containers, blanks — goes to the fallback
    itself, whose failures all become ``ValueError``.
    """
    if token.isdigit():
        if token.isascii() and (token[0] != "0" or token == "0"):
            return int(token)
    elif token in _CONSTANTS:
        return _CONSTANTS[token]
    try:
        return ast.literal_eval(token)
    except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError) as exc:
        shown = token if len(token) <= 40 else token[:37] + "..."
        raise ValueError(
            f"cannot parse value {shown!r} ({type(exc).__name__})"
        ) from exc


def _dump(graph: TemporalGraph, fh: TextIO) -> None:
    fh.write("# repro temporal graph v1\n")
    for v in sorted(graph.vertices(), key=lambda x: str(x.vid)):
        fh.write(f"V\t{v.vid}\t{_fmt_time(v.lifespan.start)}\t{_fmt_time(v.lifespan.end)}\n")
        _dump_properties(fh, "VP", "vertex", v.vid, v.properties)
    for e in sorted(graph.edges(), key=lambda x: str(x.eid)):
        fh.write(
            f"E\t{e.eid}\t{e.src}\t{e.dst}\t{_fmt_time(e.lifespan.start)}\t{_fmt_time(e.lifespan.end)}\n"
        )
        _dump_properties(fh, "EP", "edge", e.eid, e.properties)


def _dump_properties(fh: TextIO, kind: str, owner: str, oid: Any, properties) -> None:
    for label in properties:
        try:
            for iv, val in properties.timeline(label):
                fh.write(
                    f"{kind}\t{oid}\t{label}\t{_fmt_time(iv.start)}\t{_fmt_time(iv.end)}\t{_fmt_value(val)}\n"
                )
        except ValueError as exc:
            raise ValueError(f"{owner} {oid!r} property {label!r}: {exc}") from None


def _load(fh: TextIO) -> TemporalGraph:
    """One pass over the rows, appending straight into the resident
    structure; every check ``validate()`` makes is made here, where the
    line number is still known."""
    graph = TemporalGraph()
    edge_lines: list[int] = []
    lineno = 0
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            parts = line.split("\t")
            kind = parts[0]
            if kind == "EP" or kind == "VP":
                if len(parts) != 6:
                    raise _field_count(parts, 6)
                _, oid, label, start, end, token = parts
                owner = _owner(graph, kind, oid)
                life = owner.lifespan
                start = _parse_time(start)
                end = _parse_time(end)
                # The owner's lifespan is a validated Interval, so this one
                # test is 0 <= start < end and constraint 3 together.
                if not life.start <= start < end <= life.end:
                    interval = Interval(start, end)  # raises if that is what is wrong
                    raise ValueError(
                        f"property {label!r} interval {interval} exceeds the "
                        f"lifespan {life} of {oid!r}"
                    )
                owner.properties.add(label, Interval._unchecked(start, end), _parse_value(token))
            elif kind == "V":
                if len(parts) != 4:
                    raise _field_count(parts, 4)
                _, vid, start, end = parts
                graph._add_vertex(
                    TemporalVertex(vid, Interval(_parse_time(start), _parse_time(end)))
                )
            elif kind == "E":
                if len(parts) != 6:
                    raise _field_count(parts, 6)
                _, eid, src, dst, start, end = parts
                graph._add_edge(
                    TemporalEdge(eid, src, dst, Interval(_parse_time(start), _parse_time(end)))
                )
                edge_lines.append(lineno)
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        # Constraint 2 waits for the last row: an E row may precede its
        # endpoints' V rows.
        for lineno, edge in zip(edge_lines, graph.edges()):
            graph._check_endpoints(edge)
    except ValueError as exc:
        raise GraphFormatError(f"text graph: line {lineno}: {exc}") from exc
    return graph


def _field_count(parts: list[str], expected: int) -> ValueError:
    return ValueError(
        f"{parts[0]} row has {len(parts)} tab-separated fields, expected {expected}"
    )


def _owner(graph: TemporalGraph, kind: str, oid: str):
    """The entity a ``VP`` / ``EP`` row belongs to; its row must come first."""
    if kind == "EP":
        if graph.has_edge(oid):
            return graph.edge(oid)
    elif graph.has_vertex(oid):
        return graph.vertex(oid)
    raise ValueError(f"{kind} row for {oid!r}, which has no {kind[0]} row above it")
