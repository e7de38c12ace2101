"""Exporting ICM results for downstream analysis.

Final partitioned states are interval-valued; analysts usually want them
as flat tables.  Two shapes are provided:

* **interval rows** — one row per state partition
  (``vertex,start,end,value``), the lossless form;
* **dense rows** — one row per (vertex, time-point), the
  spreadsheet/pandas-friendly form.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Callable, Optional, TextIO, Union

from repro.core.engine import IcmResult
from repro.core.interval import FOREVER

Target = Union[str, Path, TextIO]


def _open(target: Target, write_fn: Callable[[TextIO], None]) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_fn(fh)
    else:
        write_fn(target)


def _render(value: Any, value_fn: Optional[Callable[[Any], Any]]) -> Any:
    if value_fn is not None:
        value = value_fn(value)
    if isinstance(value, int) and value >= FOREVER:
        return "inf"
    return value


def export_states_csv(
    result: IcmResult,
    target: Target,
    *,
    value_fn: Optional[Callable[[Any], Any]] = None,
) -> int:
    """Write one row per state partition; returns the row count.

    ``value_fn`` post-processes state values (e.g. ``lcc_value``);
    ``FOREVER``-based sentinels render as ``inf``.
    """
    rows = 0

    def write(fh: TextIO) -> None:
        nonlocal rows
        writer = csv.writer(fh)
        writer.writerow(["vertex", "start", "end", "value"])
        for vid in sorted(result.states, key=repr):
            for interval, value in result.states[vid]:
                end = "inf" if interval.is_unbounded else interval.end
                writer.writerow([vid, interval.start, end, _render(value, value_fn)])
                rows += 1

    _open(target, write)
    return rows


def export_states_dense_csv(
    result: IcmResult,
    target: Target,
    horizon: int,
    *,
    value_fn: Optional[Callable[[Any], Any]] = None,
) -> int:
    """Write one row per (vertex, time-point) up to ``horizon``."""
    rows = 0

    def write(fh: TextIO) -> None:
        nonlocal rows
        writer = csv.writer(fh)
        writer.writerow(["vertex", "t", "value"])
        for vid in sorted(result.states, key=repr):
            state = result.states[vid]
            for t in range(horizon):
                if state.lifespan.contains_point(t):
                    writer.writerow([vid, t, _render(state.value_at(t), value_fn)])
                    rows += 1

    _open(target, write)
    return rows


def states_document(
    result: IcmResult,
    *,
    value_fn: Optional[Callable[[Any], Any]] = None,
) -> dict:
    """The JSON document of per-vertex interval values
    :func:`export_states_json` writes, without writing it."""
    return {
        "algorithm": result.metrics.algorithm,
        "graph": result.metrics.graph,
        "vertices": {
            str(vid): [
                {
                    "start": interval.start,
                    "end": None if interval.is_unbounded else interval.end,
                    "value": _render(value, value_fn),
                }
                for interval, value in result.states[vid]
            ]
            for vid in sorted(result.states, key=repr)
        },
    }


def export_states_json(
    result: IcmResult,
    target: Target,
    *,
    value_fn: Optional[Callable[[Any], Any]] = None,
) -> dict:
    """Write (and return) a JSON document of per-vertex interval values."""
    doc = states_document(result, value_fn=value_fn)

    def write(fh: TextIO) -> None:
        json.dump(doc, fh, indent=2, default=str)

    _open(target, write)
    return doc
