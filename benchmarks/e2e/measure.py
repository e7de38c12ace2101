"""Measurement plumbing of the end-to-end benchmark: the clean child
environment, the host-speed calibration probe, the bracketing sampler, the
in-memory span recorder and the small statistics the reports share.

Why samples are normalised.  On the reference host (2 vCPUs, siblings of
one core of a shared machine) the *same* engine repetition took 0.54-1.03 s
within two minutes and 0.64-1.43 s within forty seconds: all of it user
time, no page faults, no steal.  A neighbour slows memory- and
allocation-heavy Python by up to 1.9x, flipping between the two regimes
anywhere from several times a second to once in tens of seconds.  No
estimator over un-normalised samples of one 10-second run survives that:
the median drifted 35 % between 8-second windows, and best-of-n fails
whenever a whole run falls into a slow stretch.  A fixed pure-Python probe
shaped like the program's hot paths tracks the slowdown, so every timed
operation is bracketed by probes and reported as

    wall * CALIB_REF_S / median(three probes before, three probes after)

-- seconds on a host whose probe takes ``CALIB_REF_S``.  On recorded A/A
series (real neighbour, and a synthetic one toggled every 9 s) this cut the
spread of 8-second windows (IQR / median) from 0.04-0.55 to 0.015-0.04.
The probe is benchmark code: no change to the program can move it.  The
un-normalised median is printed next to every value and the probe's own
range is reported (``host.*``), so the absolute numbers stay visible.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

SRC = Path(__file__).resolve().parents[2] / "src"

#: One probe on the reference host while its neighbour is idle (the mode
#: of ~6000 probes).  Only ratios between commits matter; the constant
#: makes normalised values read like quiet-host wall-clock.
CALIB_REF_S = 0.0009

clock = time.perf_counter


def child_env() -> Dict[str, str]:
    """Environment of every interpreter the benchmark starts (and of the
    measuring process itself): no ``REPRO_*`` knob, a pinned hash seed, and
    only this checkout's sources importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


class _Cell:
    __slots__ = ("lo", "hi", "value")

    def __init__(self, lo: int, hi: int, value: float):
        self.lo = lo
        self.hi = hi
        self.value = value

    def overlaps(self, other: "_Cell") -> bool:
        return self.lo < other.hi and other.lo < self.hi


def calibration_probe() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    Slot objects, tuple-keyed dict traffic, method calls, small sorts and
    int<->str round trips: the mix the engine, the text parser and the
    exporters spend their time in.  An arithmetic-only loop tracked the
    host's slow regimes far worse (window spread 0.21 against 0.03).
    """
    t0 = clock()
    table: Dict[tuple, _Cell] = {}
    acc = 0
    for i in range(1200):
        cell = _Cell(i, i + 7, i * 0.5)
        key = (i % 97, i % 89)
        prev = table.get(key)
        if prev is not None and prev.overlaps(cell):
            acc += 1
        table[key] = cell
        row = [cell.hi, cell.lo, i & 15]
        row.sort()
        acc += int(str(row[0]))
    return clock() - t0


class Sample:
    """One timed operation: measured wall and its host-normalised value."""

    __slots__ = ("raw", "norm", "factor")

    def __init__(self, raw: float, factor: float):
        self.raw = raw
        self.factor = factor
        self.norm = raw * factor


class Sampler:
    """Times each operation between calibration probes of its own: three
    before and three after, of which the median counts (single probes
    spike; on recorded A/A series the median of six gave the steadiest
    windows of every variant tried, 0.015-0.04 spread)."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        # The first probes of a fresh interpreter run cold (~2x).
        for _ in range(5):
            calibration_probe()

    def probe(self) -> List[float]:
        """Three probes, taken now."""
        taken = [calibration_probe() for _ in range(3)]
        self.probes.extend(taken)
        return taken

    @staticmethod
    def factor(probes: List[float]) -> float:
        """What a wall-clock span between these probes is multiplied by."""
        return CALIB_REF_S / statistics.median(probes)

    def time(self, fn: Callable[[], Any]):
        """Run ``fn()``; returns ``(result, Sample)``."""
        before = self.probe()
        t0 = clock()
        result = fn()
        raw = clock() - t0
        return result, Sample(raw, self.factor(before + self.probe()))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


class SpanRecorder:
    """In-memory spans: ``name, start, end, parent, trace`` -- written out
    only when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._trace = ""

    @contextmanager
    def trace(self, trace_id: str) -> Iterator[None]:
        """All spans opened inside share ``trace_id``."""
        previous, self._trace = self._trace, trace_id
        try:
            yield
        finally:
            self._trace = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "trace": self._trace,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._stack.pop()

    def add(self, name: str, seconds: float, parent: Optional[int] = None) -> None:
        """A span measured elsewhere (a child process, a worker report):
        only its duration is known, so it starts at its parent's start."""
        start = (self.spans[parent]["start"] if parent is not None
                 else clock() - seconds)
        self.spans.append({
            "id": len(self.spans), "name": name, "trace": self._trace,
            "parent": parent, "start": start, "end": start + seconds,
        })

    def self_times(self, trace_id: str) -> Dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        spans = [s for s in self.spans if s["trace"] == trace_id]
        covered: Dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (
                    covered.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + max(0.0, own)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True))
                fh.write("\n")
