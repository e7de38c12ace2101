"""Interval-valued property timelines (paper Def. 1, sets ``A_V``/``A_E``).

A property label maps to a *timeline*: a set of ``(interval, value)`` pairs
whose intervals never overlap ("a label may have distinct values for
non-overlapping intervals during the lifespan of its vertex (or edge)").
Unlike a :class:`~repro.core.state.PartitionedState`, a timeline need not
cover the whole lifespan — time-points without a value simply have none.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator, Optional

from repro.core.interval import Interval


class PropertyTimeline:
    """Sorted, non-overlapping ``(interval, value)`` pairs for one label."""

    __slots__ = ("_starts", "_entries")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._entries: list[tuple[Interval, Any]] = []

    def add(self, interval: Interval, value: Any) -> None:
        """Insert a value for an interval.

        Raises
        ------
        ValueError
            If the interval overlaps an existing entry (Def. 1 forbids
            overlapping values for one label).
        """
        entries = self._entries
        if not entries or interval.start >= entries[-1][0].end:
            # In time order — what every bulk constructor feeds — the one
            # comparison above is the whole overlap check.
            self._starts.append(interval.start)
            entries.append((interval, value))
            return
        idx = bisect_right(self._starts, interval.start)
        if idx > 0 and self._entries[idx - 1][0].overlaps(interval):
            raise ValueError(
                f"property interval {interval} overlaps {self._entries[idx - 1][0]}"
            )
        if idx < len(self._entries) and self._entries[idx][0].overlaps(interval):
            raise ValueError(
                f"property interval {interval} overlaps {self._entries[idx][0]}"
            )
        self._starts.insert(idx, interval.start)
        self._entries.insert(idx, (interval, value))

    def value_at(self, t: int) -> Optional[Any]:
        """Value at time-point ``t``, or ``None`` when no entry covers it."""
        idx = bisect_right(self._starts, t) - 1
        if idx >= 0 and self._entries[idx][0].contains_point(t):
            return self._entries[idx][1]
        return None

    def pieces(self, window: Interval) -> list[tuple[Interval, Any]]:
        """Entries overlapping ``window``, clipped to it, in time order."""
        out: list[tuple[Interval, Any]] = []
        idx = bisect_right(self._starts, window.start) - 1
        if idx < 0:
            idx = 0
        while idx < len(self._entries):
            iv, val = self._entries[idx]
            if iv.start >= window.end:
                break
            common = iv.intersect(window)
            if common is not None:
                out.append((common, val))
            idx += 1
        return out

    def boundaries(self) -> list[int]:
        """All start/end points of entries, sorted and de-duplicated."""
        bounds: set[int] = set()
        for iv, _ in self._entries:
            bounds.add(iv.start)
            bounds.add(iv.end)
        return sorted(bounds)

    def entries(self) -> list[tuple[Interval, Any]]:
        return list(self._entries)

    def span(self) -> Optional[Interval]:
        """Hull from first start to last end, or ``None`` when empty."""
        if not self._entries:
            return None
        return Interval(self._entries[0][0].start, max(iv.end for iv, _ in self._entries))

    def total_covered(self) -> int:
        """Cumulative number of time-points with a value."""
        return sum(iv.length for iv, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[Interval, Any]]:
        return iter(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{iv}={v!r}" for iv, v in self._entries)
        return f"PropertyTimeline({inner})"


class PieceIndex:
    """The property-constant pieces of one property set — the scatter index.

    ``cuts`` holds the set's sorted change points as plain ints and
    ``values[i]`` the :meth:`PropertySet.values_at` dict that holds over
    ``[cuts[i-1], cuts[i])``; ``values[0]`` and ``values[-1]`` (before the
    first and after the last change point) are empty.  Nothing else is
    resident: no ``Interval``, no per-piece tuple, and equal dicts are one
    object graph-wide (see :func:`intern_values`), so the index can live as
    long as its graph.  Both stores hold this one shape:
    :meth:`PropertySet.piece_index` sweeps the timelines on first touch;
    a compact image stores each edge's pieces when it is written
    (``cut_start`` / ``piece_row`` and the image's values table), so
    ``CompactGraph._piece_index`` slices them back out and sweeps nothing.
    """

    __slots__ = ("cuts", "values")

    def __init__(self, cuts: tuple[int, ...], values: tuple[dict[str, Any], ...]):
        self.cuts = cuts
        self.values = values

    def pieces(self, start: int, end: int) -> list[tuple[Interval, dict[str, Any]]]:
        """Partition ``[start, end)`` at the change points strictly inside
        it: ``(interval, values)`` pairs in time order, never empty."""
        cuts = self.cuts
        values = self.values
        mk_interval = Interval._unchecked  # start < end holds at every step
        i = bisect_right(cuts, start)
        n = len(cuts)
        out = []
        while i < n and cuts[i] < end:
            out.append((mk_interval(start, cuts[i]), values[i]))
            start = cuts[i]
            i += 1
        out.append((mk_interval(start, end), values[i]))
        return out


#: Types whose equal values always print alike: for dicts holding nothing
#: else, ``(labels, values, types)`` identifies the printed form exactly.
_EXACT_TYPES = frozenset({int, bool, str, type(None)})


def intern_values(pool: dict, labels: tuple, vals: tuple) -> dict[str, Any]:
    """The one shared ``dict(zip(labels, vals))`` in ``pool`` (a graph's own).

    Dicts are shared only when equal *and* printed alike, label order
    included: ``1``, ``1.0`` and ``True`` compare and hash equal but export
    differently, so the key carries each value's exact type — and is looked
    up before the dict is built, which on a hit it never is.  That settles
    ``int`` / ``bool`` / ``str`` / ``None``; floats (``0.0 == -0.0``) and
    containers (``(1,) == (1.0,)``) can still be equal, alike in type and
    printed differently, so a dict holding one is keyed by its ``repr``.
    A dict holding an unhashable value is returned unshared.
    """
    types = tuple(map(type, vals))
    if _EXACT_TYPES.issuperset(types):
        key = (labels, vals, types)
        values = pool.get(key)
        if values is None:
            values = pool.setdefault(key, dict(zip(labels, vals)))
        return values
    values = dict(zip(labels, vals))
    try:
        return pool.setdefault((repr(values), vals), values)
    except TypeError:
        return values


#: Every :meth:`PropertySet.add` in the process.  A set does not know the
#: graph it belongs to (``reversed()`` shares sets between two), so
#: :attr:`TemporalGraph.generation <repro.graph.model.TemporalGraph.generation>`
#: reads this count beside its own.  (A module global: bumping a class
#: attribute would invalidate the type's attribute caches on every add.)
ADDS = 0


class PropertySet:
    """Label → timeline mapping attached to a vertex or an edge."""

    __slots__ = ("_timelines", "_index")

    def __init__(self) -> None:
        self._timelines: dict[str, PropertyTimeline] = {}
        self._index: Optional[PieceIndex] = None

    def add(self, label: str, interval: Interval, value: Any) -> None:
        timeline = self._timelines.get(label)
        if timeline is None:
            timeline = self._timelines[label] = PropertyTimeline()
        timeline.add(interval, value)
        self._index = None
        global ADDS
        ADDS += 1

    def piece_index(self, pool: Optional[dict] = None) -> PieceIndex:
        """This set's :class:`PieceIndex`, built on first use and kept until
        the next :meth:`add`.  Graphs pass their ``pool`` so equal values
        dicts are shared across edges; a set indexed on its own shares them
        only within itself.  Sets shared between graphs (``reversed()``)
        share the index.  Published by one assignment, fully built."""
        index = self._index
        if index is None:
            if pool is None:
                pool = {}
            # One forward sweep: every entry's start and end is a cut, so
            # a cursor per label — never moving back — finds the entry (if
            # any) that holds at each cut.  Same dicts, label order included,
            # as ``values_at`` at every ``boundaries()`` point.
            runs = [(label, tl._entries) for label, tl in self._timelines.items()]
            bounds: set[int] = set()
            for _, entries in runs:
                for iv, _ in entries:
                    bounds.add(iv.start)
                    bounds.add(iv.end)
            cuts = tuple(sorted(bounds))
            cursors = [0] * len(runs)
            values = [intern_values(pool, (), ())]
            for t in cuts:
                labels = []
                vals = []
                for k, (label, entries) in enumerate(runs):
                    i = cursors[k]
                    while i < len(entries) and entries[i][0].end <= t:
                        i += 1
                    cursors[k] = i
                    if i < len(entries):
                        iv, value = entries[i]
                        if iv.start <= t and value is not None:
                            labels.append(label)
                            vals.append(value)
                values.append(intern_values(pool, tuple(labels), tuple(vals)))
            index = self._index = PieceIndex(cuts, tuple(values))
        return index

    def clipped(self, window: Interval) -> "PropertySet":
        """A new set holding every entry's intersection with ``window``;
        labels with no entry inside it disappear, label order is kept."""
        out = PropertySet()
        for label, timeline in self._timelines.items():
            for iv, value in timeline:
                common = iv.intersect(window)
                if common is not None:
                    out.add(label, common, value)
        return out

    def __getstate__(self) -> tuple:
        return (self._timelines,)  # the index is rebuilt where it is needed

    def __setstate__(self, state: tuple) -> None:
        self._timelines, = state
        self._index = None

    def timeline(self, label: str) -> Optional[PropertyTimeline]:
        return self._timelines.get(label)

    def value_at(self, label: str, t: int) -> Optional[Any]:
        tl = self._timelines.get(label)
        return tl.value_at(t) if tl is not None else None

    def labels(self) -> list[str]:
        return sorted(self._timelines)

    def boundaries(self) -> list[int]:
        """Union of change points across every label's timeline."""
        bounds: set[int] = set()
        for tl in self._timelines.values():
            bounds.update(tl.boundaries())
        return sorted(bounds)

    def values_at(self, t: int) -> dict[str, Any]:
        """Snapshot of all labels that have a value at ``t``."""
        out: dict[str, Any] = {}
        for label, tl in self._timelines.items():
            val = tl.value_at(t)
            if val is not None:
                out[label] = val
        return out

    def __len__(self) -> int:
        return len(self._timelines)

    def __contains__(self, label: str) -> bool:
        return label in self._timelines

    def __iter__(self) -> Iterator[str]:
        return iter(self._timelines)

    def total_entries(self) -> int:
        return sum(len(tl) for tl in self._timelines.values())
