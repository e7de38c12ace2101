"""Discrete time domain and half-open time-intervals.

The paper (Sec. III) assumes a linearly ordered discrete time domain whose
range is the set of non-negative whole numbers.  An interval
``[t_start, t_end)`` includes ``t_start`` and excludes ``t_end``.

Open-ended intervals ("till infinity") are represented with the integer
sentinel :data:`FOREVER` so that every time-point stays an ``int`` and the
wire encoding (``repro.runtime.encoding``) remains uniform.

Boolean relations between intervals follow Allen's conventions (Allen,
CACM 1983), using the subset the paper relies on:

========  =====================  ==========================
paper     method                 meaning
========  =====================  ==========================
``⊏``     :meth:`Interval.during`        strictly during
``⊑``     :meth:`Interval.within`        during or equals
``≬``     :meth:`Interval.overlaps`      intersects
``=``     ``==``                         equals
``⋈``     :meth:`Interval.meets`         meets (end == other start)
``∩``     :meth:`Interval.intersect`     intersecting interval
========  =====================  ==========================
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

#: Sentinel for an open-ended interval.  Chosen large enough that no real
#: time-point ever reaches it, yet still an ``int`` so arithmetic and
#: serialisation stay uniform.
FOREVER: int = 2**62


def clamp_time(t: int) -> int:
    """Clamp a time-point into the valid domain ``[0, FOREVER]``."""
    if t < 0:
        return 0
    if t > FOREVER:
        return FOREVER
    return t


def format_time(t: int) -> str:
    """Render a time-point, using ``inf`` for the open-ended sentinel."""
    return "inf" if t >= FOREVER else str(t)


# Bound once: the constructors below run on the per-message path.
_new = object.__new__
_set = object.__setattr__


class Interval:
    """A half-open, immutable time-interval ``[start, end)`` over ints.

    Instances are ordered lexicographically by ``(start, end)`` which makes
    sorted containers of non-overlapping intervals well ordered in time.

    Raises
    ------
    ValueError
        If ``start >= end`` (empty intervals are not constructible) or if
        ``start < 0``.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int = FOREVER):
        if start < 0:
            raise ValueError(f"interval start must be >= 0, got {start}")
        if start >= end:
            raise ValueError(f"empty interval [{start}, {end})")
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "end", int(end))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Interval is immutable")

    def __reduce__(self):
        # __slots__ plus the immutability guard defeat default pickling
        # (state restore goes through __setattr__); rebuild via the
        # constructor so intervals can cross worker-process pipes.
        return (Interval, (self.start, self.end))

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, t: int) -> "Interval":
        """The unit-length interval ``[t, t+1)`` covering one time-point."""
        return cls(t, t + 1)

    @classmethod
    def always(cls) -> "Interval":
        """The whole time domain ``[0, FOREVER)``."""
        return cls(0, FOREVER)

    @classmethod
    def _unchecked(cls, start: int, end: int) -> "Interval":
        """Construct without validation.  For hot paths (the warp sweep,
        the scatter merge-join) whose loop invariants already guarantee
        ``0 <= start < end`` over ints; everything else must use the
        validating constructor."""
        iv = _new(cls)
        _set(iv, "start", start)
        _set(iv, "end", end)
        return iv

    # -- basic queries -----------------------------------------------------

    @property
    def length(self) -> int:
        """Number of time-points in the interval (``FOREVER`` if unbounded)."""
        if self.end >= FOREVER:
            return FOREVER
        return self.end - self.start

    @property
    def is_unit(self) -> bool:
        """True if the interval covers exactly one time-point."""
        return self.end - self.start == 1

    @property
    def is_unbounded(self) -> bool:
        """True if the interval extends to :data:`FOREVER`."""
        return self.end >= FOREVER

    def contains_point(self, t: int) -> bool:
        """True if time-point ``t`` lies in the interval."""
        return self.start <= t < self.end

    def points(self) -> Iterator[int]:
        """Iterate the time-points of a *bounded* interval."""
        if self.is_unbounded:
            raise ValueError("cannot enumerate points of an unbounded interval")
        return iter(range(self.start, self.end))

    # -- Allen relations ---------------------------------------------------

    def overlaps(self, other: "Interval") -> bool:
        """Intersects (``≬``): the two intervals share at least one point."""
        return self.start < other.end and other.start < self.end

    def during(self, other: "Interval") -> bool:
        """Strictly during (``⊏``): proper sub-interval of ``other``."""
        return self.within(other) and self != other

    def within(self, other: "Interval") -> bool:
        """During or equals (``⊑``): every point of self lies in ``other``."""
        return other.start <= self.start and self.end <= other.end

    def contains(self, other: "Interval") -> bool:
        """Inverse of :meth:`within`."""
        return other.within(self)

    def meets(self, other: "Interval") -> bool:
        """Meets (``⋈``): self ends exactly where ``other`` starts."""
        return self.end == other.start

    def precedes(self, other: "Interval") -> bool:
        """Self ends at or before ``other`` starts (disjoint, earlier)."""
        return self.end <= other.start

    # -- constructive operators -------------------------------------------

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Intersecting interval (``∩``), or ``None`` when disjoint."""
        start = self.start if self.start > other.start else other.start
        end = self.end if self.end < other.end else other.end
        if start >= end:
            return None
        return Interval._unchecked(start, end)  # operands are valid; start < end

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def shift(self, delta: int) -> "Interval":
        """Translate by ``delta`` time units, clamping into the domain."""
        if self.is_unbounded:
            return Interval(clamp_time(self.start + delta), FOREVER)
        return Interval(clamp_time(self.start + delta), clamp_time(self.end + delta))

    def clip(self, other: "Interval") -> Optional["Interval"]:
        """Alias of :meth:`intersect` (reads better at call sites)."""
        return self.intersect(other)

    def split_at(self, t: int) -> tuple["Interval", "Interval"]:
        """Split into ``[start, t)`` and ``[t, end)``; ``t`` must be interior."""
        if not (self.start < t < self.end):
            raise ValueError(f"split point {t} not interior to {self}")
        return Interval(self.start, t), Interval(t, self.end)

    # -- dunder protocol ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and self.start == other.start
            and self.end == other.end
        )

    def __lt__(self, other: "Interval") -> bool:
        return (self.start, self.end) < (other.start, other.end)

    def __le__(self, other: "Interval") -> bool:
        return (self.start, self.end) <= (other.start, other.end)

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"[{format_time(self.start)}, {format_time(self.end)})"

    def __contains__(self, t: int) -> bool:
        return self.contains_point(t)


def coalesce(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge overlapping or adjacent intervals into a minimal sorted cover.

    >>> coalesce([Interval(4, 6), Interval(0, 2), Interval(2, 4)])
    [[0, 6)]
    """
    ordered = sorted(intervals)
    merged: list[Interval] = []
    for iv in ordered:
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = Interval._unchecked(merged[-1].start, iv.end)
        else:
            merged.append(iv)
    return merged


def total_span(intervals: Iterable[Interval]) -> int:
    """Cumulative number of time-points covered by a set of intervals."""
    return sum(iv.length for iv in coalesce(intervals))
