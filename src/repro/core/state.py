"""Dynamically partitioned vertex state (paper Sec. IV-A1).

A vertex's dynamic state is a set of ``(interval, value)`` partitions that
*exactly* cover the vertex's lifespan with no overlaps:

    ``S(τ) = {⟨τ_i, s_i⟩}`` with ``t¹_s = t_s``, ``tⁿ_e = t_e`` and
    ``tʲ_e = tʲ⁺¹_s`` for consecutive partitions.

States are *dynamically repartitioned* when a sub-interval is updated: the
covering partitions are split at the update boundaries and the new value is
written into the interior.  Splitting a partition while replicating its value
is always semantics-preserving, and so is the reverse (coalescing adjacent
equal-valued partitions) — the engine relies on coalescing to keep future
warp outputs maximal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, Optional

from .interval import Interval


class PartitionedState:
    """Interval-partitioned value store covering a fixed lifespan.

    Parameters
    ----------
    lifespan:
        Static lifespan ``τ`` of the owning vertex.  All reads and writes
        must fall within it.
    initial:
        Value assigned to the single initial partition spanning the whole
        lifespan.
    coalesce:
        When true (default), adjacent partitions whose values compare equal
        are merged after every update.  This keeps the partition count — and
        hence the number of downstream ``compute``/``scatter`` calls —
        minimal, which is where ICM's compute sharing comes from.
    """

    __slots__ = ("lifespan", "_starts", "_ends", "_values", "_coalesce")

    def __init__(self, lifespan: Interval, initial: Any = None, *, coalesce: bool = True):
        self.lifespan = lifespan
        self._starts: list[int] = [lifespan.start]
        self._ends: list[int] = [lifespan.end]
        self._values: list[Any] = [initial]
        self._coalesce = coalesce

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of partitions currently covering the lifespan."""
        return len(self._starts)

    def __iter__(self) -> Iterator[tuple[Interval, Any]]:
        for s, e, v in zip(self._starts, self._ends, self._values):
            yield Interval(s, e), v

    def partitions(self) -> list[tuple[Interval, Any]]:
        """All partitions as a sorted ``(interval, value)`` list."""
        return list(self)

    def value_at(self, t: int) -> Any:
        """Value of the partition covering time-point ``t``."""
        if not self.lifespan.contains_point(t):
            raise ValueError(f"time-point {t} outside lifespan {self.lifespan}")
        return self._values[bisect_right(self._starts, t) - 1]

    def slices(self, window: Interval) -> list[tuple[Interval, Any]]:
        """Partitions overlapping ``window``, clipped to it.

        The result is itself a temporally partitioned cover of
        ``window ∩ lifespan``.
        """
        mk_interval = Interval._unchecked  # slice_rows guarantees s < e
        return [(mk_interval(s, e), v) for s, e, v in self.slice_rows(window)]

    def slice_rows(self, window: Interval) -> list[tuple[int, int, Any]]:
        """:meth:`slices` as plain ``(start, end, value)`` rows, read straight
        off the columns — the shape the engine's scatter loop walks."""
        out: list[tuple[int, int, Any]] = []
        lo = max(window.start, self.lifespan.start)
        hi = min(window.end, self.lifespan.end)
        if lo >= hi:
            return out
        starts, ends, values = self._starts, self._ends, self._values
        idx = bisect_right(starts, lo) - 1
        n = len(starts)
        while idx < n and starts[idx] < hi:
            # The partitions tile [lo, hi), so every clip has s < e.
            s = starts[idx]
            e = ends[idx]
            out.append((s if s > lo else lo, e if e < hi else hi, values[idx]))
            idx += 1
        return out

    def distinct_values(self) -> list[Any]:
        """Values in partition order (possibly with repeats across gaps)."""
        return list(self._values)

    # -- updates -----------------------------------------------------------

    def set(self, interval: Interval, value: Any) -> None:
        """Assign ``value`` to ``interval``, repartitioning as needed.

        Raises
        ------
        ValueError
            If ``interval`` is not within the lifespan.
        """
        start, end = interval.start, interval.end
        if start < self.lifespan.start or end > self.lifespan.end:
            raise ValueError(f"update {interval} outside lifespan {self.lifespan}")
        starts, ends, values = self._starts, self._ends, self._values
        # Partitions [first, last) are the ones the update touches.  Each
        # column is spliced once: (left remainder, new, right remainder),
        # less the remainders that are empty.
        first = bisect_right(starts, start) - 1
        last = bisect_left(starts, end, first)
        head, tail = starts[first] < start, end < ends[last - 1]
        if head or tail or last - first > 1:
            keep = slice(not head, 2 + tail)
            values[first:last] = (values[first], value, values[last - 1])[keep]
            ends[first:last] = (start, end, ends[last - 1])[keep]
            starts[first:last] = (starts[first], start, end)[keep]
        else:
            values[first] = value  # the update is exactly one partition
        if self._coalesce:
            self._coalesce_around(first + head)

    def set_many(self, items: Iterable[tuple[Interval, Any]]) -> None:
        """Assign many ``(interval, value)`` updates in one repartitioning.

        Pointwise-equivalent to calling :meth:`set` once per item in order
        (later items win where intervals overlap), but the partition arrays
        are rebuilt in a single merge pass — no repeated ``list.insert`` —
        so a batch of ``u`` updates over ``n`` partitions costs
        ``O(u log u + n + u)`` instead of ``O(u · n)``.

        Raises
        ------
        ValueError
            If any interval is not within the lifespan (the state is left
            unmodified).
        """
        updates = list(items)
        if not updates:
            return
        if len(updates) == 1:
            interval, value = updates[0]
            self.set(interval, value)
            return
        for interval, _ in updates:
            if not interval.within(self.lifespan):
                raise ValueError(
                    f"update {interval} outside lifespan {self.lifespan}"
                )
        # Overlay pass: cut the updates into elementary segments and let
        # the *last* update covering each segment win, exactly as a
        # sequence of set() calls would.
        bound_set: set[int] = set()
        for interval, _ in updates:
            bound_set.add(interval.start)
            bound_set.add(interval.end)
        cuts = sorted(bound_set)
        pos = {t: i for i, t in enumerate(cuts)}
        n_segs = len(cuts) - 1
        seg_src = [-1] * n_segs  # index of the winning update, -1 = untouched
        for u, (interval, _) in enumerate(updates):
            for k in range(pos[interval.start], pos[interval.end]):
                seg_src[k] = u
        # Collapse segments written by the same winning update into runs:
        # one set() call produces one partition, however it was cut.
        runs: list[tuple[int, int, Any]] = []
        k = 0
        while k < n_segs:
            src = seg_src[k]
            if src < 0:
                k += 1
                continue
            j = k
            while j + 1 < n_segs and seg_src[j + 1] == src:
                j += 1
            runs.append((cuts[k], cuts[j + 1], updates[src][1]))
            k = j + 1
        # Rebuild pass: merge surviving fragments of the old partitions
        # with the overlay runs, coalescing on the fly when enabled.
        starts = self._starts
        ends = self._ends
        values = self._values
        new_starts: list[int] = []
        new_ends: list[int] = []
        new_values: list[Any] = []

        def emit(s: int, e: int, v: Any) -> None:
            if (
                self._coalesce
                and new_values
                and new_ends[-1] == s
                and new_values[-1] == v
            ):
                new_ends[-1] = e
            else:
                new_starts.append(s)
                new_ends.append(e)
                new_values.append(v)

        oi = 0
        cursor = self.lifespan.start
        for run_start, run_end, run_value in (
            *runs,
            (self.lifespan.end, self.lifespan.end, None),
        ):
            while cursor < run_start:
                while ends[oi] <= cursor:
                    oi += 1
                frag_end = min(ends[oi], run_start)
                emit(cursor, frag_end, values[oi])
                cursor = frag_end
            if run_start < run_end:
                emit(run_start, run_end, run_value)
                cursor = run_end
        self._starts = new_starts
        self._ends = new_ends
        self._values = new_values

    def update(
        self, interval: Interval, fn: Callable[[Interval, Any], Any]
    ) -> None:
        """Apply ``fn(sub_interval, old_value)`` to every covered slice.

        ``fn`` always observes the values as they were before the update;
        the writes are applied as one batch through :meth:`set_many`.
        """
        self.set_many((sub, fn(sub, old)) for sub, old in self.slices(interval))

    def fill(self, value: Any) -> None:
        """Reset to a single partition spanning the lifespan."""
        self._starts = [self.lifespan.start]
        self._ends = [self.lifespan.end]
        self._values = [value]

    def presplit(self, boundaries: Iterable[int]) -> None:
        """Introduce partition boundaries at every *interior* time-point.

        Values are replicated across the splits, so this is always
        semantics-preserving.  All splits are applied in one array rebuild
        (one ``list.insert`` per boundary would grow quadratically with
        their number).  Points outside the
        open interior of the lifespan are ignored.
        """
        interior = sorted(
            {
                t
                for t in boundaries
                if self.lifespan.start < t < self.lifespan.end
            }
        )
        if not interior:
            return
        new_starts: list[int] = []
        new_ends: list[int] = []
        new_values: list[Any] = []
        pi = 0
        n_pts = len(interior)
        for s, e, v in zip(self._starts, self._ends, self._values):
            cursor = s
            while pi < n_pts and interior[pi] < e:
                t = interior[pi]
                pi += 1
                if t > cursor:
                    new_starts.append(cursor)
                    new_ends.append(t)
                    new_values.append(v)
                    cursor = t
            new_starts.append(cursor)
            new_ends.append(e)
            new_values.append(v)
        self._starts = new_starts
        self._ends = new_ends
        self._values = new_values

    # -- snapshot form -----------------------------------------------------

    def parts(self) -> tuple[Interval, list[int], list[Any]]:
        """Stable snapshot form: ``(lifespan, end boundaries, values)``.

        Partitions contiguously cover the lifespan, so the start points are
        redundant: ``starts[0] == lifespan.start`` and
        ``starts[i+1] == ends[i]``.  The checkpoint shard codec
        (`repro.runtime.checkpoint`) persists exactly this triple —
        restoring it via :meth:`from_parts` reproduces the partitioning
        bit-for-bit, including splits a coalescing pass would merge.
        """
        return self.lifespan, list(self._ends), list(self._values)

    @classmethod
    def from_parts(
        cls,
        lifespan: Interval,
        ends: list[int],
        values: list[Any],
        *,
        coalesce: bool = True,
    ) -> "PartitionedState":
        """Rebuild a state from its :meth:`parts` snapshot, verbatim.

        No re-coalescing happens here — the snapshot's partition boundaries
        are restored exactly (``coalesce`` only governs *future* updates),
        which is what makes a resumed run behave identically to the run
        that wrote the snapshot.
        """
        if not ends or len(ends) != len(values):
            raise ValueError("malformed state snapshot: empty or mismatched parts")
        if ends[-1] != lifespan.end:
            raise ValueError(
                f"state snapshot does not cover lifespan {lifespan}: ends at {ends[-1]}"
            )
        state = cls(lifespan, None, coalesce=coalesce)
        state._starts = [lifespan.start, *ends[:-1]]
        state._ends = list(ends)
        state._values = list(values)
        state.check_invariants()
        return state

    # -- maintenance -------------------------------------------------------

    def copy(self) -> "PartitionedState":
        """An independent deep-enough copy (partitions are duplicated)."""
        clone = PartitionedState(self.lifespan, None, coalesce=self._coalesce)
        clone._starts = list(self._starts)
        clone._ends = list(self._ends)
        clone._values = list(self._values)
        return clone

    def check_invariants(self) -> None:
        """Assert full lifespan coverage with contiguous, ordered partitions.

        Used by the test-suite; cheap enough to call in debug paths.
        """
        assert self._starts[0] == self.lifespan.start
        assert self._ends[-1] == self.lifespan.end
        for i in range(len(self._starts)):
            assert self._starts[i] < self._ends[i]
            if i + 1 < len(self._starts):
                assert self._ends[i] == self._starts[i + 1]

    # -- internals ---------------------------------------------------------

    def _coalesce_around(self, idx: int) -> None:
        """Merge partition ``idx`` with equal-valued neighbours."""
        # Merge with successor first so idx stays valid.
        if idx + 1 < len(self._values) and self._values[idx] == self._values[idx + 1]:
            self._ends[idx] = self._ends[idx + 1]
            del self._starts[idx + 1], self._ends[idx + 1], self._values[idx + 1]
        if idx > 0 and self._values[idx - 1] == self._values[idx]:
            self._ends[idx - 1] = self._ends[idx]
            del self._starts[idx], self._ends[idx], self._values[idx]

    def __repr__(self) -> str:
        parts = ", ".join(f"{iv}={v!r}" for iv, v in self)
        return f"PartitionedState({parts})"


def states_equal_pointwise(
    a: PartitionedState, b: PartitionedState, *, eq: Optional[Callable[[Any, Any], bool]] = None
) -> bool:
    """True when two states agree at every time-point of their lifespans.

    Partitionings may differ (splitting replicates values), so comparison is
    over the *pointwise* function, computed by aligning partition boundaries.
    """
    if a.lifespan != b.lifespan:
        return False
    same = eq or (lambda x, y: x == y)
    ai = iter(a)
    bi = iter(b)
    iv_a, v_a = next(ai)
    iv_b, v_b = next(bi)
    while True:
        if not same(v_a, v_b):
            return False
        if iv_a.end == iv_b.end:
            try:
                iv_a, v_a = next(ai)
                iv_b, v_b = next(bi)
            except StopIteration:
                return True
        elif iv_a.end < iv_b.end:
            iv_a, v_a = next(ai)
        else:
            iv_b, v_b = next(bi)
