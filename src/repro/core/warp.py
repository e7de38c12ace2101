"""The time-join and time-warp operators (paper Sec. IV-B).

``time_join`` is the valid-time natural join of Soo, Snodgrass & Jensen
(ICDE 1994): it pairs every value from the outer set with every value of the
inner set whose interval overlaps, over their intersection.

``time_warp`` is the paper's contribution.  Given a *temporally partitioned*
outer set (a vertex's partitioned states) and an inner set (its inbound
interval messages), it emits boundary-aligned triples
``(interval, outer_value, [inner values...])`` that satisfy four properties:

1. **Valid inclusion** — every overlapping (state, message) pair appears in
   some output triple for every shared time-point.
2. **No invalid inclusion** — output triples only combine values that both
   exist at every point of the output interval.
3. **No duplication** — an outer value at a time-point appears in at most
   one output triple.
4. **Maximal** — adjacent or overlapping triples with equal outer value and
   equal message group are merged, so the downstream user logic is invoked
   the minimal number of times.

The implementation is a *single* plane sweep over the global boundary set of
both inputs, the in-memory analogue of the merge-sort temporal aggregation
the paper cites (Moon et al., ICDE 2000).  The active message set is kept in
an insertion-ordered map with an end-ordered expiry heap, so no partition
ever rescans messages that cannot overlap it, and maximal merging happens
on the fly: ``O((n + m) log(n + m) + k)`` for ``n`` states, ``m`` messages
and output size ``k`` — with no per-partition re-filtering.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional, Sequence

from .interval import Interval
from .messages import row_interval

#: An ``(interval, value)`` pair; states, messages and edge pieces all
#: project onto this shape before warping.
IntervalValue = tuple[Interval, Any]

#: Output triple of :func:`time_warp`.
WarpTriple = tuple[Interval, Any, list[Any]]

_SENTINEL = object()


def time_join(
    outer: Sequence[IntervalValue], inner: Sequence[IntervalValue]
) -> list[tuple[Interval, Any, Any]]:
    """Valid-time natural join: one output triple per overlapping pair.

    Output triples carry the intersection interval and both values, ordered
    by outer-interval position (inner values in start order within each
    outer).  Neither input needs to be partitioned, but both are treated as
    sets of independent interval-values.

    Inner items are admitted once in start order and retired through an
    end-ordered heap, so the per-outer work is proportional to the number
    of *live* inner items, never the admitted total.
    """
    out: list[tuple[Interval, Any, Any]] = []
    outer_sorted = sorted(outer, key=_start_key)
    inner_sorted = sorted(inner, key=_start_key)
    n_inner = len(inner_sorted)
    #: seq → (interval, value); insertion order is admission (start) order.
    active: dict[int, IntervalValue] = {}
    ends: list[tuple[int, int]] = []  # (end, seq) expiry heap
    idx = 0
    seq = 0
    for o_iv, o_val in outer_sorted:
        # Admit inner items that start before this outer item ends.
        while idx < n_inner and inner_sorted[idx][0].start < o_iv.end:
            item = inner_sorted[idx]
            idx += 1
            # Outer items are sorted by start: an inner item already over
            # can never overlap this or any later outer item.
            if item[0].end > o_iv.start:
                active[seq] = item
                heappush(ends, (item[0].end, seq))
                seq += 1
        # Retire inner items that can no longer overlap any later outer.
        while ends and ends[0][0] <= o_iv.start:
            del active[heappop(ends)[1]]
        for m_iv, m_val in active.values():
            common = o_iv.intersect(m_iv)
            if common is not None:
                out.append((common, o_val, m_val))
    return out


def time_warp(
    outer: Sequence[IntervalValue],
    inner: Sequence[IntervalValue],
    combine: Optional[Callable[[Any, Any], Any]] = None,
) -> list[WarpTriple]:
    """Warp ``inner`` values onto the partitions of ``outer``.

    Parameters
    ----------
    outer:
        Temporally partitioned (sorted, non-overlapping) interval-values —
        typically a vertex's :class:`~repro.core.state.PartitionedState`
        partitions.
    inner:
        Arbitrary interval-values — typically inbound messages.
    combine:
        Optional associative, commutative fold applied inline ("warp
        combiner", paper Sec. VI).  When given, each output triple carries a
        single-element list ``[folded_value]`` instead of the full group,
        computed in the same pass as the grouping.

    Returns
    -------
    list of ``(interval, outer_value, inner_values)`` triples sorted by
    interval, satisfying the four warp properties.  Triples with an empty
    inner group are omitted, matching the formal definition (``M_r ≠ ∅``).
    """
    if not outer or not inner:
        return []
    outer_sorted = sorted(outer, key=_start_key)
    return warp_rows(
        [iv.start for iv, _ in outer_sorted],
        [iv.end for iv, _ in outer_sorted],
        [val for _, val in outer_sorted],
        [(iv.start, iv.end, val) for iv, val in inner],
        combine,
    )


def warp_rows(
    outer_starts: Sequence[int],
    outer_ends: Sequence[int],
    outer_vals: Sequence[Any],
    inner: Sequence[tuple[int, int, Any]],
    combine: Optional[Callable[[Any, Any], Any]] = None,
) -> list[WarpTriple]:
    """The sweep behind :func:`time_warp`, on the engine's own shapes.

    The outer set arrives as three parallel columns, sorted and
    non-overlapping — a :class:`~repro.core.state.PartitionedState`'s own
    ``_starts`` / ``_ends`` / ``_values``, which the sweep only reads; the
    inner set as ``(start, end, value)`` rows in any order.  The returned
    list is complete before the caller sees any of it, so ``compute`` may
    repartition the state whose columns were swept.

    A single inner row (three engine calls in four) needs no sweep: every
    group is that row's value, so the triples are the partitions it
    overlaps, clipped, equal-valued neighbours merged — the sweep's answer.
    """
    if not inner:
        return []
    mk_interval = Interval._unchecked  # both paths guarantee 0 <= lo < hi
    if len(inner) == 1:
        start, end, value = inner[0]
        idx = bisect_right(outer_starts, start) - 1
        if idx < 0 or outer_ends[idx] <= start:
            idx += 1  # ``start`` falls before the first partition or in a gap
        runs: list[list] = []  # [lo, hi, outer value], neighbours merged
        for idx in range(idx, len(outer_starts)):
            lo = outer_starts[idx]
            if lo >= end:
                break
            val = outer_vals[idx]
            if runs and runs[-1][1] == lo and _values_equal(runs[-1][2], val):
                runs[-1][1] = outer_ends[idx]
            else:
                runs.append([lo if lo > start else start, outer_ends[idx], val])
        return [
            (mk_interval(lo, hi if hi < end else end), val, [value])
            for lo, hi, val in runs
        ]
    inner_sorted = sorted(inner, key=row_interval)
    # Column projections: the admission/retirement loops below run once per
    # elementary segment, so pulling the fields out of the rows up front
    # trades one linear pass for tens of thousands of tuple reads in the
    # hot loop.
    inner_starts = [row[0] for row in inner_sorted]
    inner_ends = [row[1] for row in inner_sorted]
    inner_vals = [row[2] for row in inner_sorted]

    # Global boundary sweep: one sorted pass over every distinct start/end
    # of both inputs.  Elementary segments lie between consecutive bounds.
    bound_set = set(outer_starts)
    bound_set.update(outer_ends, inner_starts, inner_ends)
    bounds = sorted(bound_set)

    n_inner = len(inner_sorted)
    n_outer = len(outer_starts)
    #: seq → value of a live message; insertion order is start order, which
    #: keeps emitted group order identical to the historical per-partition
    #: implementation.
    active: dict[int, Any] = {}
    ends: list[tuple[int, int]] = []  # (end, seq) expiry heap
    i_idx = 0
    o_idx = 0
    seq = 0
    push = heappush
    pop = heappop

    triples: list[WarpTriple] = []
    # Current-segment caches, rebuilt only when the active set has changed
    # since they were last computed ("dirty"), even across skipped gaps.
    cur_group: Optional[list[Any]] = None
    folded: Any = _SENTINEL
    fold_count = 0
    dirty = True
    # Incremental multiset signature of the active values: a commutative
    # hash sum maintained per admit/retire.  Unequal signatures prove the
    # groups differ, skipping the full multiset compare in the (common)
    # dense case where every segment's group is new.  Values must hash
    # consistently for this to be sound (equal values → equal hashes, the
    # Python contract); unhashable values disable the shortcut.
    sig_ok = True
    cur_sig = 0
    run_sig = 0
    # Bookkeeping for on-the-fly maximal merging.  The pending maximal run
    # is held in ``run_*`` and flushed as a triple only when it breaks, so
    # Interval objects are built once per *output* triple, not once per
    # elementary segment.  ``stable_since_emit`` is the cheap merge path:
    # when the active set has not changed since the last emitted segment,
    # the groups are identical by construction and no compare is needed.
    stable_since_emit = False
    run_start = -1  # -1 → no pending run
    run_hi = -1
    run_val: Any = _SENTINEL
    run_group: Optional[list[Any]] = None
    last_fold: Any = _SENTINEL
    last_count = -1

    for k in range(len(bounds) - 1):
        lo = bounds[k]
        # Admit messages starting at this boundary (every message start is
        # itself a boundary, so admission is exact).
        while i_idx < n_inner and inner_starts[i_idx] <= lo:
            m_end = inner_ends[i_idx]
            if m_end > lo:
                val = inner_vals[i_idx]
                active[seq] = val
                push(ends, (m_end, seq))
                seq += 1
                dirty = True
                stable_since_emit = False
                if sig_ok:
                    try:
                        cur_sig += hash(val)
                    except TypeError:
                        sig_ok = False
            i_idx += 1
        # Retire messages that ended at or before this boundary.
        while ends and ends[0][0] <= lo:
            gone = pop(ends)[1]
            if sig_ok:
                cur_sig -= hash(active[gone])
            del active[gone]
            dirty = True
            stable_since_emit = False
        if not active:
            continue
        # Advance to the outer partition covering lo (partitions are
        # non-overlapping and sorted, so this pointer only moves forward).
        while o_idx < n_outer and outer_ends[o_idx] <= lo:
            o_idx += 1
        if o_idx >= n_outer:
            break
        if outer_starts[o_idx] > lo:
            continue  # gap between outer partitions
        o_val = outer_vals[o_idx]
        hi = bounds[k + 1]

        contiguous = run_hi == lo and _values_equal(run_val, o_val)
        if combine is None:
            if dirty or cur_group is None:
                cur_group = list(active.values())
                dirty = False
            if contiguous and (
                stable_since_emit
                or (
                    (not sig_ok or cur_sig == run_sig)
                    and _groups_equal(run_group, cur_group)
                )
            ):
                run_hi = hi
            else:
                if run_start >= 0:
                    triples.append(
                        (mk_interval(run_start, run_hi), run_val, run_group)
                    )
                run_start = lo
                run_hi = hi
                run_val = o_val
                run_group = cur_group
        else:
            if dirty or folded is _SENTINEL:
                folded = _SENTINEL
                fold_count = 0
                for val in active.values():
                    folded = val if folded is _SENTINEL else combine(folded, val)
                    fold_count += 1
                dirty = False
            if contiguous and (
                stable_since_emit
                or (last_count == fold_count and _values_equal(last_fold, folded))
            ):
                run_hi = hi
            else:
                if run_start >= 0:
                    triples.append(
                        (mk_interval(run_start, run_hi), run_val, run_group)
                    )
                run_start = lo
                run_hi = hi
                run_val = o_val
                run_group = [folded]
                last_fold = folded
                last_count = fold_count
        run_sig = cur_sig
        stable_since_emit = True
    if run_start >= 0:
        triples.append((mk_interval(run_start, run_hi), run_val, run_group))
    return triples


def warp_boundaries(
    partition: Interval, items: Iterable[IntervalValue]
) -> list[int]:
    """Distinct, sorted boundary time-points of ``items`` clipped to
    ``partition``, including the partition's own endpoints.

    Exposed for tests and for the engine's suppression heuristics.
    """
    bounds = {partition.start, partition.end}
    for iv, _ in items:
        if iv.overlaps(partition):
            bounds.add(max(iv.start, partition.start))
            bounds.add(min(iv.end, partition.end))
    return sorted(bounds)


# -- internals --------------------------------------------------------------


def _start_key(item: IntervalValue) -> tuple[int, int]:
    return item[0].start, item[0].end


def _values_equal(a: Any, b: Any) -> bool:
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


def _groups_equal(a: list[Any], b: list[Any]) -> bool:
    """Multiset equality: hash when possible, sort when orderable, and the
    quadratic pairwise match only as a last resort for values that are
    neither hashable nor comparable."""
    if len(a) != len(b):
        return False
    if a is b:
        return True
    try:
        return Counter(a) == Counter(b)
    except TypeError:
        pass
    try:
        return sorted(a) == sorted(b)
    except TypeError:
        pass
    return _groups_equal_quadratic(a, b)


def _groups_equal_quadratic(a: list[Any], b: list[Any]) -> bool:
    """O(n²) multiset equality over possibly unhashable, unorderable values."""
    remaining = list(b)
    for item in a:
        for j, other in enumerate(remaining):
            if _values_equal(item, other):
                del remaining[j]
                break
        else:
            return False
    return True
