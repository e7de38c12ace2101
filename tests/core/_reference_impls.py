"""Reference (pre-optimisation) kernel implementations, kept as oracles.

These are the straightforward implementations the optimised kernels in
``repro.core.warp``, ``repro.core.engine`` and ``repro.core.state`` replaced:

* ``reference_time_warp`` / ``reference_time_join`` — the per-partition
  rescan versions (re-filter the active set per outer partition, rebuild
  the boundary set per partition, O(n²) multiset compare in the merge).
* ``reference_join_partitioned`` — the nested ``slices × pieces``
  intersect loop the engine's scatter phase used.
* ``reference_warp_rows`` — the plane sweep ``warp_rows`` ran for every
  inbox before a one-row inbox was answered by bisection; the oracle for
  that case (and the body production still runs for two rows or more).
* ``reference_split_at`` / ``reference_set`` / ``reference_set_sequence`` —
  ``PartitionedState.set`` as two boundary inserts followed by a slice
  assignment per column, before it became one splice; applied in sequence,
  the semantics ``set_many`` must reproduce.
* ``reference_payload_size`` — the recursive payload sizer.
* ``reference_out_degree_segments`` — the O(E·k) rescan of every out-edge
  per cut that ``VertexContext.out_degree_segments`` ran on every call.
* ``reference_edge_pieces`` — the body ``TemporalEdge.pieces`` ran on every
  call (re-derive the property boundaries, one ``values_at`` per piece)
  before edges sliced the graph-resident ``PieceIndex``.
* ``merge_join_partitioned`` / ``reference_scatter_pairing`` /
  ``_normalise_scatter`` — the engine's scatter phase before it became one
  fused loop: ``state.slices`` × ``PieceIndex.pieces`` paired by a linear
  merge-join (one throw-away tuple list each), every result dragged through
  a generator into an ``IntervalMessage``.
* ``reference_combine_dominated`` / ``reference_combine_identical_intervals``
  / ``reference_coalesce_messages`` / ``reference_should_suppress_warp`` —
  the message passes on ``IntervalMessage`` objects (``contains → within``
  method calls, ``intersect`` allocations, key lambdas) that the
  ``(start, end, value)`` row versions replaced.  ``rows_of`` /
  ``messages_of`` convert between the two shapes.

They are deliberately simple and obviously correct; Hypothesis tests in
``test_kernel_oracles.py`` assert the production kernels agree with them
pointwise, and ``benchmarks/bench_kernels.py`` times production against
them to report (and gate) the speedup.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.core.interval import FOREVER, Interval
from repro.core.messages import IntervalMessage
from repro.core.state import PartitionedState
from repro.runtime.encoding import varint_size

IntervalValue = tuple[Interval, Any]
WarpTriple = tuple[Interval, Any, list[Any]]

_SENTINEL = object()


def _start_key(item: IntervalValue) -> tuple[int, int]:
    return item[0].start, item[0].end


def reference_time_join(
    outer: Sequence[IntervalValue], inner: Sequence[IntervalValue]
) -> list[tuple[Interval, Any, Any]]:
    """Valid-time natural join, with the per-outer active-list rebuild."""
    out: list[tuple[Interval, Any, Any]] = []
    outer_sorted = sorted(outer, key=_start_key)
    inner_sorted = sorted(inner, key=_start_key)
    active: list[IntervalValue] = []
    idx = 0
    for o_iv, o_val in outer_sorted:
        while idx < len(inner_sorted) and inner_sorted[idx][0].start < o_iv.end:
            active.append(inner_sorted[idx])
            idx += 1
        if active:
            active = [item for item in active if item[0].end > o_iv.start]
        for m_iv, m_val in active:
            common = o_iv.intersect(m_iv)
            if common is not None:
                out.append((common, o_val, m_val))
    return out


def reference_time_warp(
    outer: Sequence[IntervalValue],
    inner: Sequence[IntervalValue],
    combine: Optional[Callable[[Any, Any], Any]] = None,
) -> list[WarpTriple]:
    """The per-partition rescan warp (worst-case quadratic)."""
    if not outer or not inner:
        return []
    triples: list[WarpTriple] = []
    inner_sorted = sorted(inner, key=_start_key)
    idx = 0
    active: list[IntervalValue] = []
    for o_iv, o_val in sorted(outer, key=_start_key):
        while idx < len(inner_sorted) and inner_sorted[idx][0].start < o_iv.end:
            active.append(inner_sorted[idx])
            idx += 1
        if active:
            active = [item for item in active if item[0].end > o_iv.start]
        if not active:
            continue
        _warp_one_partition(o_iv, o_val, active, combine, triples)
    return _merge_maximal(triples, combined=combine is not None)


def reference_warp_boundaries(
    partition: Interval, items: Iterable[IntervalValue]
) -> list[int]:
    bounds = {partition.start, partition.end}
    for iv, _ in items:
        if iv.overlaps(partition):
            bounds.add(max(iv.start, partition.start))
            bounds.add(min(iv.end, partition.end))
    return sorted(bounds)


def _warp_one_partition(
    o_iv: Interval,
    o_val: Any,
    candidates: list[IntervalValue],
    combine: Optional[Callable[[Any, Any], Any]],
    out: list[WarpTriple],
) -> None:
    overlapping = [item for item in candidates if item[0].overlaps(o_iv)]
    if not overlapping:
        return
    bounds = reference_warp_boundaries(o_iv, overlapping)
    for lo, hi in zip(bounds, bounds[1:]):
        if combine is None:
            group = [val for iv, val in overlapping if iv.start <= lo < iv.end]
            if group:
                out.append((Interval(lo, hi), o_val, group))
        else:
            folded: Any = _SENTINEL
            count = 0
            for iv, val in overlapping:
                if iv.start <= lo < iv.end:
                    folded = val if folded is _SENTINEL else combine(folded, val)
                    count += 1
            if count:
                out.append((Interval(lo, hi), o_val, [folded, count]))


def _merge_maximal(triples: list[WarpTriple], *, combined: bool) -> list[WarpTriple]:
    if not triples:
        return triples
    if combined:
        groups_equal = lambda a, b: (  # noqa: E731
            len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
        )
    else:
        groups_equal = _reference_groups_equal
    merged: list[WarpTriple] = [triples[0]]
    for iv, s, group in triples[1:]:
        last_iv, last_s, last_group = merged[-1]
        if (
            last_iv.end == iv.start
            and _values_equal(last_s, s)
            and groups_equal(last_group, group)
        ):
            merged[-1] = (Interval(last_iv.start, iv.end), last_s, last_group)
        else:
            merged.append((iv, s, group))
    if combined:
        merged = [(iv, s, [g[0]]) for iv, s, g in merged]
    return merged


def _values_equal(a: Any, b: Any) -> bool:
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


def _reference_groups_equal(a: list[Any], b: list[Any]) -> bool:
    """The quadratic multiset equality the sweep's compare replaced."""
    if len(a) != len(b):
        return False
    remaining = list(b)
    for item in a:
        for j, other in enumerate(remaining):
            if _values_equal(item, other):
                del remaining[j]
                break
        else:
            return False
    return True


def reference_warp_rows(
    outer_starts: Sequence[int],
    outer_ends: Sequence[int],
    outer_vals: Sequence[Any],
    inner: Sequence[tuple[int, int, Any]],
    combine: Optional[Callable[[Any, Any], Any]] = None,
) -> list[WarpTriple]:
    """``warp_rows`` as it was before the one-row case left the sweep: one
    plane sweep over every boundary of both inputs, whatever their size.
    Verbatim, except that the group compare is the retained quadratic one
    and rows are sorted with a local key — nothing here moves when the
    production kernel is tuned."""
    if not inner:
        return []
    inner_sorted = sorted(inner, key=lambda row: (row[0], row[1]))
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
    mk_interval = Interval
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
                    and _reference_groups_equal(run_group, cur_group)
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


def reference_join_partitioned(
    slices: Sequence[IntervalValue], pieces: Sequence[IntervalValue]
) -> list[tuple[Interval, Any, Any]]:
    """The engine's old scatter pairing: intersect every slice against
    every piece (both inputs are partitioned covers).

    The intersection is spelled out with the validating constructor rather
    than calling ``Interval.intersect``: the oracle must not move when that
    production method is tuned.
    """
    out: list[tuple[Interval, Any, Any]] = []
    for p_iv, p_val in pieces:
        for s_iv, s_val in slices:
            start = max(s_iv.start, p_iv.start)
            end = min(s_iv.end, p_iv.end)
            if start < end:
                out.append((Interval(start, end), s_val, p_val))
    return out


def reference_split_at(state: PartitionedState, t: int) -> int:
    """``PartitionedState._split_at`` as it was: ensure a partition boundary
    at ``t`` (one ``list.insert`` per column) and return its index —
    ``len(state)`` when ``t`` is the lifespan end."""
    if t == state.lifespan.end:
        return len(state._starts)
    idx = bisect_right(state._starts, t) - 1
    if state._starts[idx] == t:
        return idx
    state._starts.insert(idx + 1, t)
    state._ends.insert(idx + 1, state._ends[idx])
    state._values.insert(idx + 1, state._values[idx])
    state._ends[idx] = t
    return idx + 1


def reference_set(state: PartitionedState, interval: Interval, value: Any) -> None:
    """``PartitionedState.set`` as it was: split at both ends of the update,
    then replace everything between the two boundaries."""
    if not interval.within(state.lifespan):
        raise ValueError(f"update {interval} outside lifespan {state.lifespan}")
    first = reference_split_at(state, interval.start)
    last = reference_split_at(state, interval.end)
    state._starts[first:last] = [interval.start]
    state._ends[first:last] = [interval.end]
    state._values[first:last] = [value]
    if state._coalesce:
        state._coalesce_around(first)


def reference_set_sequence(
    state: PartitionedState, items: Iterable[tuple[Interval, Any]]
) -> None:
    """Apply updates one two-split ``set`` at a time — the semantics of
    both `set` and `set_many`."""
    for iv, value in items:
        reference_set(state, iv, value)


def reference_payload_size(value: Any, *, varint: bool = True) -> int:
    """``payload_size`` as it was: one Python frame (two, with the
    generator) per nesting level."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        if not varint:
            return 1 + 8
        if value >= FOREVER:
            return 1 + varint_size(value - FOREVER)
        return 1 + varint_size(abs(value))
    if isinstance(value, float):
        return 1 + 8
    if isinstance(value, str):
        raw_len = len(value.encode("utf-8"))
        len_size = varint_size(raw_len) if varint else 8
        return 1 + len_size + raw_len
    if isinstance(value, (tuple, list)):
        len_size = varint_size(len(value)) if varint else 8
        return 1 + len_size + sum(
            reference_payload_size(item, varint=varint) for item in value
        )
    raise TypeError(f"unsupported message payload type: {type(value).__name__}")


def reference_out_degree_segments(
    edges: Sequence[Any], interval: Interval
) -> list[tuple[Interval, int]]:
    """``VertexContext.out_degree_segments`` as it was: collect the cuts
    from every overlapping out-edge, then count live edges per cut."""
    bounds = {interval.start, interval.end}
    for e in edges:
        if e.lifespan.overlaps(interval):
            bounds.add(max(e.lifespan.start, interval.start))
            bounds.add(min(e.lifespan.end, interval.end))
    cuts = sorted(bounds)
    segments: list[tuple[Interval, int]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        degree = sum(1 for e in edges if e.lifespan.contains_point(lo))
        segments.append((Interval(lo, hi), degree))
    return segments


def reference_edge_pieces(edge: Any, window: Interval) -> list[tuple[Interval, dict]]:
    """``TemporalEdge.pieces`` as it was, as ``(interval, values)`` pairs:
    clip the lifespan, cut at every property boundary strictly inside, and
    rebuild the ``values_at`` dict of each piece's start."""
    clipped = edge.lifespan.intersect(window)
    if clipped is None:
        return []
    bounds = [b for b in edge.properties.boundaries() if clipped.start < b < clipped.end]
    cuts = [clipped.start, *bounds, clipped.end]
    return [
        (Interval(lo, hi), edge.properties.values_at(lo))
        for lo, hi in zip(cuts, cuts[1:])
    ]


# -- the object message path (before rows) -------------------------------------


def rows_of(messages: Iterable[IntervalMessage]) -> list[tuple[int, int, Any]]:
    """``IntervalMessage``s as the engine's ``(start, end, value)`` rows."""
    return [(m.interval.start, m.interval.end, m.value) for m in messages]


def messages_of(rows: Iterable[tuple[int, int, Any]]) -> list[IntervalMessage]:
    return [IntervalMessage(Interval(s, e), v) for s, e, v in rows]


def merge_join_partitioned(
    left: Sequence[IntervalValue], right: Sequence[IntervalValue]
) -> list[tuple[Interval, Any, Any]]:
    """Join two *temporally partitioned* interval-value lists by a linear
    merge — the pairing the scatter phase ran per (window, out-edge).

    Returns ``(intersection, left_value, right_value)`` triples in time
    order.
    """
    out: list[tuple[Interval, Any, Any]] = []
    li = 0
    ri = 0
    while li < len(left) and ri < len(right):
        l_iv, l_val = left[li]
        r_iv, r_val = right[ri]
        start = max(l_iv.start, r_iv.start)
        end = min(l_iv.end, r_iv.end)
        if start < end:
            out.append((Interval(start, end), l_val, r_val))
        # Advance whichever side ends first; ties advance both.
        if l_iv.end <= r_iv.end:
            li += 1
        if r_iv.end <= l_iv.end:
            ri += 1
    return out


def reference_scatter_pairing(
    state: PartitionedState, out_edges: Sequence[Any], windows: Sequence[Interval]
) -> list[tuple[Any, Interval, Any, dict]]:
    """Every ``scatter`` call the engine owes a vertex, in call order, as
    ``(edge id, interval, state value, piece values)``: per updated window
    and out-edge, the window's state slices merge-joined with the edge's
    property-constant pieces (:func:`reference_edge_pieces`)."""
    calls = []
    for window in windows:
        slices = state.slices(window)
        for edge in out_edges:
            pieces = reference_edge_pieces(edge, window)
            for common, s_val, values in merge_join_partitioned(slices, pieces):
                calls.append((edge.eid, common, s_val, values))
    return calls


def _normalise_scatter(result) -> Iterable[IntervalMessage]:
    """What ``scatter`` may return, as messages: ``None``, or an iterable
    of ``IntervalMessage``s, ``(Interval, value)`` pairs and ``None``s."""
    if result is None:
        return
    for item in result:
        if item is None:
            continue
        if isinstance(item, IntervalMessage):
            yield item
        else:
            interval, value = item
            yield IntervalMessage(interval, value)


def reference_combine_dominated(
    combiner: Any, messages: list[IntervalMessage]
) -> list[IntervalMessage]:
    """``MessageCombiner.combine_dominated`` on message objects."""
    if not combiner.selective or len(messages) < 2:
        return messages
    keep: list[IntervalMessage] = []
    for i, msg in enumerate(messages):
        dominated = False
        for j, other in enumerate(messages):
            if i == j:
                continue
            if not other.interval.contains(msg.interval):
                continue
            folded = combiner(other.value, msg.value)
            if folded != other.value:
                continue
            # Ties on both interval and value: keep only the first.
            if (
                other.interval == msg.interval
                and other.value == msg.value
                and j > i
            ):
                continue
            dominated = True
            break
        if not dominated:
            keep.append(msg)
    return keep


def reference_combine_identical_intervals(
    combiner: Any, messages: list[IntervalMessage]
) -> list[IntervalMessage]:
    """``MessageCombiner.combine_identical_intervals`` on message objects."""
    folded: dict[Interval, Any] = {}
    for msg in messages:
        if msg.interval in folded:
            folded[msg.interval] = combiner(folded[msg.interval], msg.value)
        else:
            folded[msg.interval] = msg.value
    if len(folded) == len(messages):
        return messages
    return [IntervalMessage(interval, value) for interval, value in folded.items()]


def reference_coalesce_messages(
    messages: list[IntervalMessage], *, allow_overlap: bool
) -> list[IntervalMessage]:
    """``coalesce_messages`` on message objects."""
    if len(messages) < 2:
        return messages
    ordered = sorted(messages, key=lambda m: (m.interval.start, m.interval.end))
    out: list[IntervalMessage] = [ordered[0]]
    for msg in ordered[1:]:
        last = out[-1]
        joined = last.interval.end >= msg.interval.start
        overlapping = last.interval.end > msg.interval.start
        if joined and (allow_overlap or not overlapping) and last.value == msg.value:
            if msg.interval.end > last.interval.end:
                out[-1] = IntervalMessage(
                    Interval(last.interval.start, msg.interval.end), last.value
                )
        else:
            out.append(msg)
    return out


def reference_should_suppress_warp(
    messages: list[IntervalMessage],
    lifespan: Interval,
    *,
    threshold: float,
) -> bool:
    """``VertexProcessor.should_suppress_warp`` (suppression enabled) on
    message objects, clipping with ``Interval.intersect``; the expansion
    cap is 4 points per live message."""
    if not messages:
        return False
    units = 0
    live = 0
    clipped_lengths: list[int] = []
    for msg in messages:
        clipped = msg.interval.intersect(lifespan)
        if clipped is None:
            continue  # dead traffic: no compute call on any path
        if clipped.is_unbounded:
            return False
        live += 1
        if clipped.is_unit:
            units += 1
        clipped_lengths.append(clipped.length)
    if not live or units / live < threshold:
        return False
    total_points = 0
    cap = 4 * live
    for length in clipped_lengths:
        total_points += length
        if total_points > cap:
            return False
    return True
