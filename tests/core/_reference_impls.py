"""Reference (pre-optimisation) kernel implementations, kept as oracles.

These are the straightforward implementations the optimised kernels in
``repro.core.warp``, ``repro.core.engine`` and ``repro.core.state`` replaced:

* ``reference_time_warp`` / ``reference_time_join`` — the per-partition
  rescan versions (re-filter the active set per outer partition, rebuild
  the boundary set per partition, O(n²) multiset compare in the merge).
* ``reference_join_partitioned`` — the nested ``slices × pieces``
  intersect loop the engine's scatter phase used.
* ``reference_set_sequence`` — repeated ``PartitionedState.set`` calls,
  the semantics ``set_many`` must reproduce.
* ``reference_out_degree_segments`` — the O(E·k) rescan of every out-edge
  per cut that ``VertexContext.out_degree_segments`` ran on every call.
* ``reference_edge_pieces`` — the body ``TemporalEdge.pieces`` ran on every
  call (re-derive the property boundaries, one ``values_at`` per piece)
  before edges sliced the graph-resident ``PieceIndex``.

They are deliberately simple and obviously correct; Hypothesis tests in
``test_kernel_oracles.py`` assert the production kernels agree with them
pointwise, and ``benchmarks/bench_kernels.py`` times production against
them to report (and gate) the speedup.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.core.interval import Interval
from repro.core.state import PartitionedState

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


def reference_join_partitioned(
    slices: Sequence[IntervalValue], pieces: Sequence[IntervalValue]
) -> list[tuple[Interval, Any, Any]]:
    """The engine's old scatter pairing: intersect every slice against
    every piece (both inputs are partitioned covers).

    The intersection is spelled out with the validating constructor rather
    than calling ``Interval.intersect``: the oracle (and the fixed cost
    ``bench_kernels.py`` measures the merge-join against) must not move
    when that production method is tuned.
    """
    out: list[tuple[Interval, Any, Any]] = []
    for p_iv, p_val in pieces:
        for s_iv, s_val in slices:
            start = max(s_iv.start, p_iv.start)
            end = min(s_iv.end, p_iv.end)
            if start < end:
                out.append((Interval(start, end), s_val, p_val))
    return out


def reference_set_sequence(
    state: PartitionedState, items: Iterable[tuple[Interval, Any]]
) -> None:
    """Apply updates one `.set()` at a time — the semantics of `set_many`."""
    for iv, value in items:
        state.set(iv, value)


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
