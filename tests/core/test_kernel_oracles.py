"""Oracle-equivalence tests for the single-pass sweep kernels.

The optimised kernels (``time_warp``/``time_join`` global sweep, the
engine's fused scatter loop, the ``(start, end, value)`` row versions of
the combiner passes and the suppression heuristic, ``PartitionedState``'s
bulk update path, the context's out-degree timeline) must agree with the
retained straightforward implementations in
``tests/core/_reference_impls.py`` — exactly, not just pointwise, wherever
the output is canonical.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combiner import (
    MessageCombiner,
    coalesce_messages,
    max_combiner,
    min_combiner,
    or_combiner,
    sum_combiner,
    tuple_min_combiner,
)
from repro.core.config import WarpConfig
from repro.core.context import VertexContext
from repro.core.engine import VertexProcessor
from repro.core.interval import FOREVER, Interval, coalesce
from repro.core.messages import IntervalMessage
from repro.core.program import IntervalProgram
from repro.core.state import PartitionedState, states_equal_pointwise
from repro.core.warp import _groups_equal, time_join, time_warp, warp_rows
from repro.graph.builder import TemporalGraphBuilder
from repro.graph.compact import CompactGraph
from repro.runtime.metrics import ComputeModel, RunMetrics

from ._reference_impls import (
    _normalise_scatter,
    _reference_groups_equal,
    merge_join_partitioned,
    reference_combine_dominated,
    reference_combine_identical_intervals,
    reference_coalesce_messages,
    reference_join_partitioned,
    reference_out_degree_segments,
    reference_scatter_pairing,
    reference_set,
    reference_set_sequence,
    reference_should_suppress_warp,
    reference_split_at,
    reference_time_join,
    reference_time_warp,
    reference_warp_rows,
    rows_of,
)

TIME = st.integers(min_value=0, max_value=40)


@st.composite
def partitioned_outer(draw, max_parts=8, distinct_values=4, gaps=False):
    """A sorted, non-overlapping outer set; optionally with gaps."""
    bounds = sorted(draw(st.sets(TIME, min_size=2, max_size=max_parts + 1)))
    parts = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if gaps and draw(st.booleans()):
            continue
        parts.append((Interval(lo, hi), draw(st.integers(0, distinct_values - 1))))
    return parts


@st.composite
def inner_items(draw, max_items=10, distinct_values=4):
    n = draw(st.integers(min_value=0, max_value=max_items))
    items = []
    for _ in range(n):
        start = draw(TIME)
        length = draw(st.integers(min_value=1, max_value=15))
        items.append(
            (Interval(start, start + length), draw(st.integers(0, distinct_values - 1)))
        )
    return items


def canon_triples(triples):
    """Triples with group order erased (groups compared as multisets)."""
    return [(iv, s, sorted(g, key=repr)) for iv, s, g in triples]


class TestWarpOracle:
    @given(partitioned_outer(), inner_items())
    @settings(max_examples=400, deadline=None)
    def test_plain_warp_matches_reference_exactly(self, outer, inner):
        assert time_warp(outer, inner) == reference_time_warp(outer, inner)

    @given(partitioned_outer(gaps=True), inner_items())
    @settings(max_examples=300, deadline=None)
    def test_warp_with_gapped_outer_matches_reference(self, outer, inner):
        assert time_warp(outer, inner) == reference_time_warp(outer, inner)

    @given(partitioned_outer(), inner_items())
    @settings(max_examples=300, deadline=None)
    def test_combiner_warp_matches_reference_exactly(self, outer, inner):
        got = time_warp(outer, inner, combine=min)
        want = reference_time_warp(outer, inner, combine=min)
        assert got == want

    @given(partitioned_outer(), inner_items())
    @settings(max_examples=200, deadline=None)
    def test_sum_combiner_matches_reference(self, outer, inner):
        """A fold whose result depends on every operand (not just the min)
        exercises the incremental fold cache."""
        combine = lambda a, b: a + b  # noqa: E731
        got = time_warp(outer, inner, combine=combine)
        want = reference_time_warp(outer, inner, combine=combine)
        assert got == want

    @given(partitioned_outer(max_parts=5), inner_items(max_items=6))
    @settings(max_examples=200, deadline=None)
    def test_unhashable_payloads_match_reference(self, outer, inner):
        """Group merging must survive unhashable message values (lists)."""
        inner_lists = [(iv, [v]) for iv, v in inner]
        got = canon_triples(time_warp(outer, inner_lists))
        want = canon_triples(reference_time_warp(outer, inner_lists))
        assert got == want

    @given(partitioned_outer(max_parts=5), inner_items(max_items=6))
    @settings(max_examples=200, deadline=None)
    def test_unhashable_unorderable_payloads_match_reference(self, outer, inner):
        """The last-resort quadratic compare path: dict payloads are neither
        hashable nor orderable."""
        inner_dicts = [(iv, {"v": v}) for iv, v in inner]
        got = canon_triples(time_warp(outer, inner_dicts))
        want = canon_triples(reference_time_warp(outer, inner_dicts))
        assert got == want


@st.composite
def one_row_cases(draw):
    """State columns of 1-8 partitions — contiguous or gapped, two distinct
    values so equal-valued neighbours are the rule — and one inbox row that
    overhangs, misses, nests in or exactly covers them."""
    outer = draw(partitioned_outer(max_parts=8, distinct_values=2, gaps=draw(st.booleans())))
    if not outer:
        outer = [(Interval(3, 9), 0)]
    first, last = outer[0][0].start, outer[-1][0].end
    start, end = draw(st.one_of(
        st.just((first, last)),                                   # exact cover
        st.tuples(st.integers(0, 45), st.integers(1, 50)).map(    # anything
            lambda se: (se[0], se[0] + se[1])
        ),
        st.sampled_from([iv for iv, _ in outer]).map(             # one partition
            lambda iv: (iv.start, iv.end)
        ),
        st.just((last, last + 4)),                                # outside, after
        st.just((0, max(first, 1))),                              # outside, before
        st.just((first, FOREVER)),                                # open-ended
    ))
    columns = (
        [iv.start for iv, _ in outer],
        [iv.end for iv, _ in outer],
        [val for _, val in outer],
    )
    return columns, (start, end)


class TestOneRowWarpOracle:
    """A one-row inbox is answered by bisection; the sweep it no longer
    enters (``reference_warp_rows``, the parent's body) is its oracle."""

    VALUES = st.one_of(st.integers(0, 3), st.tuples(st.integers(0, 3), st.integers(0, 3)))

    @given(one_row_cases(), VALUES, st.sampled_from([None, min, lambda a, b: a + b]))
    @settings(max_examples=600, deadline=None)
    def test_one_row_matches_the_sweep(self, case, value, combine):
        (starts, ends, vals), (start, end) = case
        row = (start, end, value)
        before = (list(starts), list(ends), list(vals))
        got = warp_rows(starts, ends, vals, [row], combine)
        assert got == reference_warp_rows(starts, ends, vals, [row], combine)
        assert (starts, ends, vals) == before  # columns are only read
        for interval, _, group in got:
            assert group == [value]
            assert start <= interval.start < interval.end <= end
        assert len({id(group) for _, _, group in got}) == len(got)

    @given(one_row_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_unhashable_values_on_either_side(self, case, with_combine):
        (starts, ends, vals), (start, end) = case
        vals = [[v] for v in vals]                      # lists: unhashable states
        row = (start, end, {"payload": 1})              # ... and an unhashable message
        combine = (lambda a, b: a) if with_combine else None
        got = warp_rows(starts, ends, vals, [row], combine)
        assert got == reference_warp_rows(starts, ends, vals, [row], combine)

    @given(one_row_cases(), one_row_cases())
    @settings(max_examples=300, deadline=None)
    def test_two_rows_still_take_the_sweep(self, case, other):
        (starts, ends, vals), (start, end) = case
        rows = [(start, end, 1), (*other[1], 2)]
        for combine in (None, min):
            assert warp_rows(starts, ends, vals, rows, combine) == (
                reference_warp_rows(starts, ends, vals, rows, combine)
            )

    def test_named_shapes(self):
        starts, ends, vals = [0, 4, 6, 10], [4, 6, 9, 12], ["a", "a", "b", "b"]
        def run(start, end):
            return [
                ((iv.start, iv.end), v, g)
                for iv, v, g in warp_rows(starts, ends, vals, [(start, end, 7)])
            ]
        # equal-valued neighbours merge; the gap at [9, 10) splits equal values
        assert run(0, 12) == [((0, 6), "a", [7]), ((6, 9), "b", [7]), ((10, 12), "b", [7])]
        assert run(2, 5) == [((2, 5), "a", [7])]
        assert run(5, 40) == [((5, 6), "a", [7]), ((6, 9), "b", [7]), ((10, 12), "b", [7])]
        assert run(9, 10) == [] and run(12, 20) == [] and run(9, 11) == [((10, 11), "b", [7])]


class TestJoinOracle:
    @given(partitioned_outer(gaps=True), inner_items())
    @settings(max_examples=300, deadline=None)
    def test_time_join_matches_reference_exactly(self, outer, inner):
        assert time_join(outer, inner) == reference_time_join(outer, inner)

    @given(inner_items(max_items=8), inner_items(max_items=8))
    @settings(max_examples=300, deadline=None)
    def test_time_join_unpartitioned_outer_matches_reference(self, outer, inner):
        """time_join does not require a partitioned outer; arbitrary
        overlapping outers must agree with the reference too."""
        assert time_join(outer, inner) == reference_time_join(outer, inner)


class _Recorder(IntervalProgram):
    """Records every ``scatter`` call it is handed; returns ``result``."""

    name = "recorder"

    def __init__(self, result=None):
        self.calls = []
        self.result = result

    def compute(self, ctx, interval, state, messages):
        raise AssertionError("the scatter phase never computes")

    def scatter(self, ctx, edge, interval, state):
        assert edge.interval is interval
        self.calls.append((edge.eid, interval, state, edge.values))
        return self.result


def _scatter_on(graph, state, windows, program):
    """Run the engine's scatter phase for vertex ``"a"`` of ``graph`` over
    ``windows``; returns the ``(src, dst, rows)`` batches the sink saw."""
    processor = VertexProcessor(graph, program, ComputeModel())
    processor.superstep = 2
    host = SimpleNamespace(graph=graph, superstep=2)
    ctx = VertexContext(graph.vertex("a"), state.copy(), host)
    sent = []
    metrics = RunMetrics()
    processor.rescatter(
        ctx, windows, metrics, lambda src, dst, rows: sent.append((src, dst, rows))
    )
    assert metrics.scatter_calls == len(program.calls)
    return sent


@st.composite
def scatter_cases(draw):
    """``(graph, state, windows)``: a source vertex ``"a"`` with a generated
    lifespan and a fragmented state, multi-piece out-edges to two
    destinations (holes in the timelines, unbounded ends, parallel edges),
    and update windows that overlap, meet, and stray outside the lifespan."""
    start = draw(st.integers(0, 6))
    end = draw(st.one_of(st.integers(start + 2, 40), st.just(FOREVER)))
    builder = TemporalGraphBuilder()
    builder.add_vertex("a", start, end)
    builder.add_vertex("b")
    builder.add_vertex("c")
    hi = min(end, start + 30)
    for i in range(draw(st.integers(0, 4))):
        e_start = draw(st.integers(start, hi - 1))
        e_end = draw(st.one_of(st.integers(e_start + 1, hi), st.just(end)))
        top = min(e_end, e_start + 20)
        props = {}
        for label in draw(st.lists(st.sampled_from(["w", "cap"]), unique=True)):
            cuts = sorted(draw(st.sets(st.integers(e_start, top), min_size=2, max_size=6)))
            entries = [
                (lo, up, draw(st.integers(0, 3)))
                for lo, up in zip(cuts, cuts[1:])
                if draw(st.booleans())
            ]
            if entries:
                props[label] = entries
        builder.add_edge("a", "bc"[i % 2], e_start, e_end, props=props or None)
    bounds = sorted(draw(st.sets(st.integers(start + 1, hi - 1), max_size=6))) \
        if hi - start > 1 else []
    ends = [*bounds, end]
    state = PartitionedState.from_parts(
        Interval(start, end), ends,
        [draw(st.integers(0, 3)) for _ in ends], coalesce=False,
    )
    windows = [
        Interval(w, draw(st.one_of(st.integers(w + 1, w + 12), st.just(FOREVER))))
        for w in draw(st.lists(st.integers(0, 36), min_size=1, max_size=4))
    ]
    return builder.build(), state, windows


class TestScatterPairingOracle:
    """The fused scatter loop against the pairing it replaced
    (``state.slices`` × edge pieces × ``merge_join_partitioned``), on the
    heap store and on its compact image."""

    @given(scatter_cases())
    @settings(max_examples=300, deadline=None)
    def test_fused_loop_sees_the_reference_pairing_in_order(self, case):
        heap, state, windows = case
        want = reference_scatter_pairing(
            state, heap.out_edges("a"), coalesce(windows)
        )
        for graph in (heap, CompactGraph.from_temporal(heap)):
            program = _Recorder()
            assert _scatter_on(graph, state, windows, program) == []
            assert program.calls == want
            # Label order is part of the contract (programs iterate values).
            assert [list(c[3]) for c in program.calls] == [list(w[3]) for w in want]

    # The retained merge-join is the order oracle above; it is itself held
    # to the nested loop and to time_join, as when the engine ran it.

    @given(partitioned_outer(gaps=True), partitioned_outer(gaps=True))
    @settings(max_examples=300, deadline=None)
    def test_merge_join_matches_nested_intersection(self, slices, pieces):
        got = set(merge_join_partitioned(slices, pieces))
        want = {
            (iv, s, p)
            for iv, s, p in reference_join_partitioned(slices, pieces)
        }
        assert got == want

    @given(partitioned_outer(gaps=True), partitioned_outer(gaps=True))
    @settings(max_examples=200, deadline=None)
    def test_merge_join_is_time_ordered(self, slices, pieces):
        out = merge_join_partitioned(slices, pieces)
        starts = [iv.start for iv, _, _ in out]
        assert starts == sorted(starts)

    @given(partitioned_outer(gaps=True), partitioned_outer(gaps=True))
    @settings(max_examples=200, deadline=None)
    def test_merge_join_agrees_with_time_join(self, slices, pieces):
        got = sorted(merge_join_partitioned(slices, pieces), key=repr)
        want = sorted(time_join(slices, pieces), key=repr)
        assert got == want

    @given(scatter_cases(), st.lists(
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 30), st.integers(1, 9), st.integers(0, 2),
                      st.booleans()),
        ), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_returned_items_become_the_rows_normalisation_gave(self, case, spec):
        """Pairs, ``IntervalMessage``s and ``None``s, in any mix: the sink
        receives, per destination, exactly the messages
        ``_normalise_scatter`` produced, coalesced as the object path did."""
        heap, state, windows = case
        result = []
        for item in spec:
            if item is None:
                result.append(None)
                continue
            start, length, value, boxed = item
            interval = Interval(start, start + length)
            result.append(
                IntervalMessage(interval, value) if boxed else (interval, value)
            )
        program = _Recorder(result)
        sent = _scatter_on(heap, state, windows, program)
        outbox = {}
        for eid, *_ in program.calls:
            outbox.setdefault(heap.edge(eid).dst, []).extend(_normalise_scatter(result))
        want = [
            ("a", dst, rows_of(reference_coalesce_messages(msgs, allow_overlap=False)))
            for dst, msgs in outbox.items() if msgs
        ]
        assert sent == want


_SPAN_KINDS = st.sampled_from(["unit", "open", "span", "span"])


@st.composite
def message_lists(draw, values, max_size=9):
    """``IntervalMessage`` lists over a narrow time domain, so that equal
    intervals, equal values and containment all occur: unit-length,
    ``FOREVER``-ended and ordinary spans, in any order."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        start = draw(st.integers(0, 12))
        kind = draw(_SPAN_KINDS)
        if kind == "unit":
            end = start + 1
        elif kind == "open":
            end = FOREVER
        else:
            end = start + draw(st.integers(1, 10))
        out.append(IntervalMessage(Interval(start, end), draw(values)))
    return out


_INTS = st.integers(0, 3)
_PAIRS = st.tuples(st.integers(0, 2), st.sampled_from(["a", "b"]))
#: (combiner, payload strategy): every fold the algorithms use.
_FOLDS = st.sampled_from([
    (min_combiner(), _INTS),
    (max_combiner(), _INTS),
    (or_combiner(), st.booleans()),
    (sum_combiner(), _INTS),
    (tuple_min_combiner(), _PAIRS),
    (MessageCombiner(min, "min-nonselective"), _INTS),
])
_folded_messages = _FOLDS.flatmap(
    lambda fold: st.tuples(st.just(fold[0]), message_lists(fold[1]))
)


class TestMessageRowOracles:
    """The combiner passes and the suppression heuristic on
    ``(start, end, value)`` rows against their ``IntervalMessage``
    versions: equal element by element, in order."""

    @given(_folded_messages)
    @settings(max_examples=500, deadline=None)
    def test_combine_dominated(self, case):
        combiner, msgs = case
        want = rows_of(reference_combine_dominated(combiner, msgs))
        assert combiner.combine_dominated(rows_of(msgs)) == want

    @given(_folded_messages)
    @settings(max_examples=500, deadline=None)
    def test_combine_identical_intervals(self, case):
        combiner, msgs = case
        want = rows_of(reference_combine_identical_intervals(combiner, msgs))
        assert combiner.combine_identical_intervals(rows_of(msgs)) == want

    @given(_folded_messages, st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_coalesce_messages(self, case, allow_overlap):
        _, msgs = case
        want = rows_of(reference_coalesce_messages(msgs, allow_overlap=allow_overlap))
        assert coalesce_messages(rows_of(msgs), allow_overlap=allow_overlap) == want

    @given(_folded_messages)
    @settings(max_examples=300, deadline=None)
    def test_the_receiver_pipeline_composes_identically(self, case):
        """identical-intervals → dominated → coalesce, as the engine chains
        them: the reductions the counters report are differences of these
        lengths."""
        combiner, msgs = case
        want = reference_combine_dominated(
            combiner, reference_combine_identical_intervals(combiner, msgs)
        )
        got = combiner.combine_dominated(
            combiner.combine_identical_intervals(rows_of(msgs))
        )
        assert got == rows_of(want)
        assert coalesce_messages(got, allow_overlap=combiner.selective) == rows_of(
            reference_coalesce_messages(want, allow_overlap=combiner.selective)
        )

    @given(
        message_lists(_INTS, max_size=12),
        st.tuples(st.integers(0, 14), st.one_of(st.none(), st.integers(1, 14))),
        st.sampled_from([0.0, 0.5, 0.7, 1.0]),
    )
    @settings(max_examples=600, deadline=None)
    def test_should_suppress_warp(self, msgs, span, threshold):
        """Messages partly or wholly outside the lifespan, bounded and
        unbounded lifespans, every threshold edge."""
        start, length = span
        lifespan = Interval(start, FOREVER if length is None else start + length)
        processor = VertexProcessor(
            None, None, None, WarpConfig(suppression_threshold=threshold)
        )
        want = reference_should_suppress_warp(msgs, lifespan, threshold=threshold)
        assert processor.should_suppress_warp(rows_of(msgs), lifespan) is want


@st.composite
def update_batches(draw, span=40, max_updates=12):
    n = draw(st.integers(min_value=0, max_value=max_updates))
    updates = []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=span - 1))
        length = draw(st.integers(min_value=1, max_value=span - start))
        updates.append((Interval(start, start + length), draw(st.integers(0, 3))))
    return updates


class TestBulkStateOracle:
    SPAN = 40

    @given(update_batches(), update_batches(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_set_many_matches_sequential_set(self, warmup, batch, coalesce):
        lifespan = Interval(0, self.SPAN)
        bulk = PartitionedState(lifespan, 0, coalesce=coalesce)
        seq = PartitionedState(lifespan, 0, coalesce=coalesce)
        # A warmup batch gives the states non-trivial prior partitions.
        reference_set_sequence(bulk, warmup)
        reference_set_sequence(seq, warmup)
        bulk.set_many(batch)
        reference_set_sequence(seq, batch)
        bulk.check_invariants()
        assert states_equal_pointwise(bulk, seq)
        if coalesce:
            # Coalescing keeps the partitioning canonical, so the bulk path
            # must match the sequential structure exactly, not just
            # pointwise.
            assert bulk.partitions() == seq.partitions()

    @given(update_batches(), st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_set_is_the_two_split_set_column_for_column(self, updates, coalesce):
        """``set`` splices once per column; after every update of a random
        sequence its columns equal the ones two boundary inserts and a
        slice assignment leave, element by element."""
        lifespan = Interval(0, self.SPAN)
        new = PartitionedState(lifespan, 0, coalesce=coalesce)
        old = PartitionedState(lifespan, 0, coalesce=coalesce)
        for interval, value in updates:
            new.set(interval, value)
            reference_set(old, interval, value)
            assert (new._starts, new._ends, new._values) == (
                old._starts, old._ends, old._values
            )
            new.check_invariants()

    def test_set_outside_the_lifespan_is_refused_and_changes_nothing(self):
        state = PartitionedState(Interval(2, 9), 0)
        for bad in (Interval(0, 4), Interval(5, 12), Interval(0, 20), Interval(9, 11)):
            with pytest.raises(ValueError, match="outside lifespan"):
                state.set(bad, 1)
        assert state.partitions() == [(Interval(2, 9), 0)]

    @given(update_batches(), st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_update_applies_fn_to_pre_update_slices(self, warmup, start):
        """``update`` now batches its writes through set_many; ``fn`` must
        still observe the original values of every covered slice."""
        lifespan = Interval(0, self.SPAN)
        window = Interval(start, min(start + 10, self.SPAN))
        bulk = PartitionedState(lifespan, 0)
        seq = PartitionedState(lifespan, 0)
        reference_set_sequence(bulk, warmup)
        reference_set_sequence(seq, warmup)
        bulk.update(window, lambda sub, old: old + 100)
        for sub, old in seq.slices(window):
            seq.set(sub, old + 100)
        bulk.check_invariants()
        assert bulk.partitions() == seq.partitions()


class TestPresplit:
    @given(st.sets(st.integers(min_value=-5, max_value=45), max_size=12),
           update_batches())
    @settings(max_examples=300, deadline=None)
    def test_presplit_matches_repeated_split_at(self, points, warmup):
        lifespan = Interval(0, 40)
        bulk = PartitionedState(lifespan, 0, coalesce=False)
        seq = PartitionedState(lifespan, 0, coalesce=False)
        reference_set_sequence(bulk, warmup)
        reference_set_sequence(seq, warmup)
        bulk.presplit(points)
        for t in sorted(points):
            if lifespan.start < t < lifespan.end:
                reference_split_at(seq, t)
        bulk.check_invariants()
        assert bulk.partitions() == seq.partitions()


class TestGroupsEqual:
    CASES = [
        ([1, 2, 2], [2, 1, 2], True),
        ([1, 2, 2], [2, 2, 2], False),
        ([1, 2], [1, 2, 2], False),
        ([], [], True),
        ([[1], [2]], [[2], [1]], True),          # unhashable, orderable
        ([[1], [1]], [[1], [2]], False),
        ([{"a": 1}], [{"a": 1}], True),          # unhashable, unorderable
        ([{"a": 1}, {"b": 2}], [{"b": 2}, {"a": 1}], True),
        ([{"a": 1}], [{"a": 2}], False),
        ([1, "x"], ["x", 1], True),              # mixed types, hashable
    ]

    def test_agrees_with_reference_on_cases(self):
        for a, b, expected in self.CASES:
            assert _groups_equal(a, b) is expected
            assert _reference_groups_equal(a, b) is expected

    @given(st.lists(st.integers(0, 4), max_size=8),
           st.lists(st.integers(0, 4), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_reference_property(self, a, b):
        assert _groups_equal(a, b) == _reference_groups_equal(a, b)


# A narrow time domain, so that lifespans meet, nest and coincide often;
# ``None`` ends are open-ended (FOREVER).
_SPAN_START = st.integers(min_value=0, max_value=12)
_SPAN_LENGTH = st.one_of(st.none(), st.integers(min_value=1, max_value=8))
_spans = st.tuples(_SPAN_START, _SPAN_LENGTH).map(
    lambda sl: (sl[0], FOREVER if sl[1] is None else sl[0] + sl[1])
)


def _context_on(graph, vid):
    """A context over ``graph`` with just the host services the static
    attribute queries need."""
    vertex = graph.vertex(vid)
    host = SimpleNamespace(graph=graph, superstep=0)
    return VertexContext(vertex, PartitionedState(vertex.lifespan, None), host)


class TestOutDegreeSegmentsOracle:
    """The degree timeline answers exactly what the per-call rescan did,
    on the heap store and on its compact image."""

    @given(st.lists(_spans, max_size=8), st.lists(_spans, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, edge_spans, windows):
        b = TemporalGraphBuilder()
        b.add_vertex("a")
        b.add_vertex("b")
        b.add_vertex("c")
        for i, (start, end) in enumerate(edge_spans):
            b.add_edge("a", "bc"[i % 2], start, end)
        heap = b.build()
        for graph in (heap, CompactGraph.from_temporal(heap)):
            for vid in ("a", "b"):  # "b" has no out-edges at all
                ctx = _context_on(graph, vid)
                edges = graph.out_edges(vid)
                for start, end in windows:
                    window = Interval(start, end)
                    assert ctx.out_degree_segments(window) == \
                        reference_out_degree_segments(edges, window)

    def test_named_shapes(self):
        """The shapes the issue calls out, pinned by hand: an open-ended
        lifespan, edges meeting at a boundary (equal-degree neighbours stay
        split there), a zero-degree gap, and windows outside every edge."""
        b = TemporalGraphBuilder()
        b.add_vertex("a")
        b.add_vertex("b")
        b.add_edge("a", "b", 2, 5)
        b.add_edge("a", "b", 5, 8)    # meets the first at 5
        b.add_edge("a", "b", 10)      # open-ended, after a gap
        heap = b.build()
        for graph in (heap, CompactGraph.from_temporal(heap)):
            ctx = _context_on(graph, "a")
            assert ctx.out_degree_segments(Interval(0, 12)) == [
                (Interval(0, 2), 0),
                (Interval(2, 5), 1),
                (Interval(5, 8), 1),
                (Interval(8, 10), 0),
                (Interval(10, 12), 1),
            ]
            assert ctx.out_degree_segments(Interval(0, 2)) == [(Interval(0, 2), 0)]
            assert ctx.out_degree_segments(Interval(8, 9)) == [(Interval(8, 9), 0)]
            assert ctx.out_degree_segments(Interval(11)) == [(Interval(11), 1)]
            assert ctx.out_degree_segments(Interval(4, 6)) == [
                (Interval(4, 5), 1), (Interval(5, 6), 1),
            ]
