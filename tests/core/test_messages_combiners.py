"""Tests for interval messages and message combiners."""

import pytest

from repro.core.combiner import (
    max_combiner,
    min_combiner,
    or_combiner,
    sum_combiner,
    tuple_min_combiner,
)
from repro.core.interval import Interval
from repro.core.messages import IntervalMessage, message, unit_message_fraction

from ._reference_impls import rows_of


class TestIntervalMessage:
    def test_construction_and_equality(self):
        a = message(3, 7, 42)
        b = IntervalMessage(Interval(3, 7), 42)
        assert a == b
        assert hash(a) == hash(b)

    def test_immutability(self):
        msg = message(0, 1, "x")
        with pytest.raises(AttributeError):
            msg.value = "y"

    def test_unhashable_payload_still_hashable_message(self):
        msg = message(0, 1, [1, 2])
        assert isinstance(hash(msg), int)

    def test_repr(self):
        assert "Msg" in repr(message(1, 2, 3))


class TestUnitFraction:
    def test_empty(self):
        assert unit_message_fraction([]) == 0.0

    def test_all_unit(self):
        msgs = [message(t, t + 1, t) for t in range(5)]
        assert unit_message_fraction(msgs) == 1.0

    def test_mixed(self):
        msgs = [message(0, 1, 0), message(0, 5, 1), message(2, 3, 2), message(4, 9, 3)]
        assert unit_message_fraction(msgs) == 0.5


class TestCombiners:
    def test_min_max_sum_or(self):
        assert min_combiner()(4, 7) == 4
        assert max_combiner()(4, 7) == 7
        assert sum_combiner()(4, 7) == 11
        assert or_combiner()(False, True) is True
        assert or_combiner()(False, False) is False

    def test_tuple_min(self):
        comb = tuple_min_combiner()
        assert comb((3, "b"), (3, "a")) == (3, "a")
        assert comb((2, "z"), (3, "a")) == (2, "z")

    # The passes take and return the engine's ``(start, end, value)`` rows.

    def test_combine_identical_intervals(self):
        comb = min_combiner()
        rows = rows_of([message(0, 5, 9), message(0, 5, 3), message(2, 5, 1)])
        out = comb.combine_identical_intervals(rows)
        assert out == [(0, 5, 3), (2, 5, 1)]

    def test_combine_identical_intervals_noop(self):
        comb = min_combiner()
        rows = [(0, 5, 9), (1, 5, 3)]
        assert comb.combine_identical_intervals(rows) is rows
