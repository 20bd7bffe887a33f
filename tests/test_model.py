"""The slice records: checked construction and tuple behaviour."""

from __future__ import annotations

import re

import pytest

from sliceminer.model import Heuristic, Interval, Slice, SliceStats, ValueSet

A = ("a", Interval(0.0, 1.0))
B = ("b", ValueSet((0, 2)))
C = ("c", Interval(-1.0, 1.0))
D = ("d", Interval(2.0, 3.0))
UNSORTED = "predicates must be sorted by unique feature name"


@pytest.mark.parametrize("predicates, order, message", [
    ((B, A), 2, UNSORTED),
    ((A, ("a", Interval(2.0, 3.0))), 2, UNSORTED),
    ((A, B), 1, "order 1 != 2 features"),
    ((A,), 2, "order 2 != 1 features"),
    ((A, B, C, D), 4, "order must be 1..3, got 4"),
    ((), 0, "order must be 1..3, got 0"),
])
def test_invalid_slice_rejected(predicates, order, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Slice(predicates, Heuristic.HPD, order)
    with pytest.raises(ValueError, match=re.escape(message)):
        Slice(predicates=predicates, heuristic=Heuristic.HPD, order=order)


def test_correct_above_support_rejected():
    message = "correct count exceeds support"
    with pytest.raises(ValueError, match=message):
        SliceStats(3, 4, 4 / 3, 1.0)
    with pytest.raises(ValueError, match=message):
        SliceStats(support=3, correct=4, performance=4 / 3, p_value=1.0)


def test_records_are_tuples():
    sl = Slice((A, B), Heuristic.HPD, 2)
    stats = SliceStats(support=10, correct=4, performance=0.4, p_value=0.01)
    assert Slice._fields == ("predicates", "heuristic", "order")
    assert SliceStats._fields == ("support", "correct", "performance",
                                  "p_value")
    predicates, heuristic, order = sl
    assert (predicates, heuristic, order) == ((A, B), Heuristic.HPD, 2)
    assert sl == ((A, B), Heuristic.HPD, 2)
    support, correct, performance, p_value = stats
    assert (support, correct, performance, p_value) == (10, 4, 0.4, 0.01)
    assert sl.features == ("a", "b")
    assert sl.predicate_key() is sl.predicates
    assert repr(sl).startswith("Slice(predicates=((")
    assert repr(stats) == ("SliceStats(support=10, correct=4, "
                           "performance=0.4, p_value=0.01)")
    with pytest.raises(AttributeError):
        sl.order = 3
    with pytest.raises(AttributeError):
        sl.extra = 1  # no instance dict


def test_equal_slices_equal_and_hash_alike():
    one = Slice((A, B), Heuristic.CATEGORICAL, 2)
    other = Slice((("a", Interval(0.0, 1.0)), ("b", ValueSet((0, 2)))),
                  Heuristic.CATEGORICAL, 2)
    assert one == other and hash(one) == hash(other)
    assert one != one._replace(heuristic=Heuristic.DT)
    assert len({one, other, SliceStats(5, 1, 0.2, 0.5)}) == 2
