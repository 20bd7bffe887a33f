"""The records: checked construction and tuple behaviour."""

from __future__ import annotations

import copy
import pickle
import re

import numpy as np
import pytest

from sliceminer.dataset import (Dataset, DatasetSummary, Feature, FeatureKind,
                                IngestConfig)
from sliceminer.hpd import HpdConfig
from sliceminer.model import (Filters, Heuristic, Interval, Slice, SliceStats,
                              ValueSet)
from sliceminer.slicer import AnalysisConfig, AnalysisResult

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


@pytest.mark.parametrize("build, message", [
    (lambda: IngestConfig("y", "p", ";;"), "delimiter must be one character"),
    (lambda: IngestConfig("y", "p", delimiter='"'),
     "delimiter must be one character"),
    (lambda: IngestConfig("y", "p", categorical_threshold=-1),
     "categorical threshold must be >= 0"),
    (lambda: HpdConfig(0.05), "need 0 < min_density_floor < initial_density"),
    (lambda: HpdConfig(min_density_floor=0.0),
     "need 0 < min_density_floor < initial_density"),
    (lambda: HpdConfig(epsilon=0.9), "need 0 < epsilon < initial_density"),
    (lambda: AnalysisConfig(max_order=4), "max_order must be 1..3, got 4"),
    (lambda: AnalysisConfig(frozenset({Heuristic.DT}), 0),
     "max_order must be 1..3, got 0"),
    (lambda: AnalysisConfig(p_value_max=1.0), "p_value_max must be in (0, 1)"),
    (lambda: AnalysisConfig(support_fraction=0.0),
     "support_fraction must be in (0, 1)"),
    (lambda: AnalysisConfig(support_floor=1), "support_floor must be >= 2"),
    (lambda: AnalysisConfig(ci_level=1.0), "ci_level must be in (0, 1)"),
    (lambda: AnalysisConfig(heuristics=frozenset()),
     "heuristics must be a nonempty subset"),
    (lambda: AnalysisConfig(heuristics=frozenset({"trees"})),
     "heuristics must be a nonempty subset"),
    (lambda: Filters(1, 0.5, 0.05), "min_support must be >= 2, got 1"),
    (lambda: Filters(min_support=2, perf_threshold=0.5, p_value_max=0.0),
     "p_value_max must be in (0, 1)"),
    (lambda: ValueSet(()), "ValueSet needs at least one code"),
    (lambda: ValueSet(codes=(2, 1)), "codes must be strictly ascending"),
    (lambda: ValueSet((1, 1)), "codes must be strictly ascending"),
])
def test_invalid_record_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def _records():
    values = np.arange(3.0)
    feature = Feature("f", FeatureKind.CONTINUOUS, values, ())
    summary = DatasetSummary(3, 2, 2 / 3, 0.2, 0.9, 0.95)
    filters = Filters(2, 0.5, 0.05)
    return [
        (ValueSet((0, 2)), "codes"),
        (HpdConfig(), "epsilon"),
        (AnalysisConfig(), "max_order"),
        (IngestConfig("y", "p"), "delimiter"),
        (feature, "values"),
        (Dataset({"f": feature}, values > 0, 3, 2, ()), "n_records"),
        (summary, "metric"),
        (filters, "min_support"),
        (AnalysisResult(summary, filters, (), {}, {}, AnalysisConfig()),
         "reported"),
    ]


@pytest.mark.parametrize("record, field", _records(),
                         ids=lambda x: x if isinstance(x, str)
                         else type(x).__name__)
def test_records_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict


def test_feature_values_are_read_only():
    values = np.arange(3.0)
    feature = Feature(name="f", kind=FeatureKind.CONTINUOUS, values=values,
                      labels=())
    assert feature.values is values and not values.flags.writeable
    with pytest.raises(ValueError):
        feature.values[0] = 1.0


def test_ingest_configs_share_no_mutable_overrides():
    one, other = IngestConfig("y", "p"), IngestConfig("a", "b")
    assert one.overrides == {} and one.overrides is other.overrides
    with pytest.raises(TypeError):
        one.overrides["x"] = FeatureKind.CATEGORICAL
    assert other.overrides == {}


def test_analysis_configs_share_one_default_hpd():
    assert AnalysisConfig().hpd == HpdConfig() == (0.90, 0.05, 0.10)
    assert AnalysisConfig().hpd is AnalysisConfig().hpd


def test_filters_equal_hash_and_copy_by_value():
    filters = Filters(2, 0.5, 0.05)
    same = Filters(min_support=2, perf_threshold=0.5, p_value_max=0.05)
    assert filters == same and hash(filters) == hash(same)
    assert filters != Filters(3, 0.5, 0.05)
    assert copy.copy(filters) == filters
    assert pickle.loads(pickle.dumps(filters)) == filters
    assert repr(filters) == ("Filters(min_support=2, perf_threshold=0.5, "
                             "p_value_max=0.05)")


@pytest.mark.parametrize("codes", [(0,), (2,), (3,), (7,), (0, 2), (1, 2, 3)])
def test_value_set_mask_is_the_isin_mask(codes):
    # present codes, an absent one (7) and NaN cells (missing values)
    values = np.array([0.0, 1.0, 2.0, np.nan, 3.0, 2.0, np.nan, 0.0, 1.0])
    got = ValueSet(codes).contains(values)
    want = np.isin(values, np.asarray(codes))
    assert got.dtype == bool and got.shape == values.shape
    assert got.tolist() == want.tolist()
    assert got.tolist() == [v in codes for v in values.tolist()]
