"""Ingestion, feature-kind inference, and dataset summary."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer.dataset import (ConfigError, DataError, FeatureKind,
                                IngestConfig, load_table, summarize)
from tests.conftest import write_csv


CONFIG = IngestConfig(ground_truth="label", prediction="pred")


def make_table(tmp_path, rows, header=("credithistory", "age", "label", "pred")):
    return write_csv(tmp_path / "data.csv", header, rows)


class TestLoadTable:
    def test_300_row_file(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [[int(rng.integers(0, 5)), int(rng.integers(18, 80)),
                 int(rng.integers(0, 2)), int(rng.integers(0, 2))]
                for _ in range(300)]
        ds = load_table(make_table(tmp_path, rows), CONFIG)
        assert ds.n_records == 300
        assert ds.n_correct == int(ds.correctness.sum())
        assert ds.feature_names == ("credithistory", "age")
        assert list(ds.features) == ["credithistory", "age"]

    def test_missing_prediction_column(self, tmp_path):
        path = make_table(tmp_path, [[1, 2, 1, 1]],
                          header=("credithistory", "age", "label", "output"))
        with pytest.raises(ConfigError, match="prediction column not found"):
            load_table(path, CONFIG)

    def test_single_row_equality(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", ["f1", "f2", "label", "pred"],
                         [["a", "b", 1, 1]])
        ds = load_table(path, CONFIG)
        assert ds.correctness.tolist() == [True]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_table(str(tmp_path / "nope.csv"), CONFIG)

    def test_zero_data_rows(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv",
                         ["f1", "label", "pred"], [])
        with pytest.raises(DataError, match="no usable data rows"):
            load_table(path, CONFIG)

    def test_disjoint_domains_signal_mixup(self, tmp_path):
        rows = [[1, "yes", 0.87], [2, "no", 0.12], [3, "yes", 0.55]]
        path = write_csv(tmp_path / "mix.csv", ["f1", "label", "pred"], rows)
        with pytest.raises(DataError, match="share no values"):
            load_table(path, CONFIG)

    def test_rows_with_missing_targets_rejected_with_line_numbers(self, tmp_path):
        rows = [[1, 1, 1], [2, "", 1], [3, 0, 0], [4, 1, ""]]
        path = write_csv(tmp_path / "gaps.csv", ["f1", "label", "pred"], rows)
        ds = load_table(path, CONFIG)
        assert ds.n_records == 2
        assert ds.rejected_rows == (3, 5)  # header is line 1

    def test_non_finite_numeric_target_is_missing(self, tmp_path):
        rows = [["a", "1", "1.0"], ["b", "0", "0.0"], ["a", "1", "1"],
                ["b", "nan", "1.0"], ["a", "0", "0"], ["b", "1", "1.0"]]
        path = write_csv(tmp_path / "nan.csv", ["f", "label", "pred"], rows)
        ds = load_table(path, CONFIG)
        assert ds.correctness.tolist() == [True] * 5
        assert ds.rejected_rows == (5,)  # header is line 1
        assert ds.n_records == 5

    def test_nan_stays_a_label_in_text_targets(self, tmp_path):
        rows = [[1, "cat", "cat"], [2, "nan", "dog"], [3, "nan", "nan"]]
        path = write_csv(tmp_path / "text.csv", ["f", "label", "pred"], rows)
        ds = load_table(path, CONFIG)
        assert ds.correctness.tolist() == [True, False, True]
        assert ds.rejected_rows == ()

    def test_missing_feature_values_masked_not_dropped(self, tmp_path):
        rows = [[1.5, 1, 1], ["", 0, 1], [2.5, 1, 1], ["?", 0, 0]]
        path = write_csv(tmp_path / "mask.csv", ["x", "label", "pred"], rows)
        ds = load_table(path, IngestConfig(ground_truth="label",
                                           prediction="pred",
                                           missing_token="?"))
        assert ds.n_records == 4
        values = ds.features["x"].values
        assert np.isnan(values).tolist() == [False, True, False, True]

    def test_numeric_labels_compare_numerically(self, tmp_path):
        rows = [[1, "1", "1.0"], [2, "0", "0"]]
        path = write_csv(tmp_path / "num.csv", ["f1", "label", "pred"], rows)
        ds = load_table(path, CONFIG)
        assert ds.correctness.tolist() == [True, True]

    def test_custom_delimiter(self, tmp_path):
        path = write_csv(tmp_path / "semi.csv", ["f1", "label", "pred"],
                         [[1, 1, 1], [2, 0, 1]], delimiter=";")
        ds = load_table(path, IngestConfig(ground_truth="label",
                                           prediction="pred", delimiter=";"))
        assert ds.n_records == 2
        assert ds.correctness.tolist() == [True, False]

    def test_identical_gt_and_pred_rejected(self, tmp_path):
        path = make_table(tmp_path, [[1, 2, 1, 1]])
        with pytest.raises(ConfigError):
            load_table(path, IngestConfig(ground_truth="label", prediction="label"))

    @pytest.mark.parametrize("header", ["label,pred,x", "x,label,pred"])
    @pytest.mark.parametrize("from_stdin", [False, True])
    def test_byte_order_mark_dropped(self, tmp_path, monkeypatch, header,
                                     from_stdin):
        names = header.split(",")
        rows = [",".join({"label": "1", "pred": p, "x": str(i)}[name]
                         for name in names)
                for i, p in enumerate(["1", "0", "1"])]
        text = "\ufeff" + "\n".join([header] + rows) + "\n"
        if from_stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            path = "-"
        else:
            path = tmp_path / "bom.csv"
            path.write_text(text, encoding="utf-8")
            path = str(path)
        ds = load_table(path, CONFIG)
        assert ds.feature_names == ("x",)
        assert ds.correctness.tolist() == [True, False, True]


class TestInferKinds:
    def build(self, tmp_path, column, **config_kwargs):
        rows = [[v, 1, 1] for v in column]
        path = write_csv(tmp_path / "k.csv", ["x", "label", "pred"], rows)
        cfg = IngestConfig(ground_truth="label", prediction="pred", **config_kwargs)
        return load_table(path, cfg), cfg

    def test_two_distinct_integers_categorical(self, tmp_path):
        ds, _ = self.build(tmp_path, [0, 1] * 20)
        assert ds.features["x"].kind is FeatureKind.CATEGORICAL

    def test_many_distinct_reals_continuous(self, tmp_path):
        ds, _ = self.build(tmp_path, [i + 0.5 for i in range(500)])
        assert ds.features["x"].kind is FeatureKind.CONTINUOUS

    def test_override_beats_inference(self, tmp_path):
        ds, _ = self.build(tmp_path, [i + 0.5 for i in range(500)],
                           overrides={"x": FeatureKind.CATEGORICAL})
        assert ds.features["x"].kind is FeatureKind.CATEGORICAL
        assert len(ds.features["x"].labels) == 500
        assert ds.features["x"].values.tolist() == list(range(500))

    def test_text_column_always_categorical(self, tmp_path):
        ds, _ = self.build(tmp_path, ["a", "b", "c", "d"] * 5,
                           all_numeric=True)
        assert ds.features["x"].kind is FeatureKind.CATEGORICAL

    def test_all_numeric_forces_continuous(self, tmp_path):
        ds, _ = self.build(tmp_path, [0, 1, 2] * 10, all_numeric=True)
        assert ds.features["x"].kind is FeatureKind.CONTINUOUS

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonexistent"):
            self.build(tmp_path, [1, 2, 3],
                       overrides={"ghost": FeatureKind.CATEGORICAL})

    def test_threshold_boundary(self, tmp_path):
        ds, _ = self.build(tmp_path, list(range(10)) * 3,
                           categorical_threshold=10)
        assert ds.features["x"].kind is FeatureKind.CATEGORICAL
        ds, _ = self.build(tmp_path, list(range(11)) * 3,
                           categorical_threshold=10)
        assert ds.features["x"].kind is FeatureKind.CONTINUOUS

    def test_codes_follow_numeric_order_and_keep_labels(self, tmp_path):
        ds, _ = self.build(tmp_path, [10, 2, 2, 30, 10])
        feature = ds.features["x"]
        assert feature.labels == ("2", "10", "30")
        assert feature.values.tolist() == [1, 0, 0, 2, 1]

    def test_continuous_override_on_text_column_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="column 'x' .* value 'b'"):
            self.build(tmp_path, ["1", "", "b", "c"],
                       overrides={"x": FeatureKind.CONTINUOUS})

    def test_values_are_one_read_only_float_view(self, tmp_path):
        ds, _ = self.build(tmp_path, ["b", "", "a"] * 5)
        feature = ds.features["x"]
        assert feature.values.dtype == np.float64
        assert not feature.values.flags.writeable
        assert feature.values[[0, 2]].tolist() == [1.0, 0.0]
        assert np.isnan(feature.values[1])

    def test_non_finite_tokens_missing_in_numeric_column(self, tmp_path):
        column = [i + 0.5 for i in range(200)]
        column[7], column[50] = "NaN", "-inf"
        ds, _ = self.build(tmp_path, column)
        assert ds.features["x"].kind is FeatureKind.CONTINUOUS
        feature = ds.features["x"]
        assert np.flatnonzero(np.isnan(feature.values)).tolist() == [7, 50]
        assert len(feature.labels) == 198
        assert np.isfinite(np.delete(feature.values, [7, 50])).all()

    def test_nan_stays_a_label_in_text_column(self, tmp_path):
        ds, _ = self.build(tmp_path, ["a", "b", "nan"] * 5)
        assert ds.features["x"].kind is FeatureKind.CATEGORICAL
        assert ds.features["x"].labels == ("a", "b", "nan")
        assert not np.isnan(ds.features["x"].values).any()


class TestSummarize:
    def build(self, tmp_path, correct: list[bool]):
        rows = [[i, 1, 1 if c else 0] for i, c in enumerate(correct)]
        path = write_csv(tmp_path / "s.csv", ["x", "label", "pred"], rows)
        return load_table(path, CONFIG)

    def test_statlog_scale_metric(self, tmp_path):
        ds = self.build(tmp_path, [True] * 230 + [False] * 70)
        summary = summarize(ds, 0.95)
        assert summary.n_records == 300 and summary.n_correct == 230
        assert summary.metric == pytest.approx(0.7667, abs=5e-5)
        assert summary.ci_low == pytest.approx(0.715619, abs=1e-5)
        assert summary.ci_high == pytest.approx(0.810972, abs=1e-5)

    def test_perfect_classifier(self, tmp_path):
        ds = self.build(tmp_path, [True] * 10)
        summary = summarize(ds, 0.95)
        assert summary.metric == 1.0
        assert summary.ci_high == 1.0

    def test_permutation_invariant(self, tmp_path):
        flags = [True] * 40 + [False] * 20
        base = summarize(self.build(tmp_path, flags), 0.95)
        rng = np.random.default_rng(1)
        shuffled = list(flags)
        rng.shuffle(shuffled)
        other = summarize(self.build(tmp_path, shuffled), 0.95)
        assert base == other


NUMERIC_CELLS = st.integers(-6, 30).map(lambda i: repr(i / 2))
TEXT_CELLS = st.sampled_from(["a", "b", "c", "nan"])
TARGET_CELLS = st.sampled_from(["0", "1", "2", "nan"])


@st.composite
def tables(draw):
    """(feature kind, cells) per column, plus label and prediction cells;
    an empty string is a missing cell."""
    n = draw(st.integers(1, 12))

    def column(cells):
        return draw(st.lists(cells, min_size=n, max_size=n))

    features = [(kind, column(st.one_of(st.just(""), cells)))
                for kind, cells in draw(st.lists(
                    st.sampled_from([("numeric", NUMERIC_CELLS),
                                     ("text", TEXT_CELLS)]),
                    min_size=1, max_size=3))]
    return features, column(TARGET_CELLS), column(TARGET_CELLS)


class TestCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(table=tables())
    def test_load_table_reads_back_what_was_written(self, tmp_path_factory,
                                                    table):
        features, labels, preds = table
        names = [f"f{j}" for j in range(len(features))]
        rows = [[cells[i] for _, cells in features] + [labels[i], preds[i]]
                for i in range(len(labels))]
        path = write_csv(tmp_path_factory.mktemp("roundtrip") / "t.csv",
                         names + ["label", "pred"], rows)
        kept = [i for i in range(len(labels))
                if "nan" not in (labels[i], preds[i])]
        if not kept:
            with pytest.raises(DataError, match="no usable data rows"):
                load_table(path, CONFIG)
            return
        if not {labels[i] for i in kept} & {preds[i] for i in kept}:
            with pytest.raises(DataError, match="share no values"):
                load_table(path, CONFIG)
            return

        ds = load_table(path, CONFIG)
        assert ds.n_records == len(kept)
        assert ds.rejected_rows == tuple(i + 2 for i in range(len(labels))
                                         if i not in kept)
        assert ds.correctness.tolist() == [labels[i] == preds[i] for i in kept]
        for name, (kind, cells) in zip(names, features):
            present = [cells[i] for i in kept if cells[i] != ""]
            if kind == "numeric" or set(present) <= {"nan"}:
                values = sorted({float(c) for c in present if c != "nan"})
                want_labels = tuple(repr(v) for v in values)
                want_kind = (FeatureKind.CATEGORICAL if len(values) <= 10
                             else FeatureKind.CONTINUOUS)
                want_missing = [cells[i] in ("", "nan") for i in kept]
            else:
                want_labels = tuple(sorted(set(present)))
                want_kind = FeatureKind.CATEGORICAL
                want_missing = [cells[i] == "" for i in kept]
            feature = ds.features[name]
            assert feature.kind is want_kind
            assert feature.labels == want_labels
            assert np.isnan(feature.values).tolist() == want_missing
