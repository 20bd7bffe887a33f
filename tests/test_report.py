"""Rendering: JSON canonical form, markdown/CSV layouts, predicate strings."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer.dataset import FeatureKind
from sliceminer.model import Heuristic, Interval, SliceStats, ValueSet, make_slice
from sliceminer.report import (CSV_COLUMNS, build_report, parse_predicate,
                               render, render_predicate, summarize_supports)
from sliceminer.slicer import AnalysisConfig, membership, run_analysis
from tests.conftest import dataset_from_columns

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json")
    .read_text())


def small_run(tmp_path, seed=5):
    rng = np.random.default_rng(seed)
    n = 300
    group = rng.choice(["one", "two", "three"], n)
    x = rng.uniform(-2.0, 2.0, n)
    correct = rng.random(n) < 0.92
    correct[(group == "one")] &= rng.random(n)[(group == "one")] < 0.5
    ds = dataset_from_columns(
        tmp_path, {"group": group.tolist(), "x": [f"{v:.9f}" for v in x]},
        correct.tolist())
    result = run_analysis(ds, AnalysisConfig())
    return ds, result


class TestSummarizeSupports:
    def stats(self, support):
        return SliceStats(support=support, correct=0, performance=0.0,
                          p_value=0.01)

    def test_two_element_group(self):
        sl = make_slice({"f": ValueSet((0,), ("a",))}, Heuristic.HPD)
        groups = summarize_supports([(sl, self.stats(3)), (sl, self.stats(80))])
        got = groups[("hpd", 1)]
        assert (got["min"], got["max"]) == (3, 80)
        assert got["avg"] == pytest.approx(41.5)
        assert got["std"] == pytest.approx(38.5)

    def test_single_slice(self):
        sl = make_slice({"f": ValueSet((0,), ("a",))}, Heuristic.DT)
        got = summarize_supports([(sl, self.stats(17))])[("dt", 1)]
        assert got == {"heuristic": "dt", "order": 1, "count": 1, "min": 17,
                       "avg": 17, "max": 17, "std": 0.0}

    def test_no_slices(self):
        assert summarize_supports([]) == {}

    def test_groups_are_separate(self):
        a = make_slice({"f": ValueSet((0,), ("a",))}, Heuristic.HPD)
        b = make_slice({"f": ValueSet((0,), ("a",)),
                        "g": ValueSet((0,), ("b",))}, Heuristic.HPD)
        groups = summarize_supports([(a, self.stats(10)), (b, self.stats(20))])
        assert set(groups) == {("hpd", 1), ("hpd", 2)}


class TestPredicateStrings:
    def test_interval_union_round_trip(self):
        pred = Interval(-0.633, -0.2)
        text = render_predicate(pred)
        assert text == "-0.633–-0.2"
        assert parse_predicate(text, FeatureKind.CONTINUOUS) == pred

    @pytest.mark.parametrize("text", [
        "-0.633–-0.2 ∪ 0.18–2.5",  # a feature takes one interval
        "2–1",
        "nan–1",
        "0–inf",
        "1.5",
    ])
    def test_malformed_interval_rejected(self, text):
        with pytest.raises(ValueError):
            parse_predicate(text, FeatureKind.CONTINUOUS)

    def test_value_set_round_trip(self):
        labels = ("2", "3", "4", "5")
        pred = ValueSet((1, 2, 3), ("3", "4", "5"))
        text = render_predicate(pred)
        assert text == "(3, 4, 5)"
        assert parse_predicate(text, FeatureKind.CATEGORICAL,
                               ("2", "3", "4", "5")) == pred

    def test_single_value_renders_bare(self):
        pred = ValueSet((0,), ("5",))
        assert render_predicate(pred) == "5"
        assert parse_predicate("5", FeatureKind.CATEGORICAL, ("5",)) == pred

    def test_awkward_labels_survive(self):
        labels = ('plain', 'with, comma', 'quo"te', ' padded ', 'uni–dash')
        pred = ValueSet(tuple(range(5)), labels)
        text = render_predicate(pred)
        assert parse_predicate(text, FeatureKind.CATEGORICAL, labels) == pred

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=2,
                    max_size=2))
    def test_random_interval_unions_round_trip(self, bounds):
        pred = Interval(*sorted(bounds))
        assert parse_predicate(render_predicate(pred),
                               FeatureKind.CONTINUOUS) == pred

    def test_pipeline_predicates_round_trip_membership(self, tmp_path):
        ds, result = small_run(tmp_path)
        assert result.reported
        for sl, _ in result.reported[:40]:
            for name, pred in sl.predicates:
                text = render_predicate(pred)
                feature = ds.features[name]
                back = parse_predicate(text, feature.kind, feature.labels)
                rebuilt = make_slice(
                    {**dict(sl.predicates), name: back}, sl.heuristic)
                assert (membership(ds, rebuilt) == membership(ds, sl)).all()


class TestRenderJson:
    def test_round_trip_is_byte_identical(self, tmp_path):
        ds, result = small_run(tmp_path)
        text = render(build_report(result, ds), "json")
        reparsed = json.dumps(json.loads(text), indent=2, sort_keys=True,
                              ensure_ascii=False) + "\n"
        assert reparsed == text

    def test_validates_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        ds, result = small_run(tmp_path)
        doc = build_report(result, ds)
        jsonschema.validate(doc, SCHEMA)
        assert json.loads(render(doc, "json")) == doc

    def test_empty_run_shape(self, tmp_path):
        ds = dataset_from_columns(tmp_path, {"f": [1, 2] * 20}, [True] * 40)
        result = run_analysis(ds, AnalysisConfig())
        doc = json.loads(render(build_report(result, ds), "json"))
        assert doc["slices"] == []
        assert doc["counts"]["reported"] == {}
        assert doc["dataset"]["metric"] == 1.0

    def test_header_records_thresholds(self, tmp_path):
        ds, result = small_run(tmp_path)
        doc = json.loads(render(build_report(result, ds), "json"))
        assert doc["config"]["p_value_max"] == 0.05
        assert doc["config"]["gap"] == 0.04
        assert doc["filters"]["min_support"] == result.filters.min_support
        assert doc["dataset"]["ci_method"] == "wilson"


def table7_style_report():
    return {
        "schema_version": 1,
        "dataset": {"records": 14653, "correct": 12486, "metric": 0.852,
                    "ci_low": 0.845, "ci_high": 0.857, "ci_level": 0.95,
                    "ci_method": "wilson"},
        "filters": {"min_support": 109, "perf_threshold": 0.805,
                    "p_value_max": 0.05},
        "config": {"gap": 0.04},
        "counts": {"candidates": {"categorical:1": 26},
                   "reported": {"categorical:1": 1}},
        "features": {"relationship": {"kind": "categorical"}},
        "support_summary": [],
        "slices": [{"features": ["relationship"],
                    "predicates": {"relationship": "5"},
                    "heuristic": "categorical", "order": 1, "support": 692,
                    "correct": 484, "performance": 0.699, "p_value": 1.2e-25}],
    }


def test_hand_built_report_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(table7_style_report(), SCHEMA)


class TestRenderMarkdown:
    def test_slice_row_layout(self):
        text = render(table7_style_report(), "markdown")
        assert "relationship | 5 | 692 | 0.699 | 1.2E-25" in text
        assert "| categorical | 1 | 26 | 1 |" in text

    def test_pair_slice_parenthesized(self, tmp_path):
        ds, result = small_run(tmp_path)
        text = render(build_report(result, ds), "markdown")
        assert text.startswith("# ")
        if any(sl.order == 2 for sl, _ in result.reported):
            assert "| (" in text


class TestRenderCsv:
    def test_columns_and_rows(self, tmp_path):
        ds, result = small_run(tmp_path)
        text = render(build_report(result, ds), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == len(result.reported) + 1

    def test_written_values_parse_back_identically(self, tmp_path):
        ds, result = small_run(tmp_path)
        text = render(build_report(result, ds), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        for row, (sl, stats) in zip(rows[1:], result.reported):
            assert row[0] == ", ".join(sl.features)
            assert int(row[4]) == stats.support
            assert int(row[5]) == stats.correct
            assert row[6] == f"{stats.performance:.3f}"
            assert row[7] == f"{stats.p_value:.1E}"

    def test_reparsed_csv_is_stable(self, tmp_path):
        # writing the parsed rows again reproduces the same bytes
        ds, result = small_run(tmp_path)
        text = render(build_report(result, ds), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(rows)
        assert buffer.getvalue() == text


class TestRenderDispatch:
    def test_unsupported_format(self):
        with pytest.raises(ValueError, match="unsupported report format"):
            render(table7_style_report(), "yaml")
