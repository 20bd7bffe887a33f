"""Rendering: JSON canonical form, markdown/CSV layouts, predicate strings."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer import report
from sliceminer.dataset import FeatureKind, IngestConfig, load_table
from sliceminer.model import Heuristic, Interval, Slice, SliceStats, ValueSet
from sliceminer.report import (CSV_COLUMNS, FORMATS, build_report, render,
                               render_predicate, summarize_supports)
from sliceminer.slicer import AnalysisConfig, membership, run_analysis
from tests.conftest import dataset_from_columns
from tests.test_golden import load_fixtures

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
        sl = Slice((("f", ValueSet((0,))),), Heuristic.HPD, 1)
        groups = summarize_supports([(sl, self.stats(3)), (sl, self.stats(80))])
        got = groups[("hpd", 1)]
        assert (got["min"], got["max"]) == (3, 80)
        assert got["avg"] == pytest.approx(41.5)
        assert got["std"] == pytest.approx(38.5)

    def test_single_slice(self):
        sl = Slice((("f", ValueSet((0,))),), Heuristic.DT, 1)
        got = summarize_supports([(sl, self.stats(17))])[("dt", 1)]
        assert got == {"heuristic": "dt", "order": 1, "count": 1, "min": 17,
                       "avg": 17, "max": 17, "std": 0.0}

    def test_no_slices(self):
        assert summarize_supports([]) == {}

    def test_groups_are_separate(self):
        a = Slice((("f", ValueSet((0,))),), Heuristic.HPD, 1)
        b = Slice((("f", ValueSet((0,))), ("g", ValueSet((0,)))),
                  Heuristic.HPD, 2)
        groups = summarize_supports([(a, self.stats(10)), (b, self.stats(20))])
        assert set(groups) == {("hpd", 1), ("hpd", 2)}


def _split_labels(text: str) -> list[str]:
    """Split a rendered label list on ', ' while honoring double quotes."""
    labels = []
    buf = []
    in_quotes = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < len(text) and text[i + 1] == '"':
                    buf.append('"')
                    i += 1
                else:
                    in_quotes = False
            else:
                buf.append(ch)
        elif ch == '"':
            in_quotes = True
        elif ch == "," and i + 1 < len(text) and text[i + 1] == " ":
            labels.append("".join(buf))
            buf = []
            i += 1
        else:
            buf.append(ch)
        i += 1
    labels.append("".join(buf))
    return labels


def parse_predicate(text, kind, labels=()):
    """The round-trip oracle of ``render_predicate``: the predicate a
    rendered string stands for, given the feature kind (and its labels when
    categorical).  An interval must be one finite, non-inverted span."""
    if kind is FeatureKind.CATEGORICAL:
        body = text[1:-1] if text.startswith("(") and text.endswith(")") else text
        code_of = {label: code for code, label in enumerate(labels)}
        try:
            codes = sorted(code_of[label] for label in _split_labels(body))
        except KeyError as exc:
            raise ValueError(f"unknown category label {exc.args[0]!r}") from None
        return ValueSet(tuple(codes))
    low_text, dash, high_text = text.partition("–")
    if not dash:
        raise ValueError(f"malformed interval span: {text!r}")
    interval = Interval(float(low_text), float(high_text))
    if not (math.isfinite(interval.low) and math.isfinite(interval.high)):
        raise ValueError(f"non-finite interval bound: {text!r}")
    if interval.low > interval.high:
        raise ValueError(f"inverted interval: {text!r}")
    return interval


class TestPredicateStrings:
    def test_interval_union_round_trip(self):
        pred = Interval(-0.633, -0.2)
        text = render_predicate(pred, ())
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
        pred = ValueSet((1, 2, 3))
        text = render_predicate(pred, labels)
        assert text == "(3, 4, 5)"
        assert parse_predicate(text, FeatureKind.CATEGORICAL, labels) == pred

    def test_single_value_renders_bare(self):
        pred = ValueSet((0,))
        assert render_predicate(pred, ("5",)) == "5"
        assert parse_predicate("5", FeatureKind.CATEGORICAL, ("5",)) == pred

    def test_awkward_labels_survive(self):
        labels = ('plain', 'with, comma', 'quo"te', ' padded ', 'uni–dash')
        pred = ValueSet(tuple(range(5)))
        text = render_predicate(pred, labels)
        assert parse_predicate(text, FeatureKind.CATEGORICAL, labels) == pred

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=2,
                    max_size=2))
    def test_random_interval_unions_round_trip(self, bounds):
        pred = Interval(*sorted(bounds))
        assert parse_predicate(render_predicate(pred, ()),
                               FeatureKind.CONTINUOUS) == pred

    def test_pipeline_predicates_round_trip_membership(self, tmp_path):
        ds, result = small_run(tmp_path)
        assert result.reported
        for sl, _ in result.reported[:40]:
            for name, pred in sl.predicates:
                feature = ds.features[name]
                text = render_predicate(pred, feature.labels)
                back = parse_predicate(text, feature.kind, feature.labels)
                rebuilt = Slice(tuple(
                    (other, back if other == name else kept)
                    for other, kept in sl.predicates), sl.heuristic, sl.order)
                assert (membership(ds, rebuilt) == membership(ds, sl)).all()


class TestRenderJson:
    def test_round_trip_is_byte_identical(self, tmp_path):
        ds, result = small_run(tmp_path)
        doc = build_report(result, ds)
        text = render(doc, "json")
        assert doc["slices"]
        assert text == json.dumps(doc, indent=2, sort_keys=True,
                                  ensure_ascii=False) + "\n"
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


# strings json escapes or must pass through untouched, and floats at the
# edges of float.__repr__
AWKWARD_TEXT = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f\n\t", "\u2028", "\U0001F600",
                     "–", "", 'a "b" \\ c']),
    st.text(max_size=8))
EDGE_FLOATS = st.one_of(st.sampled_from([5e-324, 1e-300, 0.1, 0.0, -0.0, 1.0]),
                        st.floats(0.0, 1.0))
COUNTS = st.integers(0, 10**6)


@st.composite
def report_documents(draw):
    names = draw(st.lists(AWKWARD_TEXT, min_size=1, max_size=3, unique=True))
    features = {}
    for name in names:
        if draw(st.booleans()):
            features[name] = {"kind": "categorical",
                              "values": draw(st.lists(AWKWARD_TEXT,
                                                      max_size=3))}
        else:
            features[name] = {"kind": "continuous"}
    slices = []
    for _ in range(draw(st.integers(0, 3))):
        used = draw(st.lists(st.sampled_from(names), min_size=1,
                             max_size=len(names), unique=True))
        slices.append({
            "features": used,
            "predicates": {name: draw(AWKWARD_TEXT) for name in used},
            "heuristic": draw(st.sampled_from(["categorical", "hpd", "dt"])),
            "order": len(used), "support": draw(COUNTS),
            "correct": draw(COUNTS), "performance": draw(EDGE_FLOATS),
            "p_value": draw(EDGE_FLOATS)})
    return {
        "schema_version": 1,
        "dataset": {"records": draw(COUNTS), "correct": draw(COUNTS),
                    "metric": draw(EDGE_FLOATS), "ci_low": draw(EDGE_FLOATS),
                    "ci_high": draw(EDGE_FLOATS), "ci_level": 0.95,
                    "ci_method": "wilson"},
        "filters": {"min_support": draw(COUNTS),
                    "perf_threshold": draw(EDGE_FLOATS), "p_value_max": 0.05},
        "config": {"gap": draw(EDGE_FLOATS), "ground_truth": draw(AWKWARD_TEXT)},
        "counts": {"candidates": {"hpd:1": draw(COUNTS)},
                   "reported": {"hpd:1": len(slices)}},
        "features": features,
        "support_summary": [],
        "slices": slices,
    }


class TestJsonWriterMatchesJsonDumps:
    @settings(max_examples=200, deadline=None)
    @given(report_documents())
    def test_same_bytes_as_json_dumps(self, doc):
        assert render(doc, "json") == json.dumps(
            doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    def test_repeated_numbers_and_signed_zeros(self):
        # rows come ranked by p-value, so equal numbers sit next to each
        # other; 0.0 == -0.0, yet each is written as itself
        doc = table7_style_report()
        row = doc["slices"][0]
        doc["slices"] = [
            {**row, "p_value": 1.2e-25, "performance": 0.699},
            {**row, "p_value": 1.2e-25, "performance": 0.699},
            {**row, "p_value": 0.0, "performance": 0.0},
            {**row, "p_value": -0.0, "performance": -0.0},
            {**row, "p_value": 0.0, "performance": 0.0}]
        text = render(doc, "json")
        assert text == json.dumps(
            doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert text.count('"p_value": -0.0,') == 1

    def test_slice_template_keys_are_the_schema_keys_sorted(self):
        text = render(table7_style_report(), "json")
        row = text.partition('"slices": [')[2]
        keys = re.findall(r'^      "(\w+)":', row, re.MULTILINE)
        assert keys == sorted(SCHEMA["properties"]["slices"]["items"]["required"])


def test_each_distinct_predicate_rendered_once(tmp_path, monkeypatch):
    ds, result = small_run(tmp_path)
    calls = []
    render_one = report.render_predicate

    def counting(pred, labels):
        calls.append((pred, labels))
        return render_one(pred, labels)

    monkeypatch.setattr(report, "render_predicate", counting)
    doc = build_report(result, ds)
    distinct = {(pred, ds.features[name].labels)
                for sl, _ in result.reported for name, pred in sl.predicates}
    assert sorted(map(repr, calls)) == sorted(map(repr, distinct))
    assert sum(len(sl.predicates) for sl, _ in result.reported) > len(distinct)
    assert [row["predicates"] for row in doc["slices"]] == [
        {name: render_one(pred, ds.features[name].labels)
         for name, pred in sl.predicates}
        for sl, _ in result.reported]


def test_features_sharing_codes_render_their_own_labels(tmp_path):
    # "a" and "x" are code 0 of their features and hold the same weak rows,
    # so both one-way slices are ValueSet((0,)); each renders its own label
    n = 200
    weak = [i < 50 for i in range(n)]
    ds = dataset_from_columns(
        tmp_path, {"f1": ["a" if w else "b" for w in weak],
                   "f2": ["x" if w else "y" for w in weak]},
        [not w and i % 10 != 0 for i, w in enumerate(weak)])
    result = run_analysis(ds, AnalysisConfig(
        heuristics=frozenset({Heuristic.CATEGORICAL}), max_order=1))
    preds = [pred for sl, _ in result.reported for _, pred in sl.predicates]
    assert preds == [ValueSet((0,)), ValueSet((0,))]
    doc = build_report(result, ds)
    rendered = sorted(list(row["predicates"].items()) for row in doc["slices"])
    assert rendered == [[("f1", "a")], [("f2", "x")]]


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

    def test_pipe_in_names_and_labels_escaped(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 300
        group = rng.choice(["a|b", "c", "d"], n)
        correct = rng.random(n) < 0.95
        correct[group == "a|b"] &= rng.random(n)[group == "a|b"] < 0.5
        ds = dataset_from_columns(
            tmp_path, {"gr|p": group.tolist(),
                       "x": [f"{v:.6f}" for v in rng.uniform(0, 1, n)]},
            correct.tolist())
        doc = build_report(run_analysis(ds, AnalysisConfig()), ds)
        text = render(doc, "markdown")
        table = text.split("## Reported slices\n\n")[1].split("\n\n")[0]
        rows = table.splitlines()
        assert len(rows) == len(doc["slices"]) + 2
        for row in rows:  # a cell boundary is a "|" not escaped as "\|"
            assert len(re.split(r"(?<!\\)\|", row)) == 7 + 2, row
        assert "| gr\\|p | a\\|b | " in text
        # the other formats keep the raw names and labels
        assert '"gr|p": "a|b"' in render(doc, "json")
        assert "\ngr|p,gr|p=a|b," in render(doc, "csv")

    def test_line_breaks_in_names_and_labels_kept_in_one_row(self, tmp_path):
        # 100 rows per label; those with a line break are 30% correct
        breaks = ["re\nd", "bl\r\nue", "gr\ray"]
        path = tmp_path / "breaks.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            writer.writerow(["col\nour", "label", "pred"])
            for i in range(400):
                group = (breaks + ["c"])[i % 4]
                correct = group == "c" or i // 4 % 10 < 3
                writer.writerow([group, 1, int(correct)])
        ds = load_table(str(path), IngestConfig("label", "pred"))
        doc = build_report(run_analysis(ds, AnalysisConfig(max_order=1)), ds)
        text = render(doc, "markdown")
        table = text.split("## Reported slices\n\n")[1].split("\n\n")[0]
        rows = table.split("\n")
        assert len(rows) == len(doc["slices"]) + 2
        for row in rows:
            assert "\r" not in row
            assert len(re.split(r"(?<!\\)\|", row)) == 7 + 2, row
        for label in ("re<br>d", "bl<br>ue", "gr<br>ay"):
            assert f"| col<br>our | {label} | " in text
        # the other formats keep the raw names and labels
        assert '"col\\nour": "re\\nd"' in render(doc, "json")
        assert "col\nour=bl\r\nue" in render(doc, "csv")


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


@pytest.fixture(scope="module")
def order3_document(tmp_path_factory):
    """The report document of the order3-220 benchmark input at seed 1."""
    data = tmp_path_factory.mktemp("order3") / "data.csv"
    load_fixtures().write_planted(str(data), 220, 1)
    ds = load_table(str(data), IngestConfig("label", "pred"))
    return build_report(run_analysis(ds, AnalysisConfig(max_order=3)), ds)


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_holds_the_text_once(order3_document, fmt):
    """Rendering peaks at 1.6 times the text it returns: the text, plus the
    one copy that widens it from 1 to 2 bytes a character when the first
    non-ASCII piece (an en dash) arrives, 1.5 times.  Parts joined at the
    end, or a buffer read out whole, hold the text twice or more."""
    assert len(order3_document["slices"]) == 1385
    tracemalloc.start()
    try:
        text = render(order3_document, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * sys.getsizeof(text)
