"""The run's report document, and its rendering as JSON, markdown, or CSV.

``build_report`` assembles the one document every format renders from; JSON
is its canonical machine form: versioned, sorted keys, stable byte output.
Its bytes are exactly ``json.dumps(doc, indent=2, sort_keys=True,
ensure_ascii=False)`` plus a newline; each slice entry is written by one
f-string, which reuses the previous entry's number text where its p-value
or performance repeats.  Markdown and CSV show performance to 3 decimals
and p-values in scientific notation with a 2-digit significand.  Predicate
strings render intervals as inclusive "low–high" spans over actual data
values (en dash separator, so negative bounds stay unambiguous) and
category sets as the original labels of their codes, read from the feature
(``Feature.labels``).
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Sequence

from .dataset import Dataset, FeatureKind
from .model import FeaturePredicate, Heuristic, Slice, SliceStats, ValueSet
from .slicer import MAX_DEPTH, AnalysisResult

__all__ = [
    "SCHEMA_VERSION",
    "FORMATS",
    "render_predicate",
    "summarize_supports",
    "build_report",
    "render",
]

SCHEMA_VERSION = 1

_DASH = "–"   # en dash between interval bounds
# labels holding "∪" are quoted too: their rendered bytes are report format
_NEEDS_QUOTE = set(',()"') | {_DASH, "∪"}


def _quote_label(label: str) -> str:
    if (label == "" or label != label.strip()
            or any(ch in _NEEDS_QUOTE for ch in label)):
        return '"' + label.replace('"', '""') + '"'
    return label


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return repr(int(value))
    return repr(value)


def render_predicate(pred: FeaturePredicate, labels: Sequence[str]) -> str:
    """Canonical string of one feature's predicate: a label, a parenthesised
    list of ``labels`` (the feature's, in code order), or an interval span."""
    if isinstance(pred, ValueSet):
        rendered = [_quote_label(labels[code]) for code in pred.codes]
        if len(rendered) == 1:
            return rendered[0]
        return "(" + ", ".join(rendered) + ")"
    return f"{_format_number(pred.low)}{_DASH}{_format_number(pred.high)}"


def summarize_supports(slices: Sequence[tuple[Slice, SliceStats]]
                       ) -> dict[tuple[str, int], dict]:
    """Count/min/avg/max/std of supports per (heuristic, order) group, as
    the report's ``support_summary`` entries, sorted by heuristic name and
    order.  Grouped by the enum member, so ``.value`` is read once per
    group, not once per slice."""
    groups: dict[tuple[Heuristic, int], list[int]] = {}
    for sl, stats in slices:
        groups.setdefault((sl.heuristic, sl.order), []).append(stats.support)
    out = {}
    for (heuristic, order), supports in sorted(
            ((h.value, order), supports)
            for (h, order), supports in groups.items()):
        count = len(supports)
        avg = sum(supports) / count
        std = math.sqrt(sum((s - avg) ** 2 for s in supports) / count)
        out[(heuristic, order)] = {
            "heuristic": heuristic, "order": order, "count": count,
            "min": min(supports), "avg": avg, "max": max(supports), "std": std}
    return out


def _counts_doc(counts: dict) -> dict:
    return {f"{heuristic}:{order}": value
            for (heuristic, order), value in sorted(counts.items())}


def build_report(result: AnalysisResult, dataset: Dataset,
                 extra_config: dict | None = None) -> dict:
    """The run's report document, the one ``docs/report_schema.json``
    describes; every format renders from it."""
    cfg = result.config
    config = {
        "heuristics": sorted(h.value for h in cfg.heuristics),
        "max_order": cfg.max_order,
        "p_value_max": cfg.p_value_max,
        "gap": cfg.gap,
        "support_fraction": cfg.support_fraction,
        "support_floor": cfg.support_floor,
        "epsilon": cfg.hpd.epsilon,
        "initial_density": cfg.hpd.initial_density,
        "min_density_floor": cfg.hpd.min_density_floor,
        "max_depth": MAX_DEPTH,
        "ci_level": cfg.ci_level,
    }
    if extra_config:
        config.update(extra_config)

    slices = []
    referenced: dict[str, dict] = {}
    # keyed by the (name, pred) item itself: two features can share codes
    rendered: dict[tuple, str] = {}
    heuristic_names = {h: h.value for h in Heuristic}
    for sl, stats in result.reported:
        predicates = {}
        for item in sl.predicates:
            text = rendered.get(item)
            if text is None:
                name, pred = item
                feature = dataset.features[name]
                text = rendered[item] = render_predicate(pred, feature.labels)
                if name not in referenced:  # its first predicate rendered
                    entry = {"kind": feature.kind.value}
                    if feature.kind is FeatureKind.CATEGORICAL:
                        entry["values"] = list(feature.labels)
                    referenced[name] = entry
            predicates[item[0]] = text
        slices.append({"features": list(predicates), "predicates": predicates,
                       "heuristic": heuristic_names[sl.heuristic],
                       "order": sl.order,
                       "support": stats.support, "correct": stats.correct,
                       "performance": stats.performance,
                       "p_value": stats.p_value})

    s = result.summary
    f = result.filters
    return {
        "schema_version": SCHEMA_VERSION,
        "dataset": {
            "records": s.n_records,
            "correct": s.n_correct,
            "metric": s.metric,
            "ci_low": s.ci_low,
            "ci_high": s.ci_high,
            "ci_level": s.ci_level,
            "ci_method": s.ci_method,
        },
        "filters": {
            "min_support": f.min_support,
            "perf_threshold": f.perf_threshold,
            "p_value_max": f.p_value_max,
        },
        "config": config,
        "counts": {
            "candidates": _counts_doc(result.candidate_counts),
            "reported": _counts_doc(result.reported_counts),
        },
        "features": referenced,
        "support_summary": list(summarize_supports(result.reported).values()),
        "slices": slices,
    }


def _fmt_perf(value: float) -> str:
    return f"{value:.3f}"


def _fmt_pvalue(value: float) -> str:
    return f"{value:.1E}"


_SLICE_FIELDS = itemgetter("correct", "features", "heuristic", "order",
                           "p_value", "performance", "predicates", "support")
_ITEM_SEP = ",\n        "


def _render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)``
    plus a newline, byte for byte.  The small sections go through
    ``json.dumps`` and are indented by replacing newlines (a JSON string
    holds no raw newline).  Each slice entry is one f-string laid out as
    ``json.dumps`` lays it out inside the top-level list, its keys the
    schema's, sorted, and its values encoded as ``json`` encodes them:
    strings by its C encoder, floats by ``float.__repr__`` (reported
    slices have finite performance and p-value).  Rows come ranked by
    p-value, so equal numbers sit next to each other: a row reuses the
    previous row's p-value and performance text when the value is equal
    and nonzero (``0.0 == -0.0``, but they are written apart).  Every piece
    is appended to ``text``, the one reference to the text (see
    ``render``)."""
    encode = encode_basestring
    number = float.__repr__
    text = ""
    separator = "{\n  "
    for key in sorted(report):
        text += f"{separator}{encode(key)}: "
        separator = ",\n  "
        if key != "slices":
            text += json.dumps(report[key], indent=2, sort_keys=True,
                               ensure_ascii=False).replace("\n", "\n  ")
            continue
        rows = report["slices"]
        if not rows:
            text += "[]"
            continue
        row_separator = "[\n    "
        last_p = last_perf = 0.0  # zero is never reused: the first row encodes
        p_text = perf_text = ""
        for (correct, features, heuristic, order, p_value, performance,
             predicates, support) in map(_SLICE_FIELDS, rows):
            if p_value != last_p or not p_value:
                last_p, p_text = p_value, number(p_value)
            if performance != last_perf or not performance:
                last_perf, perf_text = performance, number(performance)
            items = _ITEM_SEP.join([f"{encode(name)}: {encode(value)}"
                                    for name, value
                                    in sorted(predicates.items())])
            text += f"""{row_separator}{{
      "correct": {correct},
      "features": [
        {_ITEM_SEP.join(map(encode, features))}
      ],
      "heuristic": {encode(heuristic)},
      "order": {order},
      "p_value": {p_text},
      "performance": {perf_text},
      "predicates": {{
        {items}
      }},
      "support": {support}
    }}"""
            row_separator = ",\n    "
        text += "\n  ]"
    text += "\n}\n"
    return text


def _md_cell(text: str) -> str:
    """Text safe in one markdown table cell: pipes escaped, line breaks
    as ``<br>`` so the row stays on one line."""
    return (text.replace("|", r"\|").replace("\r\n", "<br>")
            .replace("\n", "<br>").replace("\r", "<br>"))


def _render_markdown(report: dict) -> str:
    d = report["dataset"]
    f = report["filters"]
    dataset = (f"| {d['records']} | {d['correct']} | {_fmt_perf(d['metric'])} "
               f"| {_fmt_perf(d['ci_low'])} | {_fmt_perf(d['ci_high'])} "
               f"| {d['ci_level']:g} | {d['ci_method']} |")
    filters = (f"support >= {f['min_support']}, "
               f"performance <= {_fmt_perf(f['perf_threshold'])}, "
               f"p-value < {f['p_value_max']:g}")
    config = ", ".join(f"{key}={value}"
                       for key, value in sorted(report["config"].items()))
    text = f"""# Under-performing slice report

## Dataset

| records | correct | metric | CI low | CI high | CI level | CI method |
|---|---|---|---|---|---|---|
{dataset}

Filters: {filters}.

Config: {config}

## Counts (candidates -> reported)

| heuristic | order | candidates | reported |
|---|---|---|---|
"""
    candidates = report["counts"]["candidates"]
    reported = report["counts"]["reported"]
    # heuristic names are lowercase and orders one digit, so the keys sort
    # as their (heuristic, order) pairs do
    for key in sorted(candidates.keys() | reported.keys()):
        heuristic, order = key.split(":")
        text += (f"| {heuristic} | {order} | {candidates.get(key, 0)} "
                 f"| {reported.get(key, 0)} |\n")
    text += """
## Reported slices

| feature | value | support | performance | p-value | heuristic | order |
|---|---|---|---|---|---|---|
"""
    for row in report["slices"]:
        names = _md_cell(", ".join(row["features"]))
        if len(row["features"]) > 1:
            names = f"({names})"
        values = _md_cell(", ".join(row["predicates"].values()))
        text += (f"| {names} | {values} | {row['support']} "
                 f"| {_fmt_perf(row['performance'])} "
                 f"| {_fmt_pvalue(row['p_value'])} "
                 f"| {row['heuristic']} | {row['order']} |\n")
    text += """
## Support summary

| heuristic | order | count | min | avg | max | std |
|---|---|---|---|---|---|---|
"""
    for g in report["support_summary"]:
        text += (f"| {g['heuristic']} | {g['order']} | {g['count']} "
                 f"| {g['min']} | {g['avg']:.1f} | {g['max']} "
                 f"| {g['std']:.1f} |\n")
    return text


CSV_COLUMNS = ["features", "predicate", "heuristic", "order", "support",
               "correct", "performance", "p_value"]


class _LastRow:
    """A ``csv.writer`` file that keeps only the row written last:
    ``writerow`` calls ``write`` once, with the whole row."""

    __slots__ = ("row",)

    def write(self, row: str) -> None:
        self.row = row


def _render_csv(report: dict) -> str:
    last = _LastRow()
    writer = csv.writer(last, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    text = last.row
    for row in report["slices"]:
        predicate = "; ".join(f"{name}={value}"
                              for name, value in row["predicates"].items())
        writer.writerow([", ".join(row["features"]), predicate,
                         row["heuristic"], row["order"], row["support"],
                         row["correct"], _fmt_perf(row["performance"]),
                         _fmt_pvalue(row["p_value"])])
        text += last.row
    return text


_RENDERERS = {
    "json": _render_json,
    "markdown": _render_markdown,
    "csv": _render_csv,
}

FORMATS = tuple(_RENDERERS)


def render(report: dict, format: str) -> str:
    """Render a report document (``build_report``); format is one of
    ``FORMATS``: json, markdown, csv.

    Each renderer appends every piece to one local ``str``, ``text``.
    CPython resizes a string that only one local references in place on
    ``text += piece``, so the text is held once rather than as parts plus
    their join; a piece wider than the text so far (the first non-ASCII
    one) costs one copy.  Under a trace or profile function CPython 3.11
    does not resize in place, and each append copies the text so far.
    This moves memory and time, never the bytes."""
    try:
        renderer = _RENDERERS[format]
    except KeyError:
        raise ValueError(f"unsupported report format: {format!r}") from None
    return renderer(report)
