"""Render reported slices and run-level summaries as JSON, markdown, or CSV.

JSON is the canonical machine format: versioned, sorted keys, stable byte
output.  Markdown and CSV show performance to 3 decimals and p-values in
scientific notation with a 2-digit significand.  Predicate strings render
intervals as inclusive "low–high" spans over actual data values (en dash
separator, so negative bounds stay unambiguous) and category sets as original
labels; ``parse_predicate`` turns them back into predicates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from .dataset import Dataset, DatasetSummary, FeatureKind
from .model import (FeaturePredicate, Filters, Interval, Slice, SliceStats,
                    ValueSet)
from .slicer import AnalysisResult

__all__ = [
    "SCHEMA_VERSION",
    "SliceReport",
    "SummaryStats",
    "RunReport",
    "render_predicate",
    "parse_predicate",
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


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return repr(int(value))
    return repr(value)


def render_predicate(pred: FeaturePredicate) -> str:
    """Canonical predicate string: parse_predicate inverts it exactly."""
    if isinstance(pred, ValueSet):
        rendered = [_quote_label(label) for label in pred.labels]
        if len(rendered) == 1:
            return rendered[0]
        return "(" + ", ".join(rendered) + ")"
    return f"{_format_number(pred.low)}{_DASH}{_format_number(pred.high)}"


def parse_predicate(text: str, kind: FeatureKind,
                    labels: Sequence[str] = ()) -> FeaturePredicate:
    """Invert render_predicate given the feature kind (and its labels when
    categorical).  An interval must be one finite, non-inverted span."""
    if kind is FeatureKind.CATEGORICAL:
        body = text[1:-1] if text.startswith("(") and text.endswith(")") else text
        wanted = _split_labels(body)
        code_of = {label: code for code, label in enumerate(labels)}
        try:
            codes = sorted(code_of[label] for label in wanted)
        except KeyError as exc:
            raise ValueError(f"unknown category label {exc.args[0]!r}") from None
        return ValueSet(codes=tuple(codes),
                        labels=tuple(labels[c] for c in codes))
    low_text, dash, high_text = text.partition(_DASH)
    if not dash:
        raise ValueError(f"malformed interval span: {text!r}")
    interval = Interval(float(low_text), float(high_text))
    if not (math.isfinite(interval.low) and math.isfinite(interval.high)):
        raise ValueError(f"non-finite interval bound: {text!r}")
    if interval.low > interval.high:
        raise ValueError(f"inverted interval: {text!r}")
    return interval


@dataclass(frozen=True)
class SliceReport:
    features: tuple[str, ...]
    predicates: tuple[tuple[str, str], ...]  # (feature, rendered predicate)
    heuristic: str
    order: int
    support: int
    correct: int
    performance: float
    p_value: float


@dataclass(frozen=True)
class SummaryStats:
    """Population statistics of reported-slice supports for one group."""

    heuristic: str
    order: int
    count: int
    min: int
    avg: float
    max: int
    std: float


@dataclass(frozen=True)
class RunReport:
    summary: DatasetSummary
    filters: Filters
    config: dict
    candidate_counts: dict
    reported_counts: dict
    slices: tuple[SliceReport, ...]
    support_summary: tuple[SummaryStats, ...]
    features: dict = field(default_factory=dict)  # name -> kind (+ labels)


def summarize_supports(slices: Sequence[tuple[Slice, SliceStats]]
                       ) -> dict[tuple[str, int], SummaryStats]:
    """Count/min/avg/max/std of supports per (heuristic, order) group."""
    groups: dict[tuple[str, int], list[int]] = {}
    for sl, stats in slices:
        groups.setdefault((sl.heuristic.value, sl.order), []).append(stats.support)
    out = {}
    for (heuristic, order), supports in sorted(groups.items()):
        count = len(supports)
        avg = sum(supports) / count
        std = math.sqrt(sum((s - avg) ** 2 for s in supports) / count)
        out[(heuristic, order)] = SummaryStats(
            heuristic=heuristic, order=order, count=count,
            min=min(supports), avg=avg, max=max(supports), std=std)
    return out


def build_report(result: AnalysisResult, dataset: Dataset,
                 extra_config: dict | None = None) -> RunReport:
    """Assemble the self-describing run report from a pipeline result."""
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
        "max_depth": cfg.max_depth,
        "ci_level": cfg.ci_level,
    }
    if extra_config:
        config.update(extra_config)

    slices = []
    referenced: dict[str, dict] = {}
    for sl, stats in result.reported:
        rendered = tuple((name, render_predicate(pred))
                         for name, pred in sl.predicates)
        slices.append(SliceReport(
            features=sl.features, predicates=rendered,
            heuristic=sl.heuristic.value, order=sl.order,
            support=stats.support, correct=stats.correct,
            performance=stats.performance, p_value=stats.p_value))
        for name in sl.features:
            if name not in referenced:
                feature = dataset.features[name]
                entry = {"kind": feature.kind.value}
                if feature.kind is FeatureKind.CATEGORICAL:
                    entry["values"] = list(feature.labels)
                referenced[name] = entry

    support_summary = tuple(summarize_supports(result.reported).values())
    return RunReport(summary=result.summary, filters=result.filters,
                     config=config, candidate_counts=result.candidate_counts,
                     reported_counts=result.reported_counts,
                     slices=tuple(slices), support_summary=support_summary,
                     features=referenced)


def _counts_doc(counts: dict) -> dict:
    return {f"{heuristic}:{order}": value
            for (heuristic, order), value in sorted(counts.items())}


def _json_doc(report: RunReport) -> dict:
    s = report.summary
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
            "min_support": report.filters.min_support,
            "perf_threshold": report.filters.perf_threshold,
            "p_value_max": report.filters.p_value_max,
        },
        "config": report.config,
        "counts": {
            "candidates": _counts_doc(report.candidate_counts),
            "reported": _counts_doc(report.reported_counts),
        },
        "features": report.features,
        "support_summary": [
            {"heuristic": g.heuristic, "order": g.order, "count": g.count,
             "min": g.min, "avg": g.avg, "max": g.max, "std": g.std}
            for g in report.support_summary
        ],
        "slices": [
            {"features": list(row.features),
             "predicates": {name: text for name, text in row.predicates},
             "heuristic": row.heuristic,
             "order": row.order,
             "support": row.support,
             "correct": row.correct,
             "performance": row.performance,
             "p_value": row.p_value}
            for row in report.slices
        ],
    }


def _fmt_perf(value: float) -> str:
    return f"{value:.3f}"


def _fmt_pvalue(value: float) -> str:
    return f"{value:.1E}"


def _render_json(report: RunReport) -> str:
    return json.dumps(_json_doc(report), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def _render_markdown(report: RunReport) -> str:
    s = report.summary
    f = report.filters
    lines = [
        "# Under-performing slice report",
        "",
        "## Dataset",
        "",
        "| records | correct | metric | CI low | CI high | CI level | CI method |",
        "|---|---|---|---|---|---|---|",
        f"| {s.n_records} | {s.n_correct} | {_fmt_perf(s.metric)} "
        f"| {_fmt_perf(s.ci_low)} | {_fmt_perf(s.ci_high)} "
        f"| {s.ci_level:g} | {s.ci_method} |",
        "",
        f"Filters: support >= {f.min_support}, "
        f"performance <= {_fmt_perf(f.perf_threshold)}, "
        f"p-value < {f.p_value_max:g}.",
        "",
        "Config: " + ", ".join(f"{key}={value}"
                               for key, value in sorted(report.config.items())),
        "",
        "## Counts (candidates -> reported)",
        "",
        "| heuristic | order | candidates | reported |",
        "|---|---|---|---|",
    ]
    keys = sorted(set(report.candidate_counts) | set(report.reported_counts))
    for heuristic, order in keys:
        lines.append(f"| {heuristic} | {order} "
                     f"| {report.candidate_counts.get((heuristic, order), 0)} "
                     f"| {report.reported_counts.get((heuristic, order), 0)} |")
    lines += [
        "",
        "## Reported slices",
        "",
        "| feature | value | support | performance | p-value | heuristic | order |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report.slices:
        names = ", ".join(row.features)
        if len(row.features) > 1:
            names = f"({names})"
        values = ", ".join(text for _, text in row.predicates)
        lines.append(f"| {names} | {values} | {row.support} "
                     f"| {_fmt_perf(row.performance)} | {_fmt_pvalue(row.p_value)} "
                     f"| {row.heuristic} | {row.order} |")
    lines += [
        "",
        "## Support summary",
        "",
        "| heuristic | order | count | min | avg | max | std |",
        "|---|---|---|---|---|---|---|",
    ]
    for g in report.support_summary:
        lines.append(f"| {g.heuristic} | {g.order} | {g.count} | {g.min} "
                     f"| {g.avg:.1f} | {g.max} | {g.std:.1f} |")
    return "\n".join(lines) + "\n"


CSV_COLUMNS = ["features", "predicate", "heuristic", "order", "support",
               "correct", "performance", "p_value"]


def _render_csv(report: RunReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.slices:
        predicate = "; ".join(f"{name}={text}" for name, text in row.predicates)
        writer.writerow([", ".join(row.features), predicate, row.heuristic,
                         row.order, row.support, row.correct,
                         _fmt_perf(row.performance), _fmt_pvalue(row.p_value)])
    return buffer.getvalue()


_RENDERERS = {
    "json": _render_json,
    "markdown": _render_markdown,
    "csv": _render_csv,
}


def render(report: RunReport, format: str = "json") -> str:
    """Render a run report; format is one of json, markdown, csv."""
    try:
        renderer = _RENDERERS[format]
    except KeyError:
        raise ValueError(f"unsupported report format: {format!r}") from None
    return renderer(report)
