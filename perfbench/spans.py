"""Span tracing from outside the program, and the per-layer table it feeds.

``install`` replaces public functions of the ``sliceminer`` modules with
wrappers, at the names their callers look them up under (``cli`` imports
``load_table`` into its own namespace, ``slicer`` calls ``hpd.hpd_scan``
through the module, and so on).  Each wrapper records a span -- name,
start, end, parent -- and, after the span has ended, the counts the layer
table needs.  The work of counting therefore lands in the parent span's
self time and in the reported tracing overhead, never in the layer it
describes.

Runs are single-threaded (``--workers 1``), so one stack of open spans is
enough to know each span's parent.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

ROOT = "process"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.nk: set[tuple[int, int]] = set()
        self.filters = None

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr)
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.monotonic

        def wrapper(*args, **kwargs):
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        doc = {"names": self.names, "spans": self.spans,
               "counts": dict(self.counts),
               "distinct_nk": len(self.nk)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the pipeline's layer boundaries (imports sliceminer)."""
    from sliceminer import cli, dtree, hpd, slicer

    c = tracer.counts

    def on_load(args, dataset):
        c["dataset.load_table.rows"] += dataset.n_records
        c["dataset.load_table.bytes"] += os.path.getsize(args[0])

    def on_filters(args, filters):
        tracer.filters = filters

    def on_one_way(args, slices):
        c["slicer.generate_one_way.candidates"] += len(slices)

    def on_higher(args, slices):
        c["slicer.generate_higher_order.candidates"] += len(slices)
        c["slicer.generate_higher_order.unique_keys"] += len(
            {sl.predicate_key() for sl in slices})
        dt = sum(1 for sl in slices if sl.heuristic.value == "dt")
        c["slicer.generate_higher_order.route.dt"] += dt
        c["slicer.generate_higher_order.route.conditioning"] += len(slices) - dt

    def on_membership(args, mask):
        dataset, sl = args
        c["slicer.membership.rows_scanned"] += dataset.n_records * len(sl.predicates)

    def on_pvalue(args, p):
        population, successes, draws, _ = args
        lo = max(0, draws - (population - successes))
        hi = min(draws, successes)
        c["stats.hypergeom_lower_pvalue.tail_terms"] += hi - lo + 1
        tracer.nk.add((draws, args[3]))

    def on_evaluate(args, stats):
        f = tracer.filters
        if (stats.support >= f.min_support
                and stats.performance <= f.perf_threshold):
            c["slicer.evaluate_slice.gate_pass"] += 1

    def on_filter(args, kept):
        evaluated, filters = args
        passing = sum(1 for _, s in evaluated
                      if s.support >= filters.min_support
                      and s.performance <= filters.perf_threshold
                      and s.p_value < filters.p_value_max)
        c["slicer.filter_and_rank.reported"] += len(kept)
        c["slicer.filter_and_rank.duplicates_dropped"] += passing - len(kept)

    def on_render(args, text):
        c["report.bytes"] += len(text.encode("utf-8"))

    tracer.wrap(cli, "load_table", "dataset.load_table", on_load)
    tracer.wrap(cli, "run_analysis", "slicer.run_analysis")
    tracer.wrap(cli, "build_report", "report.build_report")
    tracer.wrap(cli, "render", "report.render", on_render)
    tracer.wrap(slicer, "summarize", "dataset.summarize")
    tracer.wrap(slicer, "resolve_filters", "slicer.resolve_filters", on_filters)
    tracer.wrap(slicer, "generate_one_way", "slicer.generate_one_way", on_one_way)
    tracer.wrap(slicer, "generate_higher_order", "slicer.generate_higher_order",
                on_higher)
    tracer.wrap(slicer, "evaluate_slice", "slicer.evaluate_slice", on_evaluate)
    tracer.wrap(slicer, "membership", "slicer.membership", on_membership)
    tracer.wrap(slicer, "hypergeom_lower_pvalue", "stats.hypergeom_lower_pvalue",
                on_pvalue)
    tracer.wrap(slicer, "filter_and_rank", "slicer.filter_and_rank", on_filter)
    tracer.wrap(hpd, "hpd_scan", "hpd.hpd_scan")
    tracer.wrap(dtree, "fit_tree", "dtree.fit_tree")
    tracer.wrap(dtree, "extract_slices", "dtree.extract_slices")
    tracer.wrap(cli, "main", "cli.main")


def layer_table(doc: dict, launched: float, ended: float) -> dict[str, float]:
    """Per-layer metrics from a span file: inclusive seconds and calls per
    span name, self seconds per span name (a ``process`` root covers launch
    to report written, so self times add up to the traced total), the
    membership split by parent, and the counts the wrappers took."""
    names = doc["names"]
    spans = doc["spans"]
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = [0.0] * len(spans)
    root_children = 0.0
    # seconds and calls of spans made directly under evaluate_slice; the
    # rest of the membership calls are conditioning seeds in generation
    under_eval = defaultdict(float)
    under_eval_calls = defaultdict(int)
    for name_idx, start, end, parent in spans:
        name, duration = names[name_idx], end - start
        total[name] += duration
        calls[name] += 1
        if parent < 0:
            root_children += duration
            continue
        child_time[parent] += duration
        if names[spans[parent][0]] == "slicer.evaluate_slice":
            under_eval[name] += duration
            under_eval_calls[name] += 1
    self_time = defaultdict(float)
    for i, (name_idx, start, end, _) in enumerate(spans):
        self_time[names[name_idx]] += (end - start) - child_time[i]
    self_time[ROOT] = (ended - launched) - root_children

    m: dict[str, float] = {}
    for name in names:
        m[f"{name}.s"] = total[name]
        m[f"{name}.calls"] = calls[name]
    for name in (ROOT, *names):
        m[f"{name}.self_s"] = self_time[name]
    member = "slicer.membership"
    m[f"{member}.in_evaluate.s"] = under_eval[member]
    m[f"{member}.in_evaluate.calls"] = under_eval_calls[member]
    m[f"{member}.in_generation.s"] = total[member] - under_eval[member]
    m[f"{member}.in_generation.calls"] = calls[member] - under_eval_calls[member]
    pvalues = under_eval_calls["stats.hypergeom_lower_pvalue"]
    m["slicer.evaluate_slice.pvalues"] = pvalues
    m.update(doc["counts"])
    m["stats.hypergeom_lower_pvalue.distinct_nk"] = doc["distinct_nk"]
    m["slicer.evaluate_slice.useful_ratio"] = (
        m.get("slicer.evaluate_slice.gate_pass", 0) / pvalues if pvalues else 0.0)
    m["trace.total_s"] = ended - launched
    m["trace.self_sum_s"] = sum(self_time.values())
    m["trace.spans"] = len(spans)
    return m
