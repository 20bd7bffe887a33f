"""Candidate generation, slice evaluation, and the three reporting filters.

One-way analysis enumerates every categorical value and runs the HPD scan on
every continuous feature.  Higher orders come from two routes: conditioning
(rerun single-feature analysis inside each surviving slice, on every other
feature) and small decision trees over feature pairs and triples.  Every
candidate is then re-evaluated directly against the dataset, so reported
numbers never depend on heuristic internals, and kept only if it clears
minimum support, the performance gap, and the hypergeometric significance
test against the whole-dataset record and correct counts.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from . import dtree, hpd
from .dataset import Dataset, DatasetSummary, FeatureKind, summarize
from .hpd import HpdConfig
from .model import Filters, Heuristic, Slice, SliceStats, ValueSet, make_slice
from .stats import hypergeom_lower_pvalue

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "min_support",
    "perf_threshold",
    "resolve_filters",
    "membership",
    "evaluate_slice",
    "generate_one_way",
    "generate_higher_order",
    "filter_and_rank",
    "run_analysis",
]

ALL_HEURISTICS = frozenset({Heuristic.CATEGORICAL, Heuristic.HPD, Heuristic.DT})


@dataclass(frozen=True)
class AnalysisConfig:
    heuristics: frozenset = ALL_HEURISTICS
    max_order: int = 2
    hpd: HpdConfig = field(default_factory=HpdConfig)
    max_depth: int = 5
    p_value_max: float = 0.05
    gap: float = 0.04
    support_fraction: float = 0.05
    support_floor: int = 2
    ci_level: float = 0.95
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.max_order <= 3:
            raise ValueError(f"max_order must be 1..3, got {self.max_order}")
        if not 0.0 < self.p_value_max < 1.0:
            raise ValueError(f"p_value_max must be in (0, 1), got {self.p_value_max}")
        if self.gap < 0.0:
            raise ValueError(f"gap must be >= 0, got {self.gap}")
        if not 0.0 < self.support_fraction < 1.0:
            raise ValueError(
                f"support_fraction must be in (0, 1), got {self.support_fraction}")
        if self.support_floor < 2:
            raise ValueError(f"support_floor must be >= 2, got {self.support_floor}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        unknown = set(self.heuristics) - ALL_HEURISTICS
        if unknown or not self.heuristics:
            raise ValueError(f"heuristics must be a nonempty subset of "
                             f"{sorted(h.value for h in ALL_HEURISTICS)}")


@dataclass(frozen=True)
class AnalysisResult:
    summary: DatasetSummary
    filters: Filters
    reported: tuple[tuple[Slice, SliceStats], ...]
    candidate_counts: dict
    reported_counts: dict
    config: AnalysisConfig


def min_support(summary: DatasetSummary, fraction: float, floor: int) -> int:
    """max(floor, ceil(fraction * mispredicted records))."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if floor < 2:
        raise ValueError(f"floor must be >= 2, got {floor}")
    mispredicted = summary.n_records - summary.n_correct
    return max(floor, math.ceil(fraction * mispredicted))


def perf_threshold(summary: DatasetSummary, gap: float) -> float:
    """CI lower bound minus the gap (absolute points), clamped to [0, 1]."""
    if gap < 0.0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    return min(1.0, max(0.0, summary.ci_low - gap))


def resolve_filters(summary: DatasetSummary, config: AnalysisConfig) -> Filters:
    return Filters(
        min_support=min_support(summary, config.support_fraction, config.support_floor),
        perf_threshold=perf_threshold(summary, config.gap),
        p_value_max=config.p_value_max,
    )


def membership(dataset: Dataset, sl: Slice) -> np.ndarray:
    """Boolean mask of records satisfying every predicate of the slice.

    Records missing a value in any of the slice's features are non-members.
    """
    mask = np.ones(dataset.n_records, dtype=bool)
    for name, pred in sl.predicates:
        if isinstance(pred, ValueSet):
            mask &= pred.contains(dataset.codes_for(name))
        else:
            values = dataset.numeric_view(name)
            inside = pred.contains(values)
            inside &= np.isfinite(values)
            mask &= inside
    return mask


_EMPTY_STATS = SliceStats(support=0, correct=0, performance=float("nan"), p_value=1.0)


def evaluate_slice(dataset: Dataset, sl: Slice) -> SliceStats:
    """Exact membership counts plus the lower-tail p-value against the
    dataset-level totals.  An empty slice yields the distinguished
    (0, 0, NaN, 1.0) result, which no filter ever passes."""
    mask = membership(dataset, sl)
    n = int(mask.sum())
    if n == 0:
        return _EMPTY_STATS
    k = int(dataset.correctness[mask].sum())
    p = hypergeom_lower_pvalue(dataset.n_records,
                               int(dataset.correctness.sum()), n, k)
    return SliceStats(support=n, correct=k, performance=k / n, p_value=p)


def _run_tasks(tasks: Sequence[Callable[[], list]], workers: int) -> list:
    """Run generation tasks, merging results in task order regardless of
    worker count."""
    if workers <= 1 or len(tasks) <= 1:
        chunks = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task) for task in tasks]
            chunks = [f.result() for f in futures]
    merged = []
    for chunk in chunks:
        merged.extend(chunk)
    return merged


def _conditioned_task(dataset: Dataset, mask: np.ndarray, base: dict,
                      name: str, config: AnalysisConfig
                      ) -> Callable[[], list[Slice]]:
    """Single-feature analysis of ``name`` over the records in ``mask``:
    one slice per category value present, or one per HPD interval, each
    conjoined with the ``base`` predicates."""
    def task() -> list[Slice]:
        if dataset.kind(name) is FeatureKind.CATEGORICAL:
            if Heuristic.CATEGORICAL not in config.heuristics:
                return []
            codes = dataset.codes_for(name)[mask]
            labels = dataset.labels_for(name)
            return [make_slice({**base, name: ValueSet(codes=(code,),
                                                       labels=(labels[code],))},
                               Heuristic.CATEGORICAL)
                    for code in np.unique(codes[codes >= 0]).tolist()]
        if Heuristic.HPD not in config.heuristics:
            return []
        intervals = hpd.hpd_scan(dataset.numeric_view(name)[mask],
                                 dataset.correctness[mask], config.hpd)
        return [make_slice({**base, name: interval}, Heuristic.HPD)
                for interval in intervals]
    return task


def generate_one_way(dataset: Dataset, config: AnalysisConfig) -> list[Slice]:
    """Single-feature candidates: conditioning on the whole dataset, which
    yields every categorical value (labels come from present values only)
    and the HPD scan over every continuous feature."""
    everyone = np.ones(dataset.n_records, dtype=bool)
    tasks = [_conditioned_task(dataset, everyone, {}, name, config)
             for name in dataset.feature_names]
    return _run_tasks(tasks, config.workers)


def _conditioned_tasks(dataset: Dataset, seeds: Sequence[Slice],
                       config: AnalysisConfig) -> list[Callable[[], list[Slice]]]:
    tasks = []
    for seed in seeds:
        seed_mask = membership(dataset, seed)
        base = dict(seed.predicates)
        tasks.extend(_conditioned_task(dataset, seed_mask, base, name, config)
                     for name in dataset.feature_names if name not in base)
    return tasks


def _tree_tasks(dataset: Dataset, subset_size: int, config: AnalysisConfig,
                filters: Filters) -> list[Callable[[], list[Slice]]]:
    kinds = {name: dataset.kind(name) for name in dataset.feature_names}
    labels = {name: dataset.labels_for(name) for name in dataset.feature_names}
    dt_config = dtree.DtConfig(min_leaf=filters.min_support,
                               max_depth=config.max_depth)

    def make_task(names: tuple[str, ...]) -> Callable[[], list[Slice]]:
        def task() -> list[Slice]:
            features = [(name, dataset.numeric_view(name)) for name in names]
            try:
                tree = dtree.fit_tree(features, dataset.correctness, dt_config)
            except ValueError:
                return []  # too few usable rows for this subset
            return dtree.extract_slices(tree, features, kinds, filters, labels)
        return task

    return [make_task(names)
            for names in combinations(dataset.feature_names, subset_size)]


def generate_higher_order(dataset: Dataset, reported_one_way: Sequence[Slice],
                          config: AnalysisConfig, filters: Filters) -> list[Slice]:
    """Order-2 (and order-3) candidates via conditioning and decision trees.

    Conditioning restricts the dataset to each surviving slice's members and
    reruns single-feature analysis on every other feature; trees are fitted
    on every feature pair (and triple at max_order 3).  Order-3 conditioning
    is seeded by the order-2 slices that survive all three filters.
    """
    if config.max_order < 2:
        return []
    tasks = _conditioned_tasks(dataset, reported_one_way, config)
    if Heuristic.DT in config.heuristics:
        tasks.extend(_tree_tasks(dataset, 2, config, filters))
    order2 = _run_tasks(tasks, config.workers)
    if config.max_order < 3:
        return order2

    evaluated2 = [(sl, evaluate_slice(dataset, sl)) for sl in order2]
    surviving2 = [sl for sl, _ in filter_and_rank(evaluated2, filters)
                  if sl.order == 2]
    tasks3 = _conditioned_tasks(dataset, surviving2, config)
    if Heuristic.DT in config.heuristics:
        tasks3.extend(_tree_tasks(dataset, 3, config, filters))
    return order2 + _run_tasks(tasks3, config.workers)


def _first_per_predicate(evaluated: Iterable[tuple[Slice, SliceStats]]
                         ) -> list[tuple[Slice, SliceStats]]:
    """Keep the first occurrence of each predicate.  Duplicates share their
    stats, so gating before or after this keeps the same slices."""
    seen = set()
    kept = []
    for sl, stats in evaluated:
        key = sl.predicate_key()
        if key not in seen:
            seen.add(key)
            kept.append((sl, stats))
    return kept


def filter_and_rank(evaluated: Sequence[tuple[Slice, SliceStats]],
                    filters: Filters) -> list[tuple[Slice, SliceStats]]:
    """Apply the three gates, dedupe exact predicates (first occurrence wins),
    and rank by p-value, then support, then feature names."""
    kept = _first_per_predicate(
        (sl, stats) for sl, stats in evaluated
        if stats.support >= filters.min_support
        and stats.performance <= filters.perf_threshold
        and stats.p_value < filters.p_value_max)
    kept.sort(key=lambda pair: (pair[1].p_value, -pair[1].support,
                                pair[0].features))
    return kept


def run_analysis(dataset: Dataset, config: AnalysisConfig) -> AnalysisResult:
    """Full pipeline: summary, filters, one-way, higher orders, final report
    set, with candidate/reported counts per (heuristic, order)."""
    summary = summarize(dataset, config.ci_level)
    filters = resolve_filters(summary, config)

    emitted = [(sl, evaluate_slice(dataset, sl))
               for sl in generate_one_way(dataset, config)]
    reported_one_way = filter_and_rank(emitted, filters)
    higher = generate_higher_order(dataset, [sl for sl, _ in reported_one_way],
                                   config, filters)
    emitted.extend((sl, evaluate_slice(dataset, sl)) for sl in higher)

    candidates = _first_per_predicate(
        (sl, stats) for sl, stats in emitted
        if stats.support >= filters.min_support
        and stats.performance <= filters.perf_threshold)
    reported = filter_and_rank(emitted, filters)

    candidate_counts = dict(Counter((sl.heuristic.value, sl.order)
                                    for sl, _ in candidates))
    reported_counts = dict(Counter((sl.heuristic.value, sl.order)
                                   for sl, _ in reported))
    return AnalysisResult(summary=summary, filters=filters,
                          reported=tuple(reported),
                          candidate_counts=candidate_counts,
                          reported_counts=reported_counts,
                          config=config)
