"""Candidate generation, slice evaluation, and the three reporting filters.

The search runs one round per order.  Order 1 enumerates every categorical
value and runs the HPD scan on every continuous feature.  Each higher order
comes from two routes: conditioning (rerun single-feature analysis inside
each slice the previous order reported, on every other feature) and small
decision trees over every feature subset of that order.  Each distinct
predicate is then evaluated once, directly against the dataset, so reported
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
from typing import Callable, Sequence

import numpy as np

from . import dtree, hpd
from .dataset import (ConfigError, Dataset, DatasetSummary, FeatureKind,
                      summarize)
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
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
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

    Records missing a value (NaN) in any of the slice's features are
    non-members: NaN lies in no interval and equals no code.
    """
    mask = np.ones(dataset.n_records, dtype=bool)
    try:
        for name, pred in sl.predicates:
            mask &= pred.contains(dataset.features[name].values)
    except KeyError as exc:
        raise ConfigError(f"unknown feature column: {exc.args[0]!r}") from None
    return mask


_EMPTY_STATS = SliceStats(support=0, correct=0, performance=float("nan"), p_value=1.0)


def evaluate_slice(dataset: Dataset, sl: Slice) -> SliceStats:
    """Exact membership counts plus the lower-tail p-value against the
    dataset-level totals.  An empty slice yields the distinguished
    (0, 0, NaN, 1.0) result, which no filter ever passes."""
    mask = membership(dataset, sl)
    n = int(np.count_nonzero(mask))
    if n == 0:
        return _EMPTY_STATS
    k = int(np.count_nonzero(dataset.correctness & mask))
    p = hypergeom_lower_pvalue(dataset.n_records, dataset.n_correct, n, k)
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
    feature = dataset.features[name]
    categorical = feature.kind is FeatureKind.CATEGORICAL
    heuristic = Heuristic.CATEGORICAL if categorical else Heuristic.HPD

    def task() -> list[Slice]:
        if heuristic not in config.heuristics:
            return []
        values = feature.values[mask]
        if categorical:
            codes = np.unique(values[values >= 0]).astype(np.intp).tolist()
            predicates = [ValueSet(codes=(code,), labels=(feature.labels[code],))
                          for code in codes]
        else:
            predicates = hpd.hpd_scan(values, dataset.correctness[mask],
                                      config.hpd)
        return [make_slice({**base, name: pred}, heuristic)
                for pred in predicates]
    return task


def generate_one_way(dataset: Dataset, config: AnalysisConfig) -> list[Slice]:
    """Single-feature candidates: conditioning on the whole dataset, which
    yields every categorical value (labels come from present values only)
    and the HPD scan over every continuous feature."""
    everyone = np.ones(dataset.n_records, dtype=bool)
    tasks = [_conditioned_task(dataset, everyone, {}, name, config)
             for name in dataset.feature_names]
    return _run_tasks(tasks, config.workers)


def _tree_tasks(dataset: Dataset, subset_size: int, config: AnalysisConfig,
                filters: Filters) -> list[Callable[[], list[Slice]]]:
    def make_task(names: tuple[str, ...]) -> Callable[[], list[Slice]]:
        def task() -> list[Slice]:
            features = [dataset.features[name] for name in names]
            tree = dtree.fit_tree(features, dataset.correctness,
                                  filters.min_support, config.max_depth)
            return dtree.extract_slices(tree, features, filters)
        return task

    return [make_task(names)
            for names in combinations(dataset.feature_names, subset_size)]


def generate_higher_order(dataset: Dataset, seeds: Sequence[Slice], order: int,
                          config: AnalysisConfig, filters: Filters) -> list[Slice]:
    """Order-``order`` candidates via conditioning and decision trees.

    Conditioning restricts the dataset to each seed's members and reruns
    single-feature analysis on every feature the seed does not constrain;
    trees are fitted on every subset of ``order`` features, so they may
    also yield lower-order slices.
    """
    tasks = []
    for seed in seeds:
        seed_mask = membership(dataset, seed)
        base = dict(seed.predicates)
        tasks.extend(_conditioned_task(dataset, seed_mask, base, name, config)
                     for name in dataset.feature_names if name not in base)
    if Heuristic.DT in config.heuristics:
        tasks.extend(_tree_tasks(dataset, order, config, filters))
    return _run_tasks(tasks, config.workers)


def _rank(pair: tuple[Slice, SliceStats]) -> tuple:
    sl, stats = pair
    return stats.p_value, -stats.support, sl.features


def filter_and_rank(evaluated: Sequence[tuple[Slice, SliceStats]],
                    filters: Filters) -> list[tuple[Slice, SliceStats]]:
    """Apply the three gates and rank by p-value, then support, then feature
    names; ties keep their input order."""
    kept = [(sl, stats) for sl, stats in evaluated
            if filters.admits(stats.support, stats.correct)
            and stats.p_value < filters.p_value_max]
    kept.sort(key=_rank)
    return kept


def run_analysis(dataset: Dataset, config: AnalysisConfig) -> AnalysisResult:
    """Full pipeline: summary, filters, one generation round per order, final
    report set, with candidate/reported counts per (heuristic, order).

    Each round evaluates only predicates no earlier candidate has (first
    occurrence wins) and is ranked once; its slices of the round's order
    seed the next round's conditioning."""
    summary = summarize(dataset, config.ci_level)
    filters = resolve_filters(summary, config)

    seen = set()
    candidates = []
    reported = []
    for order in range(1, config.max_order + 1):
        if order == 1:
            generated = generate_one_way(dataset, config)
        else:
            seeds = [sl for sl, _ in ranked if sl.order == order - 1]
            generated = generate_higher_order(dataset, seeds, order, config, filters)
        this_round = []
        for sl in generated:
            key = sl.predicate_key()
            if key not in seen:
                seen.add(key)
                this_round.append((sl, evaluate_slice(dataset, sl)))
        candidates.extend((sl, stats) for sl, stats in this_round
                          if filters.admits(stats.support, stats.correct))
        ranked = filter_and_rank(this_round, filters)
        reported.extend(ranked)
    # stable: ties keep round order, as one ranking of every round would
    reported.sort(key=_rank)

    candidate_counts = dict(Counter((sl.heuristic.value, sl.order)
                                    for sl, _ in candidates))
    reported_counts = dict(Counter((sl.heuristic.value, sl.order)
                                   for sl, _ in reported))
    return AnalysisResult(summary=summary, filters=filters,
                          reported=tuple(reported),
                          candidate_counts=candidate_counts,
                          reported_counts=reported_counts,
                          config=config)
