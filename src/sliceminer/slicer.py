"""Candidate generation, slice evaluation, and the three reporting filters.

The search runs one round per order.  Order 1 enumerates every categorical
value and runs the HPD scan on every continuous feature.  Each higher order
comes from two routes: conditioning (rerun single-feature analysis inside
each slice the previous order reported, on every other feature) and small
decision trees over every feature subset of that order.  A conditioned
candidate is its seed plus one predicate, so its members are the seed's
rows that predicate admits; it is counted there.  A tree candidate is
evaluated directly against the dataset, since a node's rows differ from
its members when cells off its path are missing.  Either way the counts
are exact membership counts, never heuristic internals.

One registry per run maps each key a route emitted, and each tree key
evaluated, to its (support, correct).  A route skips a key already in it,
so a predicate is emitted at most once per run, by the first route that
reaches it, and only if it clears minimum support and the performance
gap.  It is reported only if it also passes the hypergeometric
significance test against the whole-dataset record and correct counts.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from . import dtree, hpd
from .dataset import (ConfigError, Dataset, DatasetSummary, FeatureKind,
                      summarize)
from .hpd import HpdConfig
from .model import Filters, Heuristic, Interval, Slice, SliceStats, ValueSet
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
MAX_DEPTH = 5  # decision trees split no node at this depth


class _AnalysisFields(NamedTuple):
    heuristics: frozenset = ALL_HEURISTICS
    max_order: int = 2
    hpd: HpdConfig = HpdConfig()
    p_value_max: float = 0.05
    gap: float = 0.04
    support_fraction: float = 0.05
    support_floor: int = 2
    ci_level: float = 0.95


class AnalysisConfig(_AnalysisFields):
    """Every knob of one analysis run; the HPD knobs are ``hpd``'s."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if not 1 <= self.max_order <= 3:
            raise ValueError(f"max_order must be 1..3, got {self.max_order}")
        if not 0.0 < self.p_value_max < 1.0:
            raise ValueError(f"p_value_max must be in (0, 1), got {self.p_value_max}")
        if not 0.0 <= self.gap < math.inf:  # NaN fails every comparison
            raise ValueError(f"gap must be finite and >= 0, got {self.gap}")
        if not 0.0 < self.support_fraction < 1.0:
            raise ValueError(
                f"support_fraction must be in (0, 1), got {self.support_fraction}")
        if self.support_floor < 2:
            raise ValueError(f"support_floor must be >= 2, got {self.support_floor}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")
        unknown = set(self.heuristics) - ALL_HEURISTICS
        if unknown or not self.heuristics:
            raise ValueError(f"heuristics must be a nonempty subset of "
                             f"{sorted(h.value for h in ALL_HEURISTICS)}")


class AnalysisResult(NamedTuple):
    summary: DatasetSummary
    filters: Filters
    reported: tuple[tuple[Slice, SliceStats], ...]
    candidate_counts: dict
    reported_counts: dict
    config: AnalysisConfig


def min_support(summary: DatasetSummary, fraction: float, floor: int) -> int:
    """max(floor, ceil(fraction * mispredicted records)), the product
    taken on the fraction's decimal: 0.07 of 100 records is 7, where the
    float product 7.000000000000001 would round up to 8."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if floor < 2:
        raise ValueError(f"floor must be >= 2, got {floor}")
    mispredicted = summary.n_records - summary.n_correct
    return max(floor, math.ceil(Fraction(repr(fraction)) * mispredicted))


def perf_threshold(summary: DatasetSummary, gap: float) -> float:
    """CI lower bound minus the gap (absolute points), clamped to [0, 1]."""
    if not 0.0 <= gap < math.inf:
        raise ValueError(f"gap must be finite and >= 0, got {gap}")
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
    # k counts members, so k <= n holds and no check is needed
    return SliceStats._make((n, k, k / n, hypergeom_lower_pvalue(
        dataset.n_records, dataset.n_correct, n, k)))


def _split_around(base: tuple, name: str) -> tuple[tuple, tuple]:
    """Cut the sorted predicates ``base`` where ``name`` sorts in, so that
    ``before + ((name, pred),) + after`` is sorted by feature name."""
    at = sum(1 for other, _ in base if other < name)
    return base[:at], base[at:]


def _condition(dataset: Dataset, mask: np.ndarray | None, base: tuple,
               name: str, config: AnalysisConfig, filters: Filters,
               counts: dict) -> list[Slice]:
    """Single-feature analysis of ``name`` over the records in ``mask``
    (every record when it is None): one slice per category value present,
    or one per HPD interval, each conjoined with the ``base`` predicates
    (a slice's sorted predicates, none on ``name``).  Empty when the
    feature's heuristic is off.

    ``mask`` holds the members of ``base``, so a candidate's members are
    the records of ``mask`` its own predicate admits; they are counted
    there.  A candidate is returned only if it passes the support and
    performance gates and its predicate key is not yet in the registry
    ``counts``; its (support, correct) then go into ``counts`` under that
    key.  Both checks come first, on the counts and on the key written
    with plain tuples (equal to the records, and hashed alike), so only a
    returned candidate builds its ``ValueSet`` or ``Interval``, key and
    ``Slice``."""
    feature = dataset.features[name]
    categorical = feature.kind is FeatureKind.CATEGORICAL
    heuristic = Heuristic.CATEGORICAL if categorical else Heuristic.HPD
    order = len(base) + 1
    if order > 3:
        raise ValueError(f"order must be 1..3, got {order}")
    if heuristic not in config.heuristics:
        return []
    # every candidate is base plus one predicate on a name base lacks, so
    # its predicates are sorted and unique as built: no Slice check needed
    before, after = _split_around(base, name)
    values, correct = feature.values, dataset.correctness
    if mask is not None:
        values, correct = values[mask], correct[mask]
    if categorical:
        present = values >= 0
        codes = values[present].astype(np.intp)
        support = np.bincount(codes)
        hits = np.bincount(codes[correct[present]], minlength=support.size)
        found = np.flatnonzero(support).tolist()
        fields = [((code,),) for code in found]  # each ValueSet's fields
        support, hits = support[found].tolist(), hits[found].tolist()
        make = ValueSet._make
    else:
        lows, highs, support, hits = hpd.hpd_scan(values, correct, config.hpd)
        fields = zip(lows, highs)  # each Interval's fields
        make = Interval._make
    admits = filters.admits
    kept = []
    for plain, n, k in zip(fields, support, hits):
        if admits(n, k) and before + ((name, plain),) + after not in counts:
            key = before + ((name, make(plain)),) + after
            counts[key] = n, k
            kept.append(Slice._make((key, heuristic, order)))
    return kept


def generate_one_way(dataset: Dataset, config: AnalysisConfig,
                     filters: Filters, counts: dict) -> list[Slice]:
    """Single-feature candidates that pass the support and performance
    gates: conditioning on the whole dataset, which yields every present
    categorical value and the HPD scan over every continuous feature.  Keys
    already in the registry ``counts`` are skipped; each returned
    candidate's (support, correct) goes into it under its predicate key."""
    return [sl for name in dataset.feature_names
            for sl in _condition(dataset, None, (), name, config, filters,
                                 counts)]


def generate_higher_order(dataset: Dataset, seeds: Sequence[Slice], order: int,
                          config: AnalysisConfig, filters: Filters,
                          counts: dict, *, splits: dict | None = None
                          ) -> list[Slice]:
    """Order-``order`` candidates via conditioning and decision trees, in
    that order: each seed's candidates feature by feature, then each tree's
    in subset order.  A key already in the registry ``counts`` is skipped,
    so the first route to reach a key wins, and no key is returned twice.

    Conditioning restricts the dataset to each seed's members and reruns
    single-feature analysis on every feature the seed does not constrain;
    its candidates are counted inside the seed's rows and gated there.
    Trees are fitted on every subset of ``order`` features, in feature-name
    order so that the input's column order breaks no tie, and may also
    yield lower-order slices; their nodes are gated on the rows they hold.
    Each new tree key is then counted by ``evaluate_slice`` and recorded in
    ``counts`` even when it fails the gates, so no route counts it again,
    and it is returned only if it passes them.  Every returned slice has
    its (support, correct) in ``counts``.  The trees share the split table
    ``splits`` (a fresh one when None; see ``dtree.fit_tree``), so a run
    that passes one table to every round searches each node's split once.
    """
    generated = []
    for seed in seeds:
        seed_mask = membership(dataset, seed)
        taken = seed.features
        for name in dataset.feature_names:
            if name not in taken:
                generated.extend(_condition(dataset, seed_mask,
                                            seed.predicates, name, config,
                                            filters, counts))
    if Heuristic.DT in config.heuristics:
        splits = {} if splits is None else splits
        for names in combinations(sorted(dataset.feature_names), order):
            features = [dataset.features[name] for name in names]
            tree = dtree.fit_tree(features, dataset.correctness,
                                  filters.min_support, MAX_DEPTH,
                                  splits=splits)
            for key in dtree.extract_slices(tree, features, filters):
                if key not in counts:
                    sl = Slice._make((key, Heuristic.DT, len(key)))
                    stats = evaluate_slice(dataset, sl)
                    counts[key] = stats.support, stats.correct
                    if filters.admits(stats.support, stats.correct):
                        generated.append(sl)
    return generated


def _rank(pair: tuple[Slice, SliceStats]) -> tuple:
    sl, stats = pair
    return stats.p_value, -stats.support, [name for name, _ in sl.predicates]


def filter_and_rank(evaluated: Sequence[tuple[Slice, SliceStats]],
                    filters: Filters) -> list[tuple[Slice, SliceStats]]:
    """Apply the three gates and rank by p-value, then support, then feature
    names; ties keep their input order."""
    kept = [(sl, stats) for sl, stats in evaluated
            if filters.admits(stats.support, stats.correct)
            and stats.p_value < filters.p_value_max]
    kept.sort(key=_rank)
    return kept


def _group_counts(groups: Counter) -> dict:
    """Slices per (heuristic name, order) from slices per (heuristic,
    order).  Counted by the enum member, so ``.value`` is read once per
    group, not once per slice."""
    return {(heuristic.value, order): n
            for (heuristic, order), n in groups.items()}


def run_analysis(dataset: Dataset, config: AnalysisConfig) -> AnalysisResult:
    """Full pipeline: summary, filters, one generation round per order, final
    report set, with candidate/reported counts per (heuristic, order).

    One registry of counts serves every round, so the generators return
    only predicates no earlier candidate has (first occurrence wins), each
    with its counts in the registry, past the support and performance
    gates.  Each round asks the tails of its new distinct counts in
    ascending support, so the masses of one draw count are built once per
    round; the ``SliceStats`` of each distinct counts is built once per
    run, beside its tail, and shared by every slice with those counts.
    The round's slices of its own order that pass the p-value gate seed
    the next round's conditioning, ranked within their round.  Every
    round's pairs are ranked once per run, by one ``filter_and_rank``:
    both sorts are stable on one key, so seeds and report keep the order
    that ranking each round and then every round together gives, and each
    reported slice's key is built once.  One split table serves every
    round's trees."""
    summary = summarize(dataset, config.ci_level)
    filters = resolve_filters(summary, config)
    population, successes = dataset.n_records, dataset.n_correct

    splits = {}
    counts = {}
    shared = {}
    candidates = Counter()
    evaluated = []
    for order in range(1, config.max_order + 1):
        if order == 1:
            generated = generate_one_way(dataset, config, filters, counts)
        else:
            generated = generate_higher_order(dataset, seeds, order, config,
                                              filters, counts, splits=splits)
        for n, k in sorted({counts[sl.predicates] for sl in generated}
                           - shared.keys()):
            p_value = hypergeom_lower_pvalue(population, successes, n, k)
            # k counts members of the n, so k <= n holds
            shared[n, k] = SliceStats._make((n, k, k / n, p_value))
        this_round = [(sl, shared[counts[sl.predicates]]) for sl in generated]
        candidates.update((sl.heuristic, sl.order) for sl in generated)
        evaluated += this_round
        if order < config.max_order:
            seeds = [sl for sl, _ in sorted(
                (pair for pair in this_round if pair[0].order == order
                 and pair[1].p_value < filters.p_value_max), key=_rank)]
    # the registry and the last round's working lists would otherwise
    # outlive the loop into the ranking, whose sort keys set the peak memory
    del generated, counts, this_round
    reported = filter_and_rank(evaluated, filters)

    return AnalysisResult(
        summary=summary, filters=filters, reported=tuple(reported),
        candidate_counts=_group_counts(candidates),
        reported_counts=_group_counts(
            Counter((sl.heuristic, sl.order) for sl, _ in reported)),
        config=config)
