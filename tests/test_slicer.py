"""Pipeline orchestration: filters, evaluation, generation, ranking."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from sliceminer import _kernels
from sliceminer.dataset import DatasetSummary
from sliceminer.model import Filters, Heuristic, Interval, ValueSet, make_slice
from sliceminer.oracle import exhaustive_categorical_slices, slice_key_set
from sliceminer.slicer import (AnalysisConfig, evaluate_slice, filter_and_rank,
                               generate_higher_order, generate_one_way,
                               membership, min_support, perf_threshold,
                               run_analysis)
from sliceminer.stats import hypergeom_lower_pvalue
from tests.conftest import dataset_from_columns


def summary_of(n, k, ci_low=0.0, ci_high=1.0):
    return DatasetSummary(n_records=n, n_correct=k, metric=k / n,
                          ci_low=ci_low, ci_high=ci_high, ci_level=0.95)


class TestAnalysisConfig:
    @pytest.mark.parametrize("depth", [0, -3])
    def test_max_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match="max_depth"):
            AnalysisConfig(max_depth=depth)


class TestMinSupport:
    def test_adult_scale(self):
        summary = summary_of(14653, 14653 - 2169)
        assert min_support(summary, 0.05, 2) == 109  # ceil(0.05 * 2169)

    def test_perfect_model_returns_floor(self):
        assert min_support(summary_of(500, 500), 0.05, 2) == 2

    def test_floor_dominates_small_fraction(self):
        summary = summary_of(1000, 900)
        assert min_support(summary, 0.005, 2) == 2  # max(2, ceil(0.5))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            min_support(summary_of(10, 5), 1.5, 2)


class TestPerfThreshold:
    def test_adult_scale(self):
        summary = summary_of(14653, 12486, ci_low=0.845)
        threshold = perf_threshold(summary, 0.04)
        assert threshold == pytest.approx(0.805)
        assert 0.797 <= threshold  # the worked age-slice qualifies

    def test_zero_gap(self):
        assert perf_threshold(summary_of(100, 80, ci_low=0.72), 0.0) == 0.72

    def test_clamped_at_zero(self):
        assert perf_threshold(summary_of(100, 2, ci_low=0.02), 0.04) == 0.0


def statlog_like(tmp_path):
    """300 rows, 230 correct; credithistory=5 is a 21-row slice with 14 correct."""
    history = [5] * 21 + [i % 5 for i in range(279)]
    correct = [True] * 14 + [False] * 7 + [True] * 216 + [False] * 63
    amount = [float(i) for i in range(300)]
    return dataset_from_columns(
        tmp_path, {"credithistory": history, "amount": amount}, correct)


class TestEvaluateSlice:
    def test_full_coverage_gives_p_one(self, tmp_path):
        ds = statlog_like(tmp_path)
        full = make_slice(
            {"amount": Interval(0.0, 299.0)}, Heuristic.HPD)
        stats = evaluate_slice(ds, full)
        assert stats.support == 300 and stats.correct == 230
        assert stats.p_value == pytest.approx(1.0)

    def test_statlog_worked_slice(self, tmp_path):
        ds = statlog_like(tmp_path)
        labels = ds.features["credithistory"].labels
        code = labels.index("5")
        sl = make_slice({"credithistory": ValueSet((code,), ("5",))},
                        Heuristic.CATEGORICAL)
        stats = evaluate_slice(ds, sl)
        assert (stats.support, stats.correct) == (21, 14)
        assert stats.performance == pytest.approx(0.667, abs=5e-4)
        assert stats.p_value == pytest.approx(0.193, abs=5e-3)

    def test_empty_slice_distinguished(self, tmp_path):
        ds = statlog_like(tmp_path)
        sl = make_slice(
            {"amount": Interval(1000.0, 2000.0)}, Heuristic.HPD)
        stats = evaluate_slice(ds, sl)
        assert stats.support == 0 and stats.correct == 0
        assert math.isnan(stats.performance) and stats.p_value == 1.0

    def test_unknown_feature_rejected(self, tmp_path):
        ds = statlog_like(tmp_path)
        sl = make_slice({"ghost": ValueSet((0,), ("x",))}, Heuristic.CATEGORICAL)
        with pytest.raises(ValueError):
            evaluate_slice(ds, sl)

    def test_missing_values_are_nonmembers(self, tmp_path):
        ds = dataset_from_columns(
            tmp_path, {"x": [1.0, "", 2.0, 3.0]},
            [True, True, False, True])
        sl = make_slice({"x": Interval(0.0, 10.0)}, Heuristic.HPD)
        assert evaluate_slice(ds, sl).support == 3


class TestGenerateOneWay:
    def test_two_value_feature_gives_two_candidates(self, tmp_path):
        ds = dataset_from_columns(
            tmp_path, {"f": ["a", "b"] * 20}, [True, False] * 20)
        out = generate_one_way(ds, AnalysisConfig())
        cats = [sl for sl in out if sl.heuristic is Heuristic.CATEGORICAL]
        assert len(cats) == 2
        assert all(sl.order == 1 for sl in cats)

    def test_planted_band_found_by_interval_scan(self, tmp_path):
        rng = np.random.default_rng(186)
        values = rng.uniform(0.0, 1.0, 1000)
        band = (values >= 0.40) & (values <= 0.45)
        correct = ~band
        ds = dataset_from_columns(
            tmp_path, {"x": [f"{v:.9f}" for v in values]}, correct.tolist())
        out = generate_one_way(ds, AnalysisConfig())
        hits = []
        for sl in out:
            assert sl.heuristic is Heuristic.HPD
            interval = dict(sl.predicates)["x"]
            if interval.low <= 0.40 and interval.high >= 0.45:
                stats = evaluate_slice(ds, sl)
                if stats.performance < 0.5:
                    hits.append(sl)
        assert hits

    def test_heuristic_subset_respected(self, tmp_path):
        ds = dataset_from_columns(
            tmp_path,
            {"c": ["a", "b"] * 30, "x": [float(i) / 60 for i in range(60)]},
            [True] * 40 + [False] * 20)
        only_cat = generate_one_way(
            ds, AnalysisConfig(heuristics=frozenset({Heuristic.CATEGORICAL})))
        assert {sl.heuristic for sl in only_cat} <= {Heuristic.CATEGORICAL}
        only_hpd = generate_one_way(
            ds, AnalysisConfig(heuristics=frozenset({Heuristic.HPD})))
        assert {sl.heuristic for sl in only_hpd} <= {Heuristic.HPD}


class TestGenerateHigherOrder:
    def test_single_feature_dataset_yields_nothing(self, tmp_path):
        ds = dataset_from_columns(
            tmp_path, {"only": [0, 1] * 30}, [True, False] * 30)
        seed = make_slice({"only": ValueSet((0,), ("0",))}, Heuristic.CATEGORICAL)
        filters = Filters(min_support=2, perf_threshold=0.9, p_value_max=0.05)
        out = generate_higher_order(ds, [seed], 2, AnalysisConfig(), filters)
        assert out == []

    def test_conditioning_produces_conjunction(self, tmp_path):
        # inside group "g", low values of x are always wrong
        rng = np.random.default_rng(7)
        n = 400
        group = np.array(["g" if i < 200 else "h" for i in range(n)])
        x = rng.uniform(0.0, 1.0, n)
        correct = np.ones(n, dtype=bool)
        bad = (group == "g") & (x <= 0.3)
        correct[bad] = False
        flip = rng.random(n) < 0.05
        correct[flip & ~bad] = False
        ds = dataset_from_columns(
            tmp_path,
            {"group": group.tolist(), "x": [f"{v:.9f}" for v in x]},
            correct.tolist())
        seed = make_slice(
            {"group": ValueSet((0,), (ds.features["group"].labels[0],))},
            Heuristic.CATEGORICAL)
        assert ds.features["group"].labels[0] == "g"
        filters = Filters(min_support=5, perf_threshold=0.8, p_value_max=0.05)
        config = AnalysisConfig(heuristics=frozenset({Heuristic.HPD,
                                                      Heuristic.CATEGORICAL}))
        out = generate_higher_order(ds, [seed], 2, config, filters)
        pairs = [sl for sl in out if sl.features == ("group", "x")]
        assert pairs
        covering = [sl for sl in pairs
                    if dict(sl.predicates)["x"].low <= 0.31
                    and evaluate_slice(ds, sl).performance < 0.5]
        assert covering, "conditioned scan missed the planted low-x fault"

    def test_xor_found_by_pair_trees(self, tmp_path):
        cell = [0.25, 0.75]
        x = [cell[(i % 4) // 2] for i in range(64)]
        y = [cell[i % 2] for i in range(64)]
        correct = [not ((a > 0.5) ^ (b > 0.5)) for a, b in zip(x, y)]
        ds = dataset_from_columns(
            tmp_path, {"x": x, "y": y}, correct,
            config_kwargs={"all_numeric": True})
        filters = Filters(min_support=2, perf_threshold=0.45, p_value_max=0.05)
        out = generate_higher_order(
            ds, [], 2, AnalysisConfig(heuristics=frozenset({Heuristic.DT})),
            filters)
        quadrants = [sl for sl in out if sl.order == 2
                     and evaluate_slice(ds, sl).performance == 0.0]
        assert len(quadrants) >= 2

    def test_order_three_via_conditioning(self, tmp_path):
        n = 600
        rng = np.random.default_rng(17)
        a = ["u" if i % 2 else "v" for i in range(n)]
        b = ["p" if (i // 2) % 2 else "q" for i in range(n)]
        c = ["m" if (i // 4) % 2 else "w" for i in range(n)]
        bad = [(a[i] == "u") and (b[i] == "p") and (c[i] == "m") for i in range(n)]
        correct = [not bad[i] and rng.random() < 0.98 for i in range(n)]
        ds = dataset_from_columns(
            tmp_path, {"a": a, "b": b, "c": c}, correct)
        result = run_analysis(ds, AnalysisConfig(
            heuristics=frozenset({Heuristic.CATEGORICAL}), max_order=3))
        orders = {sl.order for sl, _ in result.reported}
        assert 3 in orders
        third = [sl for sl, _ in result.reported if sl.order == 3]
        assert any(sl.features == ("a", "b", "c") for sl in third)


class TestFilterAndRank:
    def test_insignificant_candidate_dropped(self, tmp_path):
        ds = statlog_like(tmp_path)
        labels = ds.features["credithistory"].labels
        sl = make_slice({"credithistory": ValueSet((labels.index("5"),), ("5",))},
                        Heuristic.CATEGORICAL)
        stats = evaluate_slice(ds, sl)  # p ~ 0.193
        filters = Filters(min_support=2, perf_threshold=0.9, p_value_max=0.05)
        assert filter_and_rank([(sl, stats)], filters) == []

    def test_empty_input(self):
        filters = Filters(min_support=2, perf_threshold=0.5, p_value_max=0.05)
        assert filter_and_rank([], filters) == []

    def test_ranking_by_pvalue_then_support(self):
        a = make_slice({"a": ValueSet((0,), ("a0",))}, Heuristic.CATEGORICAL)
        b = make_slice({"b": ValueSet((0,), ("b0",))}, Heuristic.CATEGORICAL)
        c = make_slice({"c": ValueSet((0,), ("c0",))}, Heuristic.CATEGORICAL)
        from sliceminer.model import SliceStats
        evaluated = [
            (a, SliceStats(support=10, correct=1, performance=0.1, p_value=0.01)),
            (b, SliceStats(support=30, correct=3, performance=0.1, p_value=0.001)),
            (c, SliceStats(support=50, correct=5, performance=0.1, p_value=0.01)),
        ]
        kept = filter_and_rank(evaluated, Filters(min_support=2, perf_threshold=0.5,
                                                  p_value_max=0.05))
        assert [sl.features[0] for sl, _ in kept] == ["b", "c", "a"]


def random_dataset(tmp_path, seed, n=240):
    rng = np.random.default_rng(seed)
    cat1 = rng.choice(["a", "b", "c"], n)
    cat2 = rng.integers(0, 4, n)
    x = rng.normal(0, 1, n)
    base = rng.random(n) < 0.9
    weak = (cat1 == "a") & (cat2 < 2)
    correct = np.where(weak, rng.random(n) < 0.45, base)
    return dataset_from_columns(
        tmp_path,
        {"cat1": cat1.tolist(), "cat2": cat2.tolist(),
         "x": [f"{v:.9f}" for v in x]},
        correct.tolist())


class TestRunAnalysis:
    def test_one_way_categorical_matches_exhaustive_oracle(self, tmp_path):
        ds = random_dataset(tmp_path, 51)
        config = AnalysisConfig(heuristics=frozenset({Heuristic.CATEGORICAL}),
                                max_order=1)
        result = run_analysis(ds, config)
        want = exhaustive_categorical_slices(ds, result.filters)
        assert slice_key_set(result.reported) == want

    def test_every_reported_slice_reverifies(self, tmp_path):
        ds = random_dataset(tmp_path, 99)
        result = run_analysis(ds, AnalysisConfig())
        assert result.reported
        for sl, stats in result.reported:
            mask = membership(ds, sl)
            n = int(mask.sum())
            k = int(ds.correctness[mask].sum())
            assert (n, k) == (stats.support, stats.correct)
            assert n >= result.filters.min_support
            assert k / n <= result.filters.perf_threshold
            assert stats.p_value < result.filters.p_value_max

    def test_counts_match_reported_groups(self, tmp_path):
        ds = random_dataset(tmp_path, 7)
        result = run_analysis(ds, AnalysisConfig())
        regrouped = {}
        for sl, _ in result.reported:
            key = (sl.heuristic.value, sl.order)
            regrouped[key] = regrouped.get(key, 0) + 1
        assert regrouped == result.reported_counts
        for key, reported in result.reported_counts.items():
            assert reported <= result.candidate_counts.get(key, 0)

    def test_relaxing_pvalue_only_adds_slices(self, tmp_path):
        ds = random_dataset(tmp_path, 33)
        strict = run_analysis(ds, AnalysisConfig(p_value_max=0.01))
        loose = run_analysis(ds, AnalysisConfig(p_value_max=0.2))
        strict_keys = {sl.predicate_key() for sl, _ in strict.reported}
        loose_keys = {sl.predicate_key() for sl, _ in loose.reported}
        assert strict_keys <= loose_keys

    def test_lowering_support_only_adds_slices(self, tmp_path):
        # decision trees re-shape when min_leaf moves, so the guarantee is
        # stated for the generation-independent heuristics
        ds = random_dataset(tmp_path, 61)
        heuristics = frozenset({Heuristic.CATEGORICAL, Heuristic.HPD})
        high = run_analysis(ds, AnalysisConfig(heuristics=heuristics,
                                               support_fraction=0.3))
        low = run_analysis(ds, AnalysisConfig(heuristics=heuristics,
                                              support_fraction=0.05))
        high_keys = {sl.predicate_key() for sl, _ in high.reported}
        low_keys = {sl.predicate_key() for sl, _ in low.reported}
        assert high_keys <= low_keys

    def test_workers_do_not_change_results(self, tmp_path):
        ds = random_dataset(tmp_path, 42)
        sequential = run_analysis(ds, AnalysisConfig(workers=1))
        parallel = run_analysis(ds, AnalysisConfig(workers=8))
        assert sequential.reported == parallel.reported
        assert sequential.candidate_counts == parallel.candidate_counts

    def test_duplicate_predicates_merge_first_wins(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        config = AnalysisConfig(heuristics=frozenset({Heuristic.CATEGORICAL}),
                                max_order=1)
        found = run_analysis(ds, config).reported[0][0]
        as_cat = make_slice(dict(found.predicates), Heuristic.CATEGORICAL)
        as_dt = make_slice(dict(found.predicates), Heuristic.DT)
        monkeypatch.setattr("sliceminer.slicer.generate_one_way",
                            lambda dataset, config: [as_cat, as_dt])
        result = run_analysis(ds, config)
        assert [sl for sl, _ in result.reported] == [as_cat]
        assert result.reported_counts == {("categorical", 1): 1}

    def test_every_reported_slice_ranked_once(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        ranked = []

        def recording(evaluated, filters):
            kept = filter_and_rank(evaluated, filters)
            ranked.append(len(kept))
            return kept

        monkeypatch.setattr("sliceminer.slicer.filter_and_rank", recording)
        result = run_analysis(ds, AnalysisConfig(max_order=3))
        assert {sl.order for sl, _ in result.reported} >= {1, 2}
        assert len(ranked) == 3  # one ranking per round
        assert sum(ranked) == len(result.reported)

    def test_each_predicate_evaluated_once(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        evaluated = Counter()

        def counting(dataset, sl):
            evaluated[sl.predicate_key()] += 1
            return evaluate_slice(dataset, sl)

        monkeypatch.setattr("sliceminer.slicer.evaluate_slice", counting)
        result = run_analysis(ds, AnalysisConfig(max_order=3))
        assert {sl.order for sl, _ in result.reported} >= {1, 2}
        assert max(evaluated.values()) == 1
        assert {sl.predicate_key() for sl, _ in result.reported} <= set(evaluated)

    def test_each_tail_summed_once(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        evaluated = set()
        tails = Counter()
        tail = _kernels.hypergeom_lower_tail

        def counting_evaluate(dataset, sl):
            stats = evaluate_slice(dataset, sl)
            if stats.support:
                evaluated.add((stats.support, stats.correct))
            return stats

        def counting_tail(population, successes, draws, observed):
            tails[population, successes, draws, observed] += 1
            return tail(population, successes, draws, observed)

        monkeypatch.setattr("sliceminer.slicer.evaluate_slice", counting_evaluate)
        monkeypatch.setattr(_kernels, "hypergeom_lower_tail", counting_tail)
        hypergeom_lower_pvalue.cache_clear()
        run_analysis(ds, AnalysisConfig(max_order=3))
        assert max(tails.values()) == 1
        assert {key[:2] for key in tails} == {
            (ds.n_records, int(ds.correctness.sum()))}
        assert {key[2:] for key in tails} == evaluated

        # a raised ValueError is not cached: the repeat raises too
        for _ in range(2):
            with pytest.raises(ValueError):
                hypergeom_lower_pvalue(10, 5, 4, 5)
