"""Pipeline orchestration: filters, evaluation, generation, ranking."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer import dtree
from sliceminer.dataset import (Dataset, DatasetSummary, Feature, FeatureKind,
                                IngestConfig, load_table, summarize)
from sliceminer.hpd import HpdConfig
from sliceminer.model import (Filters, Heuristic, Interval, Slice, SliceStats,
                              ValueSet, make_slice)
from sliceminer.oracle import exact_hypergeom_pvalue
from sliceminer.slicer import (AnalysisConfig, _rank, _split_around,
                               evaluate_slice, filter_and_rank,
                               generate_higher_order, generate_one_way,
                               membership, min_support, perf_threshold,
                               resolve_filters, run_analysis)

# admits every candidate with two or more members
EVERYTHING = Filters(min_support=2, perf_threshold=1.0, p_value_max=0.05)
from sliceminer.stats import _masses, hypergeom_lower_pvalue
from tests.conftest import dataset_from_columns
from tests.test_golden import load_fixtures


def summary_of(n, k, ci_low=0.0, ci_high=1.0):
    return DatasetSummary(n_records=n, n_correct=k, metric=k / n,
                          ci_low=ci_low, ci_high=ci_high, ci_level=0.95)


class TestMinSupport:
    def test_adult_scale(self):
        summary = summary_of(14653, 14653 - 2169)
        assert min_support(summary, 0.05, 2) == 109  # ceil(0.05 * 2169)

    def test_perfect_model_returns_floor(self):
        assert min_support(summary_of(500, 500), 0.05, 2) == 2

    def test_floor_dominates_small_fraction(self):
        summary = summary_of(1000, 900)
        assert min_support(summary, 0.005, 2) == 2  # max(2, ceil(0.5))

    @pytest.mark.parametrize("fraction, mispredicted, want", [
        (0.07, 100, 7), (0.14, 100, 14), (0.28, 100, 28), (0.035, 200, 7),
        (0.55, 100, 55), (0.07, 101, 8)])
    def test_ceiling_of_the_decimal_product(self, fraction, mispredicted,
                                            want):
        # the float products read 7.000000000000001, 14.000000000000002, ...
        summary = summary_of(1000, 1000 - mispredicted)
        assert min_support(summary, fraction, 2) == want

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

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -0.01])
    def test_gap_must_be_finite_and_nonnegative(self, gap):
        with pytest.raises(ValueError, match="gap must be finite and >= 0"):
            perf_threshold(summary_of(100, 80, ci_low=0.72), gap)
        with pytest.raises(ValueError, match="gap must be finite and >= 0"):
            AnalysisConfig(gap=gap)


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
        sl = make_slice({"credithistory": ValueSet((code,))},
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
        sl = make_slice({"ghost": ValueSet((0,))}, Heuristic.CATEGORICAL)
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
        counts = {}
        out = generate_one_way(ds, AnalysisConfig(), EVERYTHING, counts)
        cats = [sl for sl in out if sl.heuristic is Heuristic.CATEGORICAL]
        assert len(cats) == 2
        assert all(sl.order == 1 for sl in cats)
        assert sorted(counts[sl.predicate_key()] for sl in cats) == [
            (20, 0), (20, 20)]

    def test_gate_failing_value_not_emitted(self, tmp_path):
        # "a" is always right, so it fails the performance gate
        ds = dataset_from_columns(
            tmp_path, {"f": ["a", "b"] * 20}, [True, False] * 20)
        filters = Filters(min_support=2, perf_threshold=0.5, p_value_max=0.05)
        counts = {}
        out = generate_one_way(ds, AnalysisConfig(), filters, counts)
        labels = ds.features["f"].labels
        assert [labels[code] for sl in out
                for code in dict(sl.predicates)["f"].codes] == ["b"]
        assert counts == {out[0].predicate_key(): (20, 0)}

    def test_planted_band_found_by_interval_scan(self, tmp_path):
        rng = np.random.default_rng(186)
        values = rng.uniform(0.0, 1.0, 1000)
        band = (values >= 0.40) & (values <= 0.45)
        correct = ~band
        ds = dataset_from_columns(
            tmp_path, {"x": [f"{v:.9f}" for v in values]}, correct.tolist())
        out = generate_one_way(ds, AnalysisConfig(), EVERYTHING, {})
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
            ds, AnalysisConfig(heuristics=frozenset({Heuristic.CATEGORICAL})),
            EVERYTHING, {})
        assert {sl.heuristic for sl in only_cat} <= {Heuristic.CATEGORICAL}
        only_hpd = generate_one_way(
            ds, AnalysisConfig(heuristics=frozenset({Heuristic.HPD})),
            EVERYTHING, {})
        assert {sl.heuristic for sl in only_hpd} <= {Heuristic.HPD}


class TestGenerateHigherOrder:
    def test_single_feature_dataset_yields_nothing(self, tmp_path):
        ds = dataset_from_columns(
            tmp_path, {"only": [0, 1] * 30}, [True, False] * 30)
        seed = make_slice({"only": ValueSet((0,))}, Heuristic.CATEGORICAL)
        filters = Filters(min_support=2, perf_threshold=0.9, p_value_max=0.05)
        out = generate_higher_order(ds, [seed], 2, AnalysisConfig(), filters, {})
        assert out == []

    def test_seed_of_order_three_rejected(self, tmp_path):
        ds = dataset_from_columns(
            tmp_path, {name: [0, 1] * 30 for name in "abcd"}, [True] * 60)
        seed = make_slice({name: ValueSet((0,)) for name in "abc"},
                          Heuristic.CATEGORICAL)
        with pytest.raises(ValueError, match=r"order must be 1\.\.3, got 4"):
            generate_higher_order(ds, [seed], 4, AnalysisConfig(),
                                  EVERYTHING, {})

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3,
                          unique=True),
           high=st.floats(0.0, 1.0))
    def test_conditioned_insert_keeps_names_sorted(self, names, high):
        # the last name is the new one, the others form the seed
        *taken, name = names
        base = tuple(sorted((other, Interval(0.0, 1.0)) for other in taken))
        pred = Interval(0.0, high)
        before, after = _split_around(base, name)
        assert (before + ((name, pred),) + after
                == tuple(sorted({**dict(base), name: pred}.items())))

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
            {"group": ValueSet((0,))},
            Heuristic.CATEGORICAL)
        assert ds.features["group"].labels[0] == "g"
        filters = Filters(min_support=5, perf_threshold=0.8, p_value_max=0.05)
        config = AnalysisConfig(heuristics=frozenset({Heuristic.HPD,
                                                      Heuristic.CATEGORICAL}))
        out = generate_higher_order(ds, [seed], 2, config, filters, {})
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
            filters, {})
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
        sl = make_slice({"credithistory": ValueSet((labels.index("5"),))},
                        Heuristic.CATEGORICAL)
        stats = evaluate_slice(ds, sl)  # p ~ 0.193
        filters = Filters(min_support=2, perf_threshold=0.9, p_value_max=0.05)
        assert filter_and_rank([(sl, stats)], filters) == []

    def test_empty_input(self):
        filters = Filters(min_support=2, perf_threshold=0.5, p_value_max=0.05)
        assert filter_and_rank([], filters) == []

    def test_ranking_by_pvalue_then_support(self):
        a = make_slice({"a": ValueSet((0,))}, Heuristic.CATEGORICAL)
        b = make_slice({"b": ValueSet((0,))}, Heuristic.CATEGORICAL)
        c = make_slice({"c": ValueSet((0,))}, Heuristic.CATEGORICAL)
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


def exhaustive_categorical_slices(dataset, filters):
    """Every (categorical feature, value) slice that passes all three
    filters, by brute force with exact p-values.

    Returns ``{(feature, label)}`` so the result can be compared for set
    equality with the pipeline's one-way categorical output.
    """
    population = dataset.n_records
    successes = dataset.n_correct
    reported = set()
    for name, feature in dataset.features.items():
        if feature.kind is not FeatureKind.CATEGORICAL:
            continue
        for code, label in enumerate(feature.labels):
            member = feature.values == code
            n = int(member.sum())
            if n == 0 or n < filters.min_support:
                continue
            k = int(dataset.correctness[member].sum())
            if k / n > filters.perf_threshold:
                continue
            p = float(exact_hypergeom_pvalue(population, successes, n, k))
            if p >= filters.p_value_max:
                continue
            reported.add((name, label))
    return reported


class TestExhaustiveCategorical:
    def test_planted_value_found(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 200
        f1 = rng.integers(0, 2, n)
        f2 = np.where(np.arange(n) < 40, "bad", "good")
        correct = np.ones(n, dtype=bool)
        correct[:40] = False  # every "bad" row mispredicted
        ds = dataset_from_columns(
            tmp_path, {"f1": f1.tolist(), "f2": f2.tolist()}, correct.tolist())
        filters = Filters(min_support=2, perf_threshold=0.5, p_value_max=0.05)
        assert exhaustive_categorical_slices(ds, filters) == {("f2", "bad")}

    def test_all_correct_dataset_empty(self, tmp_path):
        ds = dataset_from_columns(
            tmp_path, {"f1": ["a", "b"] * 30}, [True] * 60)
        filters = Filters(min_support=2, perf_threshold=0.5, p_value_max=0.05)
        assert exhaustive_categorical_slices(ds, filters) == set()

    def test_disabled_filters_report_everything(self, tmp_path):
        # every (feature, value) slice is half wrong, so none has p-value 1
        ds = dataset_from_columns(
            tmp_path,
            {"f1": ["a"] * 30 + ["b"] * 30, "f2": ["x", "y"] * 30},
            [True, False] * 15 + [False, True] * 15)
        filters = Filters(min_support=2, perf_threshold=1.0, p_value_max=0.999999)
        got = exhaustive_categorical_slices(ds, filters)
        assert got == {("f1", "a"), ("f1", "b"), ("f2", "x"), ("f2", "y")}


def slice_key_set(dataset, reported) -> set:
    """Project reported (Slice, SliceStats) pairs onto {(feature, label)}
    keys for 1-way categorical slices, mirroring
    exhaustive_categorical_slices; labels are read through the feature."""
    keys = set()
    for sl, _ in reported:
        if sl.order != 1 or sl.heuristic is not Heuristic.CATEGORICAL:
            continue
        (name, pred), = sl.predicates
        if isinstance(pred, ValueSet) and len(pred.codes) == 1:
            keys.add((name, dataset.features[name].labels[pred.codes[0]]))
    return keys


class TestRunAnalysis:
    def test_one_way_categorical_matches_exhaustive_oracle(self, tmp_path):
        ds = random_dataset(tmp_path, 51)
        config = AnalysisConfig(heuristics=frozenset({Heuristic.CATEGORICAL}),
                                max_order=1)
        result = run_analysis(ds, config)
        want = exhaustive_categorical_slices(ds, result.filters)
        assert slice_key_set(ds, result.reported) == want

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

    def test_reported_records_pass_the_checks(self, tmp_path):
        # slices built unchecked must still satisfy what the checks enforce
        ds = random_dataset(tmp_path, 99)
        result = run_analysis(ds, AnalysisConfig(max_order=3))
        assert {(sl.heuristic, sl.order) for sl, _ in result.reported} >= {
            (Heuristic.CATEGORICAL, 3), (Heuristic.HPD, 2), (Heuristic.DT, 2)}
        for sl, stats in result.reported:
            assert Slice(*sl) == sl
            assert SliceStats(**stats._asdict()) == stats

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

    def test_duplicate_predicates_merge_first_wins(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        config = AnalysisConfig(heuristics=frozenset({Heuristic.CATEGORICAL}),
                                max_order=1)
        found = run_analysis(ds, config).reported[0][0]
        as_cat = make_slice(dict(found.predicates), Heuristic.CATEGORICAL)
        as_dt = make_slice(dict(found.predicates), Heuristic.DT)
        monkeypatch.setattr("sliceminer.slicer.generate_one_way",
                            lambda dataset, config, filters, counts:
                            [as_cat, as_dt])
        result = run_analysis(ds, config)
        assert [sl for sl, _ in result.reported] == [as_cat]
        assert result.reported_counts == {("categorical", 1): 1}

    def test_every_reported_slice_ranked_once(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        ranked = []
        seeds = []
        keys = []

        def recording(evaluated, filters):
            kept = filter_and_rank(evaluated, filters)
            ranked.append(len(kept))
            return kept

        def recording_generate(dataset, round_seeds, *args, **kwargs):
            seeds.extend(round_seeds)
            return generate_higher_order(dataset, round_seeds, *args, **kwargs)

        def counting_rank(pair):
            keys.append(pair)
            return _rank(pair)

        monkeypatch.setattr("sliceminer.slicer.filter_and_rank", recording)
        monkeypatch.setattr("sliceminer.slicer.generate_higher_order",
                            recording_generate)
        monkeypatch.setattr("sliceminer.slicer._rank", counting_rank)
        result = run_analysis(ds, AnalysisConfig(max_order=3))
        assert {sl.order for sl, _ in result.reported} >= {1, 2}
        assert ranked == [len(result.reported)]  # one ranking per run
        # a key per reported slice, and one per seed, ranked in its round
        assert seeds
        assert len(keys) == len(result.reported) + len(seeds)

    def test_each_predicate_evaluated_once(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        rounds = []
        evaluated = Counter()
        built = []

        def recording_rank(pairs, filters):
            rounds.append(list(pairs))
            return filter_and_rank(pairs, filters)

        def counting_evaluate(dataset, sl):
            evaluated[sl.predicate_key()] += 1
            assert sl.heuristic is Heuristic.DT  # conditioned ones come counted
            return evaluate_slice(dataset, sl)

        class CountingStats(SliceStats):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(args or kwargs)
                return SliceStats(*args, **kwargs)

            @classmethod
            def _make(cls, fields):
                built.append(fields)
                return SliceStats._make(fields)

        monkeypatch.setattr("sliceminer.slicer.filter_and_rank", recording_rank)
        monkeypatch.setattr("sliceminer.slicer.evaluate_slice", counting_evaluate)
        monkeypatch.setattr("sliceminer.slicer.SliceStats", CountingStats)
        result = run_analysis(ds, AnalysisConfig(max_order=3))
        assert {sl.order for sl, _ in result.reported} >= {1, 2}
        pairs = [pair for evaluated_round in rounds for pair in evaluated_round]
        keys = Counter(sl.predicate_key() for sl, _ in pairs)
        assert max(keys.values()) == 1  # each key is evaluated once ...
        conditioned = {(stats.support, stats.correct) for sl, stats in pairs
                       if sl.heuristic is not Heuristic.DT}
        counted_trees = sum(1 for sl, stats in pairs
                            if sl.heuristic is Heuristic.DT and stats.support)
        # ... with one SliceStats per distinct conditioned counts and one
        # per counted tree candidate (an empty one shares the constant)
        assert len(conditioned) < len(pairs) - counted_trees
        assert len(built) == len(conditioned) + counted_trees
        assert evaluated and max(evaluated.values()) == 1
        assert set(evaluated) <= set(keys)
        assert {sl.predicate_key() for sl, _ in result.reported} <= set(keys)

    def test_equal_counts_share_one_stats(self, tmp_path):
        ds = random_dataset(tmp_path, 5)
        result = run_analysis(ds, AnalysisConfig(max_order=3))
        shared = {}
        orders = {}
        for sl, stats in result.reported:
            if sl.heuristic is not Heuristic.DT:
                counts = stats.support, stats.correct
                assert shared.setdefault(counts, stats) is stats
                orders.setdefault(counts, set()).add(sl.order)
        assert len(shared) < sum(1 for sl, _ in result.reported
                                 if sl.heuristic is not Heuristic.DT)
        assert any(len(seen) > 1 for seen in orders.values())  # across rounds

    def test_masses_built_once_per_draw_count(self, tmp_path, monkeypatch):
        # each round asks its tails in ascending support, so a draw count's
        # masses are built again only for a later round or a tree candidate
        data = tmp_path / "data.csv"
        load_fixtures().write_planted(str(data), 2000, 1)
        ds = load_table(str(data), IngestConfig("label", "pred"))
        asked = set()
        trees = []
        pvalue = hypergeom_lower_pvalue

        def recording_pvalue(population, successes, draws, observed):
            asked.add(draws)
            return pvalue(population, successes, draws, observed)

        def recording_evaluate(dataset, sl):
            trees.append(sl)
            return evaluate_slice(dataset, sl)

        monkeypatch.setattr("sliceminer.slicer.hypergeom_lower_pvalue",
                            recording_pvalue)
        monkeypatch.setattr("sliceminer.slicer.evaluate_slice",
                            recording_evaluate)
        hypergeom_lower_pvalue.cache_clear()
        _masses.cache_clear()
        run_analysis(ds, AnalysisConfig(max_order=2))
        builds = _masses.cache_info().misses
        assert len(asked) <= builds <= len(asked) + len(trees)

    def test_each_tail_summed_once(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        admitted = set()
        asked = set()
        pvalue = hypergeom_lower_pvalue
        one_way = generate_one_way
        higher = generate_higher_order

        def carried(slices, counts):
            assert {sl.predicate_key() for sl in slices} >= set(counts)
            admitted.update(counts.values())
            return slices

        def counting_evaluate(dataset, sl):
            stats = evaluate_slice(dataset, sl)
            if stats.support:
                admitted.add((stats.support, stats.correct))
            return stats

        def counting_pvalue(population, successes, draws, observed):
            asked.add((population, successes, draws, observed))
            return pvalue(population, successes, draws, observed)

        monkeypatch.setattr(
            "sliceminer.slicer.generate_one_way",
            lambda *args: carried(one_way(*args), args[-1]))
        monkeypatch.setattr(
            "sliceminer.slicer.generate_higher_order",
            lambda *args, **kw: carried(higher(*args, **kw), args[-1]))
        monkeypatch.setattr("sliceminer.slicer.evaluate_slice", counting_evaluate)
        monkeypatch.setattr("sliceminer.slicer.hypergeom_lower_pvalue",
                            counting_pvalue)
        hypergeom_lower_pvalue.cache_clear()
        result = run_analysis(ds, AnalysisConfig(max_order=3))
        # a miss is a tail sum: one per distinct arguments asked for
        assert hypergeom_lower_pvalue.cache_info().misses == len(asked)
        assert {key[:2] for key in asked} == {
            (ds.n_records, int(ds.correctness.sum()))}
        assert {key[2:] for key in asked} == admitted
        assert all(result.filters.admits(n, k) for n, k in admitted)

        # a raised ValueError is not cached: the repeat raises too
        for _ in range(2):
            with pytest.raises(ValueError):
                hypergeom_lower_pvalue(10, 5, 4, 5)

    def test_key_is_the_predicates(self, tmp_path, monkeypatch):
        ds = random_dataset(tmp_path, 5)
        generated = []
        one_way = generate_one_way
        higher = generate_higher_order

        def recording(slices):
            generated.extend(slices)
            return slices

        def spelled_out(sl):  # keyed by name, kind and codes or interval
            return tuple((name, "set", pred.codes)
                         if isinstance(pred, ValueSet)
                         else (name, "interval", pred)
                         for name, pred in sl.predicates)

        monkeypatch.setattr("sliceminer.slicer.generate_one_way",
                            lambda *args: recording(one_way(*args)))
        monkeypatch.setattr("sliceminer.slicer.generate_higher_order",
                            lambda *args, **kw: recording(higher(*args, **kw)))
        run_analysis(ds, AnalysisConfig(max_order=3))
        routes = {sl.heuristic for sl in generated}
        assert {Heuristic.CATEGORICAL, Heuristic.HPD, Heuristic.DT} <= routes
        assert all(sl.predicate_key() is sl.predicates for sl in generated)
        # it merges exactly the slices the spelled-out key merged
        merged = {}
        for sl in generated:
            merged.setdefault(sl.predicate_key(), set()).add(spelled_out(sl))
        assert all(len(old) == 1 for old in merged.values())
        assert len(merged) == len({spelled_out(sl) for sl in generated})
        assert len(merged) < len(generated)  # some keys repeat


# cells drawn from few values, so ties are common; -0.0 and 0.0 are one value
CONTINUOUS_CELLS = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 0.5, 2.0, math.nan])
CATEGORICAL_CELLS = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.nan])


@st.composite
def mixed_datasets(draw):
    n = draw(st.integers(8, 40))
    kinds = draw(st.lists(st.sampled_from(list(FeatureKind)), min_size=2,
                          max_size=4))
    features = {}
    for j, kind in enumerate(kinds):
        continuous = kind is FeatureKind.CONTINUOUS
        cells = CONTINUOUS_CELLS if continuous else CATEGORICAL_CELLS
        values = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
        labels = () if continuous else ("a", "b", "c", "d")
        features[f"f{j}"] = Feature(f"f{j}", kind, values, labels)
    correct = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return Dataset(features=features, correctness=correct, n_records=n,
                   n_correct=int(correct.sum()), rejected_rows=())


def seed_predicate(draw, feature):
    if feature.kind is FeatureKind.CATEGORICAL:
        code = draw(st.integers(0, 3))
        return ValueSet((code,))
    low, high = sorted(draw(st.lists(CONTINUOUS_CELLS.filter(math.isfinite),
                                     min_size=2, max_size=2)))
    return Interval(low, high)


def recount(dataset, sl):
    mask = membership(dataset, sl)
    return int(mask.sum()), int(dataset.correctness[mask].sum())


class TestCountedInsideTheSeed:
    """A conditioned candidate's members are its seed's members its own
    predicate admits, so counting inside the seed's rows must agree with a
    membership recount, and gating there must drop exactly the candidates
    that fail the support and performance gates."""

    CONFIG = AnalysisConfig(heuristics=frozenset({Heuristic.CATEGORICAL,
                                                  Heuristic.HPD}),
                            hpd=HpdConfig(initial_density=0.9, epsilon=0.2,
                                          min_density_floor=0.3))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dataset=mixed_datasets(),
           threshold=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
           min_support=st.integers(2, 5))
    def test_carried_counts_equal_membership(self, data, dataset, threshold,
                                             min_support):
        names = dataset.feature_names
        seed_names = data.draw(st.lists(st.sampled_from(names), min_size=0,
                                        max_size=min(2, len(names) - 1),
                                        unique=True))
        filters = Filters(min_support=min_support, perf_threshold=threshold,
                          p_value_max=0.05)
        everything, counts = {}, {}
        if seed_names:
            seed = make_slice({name: seed_predicate(data.draw, dataset.features[name])
                               for name in seed_names}, Heuristic.CATEGORICAL)
            order = seed.order + 1
            ungated = generate_higher_order(dataset, [seed], order, self.CONFIG,
                                            EVERYTHING, everything)
            gated = generate_higher_order(dataset, [seed], order, self.CONFIG,
                                          filters, counts)
        else:
            ungated = generate_one_way(dataset, self.CONFIG, EVERYTHING, everything)
            gated = generate_one_way(dataset, self.CONFIG, filters, counts)
        for sl in ungated:
            assert everything[sl.predicate_key()] == recount(dataset, sl)
        assert gated == [sl for sl in ungated
                         if filters.admits(*everything[sl.predicate_key()])]
        assert counts == {key: nk for key, nk in everything.items()
                          if filters.admits(*nk)}


def evaluate_every_key(dataset, config):
    """The pipeline as it was before conditioned candidates were counted
    inside their seed: generate every conditioned candidate ungated, then
    evaluate each new key against the dataset."""
    summary = summarize(dataset, config.ci_level)
    filters = resolve_filters(summary, config)
    conditioning = replace(config, heuristics=frozenset(
        {Heuristic.CATEGORICAL, Heuristic.HPD}) & config.heuristics)
    trees = replace(config, heuristics=frozenset({Heuristic.DT}))

    seen = set()
    candidates = []
    reported = []
    for order in range(1, config.max_order + 1):
        if order == 1:
            generated = generate_one_way(dataset, conditioning, EVERYTHING, {})
        else:
            seeds = [sl for sl, _ in ranked if sl.order == order - 1]
            generated = generate_higher_order(dataset, seeds, order, conditioning,
                                              EVERYTHING, {})
            generated += generate_higher_order(dataset, [], order, trees,
                                               filters, {})
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
    reported.sort(key=lambda pair: (pair[1].p_value, -pair[1].support,
                                    pair[0].features))
    return (tuple(reported),
            dict(Counter((sl.heuristic.value, sl.order) for sl, _ in candidates)),
            dict(Counter((sl.heuristic.value, sl.order) for sl, _ in reported)))


def holey_dataset(tmp_path, seed, n=240):
    """random_dataset with missing cells, ties and -0.0 in every column."""
    rng = np.random.default_rng(seed)
    cat1 = rng.choice(["a", "b", "c", ""], n, p=[0.3, 0.3, 0.3, 0.1])
    cat2 = rng.choice(["0", "1", "2", "3", ""], n)
    x = np.round(rng.normal(0, 1, n), 1)
    cells = ["" if rng.random() < 0.1 else
             rng.choice(["-0.0", "0.0"]) if v == 0 else f"{v:.1f}" for v in x]
    weak = (cat1 == "a") & np.isin(cat2, ["0", "1"])
    correct = np.where(weak, rng.random(n) < 0.45, rng.random(n) < 0.9)
    return dataset_from_columns(
        tmp_path, {"cat1": cat1.tolist(), "cat2": cat2.tolist(), "x": cells},
        correct.tolist())


class TestSplitTable:
    def test_each_node_split_searched_once_per_run(self, monkeypatch):
        # every cell value belongs to one (feature, row), so a searched
        # column names its feature and its node's rows.  The table is keyed
        # by path, which fixes the rows; two paths could still reach the
        # same rows (a split that cuts nothing off a deeper node), but not
        # on this table, whose nodes hold at least 10 rows.
        rng = np.random.default_rng(4)
        n = 200
        features = {}
        for j in range(4):
            values = rng.permutation(n) + j * n + 0.5
            features[f"f{j}"] = Feature(f"f{j}", FeatureKind.CONTINUOUS,
                                        values, ())
        weak = (features["f0"].values < 50) | (features["f1"].values > 350)
        correct = rng.random(n) < np.where(weak, 0.5, 0.9)
        dataset = Dataset(features=features, correctness=correct, n_records=n,
                          n_correct=int(correct.sum()), rejected_rows=())
        searched = Counter()
        best_split = dtree.best_split

        def counting_split(column, target, min_leaf):
            searched[column.tobytes()] += 1
            return best_split(column, target, min_leaf)

        monkeypatch.setattr(dtree, "best_split", counting_split)
        result = run_analysis(dataset, AnalysisConfig(
            heuristics=frozenset({Heuristic.DT}), max_order=3,
            support_floor=10))
        assert result.candidate_counts.get(("dt", 3))
        # the 10 trees over 2 and 3 of the features search each node once
        assert len(searched) > 40
        assert max(searched.values()) == 1


class TestMatchesEvaluatingEveryKey:
    @pytest.mark.parametrize("max_order", [1, 2, 3])
    @pytest.mark.parametrize("build, seed", [(random_dataset, 5),
                                             (random_dataset, 99),
                                             (holey_dataset, 3)])
    def test_same_results(self, tmp_path, build, seed, max_order):
        ds = build(tmp_path, seed)
        config = AnalysisConfig(max_order=max_order)
        result = run_analysis(ds, config)
        assert result.reported
        assert (result.reported, result.candidate_counts,
                result.reported_counts) == evaluate_every_key(ds, config)
