"""CART fitting and weak-node harvesting."""

from __future__ import annotations

import numpy as np
import pytest

from sliceminer.dataset import FeatureKind
from sliceminer.dtree import DtConfig, best_split, extract_slices, fit_tree, gini
from sliceminer.model import Filters, Interval, ValueSet


def exhaustive_best_split(column, target, min_leaf):
    """Try every midpoint threshold directly."""
    column = np.asarray(column, dtype=float)
    target = np.asarray(target, dtype=bool)
    n = len(column)
    parent = gini(int(target.sum()), int(n - target.sum()))
    if parent == 0.0:
        return None
    distinct = np.unique(column)
    best = None
    for a, b in zip(distinct, distinct[1:]):
        threshold = (a + b) / 2
        left = column <= threshold
        nl, nr = int(left.sum()), int(n - left.sum())
        if nl < min_leaf or nr < min_leaf:
            continue
        lt = int(target[left].sum())
        rt = int(target[~left].sum())
        decrease = parent - (nl * gini(lt, nl - lt) + nr * gini(rt, nr - rt)) / n
        if best is None or decrease > best[1]:
            best = (threshold, decrease)
    return best


class TestGini:
    def test_pure_node(self):
        assert gini(10, 0) == 0.0

    def test_balanced_node(self):
        assert gini(5, 5) == 0.5

    def test_hand_case(self):
        assert gini(3, 1) == pytest.approx(0.375)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini(0, 0)


class TestBestSplit:
    def test_perfect_separation(self):
        got = best_split([1, 2, 3, 4], [True, True, False, False], 1)
        assert got is not None
        threshold, decrease = got
        assert threshold == pytest.approx(2.5)
        assert decrease == pytest.approx(0.5)

    def test_constant_column(self):
        assert best_split([3, 3, 3, 3], [True, False, True, False], 1) is None

    def test_pure_target(self):
        assert best_split([1, 2, 3, 4], [True, True, True, True], 1) is None

    def test_min_leaf_blocks_splits(self):
        assert best_split([1, 2, 3, 4], [True, True, False, False], 3) is None

    def test_ties_take_smallest_threshold(self):
        # both boundaries separate one False; equal decrease -> leftmost
        got = best_split([1, 2, 3], [False, True, False], 1)
        assert got is not None
        assert got[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_threshold_oracle(self, seed):
        rng = np.random.default_rng(seed)
        column = rng.integers(0, 12, 80).astype(float)
        target = rng.random(80) < 0.6
        for min_leaf in (1, 5, 20):
            got = best_split(column, target, min_leaf)
            want = exhaustive_best_split(column, target, min_leaf)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == pytest.approx(want[0])
                assert got[1] == pytest.approx(want[1], abs=1e-12)


class TestFitTree:
    def test_all_correct_single_leaf(self):
        tree = fit_tree([("f", np.arange(10.0))], np.ones(10, dtype=bool),
                        DtConfig(min_leaf=1, max_depth=5))
        assert tree.is_leaf
        assert tree.n_true == 10 and tree.n_false == 0

    def test_depth_one_pure_children(self):
        tree = fit_tree([("f", np.array([1.0, 2.0, 3.0, 4.0]))],
                        np.array([True, True, False, False]),
                        DtConfig(min_leaf=1, max_depth=5))
        assert tree.feature == "f" and tree.threshold == pytest.approx(2.5)
        assert tree.left.is_leaf and tree.left.n_false == 0
        assert tree.right.is_leaf and tree.right.n_true == 0

    def test_xor_grid_isolates_false_quadrants(self):
        # four cells, false iff exactly one coordinate is above 0.5; the root
        # split gains nothing but the depth-2 splits are pure
        cell = np.array([0.25, 0.75])
        x = np.repeat(np.tile(cell, 2), 8)
        y = np.repeat(np.repeat(cell, 2), 8)
        correct = ~((x > 0.5) ^ (y > 0.5))
        tree = fit_tree([("x", x), ("y", y)], correct, DtConfig(min_leaf=1, max_depth=2))
        assert not tree.is_leaf and tree.threshold == pytest.approx(0.5)
        for child in (tree.left, tree.right):
            assert not child.is_leaf and child.threshold == pytest.approx(0.5)
            sides = sorted((child.left, child.right),
                           key=lambda node: node.n_true)
            assert sides[0].n_true == 0 and sides[0].n_false == 8
            assert sides[1].n_false == 0 and sides[1].n_true == 8

    def test_children_partition_parent(self):
        rng = np.random.default_rng(4)
        cols = [("a", rng.normal(size=300)), ("b", rng.uniform(size=300))]
        correct = rng.random(300) < 0.7
        tree = fit_tree(cols, correct, DtConfig(min_leaf=10, max_depth=5))

        def check(node):
            if node.is_leaf:
                return
            assert node.left.size + node.right.size == node.size
            assert node.left.n_true + node.right.n_true == node.n_true
            check(node.left)
            check(node.right)

        check(tree)

    def test_missing_rows_excluded(self):
        col = np.array([1.0, 2.0, np.nan, 3.0, 4.0, np.nan])
        correct = np.array([True, True, False, False, False, True])
        tree = fit_tree([("f", col)], correct, DtConfig(min_leaf=1, max_depth=5))
        assert tree.size == 4

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([("f", np.array([np.nan, 1.0]))],
                     np.array([True, False]), DtConfig(min_leaf=2, max_depth=5))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        cols = [("a", rng.normal(size=200)), ("b", rng.normal(size=200))]
        correct = rng.random(200) < 0.6

        def shape(node):
            if node.is_leaf:
                return (node.n_true, node.n_false)
            return (node.feature, node.threshold, shape(node.left), shape(node.right))

        t1 = fit_tree(cols, correct, DtConfig(min_leaf=5, max_depth=5))
        t2 = fit_tree(cols, correct, DtConfig(min_leaf=5, max_depth=5))
        assert shape(t1) == shape(t2)


def count_members(features, slice_obj, correctness):
    mask = np.ones(len(correctness), dtype=bool)
    columns = dict(features)
    for name, pred in slice_obj.predicates:
        values = np.asarray(columns[name], dtype=float)
        if isinstance(pred, ValueSet):
            mask &= np.isin(values, np.asarray(pred.codes, dtype=float))
        else:
            mask &= pred.contains(values) & np.isfinite(values)
    return int(mask.sum()), int(np.asarray(correctness)[mask].sum())


class TestExtractSlices:
    kinds = {"f": FeatureKind.CONTINUOUS, "g": FeatureKind.CONTINUOUS}

    def test_pure_true_tree_empty(self):
        features = [("f", np.arange(20.0))]
        tree = fit_tree(features, np.ones(20, dtype=bool),
                        DtConfig(min_leaf=1, max_depth=5))
        got = extract_slices(tree, features, {"f": FeatureKind.CONTINUOUS},
                             Filters(min_support=2, perf_threshold=0.5,
                                     p_value_max=0.05))
        assert got == []

    def test_depth_one_false_child_harvested(self):
        features = [("f", np.array([1.0, 2.0, 3.0, 4.0, 5.0]))]
        correct = np.array([True, True, False, False, False])
        tree = fit_tree(features, correct, DtConfig(min_leaf=2, max_depth=5))
        got = extract_slices(tree, features, {"f": FeatureKind.CONTINUOUS},
                             Filters(min_support=2, perf_threshold=0.5,
                                     p_value_max=0.05))
        assert len(got) == 1
        (name, pred), = got[0].predicates
        assert name == "f"
        assert pred == Interval(3.0, 5.0)
        assert count_members(features, got[0], correct) == (3, 0)

    def test_node_counts_reproduced_exactly(self):
        rng = np.random.default_rng(13)
        features = [("f", rng.normal(size=400)), ("g", rng.uniform(size=400))]
        correct = rng.random(400) < 0.65
        tree = fit_tree(features, correct, DtConfig(min_leaf=10, max_depth=5))
        filters = Filters(min_support=10, perf_threshold=0.75, p_value_max=0.05)
        for sl in extract_slices(tree, features, self.kinds, filters):
            n, k = count_members(features, sl, correct)
            assert n >= filters.min_support
            assert k / n <= filters.perf_threshold

    def test_categorical_codes_render_as_value_sets(self):
        codes = np.array([0.0, 1.0, 2.0, 3.0] * 10)
        correct = codes >= 2.0  # codes 0 and 1 always wrong
        features = [("c", codes)]
        labels = {"c": ("red", "green", "blue", "grey")}
        tree = fit_tree(features, correct, DtConfig(min_leaf=2, max_depth=5))
        got = extract_slices(tree, features, {"c": FeatureKind.CATEGORICAL},
                             Filters(min_support=2, perf_threshold=0.5,
                                     p_value_max=0.05),
                             labels)
        assert got
        weak = [sl for sl in got for _, pred in sl.predicates
                if isinstance(pred, ValueSet) and pred.codes == (0, 1)]
        assert weak, "adjacent codes not aggregated into one value set"
        (_, pred), = weak[0].predicates
        assert pred.labels == ("red", "green")

    def test_conjunction_merges_repeated_feature(self):
        # false band in the middle of one feature forces two cuts on it
        values = np.linspace(0.0, 1.0, 200)
        correct = ~((values >= 0.4) & (values <= 0.6))
        features = [("f", values)]
        tree = fit_tree(features, correct, DtConfig(min_leaf=5, max_depth=3))
        got = extract_slices(tree, features, {"f": FeatureKind.CONTINUOUS},
                             Filters(min_support=5, perf_threshold=0.5,
                                     p_value_max=0.05))
        assert any(sl.order == 1 for sl in got)
        band = [sl for sl in got
                if count_members(features, sl, correct)[1] == 0]
        assert band, "no harvested node isolates the false band"
        (_, interval), = band[0].predicates
        assert 0.4 <= interval.low < interval.high <= 0.6
