"""CART fitting and weak-node harvesting."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer.dataset import Dataset, Feature, FeatureKind
from sliceminer.dtree import best_split, extract_slices, fit_tree
from sliceminer.model import Filters, Interval, ValueSet
from sliceminer.report import render_predicate
from sliceminer.slicer import evaluate_slice


def continuous(name, values):
    return Feature(name, FeatureKind.CONTINUOUS,
                   np.array(values, dtype=np.float64), ())


def categorical(name, codes, labels=None):
    codes = np.array(codes, dtype=np.float64)
    if labels is None:
        labels = tuple(f"v{c}" for c in range(int(np.nanmax(codes)) + 1))
    return Feature(name, FeatureKind.CATEGORICAL, codes, tuple(labels))


def gini(n_true, n_false):
    total = n_true + n_false
    return 1.0 - (n_true / total) ** 2 - (n_false / total) ** 2


def exhaustive_best_split(column, target, min_leaf):
    """Try every distinct value but the largest as the threshold directly."""
    column = np.asarray(column, dtype=float)
    target = np.asarray(target, dtype=bool)
    n = len(column)
    parent = gini(int(target.sum()), int(n - target.sum()))
    if parent == 0.0:
        return None
    distinct = np.unique(column)
    best = None
    for threshold in distinct[:-1]:
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


class TestBestSplit:
    def test_perfect_separation(self):
        got = best_split([1, 2, 3, 4], [True, True, False, False], 1)
        assert got is not None
        threshold, decrease = got
        assert threshold == 2.0
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
        assert got[0] == 1.0

    @pytest.mark.parametrize("low, high", [
        (1e308, 1.7e308),  # the midpoint overflows to inf
        (1.0000000000000002, 1.0000000000000004),  # it rounds onto high
    ], ids=["overflow", "adjacent-floats"])
    def test_threshold_separates_the_scored_values(self, low, high):
        column = [low] * 6 + [high] * 6
        target = [True] * 6 + [False] * 6
        threshold, decrease = best_split(column, target, 1)
        assert threshold == low
        assert decrease == pytest.approx(0.5)
        tree = fit_tree([continuous("f", column)], np.array(target),
                        min_leaf=3, max_depth=1)
        assert tree.left.rows.tolist() == list(range(6))
        assert tree.right.rows.tolist() == list(range(6, 12))

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
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1], abs=1e-12)


class TestFitTree:
    def test_all_correct_single_leaf(self):
        tree = fit_tree([continuous("f", np.arange(10.0))],
                        np.ones(10, dtype=bool), min_leaf=1, max_depth=5)
        assert tree.is_leaf
        assert tree.n_true == 10 and tree.size - tree.n_true == 0

    def test_depth_one_pure_children(self):
        tree = fit_tree([continuous("f", [1.0, 2.0, 3.0, 4.0])],
                        np.array([True, True, False, False]),
                        min_leaf=1, max_depth=5)
        assert tree.feature == "f" and tree.threshold == 2.0
        assert tree.left.is_leaf and tree.left.size - tree.left.n_true == 0
        assert tree.right.is_leaf and tree.right.n_true == 0

    def test_xor_grid_isolates_false_quadrants(self):
        # four cells, false iff exactly one coordinate is above 0.5; the root
        # split gains nothing but the depth-2 splits are pure
        cell = np.array([0.25, 0.75])
        x = np.repeat(np.tile(cell, 2), 8)
        y = np.repeat(np.repeat(cell, 2), 8)
        correct = ~((x > 0.5) ^ (y > 0.5))
        tree = fit_tree([continuous("x", x), continuous("y", y)], correct,
                        min_leaf=1, max_depth=2)
        assert not tree.is_leaf and tree.threshold == 0.25
        for child in (tree.left, tree.right):
            assert not child.is_leaf and child.threshold == 0.25
            sides = sorted((child.left, child.right),
                           key=lambda node: node.n_true)
            assert sides[0].n_true == 0 and sides[0].size - sides[0].n_true == 8
            assert sides[1].size - sides[1].n_true == 0 and sides[1].n_true == 8

    def test_children_partition_parent(self):
        rng = np.random.default_rng(4)
        cols = [continuous("a", rng.normal(size=300)),
                continuous("b", rng.uniform(size=300))]
        correct = rng.random(300) < 0.7
        tree = fit_tree(cols, correct, min_leaf=10, max_depth=5)

        def check(node):
            if node.is_leaf:
                return
            assert node.left.size + node.right.size == node.size
            assert node.left.n_true + node.right.n_true == node.n_true
            both = np.concatenate([node.left.rows, node.right.rows])
            assert np.array_equal(np.sort(both), node.rows)
            check(node.left)
            check(node.right)

        check(tree)

    def test_missing_rows_excluded(self):
        col = [1.0, 2.0, np.nan, 3.0, 4.0, np.nan]
        correct = np.array([True, True, False, False, False, True])
        tree = fit_tree([continuous("f", col)], correct, min_leaf=1, max_depth=5)
        assert tree.size == 4
        assert tree.rows.tolist() == [0, 1, 3, 4]  # dataset row indices
        assert tree.left.rows.tolist() == [0, 1]

    @pytest.mark.parametrize("col, correct, min_leaf", [
        ([np.nan, 1.0], [True, False], 2),
        ([np.nan, np.nan], [True, False], 1),
        ([1.0, 2.0, np.nan, 3.0], [True, False, False, True], 2),
    ], ids=["below-min-leaf", "none-usable", "below-twice-min-leaf"])
    def test_too_few_rows_give_a_leaf_root(self, col, correct, min_leaf):
        features = [continuous("f", col)]
        tree = fit_tree(features, np.array(correct), min_leaf=min_leaf,
                        max_depth=5)
        assert tree.is_leaf
        assert tree.size == int(np.isfinite(col).sum())
        filters = Filters(min_support=2, perf_threshold=1.0, p_value_max=0.05)
        assert extract_slices(tree, features, filters) == []

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        cols = [continuous("a", rng.normal(size=200)),
                continuous("b", rng.normal(size=200))]
        correct = rng.random(200) < 0.6

        def shape(node):
            if node.is_leaf:
                return (node.n_true, node.size - node.n_true)
            return (node.feature, node.threshold, shape(node.left), shape(node.right))

        t1 = fit_tree(cols, correct, min_leaf=5, max_depth=5)
        t2 = fit_tree(cols, correct, min_leaf=5, max_depth=5)
        assert shape(t1) == shape(t2)


def member_mask(features, slice_obj):
    mask = np.ones(features[0].values.size, dtype=bool)
    by_name = {feature.name: feature for feature in features}
    for name, pred in slice_obj.predicates:
        values = by_name[name].values
        if isinstance(pred, ValueSet):
            mask &= np.isin(values, np.asarray(pred.codes, dtype=float))
        else:
            mask &= pred.contains(values) & np.isfinite(values)
    return mask


def count_members(features, slice_obj, correctness):
    mask = member_mask(features, slice_obj)
    return int(mask.sum()), int(np.asarray(correctness)[mask].sum())


def harvested_nodes(tree, filters):
    """Non-root nodes passing the gates, in the preorder extract_slices uses."""
    nodes = []

    def walk(node):
        if node.is_leaf:
            return
        for child in (node.left, node.right):
            if filters.admits(child.size, child.n_true):
                nodes.append(child)
            walk(child)

    walk(tree)
    return nodes


class TestExtractSlices:
    def test_pure_true_tree_empty(self):
        features = [continuous("f", np.arange(20.0))]
        tree = fit_tree(features, np.ones(20, dtype=bool), min_leaf=1,
                        max_depth=5)
        got = extract_slices(tree, features,
                             Filters(min_support=2, perf_threshold=0.5,
                                     p_value_max=0.05))
        assert got == []

    def test_depth_one_false_child_harvested(self):
        features = [continuous("f", [1.0, 2.0, 3.0, 4.0, 5.0])]
        correct = np.array([True, True, False, False, False])
        tree = fit_tree(features, correct, min_leaf=2, max_depth=5)
        got = extract_slices(tree, features,
                             Filters(min_support=2, perf_threshold=0.5,
                                     p_value_max=0.05))
        assert len(got) == 1
        (name, pred), = got[0].predicates
        assert name == "f"
        assert pred == Interval(3.0, 5.0)
        assert count_members(features, got[0], correct) == (3, 0)

    def test_node_counts_reproduced_exactly(self):
        rng = np.random.default_rng(13)
        features = [continuous("f", rng.normal(size=400)),
                    continuous("g", rng.uniform(size=400))]
        correct = rng.random(400) < 0.65
        tree = fit_tree(features, correct, min_leaf=10, max_depth=5)
        filters = Filters(min_support=10, perf_threshold=0.75, p_value_max=0.05)
        for sl in extract_slices(tree, features, filters):
            n, k = count_members(features, sl, correct)
            assert n >= filters.min_support
            assert k / n <= filters.perf_threshold

    def test_categorical_codes_render_as_value_sets(self):
        codes = np.array([0.0, 1.0, 2.0, 3.0] * 10)
        correct = codes >= 2.0  # codes 0 and 1 always wrong
        features = [categorical("c", codes, ("red", "green", "blue", "grey"))]
        tree = fit_tree(features, correct, min_leaf=2, max_depth=5)
        got = extract_slices(tree, features,
                             Filters(min_support=2, perf_threshold=0.5,
                                     p_value_max=0.05))
        assert got
        weak = [sl for sl in got for _, pred in sl.predicates
                if isinstance(pred, ValueSet) and pred.codes == (0, 1)]
        assert weak, "adjacent codes not aggregated into one value set"
        (_, pred), = weak[0].predicates
        # the set holds codes; its labels are read through the feature
        assert render_predicate(pred, features[0].labels) == "(red, green)"

    def test_conjunction_merges_repeated_feature(self):
        # false band in the middle of one feature forces two cuts on it
        values = np.linspace(0.0, 1.0, 200)
        correct = ~((values >= 0.4) & (values <= 0.6))
        features = [continuous("f", values)]
        tree = fit_tree(features, correct, min_leaf=5, max_depth=3)
        got = extract_slices(tree, features,
                             Filters(min_support=5, perf_threshold=0.5,
                                     p_value_max=0.05))
        assert any(sl.order == 1 for sl in got)
        band = [sl for sl in got
                if count_members(features, sl, correct)[1] == 0]
        assert band, "no harvested node isolates the false band"
        (_, interval), = band[0].predicates
        assert 0.4 <= interval.low < interval.high <= 0.6

    @pytest.mark.parametrize("seed", range(24))
    def test_keys_distinct_and_members_are_node_rows(self, seed):
        # the invariant that lets extract_slices skip a dedupe: one tree
        # never gives two nodes the same predicate, and each predicate picks
        # out exactly its node among the rows the tree could use
        rng = np.random.default_rng(seed)
        n = 300
        features = []
        for i in range(rng.integers(1, 4)):
            if rng.random() < 0.5:
                values = rng.integers(0, rng.integers(2, 7), n).astype(float)
                make = categorical
            else:
                values = np.round(rng.normal(size=n), 1)
                make = continuous
            values[rng.random(n) < 0.1] = np.nan
            features.append(make(f"f{i}", values))
        correct = rng.random(n) < 0.7
        for j, feature in enumerate(features):  # plant a weak region each
            correct &= ~((feature.values < np.nanmedian(feature.values))
                         & (rng.random(n) < 0.3 + 0.2 * j))
        min_leaf = int(rng.integers(2, 12))
        tree = fit_tree(features, correct, min_leaf=min_leaf, max_depth=5)
        filters = Filters(min_support=min_leaf, perf_threshold=0.7,
                          p_value_max=0.05)
        got = extract_slices(tree, features, filters)
        nodes = harvested_nodes(tree, filters)
        assert len(got) == len(nodes)
        keys = [sl.predicate_key() for sl in got]
        assert len(set(keys)) == len(keys)
        usable = np.flatnonzero(
            np.all([np.isfinite(f.values) for f in features], axis=0))
        for sl, node in zip(got, nodes):
            members = usable[member_mask(features, sl)[usable]]
            assert np.array_equal(members, node.rows)

    def test_missing_off_path_cells_counted_by_evaluation(self):
        # the tree over (x, y) splits on x only; rows missing y are outside
        # every node but inside the order-1 slice it yields
        x = np.tile(np.arange(10.0), 4)
        y = np.zeros(40)
        y[[0, 1, 10]] = np.nan
        correct = x >= 5.0
        features = [continuous("x", x), continuous("y", y)]
        tree = fit_tree(features, correct, min_leaf=2, max_depth=5)
        filters = Filters(min_support=2, perf_threshold=0.5, p_value_max=0.05)
        (sl,) = extract_slices(tree, features, filters)
        (node,) = harvested_nodes(tree, filters)
        assert sl.features == ("x",)
        assert node.size == 17
        dataset = Dataset(features={f.name: f for f in features},
                          correctness=correct, n_records=40,
                          n_correct=int(correct.sum()), rejected_rows=())
        stats = evaluate_slice(dataset, sl)
        assert (stats.support, stats.correct) == (20, 0)


def node_list(node):
    """Preorder (rows, n_true, feature, threshold) of every node."""
    out = [(node.rows.tolist(), node.n_true, node.feature, node.threshold)]
    if not node.is_leaf:
        out += node_list(node.left) + node_list(node.right)
    return out


def reference_node_list(features, correct, min_leaf, max_depth):
    """``node_list`` of the greedy CART, searching every node afresh."""
    usable = np.all([~np.isnan(f.values) for f in features], axis=0)

    def build(rows, depth):
        n_true = int(correct[rows].sum())
        best = None
        if depth < max_depth and 0 < n_true < rows.size:
            for f in features:
                found = best_split(f.values[rows], correct[rows], min_leaf)
                if found is not None and (best is None or found[1] > best[0]):
                    best = (found[1], f, found[0])
        if best is None:
            return [(rows.tolist(), n_true, None, None)]
        _, f, threshold = best
        left = f.values[rows] <= threshold
        return ([(rows.tolist(), n_true, f.name, threshold)]
                + build(rows[left], depth + 1) + build(rows[~left], depth + 1))

    return build(np.flatnonzero(usable), 0)


# few distinct cells, so ties and equal first splits are common
CELLS = {FeatureKind.CONTINUOUS: [-1.0, -0.0, 0.0, 0.5, 2.0, np.nan],
         FeatureKind.CATEGORICAL: [0.0, 1.0, 2.0, np.nan]}


@st.composite
def small_tables(draw):
    n = draw(st.integers(6, 40))
    features = []
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(list(FeatureKind)))
        pool = CELLS[kind]
        if draw(st.booleans()):  # some columns have no missing cell
            pool = [cell for cell in pool if not np.isnan(cell)]
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        features.append(continuous(f"f{j}", values)
                        if kind is FeatureKind.CONTINUOUS
                        else categorical(f"f{j}", values, ("a", "b", "c")))
    correct = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return features, correct


class TestSplitTable:
    """Trees that share one split table equal trees fitted with a table
    each: a (root key, path, feature) key fixes the rows a split is
    searched on."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), table=small_tables(), min_leaf=st.integers(1, 4),
           max_depth=st.integers(1, 4))
    def test_shared_table_gives_the_same_trees(self, data, table, min_leaf,
                                               max_depth):
        features, correct = table
        subsets = [list(c) for size in (1, 2, 3)
                   for c in combinations(features, size)]
        subsets = data.draw(st.permutations(subsets))  # any fitting order
        splits = {}
        for subset in subsets:
            shared = fit_tree(subset, correct, min_leaf, max_depth,
                              splits=splits)
            fresh = fit_tree(subset, correct, min_leaf, max_depth)
            assert node_list(shared) == node_list(fresh)
            assert node_list(shared) == reference_node_list(
                subset, correct, min_leaf, max_depth)

    def test_table_holds_one_result_per_searched_key(self):
        x = continuous("x", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        y = continuous("y", [1.0, np.nan, 1.0, 0.0, 0.0, 1.0])
        correct = np.array([True, True, False, False, True, True])
        splits = {}
        fit_tree([x], correct, 1, 1, splits=splits)
        fit_tree([x, y], correct, 1, 1, splits=splits)
        # y has a missing cell, so the tree over (x, y) roots elsewhere
        assert set(splits) == {((), (), "x"), (("y",), (), "x"),
                               (("y",), (), "y")}
        assert splits[(), (), "x"] == best_split(x.values, correct, 1)
