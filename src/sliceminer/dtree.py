"""Small CART trees over 1-3 features, harvested for weak-region slices.

The target is always binary: did the model predict this record correctly.
Rows missing a value in any of the tree's features are left out of it, so a
subset with too few usable rows gives a root that is a leaf.  The tree itself
is never used as a predictor; every non-root node that passes the support
and performance gates becomes a slice candidate, concretized over the
values of the rows the node holds.

A run fits one tree per feature subset of each order, so trees that share
a feature, or a first split, meet the same nodes.  ``fit_tree`` keeps each
node's best split per feature in a split table that the caller can share
between trees, keyed by (root key, path, feature name): the tree's
features with a missing cell fix its usable rows, and the splits on the
path from the root cut those down to exactly the node's, so the table
holds results only, no rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dataset import Feature, FeatureKind
from .model import Filters, Heuristic, Interval, Slice, ValueSet, make_slice

__all__ = ["TreeNode", "best_split", "fit_tree", "extract_slices"]


@dataclass
class TreeNode:
    rows: np.ndarray  # dataset row indices of the node's records, ascending
    n_true: int
    feature: Optional[str] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = field(default=None, repr=False)
    right: Optional["TreeNode"] = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def size(self) -> int:
        return self.rows.size


def best_split(column: np.ndarray, target: np.ndarray,
               min_leaf: int) -> Optional[tuple[float, float]]:
    """Best (threshold, gini decrease) for one column, or None.

    The threshold is the largest value sent left: a row goes left iff its
    value is at most the threshold, exactly the rows the split was scored
    on.  Pure targets and columns without a legal boundary yield None.
    Ties break to the smallest threshold.
    """
    col = np.asarray(column, dtype=np.float64)
    tgt = np.asarray(target, dtype=bool)
    n = col.size
    if n < 2:
        return None
    total_true = int(tgt.sum())
    p_true = total_true / n
    parent = 1.0 - p_true * p_true - (1.0 - p_true) * (1.0 - p_true)
    if parent <= 0.0:
        return None
    order = np.argsort(col, kind="stable")
    values = col[order]
    # a boundary after position i sends values[:i + 1] left
    n_left = np.arange(1, n)
    n_right = n - n_left
    legal = ((values[:-1] != values[1:])
             & (n_left >= min_leaf) & (n_right >= min_leaf))
    if not legal.any():
        return None
    left_true = np.cumsum(tgt[order][:-1], dtype=np.float64)
    left_false = n_left - left_true
    right_true = total_true - left_true
    right_false = n_right - right_true
    gini_left = 1.0 - (left_true / n_left) ** 2 - (left_false / n_left) ** 2
    gini_right = (1.0 - (right_true / n_right) ** 2
                  - (right_false / n_right) ** 2)
    decrease = parent - (n_left * gini_left + n_right * gini_right) / n
    decrease[~legal] = -np.inf
    pos = int(np.argmax(decrease))  # first maximum: smallest threshold wins
    return float(values[pos]), float(decrease[pos])


def fit_tree(features: Sequence[Feature], correctness: np.ndarray,
             min_leaf: int, max_depth: int, *,
             splits: Optional[dict] = None) -> TreeNode:
    """Greedy recursive CART over the values of up to three features.

    Rows with a missing (NaN) value in any of the features are excluded;
    no split leaves a child with fewer than ``min_leaf`` rows.  Fully
    deterministic: feature order, then smallest threshold, breaks ties.

    ``splits`` is the split table (a fresh one when None): ``best_split``'s
    result for each (root key, path, feature name) searched.  The root key
    is the tuple of the features with any missing cell, since those alone
    decide the usable rows; each ``(feature, threshold, went_left)`` of the
    path from the root then keeps exactly the node's rows.  A key therefore
    fixes what its split was searched on, and trees fitted with one table
    equal trees fitted with a table each, as long as they share
    ``correctness`` and ``min_leaf``.
    """
    if not 1 <= len(features) <= 3:
        raise ValueError(f"fit_tree takes 1-3 features, got {len(features)}")
    if splits is None:
        splits = {}
    corr = np.asarray(correctness, dtype=bool)
    usable = np.ones(corr.shape, dtype=bool)
    root = []
    for feature in features:
        present = ~np.isnan(feature.values)
        if not present.all():
            usable &= present
            root.append(feature.name)
    root = tuple(root)

    def build(rows: np.ndarray, depth: int, path: tuple) -> TreeNode:
        target = corr[rows]
        node = TreeNode(rows=rows, n_true=int(target.sum()))
        if depth >= max_depth or node.n_true in (0, rows.size):
            return node
        best = None  # (decrease, feature, threshold)
        for feature in features:
            key = (root, path, feature.name)
            if key in splits:
                found = splits[key]
            else:
                found = splits[key] = best_split(feature.values[rows], target,
                                                 min_leaf)
            if found is not None and (best is None or found[1] > best[0]):
                best = (found[1], feature, found[0])
        if best is None:
            return node
        _, feature, threshold = best
        go_left = feature.values[rows] <= threshold
        node.feature = feature.name
        node.threshold = threshold
        node.left = build(rows[go_left], depth + 1,
                          path + ((feature.name, threshold, True),))
        node.right = build(rows[~go_left], depth + 1,
                           path + ((feature.name, threshold, False),))
        return node

    return build(np.flatnonzero(usable), 0, ())


def extract_slices(tree: TreeNode, features: Sequence[Feature],
                   filters: Filters) -> list[Slice]:
    """Harvest under-performing nodes as slice candidates, in preorder.

    A node is kept iff it passes ``filters.admits``.  Each feature split on
    the path to it is concretized over the node's own rows: the closed
    [min, max] interval of a continuous feature, the set of codes present
    for a categorical one.  Among the tree's usable rows the predicate's
    members are exactly the node's rows.  Rows missing only a feature the
    path never split on are members too, so evaluation can count more
    records than the node holds.  No two nodes of one tree give the same
    predicate.
    """
    slices = []

    def concretize(node: TreeNode, names: frozenset[str]) -> Slice:
        predicates = {}
        for feature in features:
            if feature.name not in names:
                continue
            member_vals = feature.values[node.rows]
            if feature.kind is FeatureKind.CATEGORICAL:
                # a node's rows miss no tree feature, so every value is a
                # code; bincount lists them ascending, and np.unique would
                # import numpy.ma (numpy 2.x)
                predicates[feature.name] = ValueSet(tuple(np.flatnonzero(
                    np.bincount(member_vals.astype(np.intp))).tolist()))
            else:
                predicates[feature.name] = Interval(float(member_vals.min()),
                                                    float(member_vals.max()))
        return make_slice(predicates, Heuristic.DT)

    def walk(node: TreeNode, names: frozenset[str]) -> None:
        if node.is_leaf:
            return
        names = names | {node.feature}
        for child in (node.left, node.right):
            if filters.admits(child.size, child.n_true):
                slices.append(concretize(child, names))
            walk(child, names)

    walk(tree, frozenset())
    return slices
