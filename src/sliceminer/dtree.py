"""Small CART trees over 1-3 features, harvested for weak-region slices.

The target is always binary: did the model predict this record correctly.
The tree itself is never used as a predictor; every non-root node whose
False-purity is high enough (and support large enough) becomes a slice
candidate described by its path conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._kernels import best_split_scan
from .model import Filters, Heuristic, Interval, Slice, ValueSet, make_slice
from .dataset import FeatureKind

__all__ = ["DtConfig", "TreeNode", "gini", "best_split", "fit_tree", "extract_slices"]


@dataclass(frozen=True)
class DtConfig:
    min_leaf: int
    max_depth: int

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be positive, got {self.min_leaf}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be positive, got {self.max_depth}")


@dataclass
class TreeNode:
    n_true: int
    n_false: int
    depth: int
    feature: Optional[str] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = field(default=None, repr=False)
    right: Optional["TreeNode"] = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def size(self) -> int:
        return self.n_true + self.n_false


def gini(n_true: int, n_false: int) -> float:
    """Binary Gini impurity of a node."""
    total = n_true + n_false
    if total < 1:
        raise ValueError("gini of an empty node")
    p_true = n_true / total
    p_false = n_false / total
    return 1.0 - p_true * p_true - p_false * p_false


def best_split(column: np.ndarray, target: np.ndarray,
               min_leaf: int) -> Optional[tuple[float, float]]:
    """Best (threshold, gini decrease) for one column, or None.

    Thresholds sit at midpoints between consecutive distinct sorted values.
    Pure targets and columns without a legal boundary yield None.  Ties break
    to the smallest threshold.
    """
    col = np.asarray(column, dtype=np.float64)
    tgt = np.asarray(target, dtype=bool)
    order = np.argsort(col, kind="stable")
    sorted_col = col[order]
    pos, decrease = best_split_scan(sorted_col, tgt[order], min_leaf)
    if pos < 0:
        return None
    threshold = (sorted_col[pos] + sorted_col[pos + 1]) / 2.0
    return float(threshold), float(decrease)


def fit_tree(features: Sequence[tuple[str, np.ndarray]], correctness: np.ndarray,
             config: DtConfig) -> TreeNode:
    """Greedy recursive CART over up to three numeric columns.

    Rows with a missing (NaN) value in any selected column are excluded.
    Fully deterministic: feature order, then smallest threshold, breaks ties.
    """
    if not 1 <= len(features) <= 3:
        raise ValueError(f"fit_tree takes 1-3 feature columns, got {len(features)}")
    columns = [(name, np.asarray(col, dtype=np.float64)) for name, col in features]
    corr = np.asarray(correctness, dtype=bool)
    usable = np.ones(corr.shape, dtype=bool)
    for _, col in columns:
        usable &= np.isfinite(col)
    if int(usable.sum()) < config.min_leaf:
        raise ValueError(
            f"only {int(usable.sum())} usable rows, need at least {config.min_leaf}")
    columns = [(name, col[usable]) for name, col in columns]
    corr = corr[usable]

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        target = corr[rows]
        n_true = int(target.sum())
        node = TreeNode(n_true=n_true, n_false=target.size - n_true, depth=depth)
        if depth >= config.max_depth or n_true == 0 or n_true == target.size:
            return node
        best = None  # (decrease, feature index, threshold)
        for idx, (_, col) in enumerate(columns):
            found = best_split(col[rows], target, config.min_leaf)
            if found is None:
                continue
            threshold, decrease = found
            if best is None or decrease > best[0]:
                best = (decrease, idx, threshold)
        if best is None:
            return node
        _, idx, threshold = best
        name, col = columns[idx]
        go_left = col[rows] <= threshold
        node.feature = name
        node.threshold = threshold
        node.left = build(rows[go_left], depth + 1)
        node.right = build(rows[~go_left], depth + 1)
        return node

    return build(np.arange(corr.size), 0)


def extract_slices(tree: TreeNode, features: Sequence[tuple[str, np.ndarray]],
                   kinds: dict[str, FeatureKind], filters: Filters,
                   labels: dict[str, tuple[str, ...]] | None = None) -> list[Slice]:
    """Harvest under-performing nodes as slice candidates.

    Path conditions are merged into one range per feature, then concretized
    over the node's actual member values: closed [min, max] intervals for
    continuous features, explicit value sets for categorical ones.  Membership
    of the concretized predicate reproduces the node exactly.  A node is kept
    iff accuracy <= filters.perf_threshold and size >= filters.min_support;
    identical predicates are deduped keeping the largest support.
    """
    labels = labels or {}
    columns = {name: np.asarray(col, dtype=np.float64) for name, col in features}
    usable = np.ones(next(iter(columns.values())).shape, dtype=bool)
    for col in columns.values():
        usable &= np.isfinite(col)

    harvested: dict[tuple, tuple[int, Slice]] = {}

    def consider(node: TreeNode, mask: np.ndarray,
                 bounds: dict[str, tuple[float, float]]) -> None:
        n = node.size
        if n < filters.min_support or n == 0:
            return
        if node.n_true / n > filters.perf_threshold:
            return
        predicates = {}
        for name, (low, high) in sorted(bounds.items()):
            member_vals = columns[name][mask]
            if kinds[name] is FeatureKind.CATEGORICAL:
                codes = tuple(int(c) for c in np.unique(member_vals))
                feature_labels = labels.get(name)
                names = tuple(feature_labels[c] if feature_labels else str(c)
                              for c in codes)
                predicates[name] = ValueSet(codes=codes, labels=names)
            else:
                predicates[name] = Interval(float(member_vals.min()),
                                            float(member_vals.max()))
        sl = make_slice(predicates, Heuristic.DT)
        key = sl.predicate_key()
        prior = harvested.get(key)
        if prior is None or n > prior[0]:
            harvested[key] = (n, sl)

    def walk(node: TreeNode, mask: np.ndarray,
             bounds: dict[str, tuple[float, float]]) -> None:
        if node.is_leaf:
            return
        col = columns[node.feature]
        low, high = bounds.get(node.feature, (-np.inf, np.inf))
        left_mask = mask & (col <= node.threshold)
        right_mask = mask & (col > node.threshold)

        left_bounds = dict(bounds)
        left_bounds[node.feature] = (low, min(high, node.threshold))
        consider(node.left, left_mask, left_bounds)
        walk(node.left, left_mask, left_bounds)

        right_bounds = dict(bounds)
        right_bounds[node.feature] = (max(low, node.threshold), high)
        consider(node.right, right_mask, right_bounds)
        walk(node.right, right_mask, right_bounds)

    walk(tree, usable, {})
    return [sl for _, sl in harvested.values()]
