"""Shortest-interval search over single numeric features.

The scan starts from the shortest interval holding ``initial_density`` of a
feature's records and repeatedly shrinks it by ``epsilon``.  Accuracy going
down means the tighter interval is itself a weak region; accuracy going up
means at least one of the just-discarded side strips is.  Once the density
budget for the current working sample is spent, the densest interval's
records are dropped and the search restarts on the remainder, until fewer
than ``min_density_floor`` of the original records are left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import min_width_window
from .model import Interval

__all__ = ["HpdConfig", "shortest_interval", "shrink_step", "hpd_scan"]

# accuracy deltas at or below this are treated as ties (neither branch emits)
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class HpdConfig:
    initial_density: float = 0.90
    epsilon: float = 0.05
    min_density_floor: float = 0.10

    def __post_init__(self):
        if not 0.0 < self.min_density_floor < self.initial_density <= 1.0:
            raise ValueError(
                f"need 0 < min_density_floor < initial_density <= 1, got "
                f"{self.min_density_floor}, {self.initial_density}")
        if not 0.0 < self.epsilon < self.initial_density:
            raise ValueError(
                f"need 0 < epsilon < initial_density, got {self.epsilon}")


def shortest_interval(sorted_values: np.ndarray, proportion: float) -> Interval:
    """Narrowest window covering ceil(proportion * len) consecutive values.

    Ties break to the leftmost window.  ``sorted_values`` must be ascending.
    """
    values = np.asarray(sorted_values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty value array")
    if not 0.0 < proportion <= 1.0:
        raise ValueError(f"proportion must be in (0, 1], got {proportion}")
    m = min(values.size, max(1, math.ceil(proportion * values.size)))
    i = min_width_window(values, m)
    return Interval(float(values[i]), float(values[i + m - 1]))


def shrink_step(sorted_values: np.ndarray, current: Interval,
                target_density: float
                ) -> tuple[Interval, Optional[Interval], Optional[Interval]]:
    """Shrink ``current`` to the shortest window at ``target_density``.

    The density is a fraction of ``sorted_values``; the window is searched
    among the records falling inside ``current``.  Returns the inner interval
    plus closed intervals over the actual discarded values on each side (None
    when a side loses nothing).
    """
    values = np.asarray(sorted_values, dtype=np.float64)
    m = math.ceil(target_density * values.size)
    if m < 1:
        raise ValueError(
            f"target density {target_density} leaves fewer than 1 record")
    lo = int(np.searchsorted(values, current.low, side="left"))
    hi = int(np.searchsorted(values, current.high, side="right"))
    inside = values[lo:hi]
    if inside.size == 0:
        raise ValueError("current interval holds no records")
    m = min(m, inside.size)
    j = min_width_window(inside, m)
    inner = Interval(float(inside[j]), float(inside[j + m - 1]))
    left = inside[:j]
    right = inside[j + m:]
    left_strip = Interval(float(left[0]), float(left[-1])) if left.size else None
    right_strip = Interval(float(right[0]), float(right[-1])) if right.size else None
    return inner, left_strip, right_strip


def hpd_scan(values: np.ndarray, correctness: np.ndarray,
             config: HpdConfig) -> list[Interval]:
    """Run the shrink loop over one numeric feature.

    ``values`` may contain NaN for missing entries; those records are ignored.
    Every emitted bound is an actual value, so each interval holds at least
    one record of the full non-missing sample.
    """
    vals = np.asarray(values, dtype=np.float64)
    corr = np.asarray(correctness, dtype=bool)
    keep = np.isfinite(vals)
    vals, corr = vals[keep], corr[keep]
    if vals.size < 2:
        return []

    order = np.argsort(vals, kind="stable")
    work_v, work_c = vals[order], corr[order]
    original = work_v.size
    stop_records = config.min_density_floor * original
    out: list[Interval] = []

    def span_accuracy(work_v, work_c, interval: Interval) -> float:
        lo = int(np.searchsorted(work_v, interval.low, side="left"))
        hi = int(np.searchsorted(work_v, interval.high, side="right"))
        return float(work_c[lo:hi].mean())

    while work_v.size >= 2 and work_v.size >= stop_records:
        density = config.initial_density
        # the shrink budget scales with how much of the original sample is left
        density_floor = config.min_density_floor * (work_v.size / original)
        prev = shortest_interval(work_v, density)
        prev_acc = span_accuracy(work_v, work_c, prev)
        while True:
            next_density = density - config.epsilon
            if next_density < density_floor:
                break
            inner, left_strip, right_strip = shrink_step(work_v, prev, next_density)
            inner_acc = span_accuracy(work_v, work_c, inner)
            if inner_acc < prev_acc - _TIE_TOLERANCE:
                out.append(inner)
            elif inner_acc > prev_acc + _TIE_TOLERANCE:
                if left_strip is not None:
                    out.append(left_strip)
                if right_strip is not None:
                    out.append(right_strip)
            prev, prev_acc, density = inner, inner_acc, next_density
        dropped = prev.contains(work_v)
        if dropped.all():
            break
        work_v, work_c = work_v[~dropped], work_c[~dropped]
    return out
