"""Shortest-interval search over single numeric features.

The scan starts from the shortest interval holding ``initial_density`` of a
feature's records and repeatedly shrinks it by ``epsilon``.  Accuracy going
down means the tighter interval is itself a weak region; accuracy going up
means at least one of the just-discarded side strips is.  Once the density
budget for the current working sample is spent, the densest interval's
records are dropped and the search restarts on the remainder, until fewer
than ``min_density_floor`` of the original records are left.

An interval's members are all records equal to or between its end values.
A window of ``m`` consecutive sorted records that ends inside a run of equal
values therefore stands for an interval holding the whole run, more than
``m`` records; its accuracy, the next shrink and the restart's drop all use
those members.  The scan works on index ranges of the sorted working sample:
each value's run bounds and the prefix sums of correctness are computed
once per working sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import min_width_window
from .model import Interval

__all__ = ["HpdConfig", "shortest_interval", "hpd_scan"]

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

    while work_v.size >= 2 and work_v.size >= stop_records:
        n = work_v.size
        bound = work_v.tolist()
        # [first[i], past[i]) are the records equal to work_v[i]
        first = np.searchsorted(work_v, work_v, side="left").tolist()
        past = np.searchsorted(work_v, work_v, side="right").tolist()
        cum = [0, *np.cumsum(work_c).tolist()]

        def window(lo: int, hi: int, density: float) -> tuple[int, int]:
            """Records [j, k) of the narrowest window inside [lo, hi)."""
            m = min(math.ceil(density * n), hi - lo)
            j = lo + min_width_window(work_v[lo:hi], m)
            return j, j + m

        density = config.initial_density
        # the shrink budget scales with how much of the original sample is left
        density_floor = config.min_density_floor * (n / original)
        j, k = window(0, n, density)
        lo, hi = first[j], past[k - 1]
        acc = (cum[hi] - cum[lo]) / (hi - lo)
        while True:
            next_density = density - config.epsilon
            if next_density < density_floor:
                break
            j, k = window(lo, hi, next_density)
            inner_lo, inner_hi = first[j], past[k - 1]
            inner_acc = (cum[inner_hi] - cum[inner_lo]) / (inner_hi - inner_lo)
            if inner_acc < acc - _TIE_TOLERANCE:
                out.append(Interval(bound[j], bound[k - 1]))
            elif inner_acc > acc + _TIE_TOLERANCE:
                if lo < j:
                    out.append(Interval(bound[lo], bound[j - 1]))
                if k < hi:
                    out.append(Interval(bound[k], bound[hi - 1]))
            lo, hi, acc, density = inner_lo, inner_hi, inner_acc, next_density
        if lo == 0 and hi == n:
            break
        work_v = np.concatenate((work_v[:lo], work_v[hi:]))
        work_c = np.concatenate((work_c[:lo], work_c[hi:]))
    return out
