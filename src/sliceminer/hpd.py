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
those members.

The scan works on index ranges of the sorted working sample, held as
Python lists: its values, each record's offsets to the first and
past-the-last record of its run, and the prefix sums of correctness.  A
restart drops whole runs, so the run offsets never change: they are
computed once per scan and cut in place.  The current interval always
starts and ends on run bounds, so a shrink step whose target count is at
least the interval's records keeps it as it is and emits nothing; such a
step only lowers the density, with no window search.  Likewise a first
window of the whole working sample needs no search.  Most searches span
only a few windows; those run in a loop over the values list, where
numpy's call overhead would cost more than the loop.  Longer ranges are
searched with numpy, so a long working sample also keeps its values and
prefix sums as arrays: a restart cuts those with numpy (the prefix sums
past the cut less the dropped records' count) and takes the prefix sums
list from them.  A sample short enough that even its first shrink step's
search over all of it loops drops the arrays: every later search loops,
and each restart cuts and shifts only the lists, which at that size costs
less than numpy's calls.  The scan emits plain bounds, no interval
records, and counts each interval's members on the sorted sample it
started from.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["HpdConfig", "min_width_window", "hpd_scan"]

# accuracy deltas at or below this are treated as ties (neither branch emits)
_TIE_TOLERANCE = 1e-12

# most windows a search takes in a Python loop: there a search costs about
# 0.3 us plus 0.05 us a window, and a numpy search about 1.1 us whatever its
# length (Python 3.11, numpy 2.4, a 2-vCPU Xeon VM), so numpy wins only
# past some 16-20 windows
_LOOP_WINDOWS = 16


class _HpdFields(NamedTuple):
    initial_density: float = 0.90
    epsilon: float = 0.05
    min_density_floor: float = 0.10


class HpdConfig(_HpdFields):
    """The shrink loop's start density, step and stopping floor."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if not 0.0 < self.min_density_floor < self.initial_density <= 1.0:
            raise ValueError(
                f"need 0 < min_density_floor < initial_density <= 1, got "
                f"{self.min_density_floor}, {self.initial_density}")
        if not 0.0 < self.epsilon < self.initial_density:
            raise ValueError(
                f"need 0 < epsilon < initial_density, got {self.epsilon}")


def min_width_window(values: np.ndarray | None, bound: list[float], lo: int,
                     hi: int, m: int) -> int:
    """Start index of the leftmost narrowest window of m consecutive values
    in ``bound[lo:hi]``, counted from the start of ``bound``.

    ``bound`` must be sorted ascending, ``values`` must be ``bound`` as an
    array or None, and the range must hold at least ``m`` entries.  A range
    of few windows, or any range when ``values`` is None, is searched in a
    loop over ``bound``, a longer one by numpy over ``values``; both
    subtract and compare the same float64 values.  A window whose ends lie
    more than the largest float64 apart has width ``inf`` in both, and
    among tied ``inf`` widths both keep the leftmost; numpy would warn of
    that overflow, so ``hpd_scan`` silences it around its search.
    """
    last = hi - m  # start of the last window
    if values is None or last - lo < _LOOP_WINDOWS:
        best, narrowest = lo, bound[lo + m - 1] - bound[lo]
        for j in range(lo + 1, last + 1):
            width = bound[j + m - 1] - bound[j]
            if width < narrowest:  # strict: the leftmost tie wins
                best, narrowest = j, width
        return best
    widths = values[lo + m - 1:hi] - values[lo:last + 1]
    return lo + int(widths.argmin())  # first minimum: leftmost tie wins


def hpd_scan(values: np.ndarray, correctness: np.ndarray, config: HpdConfig
             ) -> tuple[list[float], list[float], list[int], list[int]]:
    """Run the shrink loop over one numeric feature.

    Returns four parallel lists, one entry per emitted interval: its low
    and high bound (Python floats, each an actual value, so each interval
    holds at least one record), and the records and correct records of the
    full sample it holds.  ``values`` may contain NaN for missing entries;
    those records are ignored.
    """
    vals = np.asarray(values, dtype=np.float64)
    corr = np.asarray(correctness, dtype=bool)
    keep = np.isfinite(vals)
    vals, corr = vals[keep], corr[keep]
    if vals.size < 2:
        return [], [], [], []

    initial_density, epsilon, min_density_floor = config
    # the shrink steps' densities, each epsilon below the one before; every
    # restart's floor is above 0, and epsilon < initial_density keeps one
    steps = []
    density = initial_density - epsilon
    while density > 0.0:
        steps.append(density)
        density -= epsilon
    order = np.argsort(vals, kind="stable")
    ranked = vals[order]
    original = ranked.size
    stop_records = min_density_floor * original
    # record i's run of equal values is [i - behind[i], i + ahead[i]); a
    # restart drops whole runs, so these offsets hold in every working sample
    index = np.arange(original)
    behind = (index - np.searchsorted(ranked, ranked, side="left")).tolist()
    ahead = (np.searchsorted(ranked, ranked, side="right") - index).tolist()
    bound = ranked.tolist()
    # correct records before each index; a restart shifts those past the cut
    prefix = np.concatenate(([0], corr[order].cumsum()))
    # the working sample as arrays too, until it is short
    work_v, work_cum = ranked, prefix
    lows: list[float] = []
    highs: list[float] = []

    n = original
    # a window wider than the float64 range is inf wide, of which numpy warns
    with np.errstate(over="ignore"):
        while n >= 2 and n >= stop_records:
            if work_v is not None:
                cum = work_cum.tolist()
                if n - math.ceil(steps[0] * n) < _LOOP_WINDOWS:
                    # short: the first shrink step's search over the whole
                    # sample loops, so every later sample is cut as lists
                    work_v = work_cum = None

            # the shrink budget scales with how much of the original sample
            # is left
            density_floor = min_density_floor * (n / original)
            m = min(math.ceil(initial_density * n), n)
            # a window of the whole sample is the only one: no search
            j = min_width_window(work_v, bound, 0, n, m) if m < n else 0
            k = j + m
            lo, hi = j - behind[j], k - 1 + ahead[k - 1]
            acc = (cum[hi] - cum[lo]) / (hi - lo)
            for density in steps:
                if density < density_floor:
                    break
                m = math.ceil(density * n)
                if m >= hi - lo:
                    # the window is [lo, hi) itself: same members, nothing
                    # emitted
                    continue
                j = min_width_window(work_v, bound, lo, hi, m)
                k = j + m
                inner_lo, inner_hi = j - behind[j], k - 1 + ahead[k - 1]
                inner_acc = ((cum[inner_hi] - cum[inner_lo])
                             / (inner_hi - inner_lo))
                if inner_acc < acc - _TIE_TOLERANCE:
                    lows.append(bound[j])
                    highs.append(bound[k - 1])
                elif inner_acc > acc + _TIE_TOLERANCE:
                    if lo < j:
                        lows.append(bound[lo])
                        highs.append(bound[j - 1])
                    if k < hi:
                        lows.append(bound[k])
                        highs.append(bound[hi - 1])
                lo, hi, acc = inner_lo, inner_hi, inner_acc
            if lo == 0 and hi == n:
                break
            dropped = cum[hi] - cum[lo]
            if work_v is None:
                cum[lo + 1:] = [c - dropped for c in cum[hi + 1:]]
            else:
                work_v = np.concatenate((work_v[:lo], work_v[hi:]))
                work_cum = np.concatenate(
                    (work_cum[:lo + 1], work_cum[hi + 1:] - dropped))
            del bound[lo:hi], behind[lo:hi], ahead[lo:hi]
            n -= hi - lo
    if not lows:
        return [], [], [], []
    # count each interval's members on the sorted sample the scan started from
    lo = np.searchsorted(ranked, lows, side="left")
    hi = np.searchsorted(ranked, highs, side="right")
    return lows, highs, (hi - lo).tolist(), (prefix[hi] - prefix[lo]).tolist()
