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

The scan works on index ranges of the sorted working sample.  A restart
drops whole runs, so each record's offsets to the first and past-the-last
record of its run never change: they are computed once per scan and cut
along with the values, as are the prefix sums of correctness (those past
the cut less the dropped records' count).  The current interval always
starts and ends on run bounds, so a shrink step whose target count is at
least the interval's records keeps it as it is and emits nothing; such a
step only lowers the density, with no window search.  Likewise a first
window of the whole working sample needs no search.  Most searches span
only a few windows; those run in a loop over the sorted values as a
Python list, cut along with the array, where numpy's call overhead would
cost more than the loop.  Longer ranges are searched with numpy.  The
emitted intervals are counted on the sorted sample the scan started from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Interval

__all__ = ["HpdConfig", "min_width_window", "hpd_scan"]

# accuracy deltas at or below this are treated as ties (neither branch emits)
_TIE_TOLERANCE = 1e-12

# most windows a search takes in a Python loop: one window there costs about
# 0.1 us, and a numpy search costs about 1.7 us of call overhead whatever its
# length, so numpy wins only past some 16 windows
_LOOP_WINDOWS = 16


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


def min_width_window(values: np.ndarray, bound: list[float], lo: int,
                     hi: int, m: int) -> int:
    """Start index of the leftmost narrowest window of m consecutive values
    in ``values[lo:hi]``, counted from the start of ``values``.

    ``values`` must be sorted ascending, ``bound`` must be ``values`` as a
    list, and the range must hold at least ``m`` entries.  A range of few
    windows is searched in a loop over ``bound``, a longer one by numpy over
    ``values``; both subtract and compare the same float64 values.  A window
    whose ends lie more than the largest float64 apart has width ``inf`` in
    both, and among tied ``inf`` widths both keep the leftmost; numpy would
    warn of that overflow, so ``hpd_scan`` silences it around its search.
    """
    last = hi - m  # start of the last window
    if last - lo < _LOOP_WINDOWS:
        best, narrowest = lo, bound[lo + m - 1] - bound[lo]
        for j in range(lo + 1, last + 1):
            width = bound[j + m - 1] - bound[j]
            if width < narrowest:  # strict: the leftmost tie wins
                best, narrowest = j, width
        return best
    widths = values[lo + m - 1:hi] - values[lo:last + 1]
    return lo + int(widths.argmin())  # first minimum: leftmost tie wins


def hpd_scan(values: np.ndarray, correctness: np.ndarray, config: HpdConfig
             ) -> tuple[list[Interval], list[int], list[int]]:
    """Run the shrink loop over one numeric feature.

    Returns the emitted intervals and, for each, the records and correct
    records of the full sample it holds.  ``values`` may contain NaN for
    missing entries; those records are ignored.  Every emitted bound is an
    actual value, so each interval holds at least one record.
    """
    vals = np.asarray(values, dtype=np.float64)
    corr = np.asarray(correctness, dtype=bool)
    keep = np.isfinite(vals)
    vals, corr = vals[keep], corr[keep]
    if vals.size < 2:
        return [], [], []

    order = np.argsort(vals, kind="stable")
    ranked = vals[order]
    original = ranked.size
    stop_records = config.min_density_floor * original
    # record i's run of equal values is [i - behind[i], i + ahead[i]); a
    # restart drops whole runs, so these offsets hold in every working sample
    index = np.arange(original)
    behind = (index - np.searchsorted(ranked, ranked, side="left")).tolist()
    ahead = (np.searchsorted(ranked, ranked, side="right") - index).tolist()
    bound = ranked.tolist()
    # correct records before each index; a restart shifts those past the cut
    prefix = np.concatenate(([0], corr[order].cumsum()))
    work_v, work_cum = ranked, prefix
    out: list[Interval] = []

    # a window wider than the float64 range is inf wide, of which numpy warns
    with np.errstate(over="ignore"):
        while work_v.size >= 2 and work_v.size >= stop_records:
            n = work_v.size
            cum = work_cum.tolist()

            density = config.initial_density
            # the shrink budget scales with how much of the original sample
            # is left
            density_floor = config.min_density_floor * (n / original)
            m = min(math.ceil(density * n), n)
            # a window of the whole sample is the only one: no search
            j = min_width_window(work_v, bound, 0, n, m) if m < n else 0
            k = j + m
            lo, hi = j - behind[j], k - 1 + ahead[k - 1]
            acc = (cum[hi] - cum[lo]) / (hi - lo)
            while True:
                density -= config.epsilon
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
                    out.append(Interval(bound[j], bound[k - 1]))
                elif inner_acc > acc + _TIE_TOLERANCE:
                    if lo < j:
                        out.append(Interval(bound[lo], bound[j - 1]))
                    if k < hi:
                        out.append(Interval(bound[k], bound[hi - 1]))
                lo, hi, acc = inner_lo, inner_hi, inner_acc
            if lo == 0 and hi == n:
                break
            work_v = np.concatenate((work_v[:lo], work_v[hi:]))
            work_cum = np.concatenate(
                (work_cum[:lo + 1], work_cum[hi + 1:] - (cum[hi] - cum[lo])))
            del bound[lo:hi], behind[lo:hi], ahead[lo:hi]
    if not out:
        return [], [], []
    # count each interval's members on the sorted sample the scan started from
    lows, highs = zip(*out)
    lo = np.searchsorted(ranked, lows, side="left")
    hi = np.searchsorted(ranked, highs, side="right")
    return out, (hi - lo).tolist(), (prefix[hi] - prefix[lo]).tolist()
