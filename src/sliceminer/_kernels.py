"""Hot numeric kernels, in numpy.

The hypergeometric tail builds the probability masses by exact ratio
recurrence outward from the distribution's mode and normalizes by the
full-support sum.  The log-gamma anchor then cancels out of every quotient,
which keeps tail values within ~1e-13 of exact rational arithmetic even at
population sizes where a direct log-gamma difference loses ~1e-9.

Each of the tail's two sums is ``math.fsum``'s correctly rounded result,
taken from the masses that can move it (``_exact_sum``): masses more than
2**80 below the largest one are only counted, and a second sum with their
bound added certifies that they cannot change the rounding; when it cannot,
the full ``fsum`` is taken.  The masses of one (population, successes,
draws) are memoised, since a run asks for many observed counts at one
draw count.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "BACKEND",
    "hypergeom_lower_tail",
    "min_width_window",
    "best_split_scan",
]

BACKEND = "numpy"


def _support(population: int, successes: int, draws: int) -> tuple[int, int]:
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    return lo, hi


# A 2,000-row run sums 3,493 tails over 568 distinct draw counts; 256
# entries sum them as fast as 1,024 do, and cap the memo at a few MB where
# supports run to thousands of terms.
@lru_cache(maxsize=256)
def _masses(population: int, successes: int, draws: int) -> np.ndarray:
    """Unnormalized masses over the support, scaled so the mode is 1.

    Memoised and read-only: every caller shares the returned array."""
    lo, hi = _support(population, successes, draws)
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    mode = int(((draws + 1.0) * (successes + 1.0)) // (population + 2.0))
    mode = min(max(mode, lo), hi)
    i_mode = mode - lo
    u = np.empty(xs.size)
    u[i_mode] = 1.0
    if xs.size > 1:
        x = xs[:-1]
        up = ((successes - x) * (draws - x)
              / ((x + 1.0) * (population - successes - draws + x + 1.0)))
        if i_mode < xs.size - 1:
            u[i_mode + 1:] = np.cumprod(up[i_mode:])
        if i_mode > 0:
            u[:i_mode] = np.cumprod(1.0 / up[:i_mode][::-1])[::-1]
    u.setflags(write=False)
    return u


_CUT = 2.0 ** -80  # terms below the largest one times this are only counted


def _exact_sum(part: np.ndarray) -> float:
    """``math.fsum(part)`` for a nonempty array of nonnegative floats,
    summing only the terms at least ``cut = max(part) * 2**-80``.

    Each of the ``dropped`` other terms lies in ``[0, cut)``, so the exact
    sum ``S`` of all terms obeys ``sum(kept) <= S < sum(kept) + dropped *
    cut``, and ``bound = 2 * dropped * cut``, evaluated in floats, is at
    least ``dropped * cut``: doubling covers the product's rounding,
    subnormal results included.  Rounding to nearest is monotone, so
    ``fsum(kept) <= fsum(part) <= fsum(kept + [bound])``; when the outer
    two agree, they are ``fsum(part)``.  Otherwise the full ``fsum`` is
    taken.  The cut lies some 26 bits below half an ulp of the sum, so that
    happens only when the kept terms sum to within ``bound`` of a rounding
    boundary.
    """
    cut = float(part.max()) * _CUT
    kept = part[part >= cut].tolist()
    a = math.fsum(kept)
    dropped = part.size - len(kept)
    if dropped:
        kept.append(2 * dropped * cut)
        if math.fsum(kept) != a:
            return math.fsum(part.tolist())
    return a


def hypergeom_lower_tail(population: int, successes: int, draws: int,
                         observed: int) -> float:
    """Sum of the hypergeometric pmf over 0..observed, clamped to [0, 1]."""
    lo, hi = _support(population, successes, draws)
    if observed < lo:
        return 0.0
    if observed >= hi:
        return 1.0
    u = _masses(population, successes, draws)
    lower = _exact_sum(u[: observed - lo + 1])
    total = lower + _exact_sum(u[observed - lo + 1:])
    p = lower / total
    return min(max(p, 0.0), 1.0)


def min_width_window(values: np.ndarray, m: int) -> int:
    """Start index of the leftmost narrowest window of m consecutive values.

    ``values`` must be sorted ascending and hold at least ``m`` entries.
    """
    widths = values[m - 1:] - values[: values.size - m + 1]
    return int(widths.argmin())  # first minimum: leftmost tie wins


def best_split_scan(values: np.ndarray, truth: np.ndarray,
                    min_leaf: int) -> tuple[int, float]:
    """Best boundary position and Gini decrease for a sorted column.

    ``values`` sorted ascending with ``truth`` aligned.  Returns ``(pos, dec)``
    where the left child is ``values[:pos + 1]``, or ``(-1, 0.0)`` when the
    node is pure or no boundary leaves both children at ``min_leaf`` rows.
    """
    n = values.size
    if n < 2:
        return -1, 0.0
    total_true = int(truth.sum())
    p_true = total_true / n
    parent = 1.0 - p_true * p_true - (1.0 - p_true) * (1.0 - p_true)
    if parent <= 0.0:
        return -1, 0.0
    n_left = np.arange(1, n)
    n_right = n - n_left
    legal = ((values[:-1] != values[1:])
             & (n_left >= min_leaf) & (n_right >= min_leaf))
    if not legal.any():
        return -1, 0.0
    left_true = np.cumsum(truth[:-1], dtype=np.float64)
    left_false = n_left - left_true
    right_true = total_true - left_true
    right_false = n_right - right_true
    gini_left = 1.0 - (left_true / n_left) ** 2 - (left_false / n_left) ** 2
    gini_right = (1.0 - (right_true / n_right) ** 2
                  - (right_false / n_right) ** 2)
    decrease = parent - (n_left * gini_left + n_right * gini_right) / n
    decrease[~legal] = -np.inf
    pos = int(np.argmax(decrease))  # first maximum: smallest threshold wins
    return pos, float(decrease[pos])
