"""Brute-force reference implementations used to validate the fast paths.

These are deliberately slow but exact: integer binomial coefficients and
exhaustive window scans.  The test suite and ``self_check``, which
``sliceminer --self-check`` runs, compare them against the production code.
Only the self-check imports this module at run time.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb

import numpy as np

from . import stats
from .dtree import best_split
from .hpd import _LOOP_WINDOWS, min_width_window
from .model import Interval

__all__ = [
    "exact_hypergeom_pvalue",
    "exhaustive_shortest_interval",
    "self_check",
]

_MAX_POPULATION = 2000


def exact_hypergeom_pvalue(population: int, successes: int, draws: int,
                           observed: int) -> Fraction:
    """Exact lower-tail probability as a reduced rational number."""
    if population > _MAX_POPULATION:
        raise ValueError(
            f"population {population} exceeds the exact-arithmetic budget "
            f"of {_MAX_POPULATION}")
    if not (0 <= observed <= draws <= population and 0 <= successes <= population):
        raise ValueError("invalid hypergeometric parameters")
    lo = max(0, draws - (population - successes))
    hi = min(observed, draws, successes)
    numerator = sum(comb(successes, x) * comb(population - successes, draws - x)
                    for x in range(lo, hi + 1))
    return Fraction(numerator, comb(population, draws))


def exhaustive_shortest_interval(values, proportion: float) -> Interval:
    """Scan every window of ceil(proportion * len) sorted values; leftmost tie."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("empty value array")
    m = min(len(vals), max(1, ceil(proportion * len(vals))))
    best_i = 0
    best_width = vals[m - 1] - vals[0]
    for i in range(1, len(vals) - m + 1):
        width = vals[i + m - 1] - vals[i]
        if width < best_width:
            best_width = width
            best_i = i
    return Interval(vals[best_i], vals[best_i + m - 1])


def self_check() -> int:
    """Field verification of the numerics against built-in worked examples:
    ``sliceminer --self-check``."""
    checks: dict[str, bool] = {}
    p = stats.hypergeom_lower_pvalue(300, 230, 21, 14)
    checks["lower tail (300,230,21,14) ~ 0.193"] = 0.188 <= p <= 0.198
    largest = max(k for k in range(0, 22)
                  if stats.hypergeom_lower_pvalue(300, 230, 21, k) < 0.05)
    checks["largest significant correct count at n=21 is 12"] = largest == 12
    exact = float(exact_hypergeom_pvalue(10, 5, 4, 1))
    fast = stats.hypergeom_lower_pvalue(10, 5, 4, 1)
    checks["tail (10,5,4,1) matches exact 55/210"] = (
        abs(fast - exact) <= 1e-10 * exact)
    exact_big = float(exact_hypergeom_pvalue(300, 230, 21, 14))
    checks["tail (300,230,21,14) matches exact rational"] = (
        abs(p - exact_big) <= 1e-10 * exact_big)
    # its lower part sums 231 masses, the first 10 of them underflowed to 0
    checks["far tail (2000,1700,300,230) is the exact rational's float"] = (
        stats.hypergeom_lower_pvalue(2000, 1700, 300, 230)
        == float(exact_hypergeom_pvalue(2000, 1700, 300, 230)))
    low, high = stats.wilson_interval(230, 300, 0.95)
    checks["wilson 230/300 ~ [0.7156, 0.8110]"] = (
        abs(low - 0.715619) < 1e-5 and abs(high - 0.810972) < 1e-5)
    # the window search hpd_scan runs, sized for a share of the values: the
    # loop takes 3 windows of [0,1,2,3,10], numpy 21 windows of 0..39
    for name, values, share, low, high, loop in (
            ("[0,1,2,3,10]@0.6 is [0,2]", [0.0, 1.0, 2.0, 3.0, 10.0], 0.6,
             0.0, 2.0, True),
            ("0..39@0.5 is [0,19]", [float(x) for x in range(40)], 0.5,
             0.0, 19.0, False)):
        n = len(values)
        m = min(n, max(1, ceil(share * n)))
        i = min_width_window(np.array(values), values, 0, n, m)
        window = Interval(values[i], values[i + m - 1])
        checks[f"window search {name}"] = (
            (n - m < _LOOP_WINDOWS) is loop
            and window == Interval(low, high)
            and window == exhaustive_shortest_interval(values, share))
    checks["best split of [0,1,2,3] vs [T,T,F,F] is (1.0, 0.5)"] = (
        best_split([0, 1, 2, 3], [True, True, False, False], 1) == (1.0, 0.5))

    rng = np.random.default_rng(7)
    agree = True
    for _ in range(50):  # lo <= hi always holds: draws <= population
        population = int(rng.integers(2, 61))
        successes = int(rng.integers(0, population + 1))
        draws = int(rng.integers(1, population + 1))
        lo = max(0, draws - (population - successes))
        observed = int(rng.integers(lo, min(draws, successes) + 1))
        want = float(exact_hypergeom_pvalue(population, successes,
                                            draws, observed))
        got = stats.hypergeom_lower_pvalue(population, successes, draws, observed)
        agree = agree and abs(got - want) <= 1e-10 * max(want, 1e-300)
    checks["random sweep matches exact oracle (N<=60)"] = agree

    for name, ok in checks.items():
        print(f"self-check: {name}: {'PASS' if ok else 'FAIL'}")
    passed = sum(checks.values())
    print(f"self-check: {passed}/{len(checks)} passed")
    return 0 if passed == len(checks) else 1
