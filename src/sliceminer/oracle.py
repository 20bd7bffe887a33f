"""Brute-force reference implementations used to validate the fast paths.

These are deliberately slow but exact: integer binomial coefficients and
exhaustive window scans.  The test suite and ``sliceminer --self-check``
compare them against the production code.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb

from .model import Interval

__all__ = [
    "exact_hypergeom_pvalue",
    "exhaustive_shortest_interval",
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
