"""Exact hypergeometric tail and Wilson confidence interval.

The lower-tail p-value answers: if ``draws`` records were sampled without
replacement from a test set of ``population`` records containing
``successes`` correct predictions, how likely is it to see at most
``observed`` correct ones?  The tail is summed term by term from exact
ratios of consecutive masses (see ``_kernels``), never approximated by a
normal.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist
from typing import NamedTuple

from . import _kernels

__all__ = [
    "ConfidenceInterval",
    "hypergeom_lower_pvalue",
    "wilson_interval",
]


class ConfidenceInterval(NamedTuple):
    low: float
    high: float


def _validate_params(population: int, successes: int, draws: int,
                     observed: int) -> None:
    if not 0 <= successes <= population:
        raise ValueError(f"need 0 <= successes <= population, got {successes}/{population}")
    if not 0 < draws <= population:
        raise ValueError(f"need 0 < draws <= population, got {draws}/{population}")
    if not 0 <= observed <= draws:
        raise ValueError(f"need 0 <= observed <= draws, got {observed}/{draws}")
    if observed > successes:
        raise ValueError(f"observed {observed} exceeds successes {successes}")
    if draws - observed > population - successes:
        raise ValueError(
            f"{draws - observed} failures in the sample exceed "
            f"{population - successes} in the population")


# A run asks for one (population, successes) pair and a few thousand distinct
# (draws, observed): 3,493 for the 10,466 gate-passing slices of a 2,000-row
# order-2 run, over 568 distinct draws, whose masses ``_kernels`` memoises in
# turn.  The bound only caps memory on far larger inputs: a full cache holds
# about 12 MiB.
@lru_cache(maxsize=1 << 16)
def hypergeom_lower_pvalue(population: int, successes: int, draws: int,
                           observed: int) -> float:
    """Pr(X <= observed): the lower-tailed significance of a slice.

    Memoised: slices with the same support and correct count share one tail
    sum.  Invalid arguments raise ``ValueError`` on every call.
    """
    _validate_params(population, successes, draws, observed)
    return _kernels.hypergeom_lower_tail(population, successes, draws, observed)


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson_interval requires at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    margin = z * math.sqrt(phat * (1.0 - phat) / trials
                           + z2 / (4.0 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return ConfidenceInterval(low, high)
