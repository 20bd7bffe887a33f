"""Exact hypergeometric tail and Wilson confidence interval.

The lower-tail p-value answers: if ``draws`` records were sampled without
replacement from a test set of ``population`` records containing
``successes`` correct predictions, how likely is it to see at most
``observed`` correct ones?  The tail is summed term by term, never
approximated by a normal.  The masses over the support are built by exact
ratio recurrence outward from the distribution's mode, and the tail is
their lower sum over their full sum: the log-gamma anchor then cancels out
of the quotient, which keeps tail values within ~1e-13 of exact rational
arithmetic even at population sizes where a direct log-gamma difference
loses ~1e-9.

Each of the two sums is ``math.fsum``'s correctly rounded result, taken
from the masses that can move it (``_exact_sum``): masses more than 2**80
below the largest one are only counted, and a second sum with their bound
added certifies that they cannot change the rounding; when it cannot, the
full ``fsum`` is taken.

Two memos serve a run, which asks for one (population, successes) pair and
a few thousand distinct (draws, observed): 3,493 for the 10,466
gate-passing slices of a 2,000-row order-2 run, over 568 distinct draws.
``hypergeom_lower_pvalue`` keeps 2**16 tails; that bound only caps memory
on far larger inputs, where a full cache holds about 12 MiB.  ``_masses``
keeps the masses of 256 draw counts, since many observed counts share one:
256 entries sum the run's tails as fast as 1,024 do, and cap the memo at a
few MB where supports run to thousands of terms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

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


def _support(population: int, successes: int, draws: int) -> tuple[int, int]:
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    return lo, hi


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


@lru_cache(maxsize=1 << 16)
def hypergeom_lower_pvalue(population: int, successes: int, draws: int,
                           observed: int) -> float:
    """Pr(X <= observed): the lower-tailed significance of a slice.

    Memoised: slices with the same support and correct count share one tail
    sum.  Invalid arguments raise ``ValueError`` on every call.  Valid ones
    put ``observed`` inside the support, and the lower sum never exceeds
    the full one, so the quotient needs no clamp.
    """
    _validate_params(population, successes, draws, observed)
    lo, hi = _support(population, successes, draws)
    if observed >= hi:
        return 1.0
    u = _masses(population, successes, draws)
    lower = _exact_sum(u[: observed - lo + 1])
    return lower / (lower + _exact_sum(u[observed - lo + 1:]))


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
