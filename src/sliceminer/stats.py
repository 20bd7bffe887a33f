"""Exact hypergeometric tail and Wilson confidence interval.

The lower-tail p-value answers: if ``draws`` records were sampled without
replacement from a test set of ``population`` records containing
``successes`` correct predictions, how likely is it to see at most
``observed`` correct ones?  The tail is summed term by term, never
approximated by a normal.  The masses over the support are built by exact
ratio recurrence outward from the distribution's mode, and the tail is
their lower sum over their full sum: the normalizing constant cancels out
of the quotient, which keeps tail values within ~1e-13 of exact rational
arithmetic even at population sizes where a direct log-gamma difference
loses ~1e-9.

Each of the two sums is exact and rounded once.  Every float is an integer
times a power of two, so the masses of one draw count, written over the
smallest such power, are Python ints, and their prefix sums are exact
(``_prefix_sums``).  A part's sum is then one int quotient, which CPython
rounds correctly: the same float as ``math.fsum`` (Shewchuk's exact
summation, DCG 1997) over the part's masses, in one division.

Two memos serve a run, which asks for one (population, successes) pair and
a few thousand distinct (draws, observed): 3,493 for the 10,466
gate-passing slices of a 2,000-row order-2 run, over 568 distinct draws.
``hypergeom_lower_pvalue`` keeps 2**16 tails; that bound only caps memory
on far larger inputs, where a full cache holds about 12 MiB.
``_prefix_sums`` keeps two draw counts: each round of ``run_analysis``
asks its tails in ascending support, so few entries are enough.  On that
run one entry makes 690 builds, two 686 and three 684; on a 20,000-row
run two and three both make 5,137.  An entry holds an int of up to ~1,100
bits per mass, so two entries peak at 40.5 KiB on the 2,000-row run,
three at 60.6 KiB (``sys.getsizeof`` summed over the run's builds).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import lshift
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


def _masses(population: int, successes: int, draws: int) -> np.ndarray:
    """Unnormalized masses over the support, 1 at the computed mode.

    They are built by ratio recurrence outward from the computed mode
    ``m``: ``u[x + 1] = u[x] * r(x)`` above it and ``u[x] = u[x + 1] * (1 /
    r(x))`` below it, where ``r(x) = (K - x)(n - x) / ((x + 1)(N - K - n + x
    + 1))``."""
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
    return u


@lru_cache(maxsize=2)
def _prefix_sums(population: int, successes: int, draws: int
                 ) -> tuple[int, int, tuple[int, ...]]:
    """The masses of one draw count as exact integer prefix sums ``(start,
    unit, sums)``: ``sums[j] / unit`` is the exact sum of the masses at
    ``start`` to ``start + j - 1``.

    Exact zeros at both ends are dropped; they move no sum.  ``np.frexp``
    writes each other mass as ``f * 2**e``, where ``f * 2**53`` is an
    integer, so with ``low`` the smallest ``e`` each mass is the integer
    ``f * 2**53 << (e - low)`` over ``unit = 2**(53 - low)``.

    Memoised (two draw counts; see the module docstring): every caller
    shares the one returned tuple."""
    u = _masses(population, successes, draws)
    nonzero = np.flatnonzero(u)
    first = int(nonzero[0])
    fraction, exponent = np.frexp(u[first:nonzero[-1] + 1])
    low = int(exponent.min())
    # float64 shifts: numpy's int32 arithmetic would page in 64 KiB more of it
    terms = map(lshift, np.ldexp(fraction, 53).astype(np.int64).tolist(),
                (exponent - float(low)).astype(np.int64).tolist())
    start = _support(population, successes, draws)[0] + first
    return start, 1 << (53 - low), tuple(accumulate(terms, initial=0))


@lru_cache(maxsize=1 << 16)
def hypergeom_lower_pvalue(population: int, successes: int, draws: int,
                           observed: int) -> float:
    """Pr(X <= observed): the lower-tailed significance of a slice.

    Each part, the masses up to ``observed`` and those above it, is its
    exact integer sum over ``unit``, a power of two.  CPython's int true
    division is correctly rounded, half to even and subnormal results
    included, so each part is the float nearest its exact sum: the one
    ``math.fsum`` returns over the same masses.

    Memoised: slices with the same support and correct count share one tail
    sum.  Invalid arguments raise ``ValueError`` on every call.  Valid ones
    put ``observed`` inside the support, and the lower sum never exceeds
    the full one, so the quotient needs no clamp.
    """
    _validate_params(population, successes, draws, observed)
    if observed >= _support(population, successes, draws)[1]:
        return 1.0
    start, unit, sums = _prefix_sums(population, successes, draws)
    below = sums[min(max(observed + 1 - start, 0), len(sums) - 1)]
    lower = below / unit
    return lower / (lower + (sums[-1] - below) / unit)


def wilson_interval(successes: int, trials: int, level: float) -> ConfidenceInterval:
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
