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

The masses of one draw count are one tuple of floats, built once: they
rise to their largest one, the peak, and fall after it (``_masses`` proves
this for populations up to 94,906,265 and checks it above).  Each of the
two sums is ``math.fsum``'s correctly rounded result, taken from the masses
that can move it (``_exact_sum``): masses more than 2**80 below the part's
largest one are only counted, and a second sum with their bound added
certifies that they cannot change the rounding; when it cannot, the full
``fsum`` is taken.  On unimodal masses the kept ones are one run around
the part's largest, so bisection on the two flanks finds it, and no
comparison touches the rest.

Two memos serve a run, which asks for one (population, successes) pair and
a few thousand distinct (draws, observed): 3,493 for the 10,466
gate-passing slices of a 2,000-row order-2 run, over 568 distinct draws.
``hypergeom_lower_pvalue`` keeps 2**16 tails; that bound only caps memory
on far larger inputs, where a full cache holds about 12 MiB.  ``_masses``
keeps the masses of eight draw counts: each round of ``run_analysis`` asks
its tails in ascending support, so few entries are enough.  On that run
eight entries make 680 builds, one entry 690 and 256 entries 571.  On a
20,000-row order-2 run (planted, seed 1: 28,710 tails over 5,030 draws)
they make 5,132, 5,137 and 5,081 builds, while the memo's tuples and
floats peak at about 0.4 MiB against 12.9 MiB for 256 entries (sizes
summed over the run's sequence of draw counts).  Measured at commit
785628b.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import neg
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


# Below this population every recurrence factor's integer numerator and
# denominator (both below population**2) is exact in float64.
_EXACT_PRODUCTS = 94_906_265  # math.isqrt(2**53 - 1)


@lru_cache(maxsize=8)
def _masses(population: int, successes: int, draws: int
            ) -> tuple[tuple[float, ...], int | None]:
    """Unnormalized masses over the support, 1 at the computed mode, and
    the index of the largest one (the peak), or None when they are not
    unimodal.

    The masses are built by ratio recurrence outward from the computed
    mode ``m``: ``u[x + 1] = u[x] * r(x)`` above it and ``u[x] = u[x + 1]
    * (1 / r(x))`` below it, where ``r(x) = (K - x)(n - x) / ((x + 1)(N -
    K - n + x + 1))`` falls strictly as ``x`` grows.  While ``N <=
    _EXACT_PRODUCTS``, both integer products lie below ``N**2 < 2**53`` and
    are exact in float64, so each computed factor is a correctly rounded
    quotient.  Rounding is monotone and 1 is a float, so the computed
    ``r(x)`` still fall (weakly) as ``x`` grows, and each factor away from
    the true mode is at most 1.  A float product by a factor in [0, 1]
    never rounds above its input, and one by a factor >= 1 never below it.
    Going outward from ``m``, each side's factors therefore fall: a side
    rises while its factor exceeds 1 and falls after, and only one side
    can rise at all (``r(m) > 1`` forces ``r(m - 1) > 1``).  So the masses
    rise (weakly) to the peak and fall (weakly) after it.  A side of ``m``
    rises only when ``m`` is not the true mode, which rounding in its
    formula can cause; that is why the peak is the index of the largest
    mass and not ``m``.  Above ``_EXACT_PRODUCTS`` a product may round, so
    the two flanks are checked once per build, and the peak is None when
    they fail.

    Memoised (eight draw counts; see the module docstring): every caller
    shares the one returned tuple."""
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
    peak = int(u.argmax())
    if population > _EXACT_PRODUCTS and (
            (u[1:peak + 1] < u[:peak]).any()
            or (u[peak + 1:] > u[peak:-1]).any()):
        peak = None
    return tuple(u.tolist()), peak


_CUT = 2.0 ** -80  # terms below the largest one times this are only counted


def _exact_sum(masses: tuple[float, ...], peak: int | None, start: int,
               stop: int) -> float:
    """``math.fsum(masses[start:stop])`` for a nonempty range of nonnegative
    floats that rise (weakly) to index ``peak`` and fall after it, summing
    only the terms at least ``cut = max(part) * 2**-80``.

    The part's largest term is its end on the rising flank, its start on
    the falling flank, and the peak when the part holds it; on a unimodal
    sequence the terms at least ``cut`` form one run around it, whose two
    ends are found by bisection on the flanks.  Each of the ``dropped``
    other terms lies in ``[0, cut)``, so the exact sum ``S`` of all terms
    obeys ``sum(kept) <= S < sum(kept) + dropped * cut``, and ``bound = 2 *
    dropped * cut``, evaluated in floats, is at least ``dropped * cut``:
    doubling covers the product's rounding, subnormal results included.
    Rounding to nearest is monotone, so ``fsum(kept) <= fsum(part) <=
    fsum(kept + [bound])``; when the outer two agree, they are
    ``fsum(part)``.  Otherwise, or when ``peak`` is None, the full ``fsum``
    is taken.  The cut lies some 26 bits below half an ulp of the sum, so
    the fallback happens only when the kept terms sum to within ``bound``
    of a rounding boundary.
    """
    if peak is None:
        return math.fsum(masses[start:stop])
    top = min(max(start, peak), stop - 1)
    cut = masses[top] * _CUT
    first = bisect_left(masses, cut, start, top)
    kept = masses[first:bisect_right(masses, -cut, top, stop, key=neg)]
    total = math.fsum(kept)
    dropped = stop - start - len(kept)
    if dropped and math.fsum(kept + (2 * dropped * cut,)) != total:
        return math.fsum(masses[start:stop])
    return total


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
    u, peak = _masses(population, successes, draws)
    split = observed - lo + 1
    lower = _exact_sum(u, peak, 0, split)
    return lower / (lower + _exact_sum(u, peak, split, len(u)))


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
