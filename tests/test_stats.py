"""Hypergeometric and Wilson-interval kernels against independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer import stats
from sliceminer.oracle import exact_hypergeom_pvalue
from sliceminer.stats import hypergeom_lower_pvalue, wilson_interval

uncached_tail = hypergeom_lower_pvalue.__wrapped__  # the tail, summed anew


def enumerated_draw_probability(population_correct: int, population: int,
                                draws: int, x: int) -> Fraction:
    """Pr(X = x) by enumerating every possible draw of the population."""
    flags = [True] * population_correct + [False] * (population - population_correct)
    total = 0
    hits = 0
    for draw in combinations(range(population), draws):
        total += 1
        if sum(flags[i] for i in draw) == x:
            hits += 1
    return Fraction(hits, total)


class TestLowerPValue:
    def test_worked_example_statlog_slice(self):
        assert 0.188 <= hypergeom_lower_pvalue(300, 230, 21, 14) <= 0.198

    def test_small_case_by_enumeration(self):
        want = (enumerated_draw_probability(5, 10, 4, 0)
                + enumerated_draw_probability(5, 10, 4, 1))
        assert want == Fraction(55, 210)
        assert math.isclose(hypergeom_lower_pvalue(10, 5, 4, 1), float(want),
                            rel_tol=1e-12)

    def test_largest_significant_count_is_12(self):
        passing = [k for k in range(0, 22)
                   if hypergeom_lower_pvalue(300, 230, 21, k) < 0.05]
        assert max(passing) == 12

    def test_full_lower_tail_is_one(self):
        assert hypergeom_lower_pvalue(40, 25, 10, 10) == pytest.approx(1.0)
        assert hypergeom_lower_pvalue(40, 6, 10, 6) == pytest.approx(1.0)

    def test_nondecreasing_in_observed(self):
        values = [hypergeom_lower_pvalue(120, 80, 30, k) for k in range(0, 31)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_doubling_decreases_pvalue(self):
        # same slice accuracy, doubled support: strictly more significant
        cases = [(300, 230, 21, 14), (200, 120, 20, 8), (1000, 900, 50, 40)]
        for population, successes, draws, observed in cases:
            assert (hypergeom_lower_pvalue(population, successes,
                                           2 * draws, 2 * observed)
                    < hypergeom_lower_pvalue(population, successes,
                                             draws, observed))


@st.composite
def hypergeom_params(draw, max_population=60):
    population = draw(st.integers(2, max_population))
    successes = draw(st.integers(0, population))
    draws = draw(st.integers(1, population))
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    observed = draw(st.integers(lo, hi))
    return population, successes, draws, observed


class TestOracleAgreement:
    @settings(max_examples=300, deadline=None)
    @given(hypergeom_params())
    def test_matches_exact_rational(self, params):
        population, successes, draws, observed = params
        want = float(exact_hypergeom_pvalue(population, successes, draws, observed))
        got = hypergeom_lower_pvalue(population, successes, draws, observed)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_pmf_total_mass_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            population = int(rng.integers(10, 100_000))
            successes = int(rng.integers(0, population + 1))
            draws = int(rng.integers(1, min(population, 400) + 1))
            full = hypergeom_lower_pvalue(population, successes, draws,
                                          min(draws, successes))
            assert full == pytest.approx(1.0, abs=1e-10)


def fsum_tail(population: int, successes: int, draws: int,
              observed: int) -> float:
    """The tail kernel as it was before its sums were certified: masses by
    ratio recurrence from the mode, each part summed by a full ``fsum``."""
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    if observed < lo:
        return 0.0
    if observed >= hi:
        return 1.0
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    mode = int(((draws + 1.0) * (successes + 1.0)) // (population + 2.0))
    mode = min(max(mode, lo), hi)
    i_mode = mode - lo
    u = np.empty(xs.size)
    u[i_mode] = 1.0
    x = xs[:-1]
    up = ((successes - x) * (draws - x)
          / ((x + 1.0) * (population - successes - draws + x + 1.0)))
    if i_mode < xs.size - 1:
        u[i_mode + 1:] = np.cumprod(up[i_mode:])
    if i_mode > 0:
        u[:i_mode] = np.cumprod(1.0 / up[:i_mode][::-1])[::-1]
    lower = math.fsum(u[: observed - lo + 1].tolist())
    total = lower + math.fsum(u[observed - lo + 1:].tolist())
    return min(max(lower / total, 0.0), 1.0)


@st.composite
def skewed_params(draw):
    """Populations up to 100k, mostly with at least 90% successes: long
    supports whose far masses underflow to zero."""
    population = draw(st.integers(2, 100_000))
    successes = draw(st.one_of(
        st.integers(math.ceil(0.9 * population), population),
        st.integers(0, population)))
    draws = draw(st.integers(1, population))
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    observed = draw(st.one_of(st.integers(lo, hi),
                              st.integers(lo, min(hi, lo + 50))))
    return population, successes, draws, observed


class TestCertifiedTail:
    """The kernel's tail equals the full-``fsum`` tail bit for bit."""

    def test_every_tail_up_to_25(self):
        for population in range(1, 26):
            for successes in range(population + 1):
                for draws in range(1, population + 1):
                    lo = max(0, draws - (population - successes))
                    for observed in range(lo, min(draws, successes) + 1):
                        args = population, successes, draws, observed
                        assert uncached_tail(*args) == fsum_tail(*args), args

    @settings(max_examples=300, deadline=None)
    @given(skewed_params())
    def test_large_populations(self, params):
        assert uncached_tail(*params) == fsum_tail(*params)

    @pytest.mark.parametrize("population, successes, draws", [
        (2_000, 1_000, 1_000), (20_000, 18_500, 3_000),
        (100_000, 99_000, 9_000),
        (5_000, 2_500, 2_500)])
    def test_tails_below_1e_300(self, population, successes, draws):
        lo = max(0, draws - (population - successes))
        tiny = 0
        for observed in range(lo, min(draws, successes)):
            want = fsum_tail(population, successes, draws, observed)
            if want >= 1e-300:
                break
            tiny += 1
            assert uncached_tail(population, successes, draws,
                                 observed) == want
        assert tiny > 10

    def test_peak_is_checked_above_exact_products(self):
        # beyond 94,906,265 records the factors' integer products may round
        args = 10 ** 9, 6 * 10 ** 8, 40
        for observed in range(41):
            assert uncached_tail(*args, observed) == fsum_tail(*args, observed)


@pytest.fixture()
def given_masses(monkeypatch):
    """Sets the masses of draw count ``len(masses) - 1`` (population twice
    that, half of it successes, so the support starts at 0) and returns
    those arguments; the memo of built sums is emptied around each use."""
    def set_masses(masses):
        monkeypatch.setattr(stats, "_masses", lambda *_: np.array(masses))
        stats._prefix_sums.cache_clear()
        draws = len(masses) - 1
        return 2 * draws, draws, draws
    yield set_masses
    stats._prefix_sums.cache_clear()


def fsum_parts_tail(masses, split: int) -> float:
    """``fsum_tail``'s quotient over given masses, split before ``split``."""
    lower = math.fsum(masses[:split])
    return lower / (lower + math.fsum(masses[split:]))


class TestExactSums:
    """Each part is its exact integer sum, rounded once to nearest even."""

    @pytest.mark.parametrize("masses, total", [
        ((1.0, 2.0 ** -53), 1.0),  # a tie rounds to the even 1.0
        ((1.0, 2.0 ** -53, 2.0 ** -100), 1.0 + 2.0 ** -52),  # no tie
        ((1.0, 3 * 2.0 ** -53), 1.0 + 2.0 ** -51),  # a tie rounds up to even
        ((2.0 ** -100, 1.0, 2.0 ** -53), 1.0 + 2.0 ** -52)])
    def test_ties_to_even(self, masses, total, given_masses):
        args = given_masses(masses)
        start, unit, sums = stats._prefix_sums.__wrapped__(*args)
        assert sums[-1] / unit == total == math.fsum(masses)
        for split in range(1, len(masses)):
            assert (uncached_tail(*args, split - 1)
                    == fsum_parts_tail(masses, split))

    @pytest.mark.parametrize("masses, observed, tail", [
        ((2.0 ** -1074, 3 * 2.0 ** -1074, 1.0, 2.0 ** -1073), 0,
         2.0 ** -1074),  # a subnormal part
        ((2.0 ** -1074, 3 * 2.0 ** -1074, 1.0, 2.0 ** -1073), 1,
         2.0 ** -1072),
        ((3 * 2.0 ** -1074, 1.0, 1.0), 0, 2.0 ** -1073),  # 1.5 ulp, to even
        ((5 * 2.0 ** -1074, 2.0 ** -1022, 1.0), 1,
         2.0 ** -1022 + 5 * 2.0 ** -1074)])  # crosses into normal floats
    def test_subnormal_results(self, masses, observed, tail, given_masses):
        args = given_masses(masses)
        assert uncached_tail(*args, observed) == tail
        for split in range(1, len(masses)):
            assert (uncached_tail(*args, split - 1)
                    == fsum_parts_tail(masses, split))

    @pytest.mark.parametrize("masses, start, kept", [
        ((0.0, 0.0, 2.0 ** -60, 1.0, 0.5, 0.0, 0.0), 2, 3),
        ((0.0, 2.0 ** -60, 1.0, 0.5), 1, 3),
        ((2.0 ** -60, 1.0, 0.5, 0.0, 0.0), 0, 3)])
    def test_zero_masses_trimmed_at_either_end(self, masses, start, kept,
                                               given_masses):
        args = given_masses(masses)
        built = stats._prefix_sums.__wrapped__(*args)
        assert built[0] == start and len(built[2]) == kept + 1
        # the split falls before the first nonzero mass or after the last
        for observed in range(start):
            assert uncached_tail(*args, observed) == 0.0
        for observed in range(start + kept - 1, len(masses) - 1):
            assert uncached_tail(*args, observed) == 1.0
        for split in range(1, len(masses)):
            assert (uncached_tail(*args, split - 1)
                    == fsum_parts_tail(masses, split))

    def test_real_masses_underflow_at_the_far_end(self):
        args = 20_000, 18_500, 3_000  # the support starts at 1,500
        start, unit, sums = stats._prefix_sums(*args)
        assert start > 1_500 and len(sums) - 1 < 1_501
        for observed in (1_500, start - 1, start, start + 1):
            assert uncached_tail(*args, observed) == fsum_tail(*args,
                                                               observed)

    def test_one_shared_read_only_memo(self):
        built = stats._prefix_sums(300, 230, 21)
        start, unit, sums = built
        assert isinstance(built, tuple) and isinstance(sums, tuple)
        assert (start, len(sums)) == (0, 23)  # 22 masses after a leading 0
        assert stats._prefix_sums(300, 230, 21) is built
        assert sums[-1] / unit == math.fsum(stats._masses(300, 230, 21))


class TestWilson:
    def test_zero_successes_low_bound(self):
        assert wilson_interval(0, 10, 0.95).low == 0.0

    def test_all_successes_high_bound(self):
        assert wilson_interval(10, 10, 0.95).high == 1.0

    def test_statlog_scale_interval(self):
        # hand recomputation with z = 1.959964:
        #   center (0.766667 + z^2/600) / (1 + z^2/300) = 0.763296
        #   margin 0.047677  ->  [0.715619, 0.810972]
        low, high = wilson_interval(230, 300, 0.95)
        assert low == pytest.approx(0.715619, abs=1e-5)
        assert high == pytest.approx(0.810972, abs=1e-5)

    def test_mirror_symmetry(self):
        a = wilson_interval(40, 160, 0.9)
        b = wilson_interval(120, 160, 0.9)
        assert a.low == pytest.approx(1.0 - b.high, abs=1e-12)
        assert a.high == pytest.approx(1.0 - b.low, abs=1e-12)

    def test_contained_in_unit_interval_and_shrinks(self):
        widths = []
        for n in (30, 300, 3000, 30000):
            k = int(round(n * 0.766667))
            low, high = wilson_interval(k, n, 0.95)
            assert 0.0 <= low <= k / n <= high <= 1.0
            widths.append(high - low)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 10, 1.0)
