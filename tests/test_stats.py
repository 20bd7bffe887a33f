"""Hypergeometric and Wilson-interval kernels against independent oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer.oracle import exact_hypergeom_pvalue
from sliceminer.stats import hypergeom_lower_pvalue, wilson_interval


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


class TestWilson:
    def test_zero_successes_low_bound(self):
        assert wilson_interval(0, 10).low == 0.0

    def test_all_successes_high_bound(self):
        assert wilson_interval(10, 10).high == 1.0

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
