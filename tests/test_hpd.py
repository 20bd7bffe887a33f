"""Shortest-interval search and the shrink-scan over planted faults."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceminer.hpd import (HpdConfig, hpd_scan, shortest_interval, shrink_step)
from sliceminer.model import Interval
from sliceminer.oracle import exhaustive_shortest_interval


class TestShortestInterval:
    def test_leftmost_tie_of_three_point_windows(self):
        # windows of 3: widths 2, 2, 8 -> leftmost tie wins
        got = shortest_interval(np.array([0.0, 1.0, 2.0, 3.0, 10.0]), 0.6)
        assert got == Interval(0.0, 2.0)

    def test_full_proportion_gives_range(self):
        got = shortest_interval(np.array([-3.0, 0.0, 7.0]), 1.0)
        assert got == Interval(-3.0, 7.0)

    def test_single_value_degenerate(self):
        assert shortest_interval(np.array([7.0]), 0.5) == Interval(7.0, 7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shortest_interval(np.array([]), 0.5)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200),
           st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 1.0]))
    def test_matches_exhaustive_scan(self, values, proportion):
        values = sorted(values)
        got = shortest_interval(np.array(values), proportion)
        want = exhaustive_shortest_interval(values, proportion)
        assert got == want

    def test_width_monotone_in_proportion(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.normal(size=400))
        widths = [shortest_interval(values, p).width
                  for p in np.arange(0.1, 1.01, 0.1)]
        assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))


class TestShrinkStep:
    def test_discards_both_edges(self):
        # middle eight points are far tighter than the two extremes
        values = np.array([0.0, 5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6, 5.7, 20.0])
        current = Interval(0.0, 20.0)
        inner, left, right = shrink_step(values, current, 0.8)
        assert inner == Interval(5.0, 5.7)
        assert left == Interval(0.0, 0.0)
        assert right == Interval(20.0, 20.0)

    def test_no_discard_keeps_strips_none(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        inner, left, right = shrink_step(values, Interval(1.0, 4.0), 1.0)
        assert inner == Interval(1.0, 4.0)
        assert left is None and right is None

    def test_too_small_density_rejected(self):
        with pytest.raises(ValueError):
            shrink_step(np.array([1.0, 2.0]), Interval(1.0, 2.0), 0.0)

    def test_inner_matches_window_oracle(self):
        rng = np.random.default_rng(9)
        values = np.sort(rng.uniform(0, 1, 60))
        inner, _, _ = shrink_step(values, Interval(0.0, 1.0), 0.5)
        assert inner == exhaustive_shortest_interval(values, 0.5)


def recount(values: np.ndarray, correctness: np.ndarray, interval: Interval):
    member = (values >= interval.low) & (values <= interval.high)
    return int(member.sum()), int(correctness[member].sum())


class TestHpdScan:
    def test_all_correct_yields_nothing(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, 500)
        out = hpd_scan(values, np.ones(500, dtype=bool), HpdConfig())
        assert out == []

    def test_planted_band_recovered(self):
        # seed fixes a draw with ~50 records inside the faulty band
        rng = np.random.default_rng(186)
        values = rng.uniform(0.0, 1.0, 1000)
        band = (values >= 0.40) & (values <= 0.45)
        correctness = ~band
        out = hpd_scan(values, correctness, HpdConfig())
        hits = []
        for iv in out:
            n, k = recount(values, correctness, iv)
            if iv.low <= 0.40 and iv.high >= 0.45 and k / n < 0.5:
                hits.append(iv)
        assert hits, "no emitted interval isolates the planted band"

    def test_two_bands_give_disjoint_candidates(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.0, 1000)
        b1 = (values >= 0.10) & (values <= 0.12)
        b2 = (values >= 0.80) & (values <= 0.82)
        correctness = ~(b1 | b2)
        out = hpd_scan(values, correctness, HpdConfig())

        def has_error(iv):
            n, k = recount(values, correctness, iv)
            return k < n

        covers1 = [iv for iv in out if iv.low <= 0.10 and iv.high >= 0.12
                   and has_error(iv)]
        covers2 = [iv for iv in out if iv.low <= 0.80 and iv.high >= 0.82
                   and has_error(iv)]
        assert covers1 and covers2
        assert any(a.high < b.low for a in covers1 for b in covers2)

    def test_candidate_counts_are_exact(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=800)
        correctness = rng.random(800) < 0.8
        out = hpd_scan(values, correctness, HpdConfig())
        assert out
        for iv in out:  # bounds are actual values, so no interval is empty
            assert iv.low in values and iv.high in values
            assert recount(values, correctness, iv)[0] >= 1

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        values = rng.uniform(0, 10, 600)
        correctness = rng.random(600) < 0.7
        first = hpd_scan(values, correctness, HpdConfig())
        second = hpd_scan(values, correctness, HpdConfig())
        assert first == second

    def test_missing_values_ignored(self):
        values = np.array([np.nan, 1.0, 2.0, 3.0, np.nan, 4.0, 5.0, 6.0,
                           7.0, 8.0, 9.0, 10.0])
        correctness = np.zeros(12, dtype=bool)
        correctness[1] = True
        out = hpd_scan(values, correctness, HpdConfig())
        finite = np.isfinite(values)
        for iv in out:
            assert iv.low in values[finite] and iv.high in values[finite]
            assert recount(values[finite], correctness[finite], iv)[0] >= 1

    def test_fewer_than_two_values_empty(self):
        out = hpd_scan(np.array([np.nan, 3.0]), np.array([True, False]),
                       HpdConfig())
        assert out == []


class TestHpdConfig:
    def test_floor_must_be_below_initial(self):
        with pytest.raises(ValueError):
            HpdConfig(initial_density=0.5, min_density_floor=0.6)

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            HpdConfig(epsilon=0.95)
        with pytest.raises(ValueError):
            HpdConfig(epsilon=0.0)
