"""Shortest-interval search and the shrink-scan over planted faults."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceminer import hpd
from sliceminer.hpd import HpdConfig, hpd_scan, min_width_window
from sliceminer.model import Interval
from sliceminer.oracle import exhaustive_shortest_interval


class TestShortestInterval:
    """``min_width_window``, the window search hpd_scan runs, sized for a
    share of the values by ``reference_shortest_interval``, against the
    exhaustive scan."""

    def test_leftmost_tie_of_three_point_windows(self):
        # windows of 3: widths 2, 2, 8 -> leftmost tie wins
        got = reference_shortest_interval(
            np.array([0.0, 1.0, 2.0, 3.0, 10.0]), 0.6)
        assert got == Interval(0.0, 2.0)

    def test_full_proportion_gives_range(self):
        got = reference_shortest_interval(np.array([-3.0, 0.0, 7.0]), 1.0)
        assert got == Interval(-3.0, 7.0)

    def test_single_value_degenerate(self):
        got = reference_shortest_interval(np.array([7.0]), 0.5)
        assert got == Interval(7.0, 7.0)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200),
           st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 1.0]))
    def test_matches_exhaustive_scan(self, values, proportion):
        values = sorted(values)
        got = reference_shortest_interval(np.array(values), proportion)
        want = exhaustive_shortest_interval(values, proportion)
        assert got == want

    def test_width_monotone_in_proportion(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.normal(size=400))
        intervals = [reference_shortest_interval(values, p)
                     for p in np.arange(0.1, 1.01, 0.1)]
        widths = [high - low for low, high in intervals]
        assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))


def recount(values: np.ndarray, correctness: np.ndarray, interval: Interval):
    member = (values >= interval.low) & (values <= interval.high)
    return int(member.sum()), int(correctness[member].sum())


class TestHpdScan:
    def test_all_correct_yields_nothing(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, 500)
        assert hpd_scan(values, np.ones(500, dtype=bool), HpdConfig()) == (
            [], [], [])

    def test_planted_band_recovered(self):
        # seed fixes a draw with ~50 records inside the faulty band
        rng = np.random.default_rng(186)
        values = rng.uniform(0.0, 1.0, 1000)
        band = (values >= 0.40) & (values <= 0.45)
        correctness = ~band
        out, _, _ = hpd_scan(values, correctness, HpdConfig())
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
        out, _, _ = hpd_scan(values, correctness, HpdConfig())

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
        out, support, correct = hpd_scan(values, correctness, HpdConfig())
        assert out
        assert len(support) == len(correct) == len(out)
        for iv, n, k in zip(out, support, correct):
            # bounds are actual values, so no interval is empty
            assert iv.low in values and iv.high in values
            assert recount(values, correctness, iv) == (n, k)
            assert n >= 1

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
        out, support, correct = hpd_scan(values, correctness, HpdConfig())
        finite = np.isfinite(values)
        for iv, n, k in zip(out, support, correct):
            assert iv.low in values[finite] and iv.high in values[finite]
            assert recount(values[finite], correctness[finite], iv) == (n, k)
            assert n >= 1

    def test_fewer_than_two_values_empty(self):
        out = hpd_scan(np.array([np.nan, 3.0]), np.array([True, False]),
                       HpdConfig())
        assert out == ([], [], [])


def reference_shortest_interval(values, proportion):
    m = min(values.size, max(1, math.ceil(proportion * values.size)))
    i = min_width_window(values, values.tolist(), 0, values.size, m)
    return Interval(float(values[i]), float(values[i + m - 1]))


def reference_shrink_step(values, current, target_density):
    m = math.ceil(target_density * values.size)
    lo = int(np.searchsorted(values, current.low, side="left"))
    hi = int(np.searchsorted(values, current.high, side="right"))
    inside = values[lo:hi]
    m = min(m, inside.size)
    j = min_width_window(inside, inside.tolist(), 0, inside.size, m)
    inner = Interval(float(inside[j]), float(inside[j + m - 1]))
    left = inside[:j]
    right = inside[j + m:]
    left_strip = Interval(float(left[0]), float(left[-1])) if left.size else None
    right_strip = Interval(float(right[0]), float(right[-1])) if right.size else None
    return inner, left_strip, right_strip


def reference_span_accuracy(values, correct, interval):
    lo = int(np.searchsorted(values, interval.low, side="left"))
    hi = int(np.searchsorted(values, interval.high, side="right"))
    return float(correct[lo:hi].mean())


def reference_hpd_scan(values, correctness, config, steps=None):
    """The scan in value space: every step re-locates its interval's records
    by ``searchsorted`` on the bounds and slices them for the accuracy.

    ``steps``, when given, gets the target count and the records of the
    interval to shrink for each window: the first window of each working
    sample (whose interval is the whole sample) and each shrink step."""
    vals = np.asarray(values, dtype=np.float64)
    corr = np.asarray(correctness, dtype=bool)
    keep = np.isfinite(vals)
    vals, corr = vals[keep], corr[keep]
    if vals.size < 2:
        return []
    order = np.argsort(vals, kind="stable")
    work_v, work_c = vals[order], corr[order]
    original = work_v.size
    stop_records = config.min_density_floor * original
    out = []
    while work_v.size >= 2 and work_v.size >= stop_records:
        density = config.initial_density
        density_floor = config.min_density_floor * (work_v.size / original)
        if steps is not None:
            steps.append((math.ceil(density * work_v.size), work_v.size))
        prev = reference_shortest_interval(work_v, density)
        prev_acc = reference_span_accuracy(work_v, work_c, prev)
        while True:
            next_density = density - config.epsilon
            if next_density < density_floor:
                break
            if steps is not None:
                steps.append((math.ceil(next_density * work_v.size),
                              int(prev.contains(work_v).sum())))
            inner, left_strip, right_strip = reference_shrink_step(
                work_v, prev, next_density)
            inner_acc = reference_span_accuracy(work_v, work_c, inner)
            if inner_acc < prev_acc - 1e-12:
                out.append(inner)
            elif inner_acc > prev_acc + 1e-12:
                if left_strip is not None:
                    out.append(left_strip)
                if right_strip is not None:
                    out.append(right_strip)
            prev, prev_acc, density = inner, inner_acc, next_density
        dropped = prev.contains(work_v)
        if dropped.all():
            break
        work_v, work_c = work_v[~dropped], work_c[~dropped]
    return out


def bounds(intervals):
    # repr tells -0.0 from 0.0
    return [(repr(iv.low), repr(iv.high)) for iv in intervals]


CONFIGS = [HpdConfig(), HpdConfig(0.5, 0.2, 0.05), HpdConfig(1.0, 0.3, 0.2),
           HpdConfig(0.95, 0.01, 0.01)]

# small pools give long runs of equal values
POOLS = [(0.0, -0.0, 1.0, math.nan),
         (-2.5, -0.0, 0.0, 0.5, 3.0, 7.25, math.nan),
         tuple(float(x) for x in range(40)) + (-0.0, math.nan)]


@st.composite
def samples(draw):
    pool = draw(st.sampled_from(POOLS))
    n = draw(st.integers(0, 300))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    correct = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64), np.array(correct, dtype=bool)


def tied_sample(rows, seed):
    """A normal rounded to one decimal (runs of dozens of equal values,
    -0.0 among them) with a weak band at [0.5, 1.0] and 2% missing."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(0.0, 2.0, rows), 1)
    band = (values >= 0.5) & (values <= 1.0)
    correct = rng.random(rows) < np.where(band, 0.3, 0.85)
    values[rng.random(rows) < 0.02] = np.nan
    return values, correct


class TestIndexSpaceScan:
    """``hpd_scan`` works on index ranges of the sorted sample; the value-space
    reference above is the scan it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(samples(), st.sampled_from(CONFIGS))
    def test_matches_value_space_reference(self, sample, config):
        values, correct = sample
        intervals, support, hits = hpd_scan(values, correct, config)
        assert bounds(intervals) == bounds(
            reference_hpd_scan(values, correct, config))
        # each interval's counts are its members in the whole sample
        assert [recount(values, correct, iv) for iv in intervals] == list(
            zip(support, hits))

    @pytest.mark.parametrize("rows", [2000, 5000])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_large_tied_samples_match_reference(self, rows, config):
        # many restarts over long runs: the carried run offsets and prefix
        # sums must still locate every interval's members
        values, correct = tied_sample(rows, seed=rows)
        intervals, support, hits = hpd_scan(values, correct, config)
        assert intervals
        assert bounds(intervals) == bounds(
            reference_hpd_scan(values, correct, config))
        assert [recount(values, correct, iv) for iv in intervals] == list(
            zip(support, hits))

    def test_window_end_inside_a_run_takes_the_whole_run(self):
        # the first window is records 1..5, all 1.0, but its interval [1, 1]
        # holds all six 1.0 records: accuracy 1/6.  The two shrink steps keep
        # [1, 1], so nothing is emitted for it (counting only the 5 and then
        # 3 window records would read 1/5 then 1/3 and emit a strip of 1.0s),
        # and the restart drops all six.  On [0, 5, 6, 7] the last step
        # shrinks [6, 7] to [6, 6] and emits the strip [7, 7].
        values = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 6.0, 7.0])
        correct = np.array([True, True, False, False, False, False, False,
                            True, True, False])
        config = HpdConfig(0.5, 0.2, 0.05)
        got, support, hits = hpd_scan(values, correct, config)
        assert got == [Interval(7.0, 7.0)]
        assert (support, hits) == ([1], [0])
        assert got == reference_hpd_scan(values, correct, config)


class TestWindowSearches:
    """A window whose target count is at least its interval's records cannot
    move the interval, so it makes no window search: the scan searches once
    per start on a working sample smaller than it, and once per shrink step
    that can move."""

    @staticmethod
    def searches(values, correct, config):
        with mock.patch.object(hpd, "min_width_window",
                               wraps=min_width_window) as spy:
            hpd_scan(values, correct, config)
        return spy.call_count

    @staticmethod
    def expected(values, correct, config):
        steps = []
        reference_hpd_scan(values, correct, config, steps)
        moving = sum(1 for target, records in steps if target < records)
        return moving, len(steps)

    @settings(max_examples=200, deadline=None)
    @given(samples(), st.sampled_from(CONFIGS))
    def test_one_search_per_start_and_moving_step(self, sample, config):
        values, correct = sample
        calls = self.searches(values, correct, config)
        moving, _ = self.expected(values, correct, config)
        assert calls == moving

    @pytest.mark.parametrize("config", CONFIGS)
    def test_five_rows_skip_the_steps_that_cannot_move(self, config):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        correct = np.array([True, False, True, True, False])
        calls = self.searches(values, correct, config)
        moving, every = self.expected(values, correct, config)
        assert calls == moving < every

    @pytest.mark.parametrize("rows", range(2, 10))
    def test_small_sample_makes_no_search_for_its_first_window(self, rows):
        # ceil(0.9 * rows) == rows below ten rows: the first window is the
        # whole sample, so no search can move it
        values = np.arange(float(rows))
        correct = np.arange(rows) % 3 > 0
        with mock.patch.object(hpd, "min_width_window",
                               wraps=min_width_window) as spy:
            hpd_scan(values, correct, HpdConfig())
        for call in spy.call_args_list:
            _, _, lo, hi, m = call.args
            assert m < hi - lo  # m is below the searched range's length
        moving, every = self.expected(values, correct, HpdConfig())
        assert spy.call_count == moving < every

    def test_long_runs_skip_the_steps_that_cannot_move(self):
        rng = np.random.default_rng(8)
        cases = [(rng.choice(np.array(pool), 300), rng.random(300) < 0.7)
                 for pool in POOLS]
        cases.append(tied_sample(2000, seed=2000))
        skipped = 0
        for config in CONFIGS:
            for values, correct in cases:
                calls = self.searches(values, correct, config)
                moving, every = self.expected(values, correct, config)
                assert calls == moving
                skipped += every - moving
        assert skipped > 0


class Reads:
    """A sequence that counts the reads of its items."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.items[key]


LOOP_WINDOWS = hpd._LOOP_WINDOWS


# a window from the 10 negatives to the positives is wider than the float64
# range: in OVERFLOWING[:20] every window of 11 is inf wide and the first
# wins; in the whole list the narrowest lies among the positives
OVERFLOWING = [-1.7e308 + 0.08e308 * i for i in range(10)] + [
    0.9e308 + 0.025e308 * i for i in range(30)]


@st.composite
def window_ranges(draw):
    """A sorted sample and a range of it with a window size: exactly N and
    N + 1 windows (N the loop's most) among others, values on a coarse grid
    (equal widths tie) with -0.0 beside 0.0."""
    windows = draw(st.one_of(st.sampled_from([LOOP_WINDOWS, LOOP_WINDOWS + 1]),
                             st.integers(1, 3 * LOOP_WINDOWS)))
    m = draw(st.integers(1, 40))
    before, after = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    size = before + windows + m - 1 + after
    # widths between the two largest magnitudes overflow to inf
    grid = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0, 1e308,
                            -1e308])
    values = sorted(draw(st.lists(grid, min_size=size, max_size=size)))
    return values, before, before + windows + m - 1, m


class TestWindowBranches:
    """A range of at most ``_LOOP_WINDOWS`` windows is searched in a loop over
    the list, a longer one by numpy over the array; both give one index."""

    @settings(max_examples=300, deadline=None)
    @given(window_ranges())
    @example((OVERFLOWING[:20], 0, 20, 11))
    @example((OVERFLOWING, 0, 40, 11))
    def test_loop_and_numpy_give_one_index(self, case):
        values, lo, hi, m = case
        array = np.array(values)
        with np.errstate(over="ignore"):  # an inf width is a case here
            got = min_width_window(array, values, lo, hi, m)
            with mock.patch.object(hpd, "_LOOP_WINDOWS", hi - lo):
                loop = min_width_window(array, values, lo, hi, m)
            with mock.patch.object(hpd, "_LOOP_WINDOWS", 0):
                vector = min_width_window(array, values, lo, hi, m)
        # the leftmost narrowest window: min keeps the first of equal keys
        want = min(range(lo, hi - m + 1),
                   key=lambda j: values[j + m - 1] - values[j])
        assert got == loop == vector == want

    @pytest.mark.parametrize("windows, loop", [(LOOP_WINDOWS, True),
                                               (LOOP_WINDOWS + 1, False)])
    def test_branch_taken_at_the_crossover(self, windows, loop):
        values = [float(x) for x in range(windows + 10)]
        array, bound = Reads(np.array(values)), Reads(values)
        lo, m = 3, 5
        # equal widths everywhere: the first window of the range wins
        assert min_width_window(array, bound, lo, lo + windows + m - 1,
                                m) == lo
        assert (bound.reads > 0, array.reads > 0) == (loop, not loop)

    def test_large_ranges_take_numpy(self):
        # counts, not timing: a loop over thousands of windows is slower
        # than one numpy call
        searches = []  # (windows, read the list, read the array)

        def observed(array, bound, lo, hi, m):
            array, bound = Reads(array), Reads(bound)
            j = min_width_window(array, bound, lo, hi, m)
            searches.append((hi - lo - m + 1, bound.reads > 0,
                             array.reads > 0))
            return j

        values, correct = tied_sample(20_000, seed=1)
        with mock.patch.object(hpd, "min_width_window", observed):
            hpd_scan(values, correct, HpdConfig())
        for windows, read_list, read_array in searches:
            assert (read_list, read_array) == (
                (False, True) if windows > LOOP_WINDOWS else (True, False))
        assert any(windows > LOOP_WINDOWS for windows, _, _ in searches)


class TestHpdConfig:
    def test_floor_must_be_below_initial(self):
        with pytest.raises(ValueError):
            HpdConfig(initial_density=0.5, min_density_floor=0.6)

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            HpdConfig(epsilon=0.95)
        with pytest.raises(ValueError):
            HpdConfig(epsilon=0.0)
