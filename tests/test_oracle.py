"""The oracles themselves, pinned on hand-checkable cases."""

from __future__ import annotations

from fractions import Fraction

import pytest

from sliceminer.model import Interval
from sliceminer.oracle import (exact_hypergeom_pvalue,
                               exhaustive_shortest_interval)


class TestExactPValue:
    def test_small_rational(self):
        # C(5,0)C(5,4) + C(5,1)C(5,3) over C(10,4) = (5 + 50) / 210
        assert exact_hypergeom_pvalue(10, 5, 4, 1) == Fraction(55, 210)

    def test_full_tail_is_one(self):
        assert exact_hypergeom_pvalue(40, 25, 10, 10) == Fraction(1)
        assert exact_hypergeom_pvalue(40, 25, 30, 25) == Fraction(1)

    def test_worked_example_value(self):
        value = float(exact_hypergeom_pvalue(300, 230, 21, 14))
        assert 0.188 <= value <= 0.198

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            exact_hypergeom_pvalue(2001, 100, 10, 5)


class TestExhaustiveInterval:
    def test_matches_module_example(self):
        got = exhaustive_shortest_interval([0, 1, 2, 3, 10], 0.6)
        assert got == Interval(0.0, 2.0)

    def test_full_range(self):
        got = exhaustive_shortest_interval([5, 1, 9, 4], 1.0)
        assert got == Interval(1.0, 9.0)

    def test_single_value(self):
        assert exhaustive_shortest_interval([7], 0.5) == Interval(7.0, 7.0)
