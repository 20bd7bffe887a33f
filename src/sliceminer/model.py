"""Data model for slices: per-feature predicates, conjunctions, filters.

The two records the pipeline builds once per candidate, ``Slice`` and
``SliceStats``, are tuples: immutable, hashable, unpackable, and equal to a
plain tuple holding the same fields.  Building one by position or keyword
checks its invariants in ``__new__`` and raises ``ValueError``: a slice's
predicates are sorted by unique feature name, its order is their number
and lies in 1..3, and a slice's correct count never exceeds its support.
``_make`` (and ``_replace``, which goes through it) skips the checks, so
only builders whose inputs satisfy them by construction use it:
``make_slice`` builds from a dict, whose names are unique and which it
sorts, and checks the order bound itself; ``slicer._condition``
inserts a name the seed lacks into the seed's sorted predicates, and
checks the order bound once per call; ``slicer.evaluate_slice`` and
``slicer.run_analysis`` build stats whose correct count counts members.

A category predicate, ``ValueSet``, is its codes alone: the labels they
stand for are kept once, on the feature (``dataset.Feature.labels``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "Interval",
    "ValueSet",
    "FeaturePredicate",
    "Heuristic",
    "Slice",
    "SliceStats",
    "Filters",
]


class Interval(NamedTuple):
    """Closed interval over actual data values; a continuous predicate."""

    low: float
    high: float

    def contains(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.low) & (values <= self.high)


class Heuristic(str, Enum):
    CATEGORICAL = "categorical"
    HPD = "hpd"
    DT = "dt"


@dataclass(frozen=True)
class ValueSet:
    """Category codes, strictly ascending; their labels are the feature's."""

    codes: tuple[int, ...]

    def __post_init__(self):
        if not self.codes:
            raise ValueError("ValueSet needs at least one code")
        if any(b <= a for a, b in zip(self.codes, self.codes[1:])):
            raise ValueError("codes must be strictly ascending")

    def contains(self, values: np.ndarray) -> np.ndarray:
        return np.isin(values, np.asarray(self.codes))


FeaturePredicate = Union[Interval, ValueSet]


class _SliceFields(NamedTuple):
    predicates: tuple[tuple[str, FeaturePredicate], ...]
    heuristic: Heuristic
    order: int


class Slice(_SliceFields):
    """Conjunction of per-feature predicates over 1-3 distinct features.

    A record is a member iff it satisfies every predicate and has no missing
    value in any of the slice's features.
    """

    __slots__ = ()

    def __new__(cls, predicates, heuristic, order):
        names = [name for name, _ in predicates]
        if sorted(names) != names or len(set(names)) != len(names):
            raise ValueError("predicates must be sorted by unique feature name")
        if order != len(names):
            raise ValueError(f"order {order} != {len(names)} features")
        if not 1 <= order <= 3:
            raise ValueError(f"order must be 1..3, got {order}")
        return tuple.__new__(cls, (predicates, heuristic, order))

    @property
    def features(self) -> tuple[str, ...]:
        return tuple([name for name, _ in self.predicates])

    def predicate_key(self) -> tuple:
        """Canonical key identifying the predicate, ignoring provenance.

        It is the predicates tuple itself: a category set is its codes, so
        nothing needs building and no slice holds a second copy."""
        return self.predicates


def make_slice(predicates: dict[str, FeaturePredicate],
               heuristic: Heuristic) -> Slice:
    # a dict's names are unique and sorted() orders them, so only the
    # order bound is left to check
    items = tuple(sorted(predicates.items()))
    if not 1 <= len(items) <= 3:
        raise ValueError(f"order must be 1..3, got {len(items)}")
    return Slice._make((items, heuristic, len(items)))


class _SliceStatsFields(NamedTuple):
    support: int
    correct: int
    performance: float
    p_value: float


class SliceStats(_SliceStatsFields):
    """Exact counts for a slice plus its hypergeometric significance."""

    __slots__ = ()

    def __new__(cls, support, correct, performance, p_value):
        if correct > support:
            raise ValueError("correct count exceeds support")
        return tuple.__new__(cls, (support, correct, performance, p_value))


@dataclass(frozen=True)
class Filters:
    """The three reporting gates: support, performance gap, significance."""

    min_support: int
    perf_threshold: float
    p_value_max: float

    def __post_init__(self):
        if self.min_support < 2:
            raise ValueError(f"min_support must be >= 2, got {self.min_support}")
        if not 0.0 < self.p_value_max < 1.0:
            raise ValueError(f"p_value_max must be in (0, 1), got {self.p_value_max}")

    def admits(self, support: int, correct: int) -> bool:
        """The support and performance gates: at least ``min_support``
        records, accuracy at most ``perf_threshold``."""
        return (support >= self.min_support
                and correct / support <= self.perf_threshold)
