"""Data model for slices: per-feature predicates, conjunctions, filters.

The two records the pipeline builds once per candidate, ``Slice`` and
``SliceStats``, are tuples: immutable, hashable, unpackable, and equal to a
plain tuple holding the same fields.  Building one by position or keyword
checks its invariants in ``__new__`` and raises ``ValueError``: a slice's
predicates are sorted by unique feature name, its order is their number
and lies in 1..3, and a slice's correct count never exceeds its support.
``_make`` (and ``_replace``, which goes through it) skips the checks, so
only builders whose inputs satisfy them by construction use it:
``slicer._condition`` inserts a name the seed lacks into the seed's sorted
predicates, checks the order bound once per call and builds each
one-code ``ValueSet`` the same way; the tree loop of
``slicer.generate_higher_order`` takes ``dtree.extract_slices``' sorted
keys over a tree's 1-3 features; ``slicer.evaluate_slice`` and
``slicer.run_analysis`` build stats whose correct count counts members.

A category predicate, ``ValueSet``, is its codes alone: the labels they
stand for are kept once, on the feature (``dataset.Feature.labels``).

No record is a dataclass: a frozen dataclass compiles five generated
methods when its module is imported, about 1 ms a class.  The value records
(``ValueSet`` here; ``HpdConfig``, ``AnalysisConfig``, ``AnalysisResult``,
``IngestConfig``, ``Feature``, ``Dataset`` and ``DatasetSummary``
elsewhere) are tuples, as ``Slice`` is: read-only, compared and hashed in
C.  A record with checks is a ``NamedTuple`` field base, where each default
is written once, and a subclass with ``__slots__ = ()`` whose ``__init__``
checks the built fields and raises ``ValueError`` (``ConfigError`` for
``IngestConfig``); as for ``Slice``, ``_make`` and ``_replace`` skip the
checks.  Two records are classes with ``__slots__`` instead, since Python
3.11 reads a slot faster than a tuple field: ``Filters``, read-only, whose
``admits`` runs once per candidate, and ``dtree.TreeNode``, which
``fit_tree`` fills in as it splits.
"""

from __future__ import annotations

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


class _ValueSetFields(NamedTuple):
    codes: tuple[int, ...]


class ValueSet(_ValueSetFields):
    """Category codes, strictly ascending; their labels are the feature's."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if not self.codes:
            raise ValueError("ValueSet needs at least one code")
        if any(b <= a for a, b in zip(self.codes, self.codes[1:])):
            raise ValueError("codes must be strictly ascending")

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Mask of ``values`` equal to one of the codes; NaN equals none.
        One code, as every conditioned category predicate has, is one
        comparison, the loop ``np.isin`` runs for so few codes."""
        codes = self.codes
        if len(codes) == 1:
            return values == codes[0]
        return np.isin(values, np.asarray(codes))


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


class Filters:
    """The three reporting gates: support, performance gap, significance.

    Read-only once built; equal and hashed by its three values."""

    __slots__ = ("min_support", "perf_threshold", "p_value_max")

    def __init__(self, min_support: int, perf_threshold: float,
                 p_value_max: float):
        if min_support < 2:
            raise ValueError(f"min_support must be >= 2, got {min_support}")
        if not 0.0 < p_value_max < 1.0:
            raise ValueError(f"p_value_max must be in (0, 1), got {p_value_max}")
        for name, value in zip(self.__slots__,
                               (min_support, perf_threshold, p_value_max)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Filters is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Filters is read-only: cannot delete {name!r}")

    def _key(self) -> tuple:
        return self.min_support, self.perf_threshold, self.p_value_max

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return Filters, self._key()

    def __repr__(self):
        return (f"Filters(min_support={self.min_support!r}, perf_threshold="
                f"{self.perf_threshold!r}, p_value_max={self.p_value_max!r})")

    def admits(self, support: int, correct: int) -> bool:
        """The support and performance gates: at least ``min_support``
        records, accuracy at most ``perf_threshold``."""
        return (support >= self.min_support
                and correct / support <= self.perf_threshold)
