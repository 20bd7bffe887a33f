"""Tabular ingestion: parse delimited text, infer feature kinds, derive the
per-record correctness mask and the whole-dataset accuracy summary.

Feature values live in two aligned representations: a float64 numeric view
(parsed values for continuous features, dense category codes for categorical
ones, NaN for missing) and, for categorical features, the original labels.
Records with a missing value in a feature are excluded from that feature's
slicing, never imputed.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .stats import wilson_interval

__all__ = [
    "ConfigError",
    "DataError",
    "FeatureKind",
    "Role",
    "IngestConfig",
    "ColumnSchema",
    "FeatureColumn",
    "Dataset",
    "DatasetSummary",
    "load_table",
    "infer_feature_kinds",
    "summarize",
]


class ConfigError(ValueError):
    """Bad configuration or usage: maps to exit code 1."""


class DataError(ValueError):
    """Unusable input data: maps to exit code 2."""


class FeatureKind(Enum):
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"


class Role(Enum):
    FEATURE = "feature"
    GROUND_TRUTH = "ground_truth"
    PREDICTION = "prediction"


@dataclass(frozen=True)
class IngestConfig:
    ground_truth: str
    prediction: str
    delimiter: str = ","
    missing_token: str = ""
    categorical_threshold: int = 10
    overrides: Mapping[str, FeatureKind] = field(default_factory=dict)
    all_numeric: bool = False


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: FeatureKind
    distinct_count: int
    role: Role


@dataclass(frozen=True)
class FeatureColumn:
    """One parsed feature column in both representations."""

    name: str
    numeric_parseable: bool
    parsed: np.ndarray          # float64; NaN where missing (or unparseable)
    codes: np.ndarray           # int32 dense codes; -1 where missing
    labels: tuple[str, ...]     # label per code, in code order
    missing: np.ndarray         # bool mask

    @property
    def distinct_count(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar table plus the derived correctness mask."""

    columns: tuple[FeatureColumn, ...]
    schemas: tuple[ColumnSchema, ...]  # every column, targets included
    ground_truth_name: str
    prediction_name: str
    correctness: np.ndarray
    n_records: int
    rejected_rows: tuple[int, ...]

    @property
    def feature_schemas(self) -> tuple[ColumnSchema, ...]:
        return tuple(s for s in self.schemas if s.role is Role.FEATURE)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> FeatureColumn:
        for c in self.columns:
            if c.name == name:
                return c
        raise ConfigError(f"unknown feature column: {name!r}")

    def schema(self, name: str) -> ColumnSchema:
        for s in self.schemas:
            if s.name == name:
                return s
        raise ConfigError(f"unknown column: {name!r}")

    def kind(self, name: str) -> FeatureKind:
        return self.schema(name).kind

    def numeric_view(self, name: str) -> np.ndarray:
        """float64 view used for interval logic and tree splits.

        Continuous features expose parsed values; categorical ones expose
        their dense codes.  Missing entries are NaN either way.
        """
        col = self.column(name)
        if self.kind(name) is FeatureKind.CONTINUOUS:
            return col.parsed
        view = col.codes.astype(np.float64)
        view[col.missing] = np.nan
        return view

    def codes_for(self, name: str) -> np.ndarray:
        return self.column(name).codes

    def labels_for(self, name: str) -> tuple[str, ...]:
        return self.column(name).labels


@dataclass(frozen=True)
class DatasetSummary:
    n_records: int
    n_correct: int
    metric: float
    ci_low: float
    ci_high: float
    ci_level: float
    ci_method: str = "wilson"


def _try_parse(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _build_column(name: str, tokens: list[str], missing: np.ndarray) -> FeatureColumn:
    n = len(tokens)
    parsed = np.full(n, np.nan)
    parseable = True
    for i, tok in enumerate(tokens):
        if missing[i]:
            continue
        try:
            parsed[i] = float(tok)
        except ValueError:
            parseable = False
            break

    codes = np.full(n, -1, dtype=np.int32)
    if parseable:
        # in a numeric column, non-finite tokens (nan, inf) are missing values
        missing = ~np.isfinite(parsed)
        parsed[missing] = np.nan
        present = ~missing
        values = parsed[present]
        if values.size:
            distinct, first_idx, inverse = np.unique(
                values, return_index=True, return_inverse=True)
            codes[present] = inverse.astype(np.int32)
            present_tokens = [tokens[i].strip() for i in np.flatnonzero(present)]
            labels = tuple(present_tokens[i] for i in first_idx)
        else:
            labels = ()
    else:
        parsed = np.full(n, np.nan)
        seen = sorted({tok.strip() for i, tok in enumerate(tokens) if not missing[i]})
        index = {label: code for code, label in enumerate(seen)}
        for i, tok in enumerate(tokens):
            if not missing[i]:
                codes[i] = index[tok.strip()]
        labels = tuple(seen)

    return FeatureColumn(name=name, numeric_parseable=parseable, parsed=parsed,
                         codes=codes, labels=labels, missing=missing)


def _infer_kinds(columns: Iterable[FeatureColumn],
                 config: IngestConfig) -> tuple[ColumnSchema, ...]:
    known = {c.name for c in columns}
    for name in config.overrides:
        if name not in known:
            raise ConfigError(f"kind override names a nonexistent column: {name!r}")
    schemas = []
    for col in columns:
        override = config.overrides.get(col.name)
        if override is not None:
            kind = override
        elif not col.numeric_parseable:
            kind = FeatureKind.CATEGORICAL
        elif config.all_numeric:
            kind = FeatureKind.CONTINUOUS
        elif col.distinct_count <= config.categorical_threshold:
            kind = FeatureKind.CATEGORICAL
        else:
            kind = FeatureKind.CONTINUOUS
        schemas.append(ColumnSchema(name=col.name, kind=kind,
                                    distinct_count=col.distinct_count,
                                    role=Role.FEATURE))
    return tuple(schemas)


def infer_feature_kinds(dataset: Dataset, config: IngestConfig) -> tuple[ColumnSchema, ...]:
    """Re-derive feature schemas from a loaded dataset under ``config``.

    A feature is categorical when its values are not all numeric or when its
    distinct count is at or below ``categorical_threshold``; explicit
    overrides always win, and ``all_numeric`` forces every numeric-parseable
    column to continuous.
    """
    return _infer_kinds(dataset.columns, config)


def load_table(path: str, config: IngestConfig) -> Dataset:
    """Parse a delimited UTF-8 file (header row required) into a Dataset.

    ``path`` may be ``-`` for stdin; a leading byte order mark is dropped.
    Rows whose ground-truth or prediction cell is missing are rejected;
    their file line numbers are kept on the returned dataset.  Targets
    compare as numbers when every present target token parses as one, and
    as text otherwise.  In a column whose tokens all parse as numbers,
    non-finite ones (``nan``, ``inf``) count as missing: in a target column
    they reject the row, in a feature column they mask the cell.
    """
    if config.ground_truth == config.prediction:
        raise ConfigError("ground-truth and prediction must be distinct columns")
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise DataError(f"input file not found: {path}") from None
    text = text.removeprefix("\ufeff")  # UTF-8 byte order mark
    reader = csv.reader(io.StringIO(text), delimiter=config.delimiter)
    rows = list(reader)
    if not rows:
        raise DataError("input is empty: header row required")
    header = [name.strip() for name in rows[0]]
    if config.ground_truth not in header:
        raise ConfigError(f"ground-truth column not found: {config.ground_truth!r}")
    if config.prediction not in header:
        raise ConfigError(f"prediction column not found: {config.prediction!r}")
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")

    def is_missing(token: str) -> bool:
        return token == "" or token == config.missing_token

    gt_idx = header.index(config.ground_truth)
    pred_idx = header.index(config.prediction)

    present: list[tuple[int, list[str]]] = []
    rejected: list[int] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        if is_missing(row[gt_idx]) or is_missing(row[pred_idx]):
            rejected.append(line_no)
        else:
            present.append((line_no, row))

    targets = [(row[gt_idx].strip(), row[pred_idx].strip()) for _, row in present]
    parsed = [(_try_parse(gt), _try_parse(pred)) for gt, pred in targets]
    numeric = all(None not in pair for pair in parsed)
    kept: list[list[str]] = []
    gt_values: list = []
    pred_values: list = []
    for (line_no, row), text, number in zip(present, targets, parsed):
        gt, pred = number if numeric else text
        if numeric and not (math.isfinite(gt) and math.isfinite(pred)):
            rejected.append(line_no)  # nan/inf is a missing number
            continue
        kept.append(row)
        gt_values.append(gt)
        pred_values.append(pred)
    rejected.sort()
    if not kept:
        raise DataError("no usable data rows")

    if not set(gt_values) & set(pred_values):
        raise DataError(
            f"ground-truth column {config.ground_truth!r} and prediction column "
            f"{config.prediction!r} share no values; check the column names")
    correctness = np.array([g == p for g, p in zip(gt_values, pred_values)])

    columns = []
    for idx, name in enumerate(header):
        if idx in (gt_idx, pred_idx):
            continue
        tokens = [row[idx] for row in kept]
        missing = np.array([is_missing(t) for t in tokens])
        columns.append(_build_column(name, tokens, missing))

    schemas = list(_infer_kinds(columns, config))
    schemas.append(ColumnSchema(name=config.ground_truth,
                                kind=FeatureKind.CATEGORICAL,
                                distinct_count=len(set(gt_values)),
                                role=Role.GROUND_TRUTH))
    schemas.append(ColumnSchema(name=config.prediction,
                                kind=FeatureKind.CATEGORICAL,
                                distinct_count=len(set(pred_values)),
                                role=Role.PREDICTION))
    return Dataset(columns=tuple(columns), schemas=tuple(schemas),
                   ground_truth_name=config.ground_truth,
                   prediction_name=config.prediction,
                   correctness=correctness, n_records=len(kept),
                   rejected_rows=tuple(rejected))


def summarize(dataset: Dataset, ci_level: float = 0.95) -> DatasetSummary:
    """Accuracy over all records with a Wilson score interval."""
    n = dataset.n_records
    if n < 1:
        raise DataError("cannot summarize an empty dataset")
    k = int(dataset.correctness.sum())
    low, high = wilson_interval(k, n, ci_level)
    return DatasetSummary(n_records=n, n_correct=k, metric=k / n,
                          ci_low=low, ci_high=high, ci_level=ci_level)
