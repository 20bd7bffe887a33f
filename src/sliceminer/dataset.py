"""Tabular ingestion: parse delimited text, decide each feature's kind,
derive the per-record correctness mask and the whole-dataset accuracy summary.

Each feature column becomes one ``Feature``: its kind, the labels of a
categorical one and one float64 view (parsed values for continuous
features, dense category codes for categorical ones, NaN for missing), all
fixed at load.  Records with a missing value in a feature are excluded from
that feature's slicing, never imputed.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .stats import wilson_interval

__all__ = [
    "ConfigError",
    "DataError",
    "FeatureKind",
    "IngestConfig",
    "Feature",
    "Dataset",
    "DatasetSummary",
    "load_table",
    "summarize",
]


class ConfigError(ValueError):
    """Bad configuration or usage: maps to exit code 1."""


class DataError(ValueError):
    """Unusable input data: maps to exit code 2."""


class FeatureKind(Enum):
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"


class _IngestFields(NamedTuple):
    ground_truth: str
    prediction: str
    delimiter: str = ","
    missing_token: str = ""
    categorical_threshold: int = 10
    overrides: Mapping[str, FeatureKind] = MappingProxyType({})
    all_numeric: bool = False


class IngestConfig(_IngestFields):
    """How to read a table: two distinct target columns, the delimiter, the
    missing token (besides the empty cell; compared stripped, like every
    cell) and how feature kinds are decided.  ``overrides`` defaults to one
    read-only empty mapping."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ConfigError(f"delimiter must be one character other than a "
                              f"quote or line break, got {self.delimiter!r}")
        if self.categorical_threshold < 0:
            raise ConfigError("categorical threshold must be >= 0")
        if self.ground_truth == self.prediction:
            raise ConfigError("ground-truth and prediction must be distinct columns")


class _FeatureFields(NamedTuple):
    name: str
    kind: FeatureKind
    values: np.ndarray
    labels: tuple[str, ...]


class Feature(_FeatureFields):
    """One feature column.

    ``values`` (float64, read-only) holds the parsed number of a continuous
    feature or the dense code of a categorical one, NaN where missing.
    ``labels`` holds the original token of each distinct present value of a
    categorical feature, in code order; a continuous feature has none.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self.values.flags.writeable = False


class Dataset(NamedTuple):
    """Immutable columnar table plus the derived correctness mask."""

    features: dict[str, Feature]  # header order
    correctness: np.ndarray
    n_records: int
    n_correct: int
    rejected_rows: tuple[int, ...]
    # (column, cell, file line) of each column inferred categorical by a
    # non-numeric cell though another of its cells is a number
    mixed_columns: tuple[tuple[str, str, int], ...] = ()

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.features)


class DatasetSummary(NamedTuple):
    n_records: int
    n_correct: int
    metric: float
    ci_low: float
    ci_high: float
    ci_level: float
    ci_method: str = "wilson"


def _is_number(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def _build_feature(name: str, tokens: list[str], missing: set[str],
                   config: IngestConfig) -> tuple[Feature, int | None]:
    """Parse one column of stripped cells and decide its kind: an override
    wins, then a column with a non-numeric token is categorical, then
    ``all_numeric`` makes it continuous, then a distinct count at or below
    ``categorical_threshold`` makes it categorical.  A token in ``missing``
    is a missing value; in a numeric column, so are non-finite tokens
    (nan, inf).  Also returns the index of the first non-numeric token when
    inference made the column categorical although another of its tokens
    is a finite number, else None."""
    override = config.overrides.get(name)
    parsed = np.full(len(tokens), np.nan)
    for i, tok in enumerate(tokens):
        if tok in missing:
            continue
        try:
            parsed[i] = float(tok)
        except ValueError:
            if override is FeatureKind.CONTINUOUS:
                raise ConfigError(f"column {name!r} is marked continuous but "
                                  f"holds the non-numeric value {tok!r}"
                                  ) from None
            labels = tuple(sorted(set(tokens) - missing))
            code = {label: c for c, label in enumerate(labels)}
            values = np.array([code.get(t, np.nan) for t in tokens],
                              dtype=np.float64)
            mixed = override is None and any(map(_is_number, labels))
            return (Feature(name, FeatureKind.CATEGORICAL, values, labels),
                    i if mixed else None)

    present = np.isfinite(parsed)
    parsed[~present] = np.nan
    _, first_idx, inverse = np.unique(parsed[present], return_index=True,
                                      return_inverse=True)
    if override is not None:
        kind = override
    elif config.all_numeric or first_idx.size > config.categorical_threshold:
        kind = FeatureKind.CONTINUOUS
    else:
        kind = FeatureKind.CATEGORICAL
    if kind is FeatureKind.CONTINUOUS:
        return Feature(name, kind, parsed, ()), None
    rows = np.flatnonzero(present)
    parsed[rows] = inverse
    return (Feature(name, kind, parsed,
                    tuple(tokens[i] for i in rows[first_idx])), None)


def load_table(path: str, config: IngestConfig) -> Dataset:
    """Parse a delimited UTF-8 file (header row required) into a Dataset.

    ``path`` may be ``-`` for stdin; file and stdin are read the same way,
    as bytes decoded once as UTF-8 whatever the locale, a leading byte
    order mark dropped.  Input that cannot be read, is not UTF-8 or that
    the CSV reader rejects (a bare carriage return in an unquoted cell, a
    cell over ``csv.field_size_limit()``) raises ``DataError``.  Each cell
    is stripped of surrounding whitespace once: a cell is missing when its
    stripped text is empty or the stripped ``missing_token``, so a blank
    cell is missing.  A row is numbered by the file line it starts on, so
    a line break inside a quoted cell counts as a line.  A blank line holds
    no row and is skipped; line numbers count it all the same.  Any other
    row needs one cell per header column.  Rows whose ground-truth or
    prediction cell is missing are rejected; their file line numbers are
    kept on the returned dataset.  Targets compare as numbers when every
    kept target cell parses as one, and as text otherwise.  In a column
    whose cells all parse as numbers, non-finite ones (``nan``, ``inf``)
    count as missing: in a target column they reject the row, in a feature
    column they mask the cell.  A feature column inferred categorical by a
    non-numeric cell, though another of its cells is a finite number, is
    listed in ``mixed_columns`` with that cell and its file line.
    """
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8-sig")  # drops a byte order mark
    except FileNotFoundError:
        raise DataError(f"input file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read input {path}: "
                        f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"input {path} is not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text), delimiter=config.delimiter)
    rows, ends = [], []  # ends[i]: the file line that rows[i] ends on
    try:
        for row in reader:
            rows.append(row)
            ends.append(reader.line_num)
    except csv.Error as exc:  # a bare \r in an unquoted cell, a huge cell
        # drop csv's hint on how to open the file: the input is read already
        reason = str(exc).partition(" - ")[0]
        raise DataError(f"line {reader.line_num}: {reason}") from None
    if not rows:
        raise DataError("input is empty: header row required")
    header = [name.strip() for name in rows[0]]
    if config.ground_truth not in header:
        raise ConfigError(f"ground-truth column not found: {config.ground_truth!r}")
    if config.prediction not in header:
        raise ConfigError(f"prediction column not found: {config.prediction!r}")
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")

    missing = {"", config.missing_token.strip()}
    gt_idx = header.index(config.ground_truth)
    pred_idx = header.index(config.prediction)

    present: list[tuple[int, list[str]]] = []
    targets: list[tuple] = []
    rejected: list[int] = []
    for end, row in zip(ends, rows[1:]):
        line_no = end + 1  # a row starts on the line after the last one ends
        if not row:  # a blank line: skipped, as csv.DictReader skips it
            continue
        if len(row) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        gt, pred = row[gt_idx].strip(), row[pred_idx].strip()
        if gt in missing or pred in missing:
            rejected.append(line_no)
        else:
            present.append((line_no, row))
            targets.append((gt, pred))

    numeric = True
    try:
        targets = [(float(gt), float(pred)) for gt, pred in targets]
    except ValueError:  # one text target: every target compares as text
        numeric = False
    kept: list[list[str]] = []
    kept_lines: list[int] = []
    gt_values: list = []
    pred_values: list = []
    for (line_no, row), (gt, pred) in zip(present, targets):
        if numeric and not (math.isfinite(gt) and math.isfinite(pred)):
            rejected.append(line_no)  # nan/inf is a missing number
            continue
        kept.append(row)
        kept_lines.append(line_no)
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

    known = set(header) - {config.ground_truth, config.prediction}
    for name in config.overrides:
        if name not in known:
            raise ConfigError(f"kind override names a nonexistent column: {name!r}")
    features = {}
    mixed = []
    for idx, name in enumerate(header):
        if idx in (gt_idx, pred_idx):
            continue
        tokens = [row[idx].strip() for row in kept]
        features[name], first = _build_feature(name, tokens, missing, config)
        if first is not None:
            mixed.append((name, tokens[first], kept_lines[first]))
    return Dataset(features=features, correctness=correctness,
                   n_records=len(kept), n_correct=int(correctness.sum()),
                   rejected_rows=tuple(rejected), mixed_columns=tuple(mixed))


def summarize(dataset: Dataset, ci_level: float) -> DatasetSummary:
    """Accuracy over all records with a Wilson score interval."""
    n = dataset.n_records
    if n < 1:
        raise DataError("cannot summarize an empty dataset")
    k = dataset.n_correct
    low, high = wilson_interval(k, n, ci_level)
    return DatasetSummary(n_records=n, n_correct=k, metric=k / n,
                          ci_low=low, ci_high=high, ci_level=ci_level)
