"""Seeded CSV fixtures for the pipeline benchmark.

Both generators take the workload seed and write a CSV; the program under
test only ever sees that file.  They return the ground truth the verifier
checks against (where the planted faults are), never anything the program
reads.

Columns are the same in both: three categorical features (``cat_a``,
``cat_b``, ``cat_c``), three continuous ones (``num_main``, ``num_x``,
``num_y``), and the ``label``/``pred`` pair whose agreement is the
per-record correctness.

Why the seed disguises one table instead of drawing a new one: the amount
of work a run does is set by how many slices pass the gates by chance, and
that swings wildly between independent draws of the same distribution
(on a 2-vCPU Xeon VM, 1000 planted rows at order 2 took 2.2-9.1 s over 8
draws, interquartile range 0.8 of the median).  No run length averages that away.  So each
workload draws its records once, from a fixed base seed, and the workload
seed only

- shuffles the row order, and
- scales each continuous column by a power of two.

Neither changes the work: the interval scan and the tree splits see the
same ranks and the same width ratios (a power-of-two scale commutes with
float rounding, so even ties break the same way).  The file bytes and the
rendered interval bounds in the report do change with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

HEADER = ("cat_a", "num_main", "cat_b", "num_x", "num_y", "cat_c",
          "label", "pred")
CONTINUOUS = ("num_main", "num_x", "num_y")

# Planted geometry, as in acceptance criterion 4 scaled by row count: 3% of
# rows carry cat_a = "v", a [0.40, 0.45] band of num_main (3% of its
# uniform [0, 5/3] range), both at accuracy 0.40 against a 0.95 baseline.
BASELINE_ACCURACY = 0.95
FAULT_ACCURACY = 0.40
FAULT_SHARE = 0.03
FAULT_VALUE = "v"
BAND = (0.40, 0.45)
NUM_MAIN_HIGH = 5.0 / 3.0

NULL_ACCURACY = 0.92

BASE_SEED = 20260808
SCALES = ("0.25", "0.5", "1", "2", "4")


@dataclass(frozen=True)
class Truth:
    """Where the generator put its planted faults (empty for null data)."""

    fault_rows: tuple[int, ...] = ()  # 0-based data rows with cat_a = v
    band_rows: tuple[int, ...] = ()   # 0-based data rows inside the band
    band_extent: tuple[float, float] | None = None  # as written, scaled


def _exact_flags(rng: np.random.Generator, count: int, rate: float) -> np.ndarray:
    flags = np.zeros(count, dtype=bool)
    flags[: round(rate * count)] = True
    return rng.permutation(flags)


def _base_table(rng: np.random.Generator, rows: int, correct: np.ndarray,
                cat_a: np.ndarray, num_main: list[str]) -> dict[str, list[str]]:
    label = rng.integers(0, 2, rows)
    pred = np.where(correct, label, 1 - label)
    return {
        "cat_a": [str(v) for v in cat_a],
        "num_main": num_main,
        "cat_b": [str(v) for v in rng.integers(0, 3, rows)],
        "num_x": [f"{v:.6f}" for v in rng.normal(size=rows)],
        "num_y": [f"{v:.6f}" for v in rng.uniform(-1.0, 1.0, rows)],
        "cat_c": [str(v) for v in rng.integers(0, 4, rows)],
        "label": [str(v) for v in label],
        "pred": [str(v) for v in pred],
    }


def _planted_base(rows: int):
    rng = np.random.default_rng([BASE_SEED, rows, 1])
    num_main = [f"{v:.9f}" for v in rng.uniform(0.0, NUM_MAIN_HIGH, rows)]
    values = np.array([float(t) for t in num_main])  # exactly as written
    band = (values >= BAND[0]) & (values <= BAND[1])
    n_fault = round(FAULT_SHARE * rows)
    fault = np.zeros(rows, dtype=bool)
    fault[rng.choice(np.flatnonzero(~band), size=n_fault, replace=False)] = True
    cat_a = rng.choice(["a", "b", "c", "d"], rows)
    cat_a[fault] = FAULT_VALUE

    plain = ~band & ~fault
    correct = np.ones(rows, dtype=bool)
    correct[plain] = _exact_flags(rng, int(plain.sum()), BASELINE_ACCURACY)
    correct[band] = _exact_flags(rng, int(band.sum()), FAULT_ACCURACY)
    correct[fault] = _exact_flags(rng, n_fault, FAULT_ACCURACY)
    return _base_table(rng, rows, correct, cat_a, num_main), fault, band


def _null_base(rows: int):
    rng = np.random.default_rng([BASE_SEED, rows, 2])
    num_main = [f"{v:.9f}" for v in rng.uniform(0.0, NUM_MAIN_HIGH, rows)]
    cat_a = rng.choice(["a", "b", "c", "d"], rows)
    correct = rng.random(rows) < NULL_ACCURACY
    return _base_table(rng, rows, correct, cat_a, num_main)


def _write_disguised(path: str, table: dict[str, list[str]], seed: int):
    """Shuffle rows and rescale continuous columns; returns (order, scales)
    where data row i of the file is base row order[i]."""
    rows = len(table["label"])
    rng = np.random.default_rng([seed, rows])
    order = rng.permutation(rows)
    scales = {name: Decimal(SCALES[int(rng.integers(len(SCALES)))])
              for name in CONTINUOUS}
    columns = []
    for name in HEADER:
        cells = table[name]
        if name in scales:
            scale = scales[name]
            cells = [f"{Decimal(cell) * scale:f}" for cell in cells]
        columns.append([cells[i] for i in order])
    lines = [",".join(HEADER)]
    lines += [",".join(row) for row in zip(*columns)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return order, scales


def write_planted(path: str, rows: int, seed: int) -> Truth:
    """One categorical fault (cat_a = v) and one band fault on num_main."""
    table, fault, band = _planted_base(rows)
    order, scales = _write_disguised(path, table, seed)
    fault, band = fault[order], band[order]
    scale = scales["num_main"]
    band_values = [float(Decimal(table["num_main"][i]) * scale)
                   for i in order[band]]
    return Truth(fault_rows=tuple(int(i) for i in np.flatnonzero(fault)),
                 band_rows=tuple(int(i) for i in np.flatnonzero(band)),
                 band_extent=(min(band_values), max(band_values)))


def write_null(path: str, rows: int, seed: int) -> Truth:
    """Pure noise: independent features, iid correctness at NULL_ACCURACY."""
    _write_disguised(path, _null_base(rows), seed)
    return Truth()
