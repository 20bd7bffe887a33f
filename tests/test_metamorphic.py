"""Metamorphic checks on the benchmark fixtures: edits to the input that
keep its records and the model's answers must keep the report.

Column order and row order must not move a report byte.  Renaming a
categorical column's labels without changing their sort order, or scaling
a continuous column by a power of two, changes predicate texts but not
which slices are found: each slice's features, heuristic, support, correct
count and p-value, in report order, and the candidate and reported counts
stay equal.  The inputs are the order3-220 (order 3) and null-1500-o2
(order 2) benchmark inputs at seed 1.
"""

from __future__ import annotations

import json
from decimal import Decimal

import numpy as np
import pytest

from sliceminer import cli
from tests.test_golden import load_fixtures

CASES = {"order3-220": ("write_planted", 220, 3),
         "null-1500-o2": ("write_null", 1500, 2)}


def report(directory, table, max_order) -> bytes:
    """JSON report bytes of a CLI run on ``table`` (header row first)."""
    data, out = directory / "data.csv", directory / "report.json"
    data.write_text("\n".join(",".join(row) for row in table) + "\n",
                    encoding="utf-8")
    assert cli.main([str(data), "-g", "label", "-p", "pred", "--max-order",
                     str(max_order), "--out", str(out)]) == 0
    return out.read_bytes()


def found(report_bytes: bytes) -> tuple:
    doc = json.loads(report_bytes)
    return doc["counts"], [(s["features"], s["heuristic"], s["support"],
                            s["correct"], s["p_value"]) for s in doc["slices"]]


def edit_column(table, name, edit):
    at = table[0].index(name)
    return [table[0]] + [row[:at] + [edit(row[at])] + row[at + 1:]
                         for row in table[1:]]


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tmp_path_factory):
    """(table, max_order, report bytes of the table as written)."""
    writer, rows, max_order = CASES[request.param]
    directory = tmp_path_factory.mktemp(request.param)
    getattr(load_fixtures(), writer)(str(directory / "data.csv"), rows, 1)
    lines = (directory / "data.csv").read_text(encoding="utf-8").splitlines()
    table = [line.split(",") for line in lines]
    return table, max_order, report(directory, table, max_order)


@pytest.mark.parametrize("permute", [
    lambda n: list(reversed(range(n))),
    lambda n: [(i + 3) % n for i in range(n)],
    lambda n: np.random.default_rng(3).permutation(n).tolist(),
], ids=["reversed", "rotated", "shuffled"])
def test_column_order_keeps_the_bytes(case, tmp_path, permute):
    table, max_order, want = case
    order = permute(len(table[0]))
    assert order != sorted(order)
    permuted = [[row[i] for i in order] for row in table]
    assert report(tmp_path, permuted, max_order) == want


def test_row_order_keeps_the_bytes(case, tmp_path):
    table, max_order, want = case
    header, *rows = table
    order = np.random.default_rng(5).permutation(len(rows))
    shuffled = [header] + [rows[i] for i in order]
    assert report(tmp_path, shuffled, max_order) == want


def test_labels_renamed_in_sort_order_keep_the_slices(case, tmp_path):
    table, max_order, want = case
    renamed = edit_column(table, "cat_a", lambda label: "level-" + label)
    got = report(tmp_path, renamed, max_order)
    assert got != want  # the labels are in the report
    assert found(got) == found(want)


def test_continuous_scaled_by_a_power_of_two_keeps_the_slices(case, tmp_path):
    table, max_order, want = case
    scaled = edit_column(table, "num_x", lambda cell: f"{Decimal(cell) * 4:f}")
    got = report(tmp_path, scaled, max_order)
    assert got != want  # the interval bounds are in the report
    assert found(got) == found(want)
