"""Checks of the benchmark's generators, verifier and child limits.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import time

import numpy as np
import pytest

import fixtures
import run
import verify
from sliceminer.cli import main


def _columns(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


@pytest.mark.parametrize("write", [fixtures.write_planted, fixtures.write_null])
def test_same_seed_same_bytes(tmp_path, write):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert write(str(a), 500, 7) == write(str(b), 500, 7)
    write(str(c), 500, 8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_planted_rows_land_where_the_generator_says(tmp_path):
    path = tmp_path / "planted.csv"
    truth = fixtures.write_planted(str(path), 2000, 3)
    cols = _columns(path)
    correct = np.array(cols["label"]) == np.array(cols["pred"])
    cat_a = np.array(cols["cat_a"])
    num_main = np.array([float(v) for v in cols["num_main"]])

    fault = np.flatnonzero(cat_a == fixtures.FAULT_VALUE)
    assert tuple(fault) == truth.fault_rows
    assert fault.size == round(fixtures.FAULT_SHARE * 2000)
    lo, hi = truth.band_extent
    band = np.flatnonzero((num_main >= lo) & (num_main <= hi))
    assert tuple(band) == truth.band_rows
    assert not set(truth.fault_rows) & set(truth.band_rows)
    for rows in (fault, band):
        assert correct[rows].sum() == round(fixtures.FAULT_ACCURACY * rows.size)


def test_seed_changes_bytes_but_not_the_work(tmp_path):
    docs, texts = [], []
    for seed in (1, 2):
        path = tmp_path / f"{seed}.csv"
        truth = fixtures.write_planted(str(path), 400, seed)
        out = tmp_path / f"{seed}.json"
        assert main([str(path), "-g", "label", "-p", "pred",
                     "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text(encoding="utf-8")))
        texts.append(path.read_text(encoding="utf-8"))
        assert verify.check_report(texts[-1], docs[-1], seed,
                                   truth.band_extent) == []
    one, two = docs
    assert texts[0] != texts[1]
    assert one["counts"] == two["counts"]
    assert ([(s["support"], s["correct"], s["p_value"]) for s in one["slices"]]
            == [(s["support"], s["correct"], s["p_value"]) for s in two["slices"]])

    two["slices"][0]["correct"] += 1
    assert verify.check_report(texts[1], two, 2)


def test_exact_tail_matches_a_direct_sum():
    from fractions import Fraction
    from math import comb

    for population, successes, draws, observed in [
            (300, 230, 21, 14), (10, 5, 4, 1), (60, 60, 7, 7), (50, 0, 3, 0),
            (2000, 1880, 900, 830)]:
        lo = max(0, draws - (population - successes))
        want = Fraction(sum(comb(successes, x)
                            * comb(population - successes, draws - x)
                            for x in range(lo, observed + 1)),
                        comb(population, draws))
        assert verify.exact_lower_tail(population, successes, draws,
                                       observed) == want


@pytest.fixture()
def cli_args(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    path = tmp_path / "in.csv"
    fixtures.write_null(str(path), 200, 1)
    return ["cli", "--", str(path), "-g", "label", "-p", "pred",
            "--out", str(tmp_path / "out.json")]


def test_child_run_is_timed_and_measured(cli_args):
    child = run.launch(cli_args, time.monotonic() + 60)
    assert child.ok, child.error
    assert 0 < child.setup_seconds < child.seconds < 60
    assert child.peak_rss_mb > 10 and child.backend in ("numpy", "numba")
    assert all(c > 0 for c in child.calibration)


def test_memory_cap_fails_the_run_not_the_machine(cli_args, monkeypatch):
    monkeypatch.setattr(run, "MEMORY_CAP_BYTES", 32 << 20)
    assert not run.launch(cli_args, time.monotonic() + 60).ok


def test_timeout_kills_the_child(cli_args, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.05)
    child = run.launch(cli_args, time.monotonic() + 60)
    assert not child.ok and "exit -9" in child.error
