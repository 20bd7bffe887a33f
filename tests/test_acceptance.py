"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not calibrated elsewhere.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sliceminer.cli import main
from sliceminer.hpd import _LOOP_WINDOWS, min_width_window
from sliceminer.model import Interval
from sliceminer.oracle import (exact_hypergeom_pvalue,
                               exhaustive_shortest_interval)
from sliceminer.stats import hypergeom_lower_pvalue
from tests.conftest import write_csv


def check(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


# -------------------------------------------------------------------------
# 1. Worked-example fidelity
# -------------------------------------------------------------------------

def test_criterion_1a_worked_example_pvalue():
    start = time.monotonic()
    p = hypergeom_lower_pvalue(300, 230, 21, 14)
    elapsed = time.monotonic() - start
    check("1a worked example p(300,230,21,14) in [0.188, 0.198]",
          0.188 <= p <= 0.198, f"p={p:.6f}, {elapsed * 1e3:.1f} ms")


def test_criterion_1b_doubled_slice_pvalue():
    # The package's tail is inclusive, Pr(X <= k), and 1a and 1c pin it:
    # exact rationals give p(300,230,21,14) = 0.19277 and a largest
    # significant k of 12 at (300,230,21), whereas the exclusive tail
    # Pr(X < k) would give 0.08631 and 13.  At the doubled slice the
    # inclusive tail is 0.0758720909811113 (exact rational oracle); the
    # published [0.035, 0.045] figure is the exclusive tail
    # Pr(X <= 27) = 0.0357709481354612, so it pins the same example under
    # the other convention and is checked as such.
    p = hypergeom_lower_pvalue(300, 230, 42, 28)
    exact = float(exact_hypergeom_pvalue(300, 230, 42, 28))
    exclusive = float(exact_hypergeom_pvalue(300, 230, 42, 27))
    check("1b doubled slice p(300,230,42,28) inclusive tail in [0.0755, 0.0763]"
          " and equal to the exact rational; the published [0.035, 0.045]"
          " is the exclusive tail P(X<28)",
          p == pytest.approx(exact, rel=1e-12) and 0.0755 <= p <= 0.0763
          and 0.035 <= exclusive <= 0.045,
          f"p={p:.6f}, exact={exact:.6f}, exclusive={exclusive:.6f}")


def test_criterion_1c_largest_significant_count():
    passing = [k for k in range(0, 22)
               if hypergeom_lower_pvalue(300, 230, 21, k) < 0.05]
    check("1c largest k with p<0.05 at (300,230,21) equals 12",
          max(passing) == 12, f"max k={max(passing)}")


# -------------------------------------------------------------------------
# 2. Exact-oracle equivalence
# -------------------------------------------------------------------------

def test_criterion_2_exact_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 1000:
        population = int(rng.integers(2, 61))
        successes = int(rng.integers(0, population + 1))
        draws = int(rng.integers(1, population + 1))
        lo = max(0, draws - (population - successes))
        hi = min(draws, successes)
        cases.append((population, successes, draws,
                      int(rng.integers(lo, hi + 1))))
    for population in (10, 25, 60):
        for successes in (0, population // 3, population):
            for draws in range(1, population + 1, max(1, population // 7)):
                lo = max(0, draws - (population - successes))
                hi = min(draws, successes)
                cases.append((population, successes, draws, lo))      # k floor
                cases.append((population, successes, draws, hi))      # k ceiling
            cases.append((population, successes, population,          # n = N
                          successes))
    worst = 0.0
    for population, successes, draws, observed in cases:
        want = float(exact_hypergeom_pvalue(population, successes, draws,
                                            observed))
        got = hypergeom_lower_pvalue(population, successes, draws, observed)
        err = abs(got - want) / want if want else abs(got)
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    check("2 fast tail vs exact rational, rel err <= 1e-10",
          worst <= 1e-10 and elapsed < 10.0,
          f"{len(cases)} cases, worst {worst:.2e}, {elapsed:.2f} s")


# -------------------------------------------------------------------------
# 3. Shortest-interval minimality
# -------------------------------------------------------------------------

def test_criterion_3_interval_minimality():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    proportions = [round(0.1 * i, 1) for i in range(1, 11)]
    mismatches = 0
    looped = 0  # searches of at most _LOOP_WINDOWS windows take the loop
    for _ in range(500):
        size = int(rng.integers(1, 201))
        values = np.sort(rng.uniform(-1e3, 1e3, size))
        bound = values.tolist()
        for proportion in proportions:
            # the window hpd_scan searches for a share of the records
            m = min(size, max(1, math.ceil(proportion * size)))
            i = min_width_window(values, bound, 0, size, m)
            looped += size - m < _LOOP_WINDOWS
            fast = Interval(bound[i], bound[i + m - 1])
            slow = exhaustive_shortest_interval(values, proportion)
            if fast != slow:
                mismatches += 1
    elapsed = time.monotonic() - start
    check("3 window search equals exhaustive scan incl. tie-break",
          mismatches == 0 and 0 < looped < 5000 and elapsed < 10.0,
          f"5000 scans ({looped} loop, {5000 - looped} numpy), "
          f"{mismatches} mismatches, {elapsed:.2f} s")


# -------------------------------------------------------------------------
# 4. Planted-slice recovery (end-to-end)
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """5000 rows, 6 features, baseline 0.95; one categorical fault
    (value ``v``, 150 rows, accuracy 0.40) and one numeric band fault
    ([0.40, 0.45], ~150 rows, accuracy 0.40)."""
    rng = np.random.default_rng(20260808)
    n = 5000
    num_main = rng.uniform(0.0, 5.0 / 3.0, n)
    band = (num_main >= 0.40) & (num_main <= 0.45)
    outside = np.flatnonzero(~band)
    fault_rows = rng.choice(outside, size=150, replace=False)
    cat_a = rng.choice(["a", "b", "c", "d"], n)
    cat_a[fault_rows] = "v"

    def exact_flags(count, rate):
        flags = np.zeros(count, dtype=bool)
        flags[: round(rate * count)] = True
        return rng.permutation(flags)

    correct = np.ones(n, dtype=bool)
    is_fault = np.zeros(n, dtype=bool)
    is_fault[fault_rows] = True
    plain = ~band & ~is_fault
    correct[plain] = exact_flags(int(plain.sum()), 0.95)
    correct[band] = exact_flags(int(band.sum()), 0.40)
    correct[is_fault] = exact_flags(150, 0.40)

    label = rng.integers(0, 2, n)
    pred = np.where(correct, label, 1 - label)
    rows = [[cat_a[i], f"{num_main[i]:.9f}",
             int(rng.integers(0, 3)), f"{rng.normal():.6f}",
             f"{rng.uniform(-1, 1):.6f}", int(rng.integers(0, 4)),
             label[i], pred[i]] for i in range(n)]
    path = write_csv(
        tmp_path_factory.mktemp("planted") / "planted.csv",
        ["cat_a", "num_main", "cat_b", "num_x", "num_y", "cat_c",
         "label", "pred"],
        rows)
    band_values = num_main[band]
    return {
        "path": path,
        "band_extent": (float(band_values.min()), float(band_values.max())),
        "band_rows": int(band.sum()),
    }


def run_cli_json(path, out):
    code = main([path, "-g", "label", "-p", "pred", "--out", str(out)])
    assert code == 0
    return json.loads(Path(out).read_text())


def test_criterion_4_planted_slice_recovery(planted, tmp_path):
    start = time.monotonic()
    doc = run_cli_json(planted["path"], tmp_path / "planted.json")
    elapsed = time.monotonic() - start

    cat_hits = [s for s in doc["slices"]
                if s["features"] == ["cat_a"]
                and s["predicates"]["cat_a"] == "v"
                and s["heuristic"] == "categorical"
                and s["p_value"] < 1e-10]
    check("4 categorical fault reported exactly as cat_a = v",
          len(cat_hits) == 1,
          f"support {cat_hits[0]['support'] if cat_hits else '-'}")

    lo, hi = planted["band_extent"]
    band_hits = []
    for s in doc["slices"]:
        if s["heuristic"] not in ("hpd", "dt") or s["p_value"] >= 1e-10:
            continue
        span = s["predicates"].get("num_main")
        if span is None or "–" not in span:
            continue
        for piece in span.split(" ∪ "):
            low, _, high = piece.partition("–")
            if float(low) <= lo and float(high) >= hi:
                band_hits.append(s)
                break
    check("4 numeric band fault covered by an interval slice",
          bool(band_hits),
          f"{len(band_hits)} slices cover [{lo:.4f}, {hi:.4f}]")
    check("4 end-to-end runtime under 30 s", elapsed < 30.0,
          f"{elapsed:.2f} s, {planted['band_rows']} band rows")


# -------------------------------------------------------------------------
# 5. Filter soundness on randomized datasets
# -------------------------------------------------------------------------

def test_criterion_5_filter_soundness(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(55)
    verified = 0
    for round_no in range(6):
        n = int(rng.integers(400, 900))
        group = rng.choice(["g1", "g2", "g3", "g4"], n)
        value_text = [f"{v:.9f}" for v in rng.uniform(-1.0, 1.0, n)]
        value = np.array([float(s) for s in value_text])  # exactly as written
        base_rate = 0.85 + 0.1 * rng.random()
        correct = rng.random(n) < base_rate
        weak_group = rng.choice(["g1", "g2", "g3", "g4"])
        weak = group == weak_group
        correct[weak] = rng.random(int(weak.sum())) < 0.5
        low_band = value <= rng.uniform(-0.8, -0.4)
        correct[low_band] &= rng.random(int(low_band.sum())) < 0.6

        label = rng.integers(0, 2, n)
        pred = np.where(correct, label, 1 - label)
        rows = [[group[i], value_text[i], label[i], pred[i]]
                for i in range(n)]
        path = write_csv(tmp_path / f"rand{round_no}.csv",
                         ["group", "value", "label", "pred"], rows)
        doc = run_cli_json(path, tmp_path / f"rand{round_no}.json")

        filters = doc["filters"]
        population = doc["dataset"]["records"]
        successes = doc["dataset"]["correct"]
        for s in doc["slices"]:
            member = np.ones(n, dtype=bool)
            for feature, rendered in s["predicates"].items():
                if feature == "group":
                    labels = ([rendered] if not rendered.startswith("(")
                              else rendered[1:-1].split(", "))
                    member &= np.isin(group, labels)
                else:
                    inside = np.zeros(n, dtype=bool)
                    for piece in rendered.split(" ∪ "):
                        low, _, high = piece.partition("–")
                        inside |= (value >= float(low)) & (value <= float(high))
                    member &= inside
            support = int(member.sum())
            right = int(correct[member].sum())
            assert support == s["support"] and right == s["correct"]
            assert support >= filters["min_support"]
            assert right / support <= filters["perf_threshold"] + 1e-12
            p = float(exact_hypergeom_pvalue(population, successes,
                                             support, right))
            assert p < filters["p_value_max"]
            assert s["p_value"] == pytest.approx(p, rel=1e-9, abs=1e-300)
            verified += 1
    elapsed = time.monotonic() - start
    check("5 every reported slice re-verified from raw data",
          verified > 0 and elapsed < 60.0,
          f"{verified} slices across 6 datasets, {elapsed:.2f} s")


# -------------------------------------------------------------------------
# 6. Size-significance monotonicity
# -------------------------------------------------------------------------

def test_criterion_6_doubling_monotonicity():
    start = time.monotonic()
    rng = np.random.default_rng(66)
    tested = 0
    violations = 0
    while tested < 200:
        population = int(rng.integers(20, 2000))
        successes = int(rng.integers(1, population))
        draws = int(rng.integers(2, population // 2 + 1))
        if 2 * draws > population:
            continue
        lo = max(0, draws - (population - successes))
        hi = min(draws, successes)
        if hi < lo:
            continue
        observed = int(rng.integers(lo, hi + 1))
        # under-performance margin: at least one expected success short
        if observed + 1 > draws * successes / population:
            continue
        if 2 * observed > successes:
            continue
        if 2 * (draws - observed) > population - successes:
            continue
        tested += 1
        p_single = hypergeom_lower_pvalue(population, successes, draws, observed)
        p_double = hypergeom_lower_pvalue(population, successes,
                                          2 * draws, 2 * observed)
        if not p_double < p_single:
            violations += 1
    elapsed = time.monotonic() - start
    check("6 doubling (n, k) strictly lowers the p-value",
          violations == 0 and elapsed < 10.0,
          f"200 cases, {violations} violations, {elapsed:.2f} s")


# -------------------------------------------------------------------------
# 7. Determinism across runs
# -------------------------------------------------------------------------

def test_criterion_7_run_determinism(planted, tmp_path):
    run_cli_json(planted["path"], tmp_path / "first.json")
    run_cli_json(planted["path"], tmp_path / "second.json")
    first = (tmp_path / "first.json").read_bytes()
    second = (tmp_path / "second.json").read_bytes()
    check("7 two runs of the planted data give byte-identical JSON",
          first == second, f"{len(first)} bytes")


# -------------------------------------------------------------------------
# 8. Scope statement
# -------------------------------------------------------------------------

def test_criterion_8_scope_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    documented = ("synthetic" in text and "planted" in text
                  and "depend on the model" in text)
    check("8 README documents what the suite does and does not validate",
          documented)
