"""Independent check of one canonical JSON report against its CSV.

Nothing here imports sliceminer.  Support and correct counts of every
reported slice are recomputed from the CSV text with plain numpy, the gates
are re-applied, every p-value is compared with scipy's hypergeometric CDF,
and the p-values of a seeded sample of slices are checked against an exact
integer computation of the lower tail.  On planted data both planted faults
must be among the reported slices.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction
from math import comb

import numpy as np
from scipy.stats import hypergeom

DASH = "–"
UNION = " ∪ "
PVALUE_SAMPLE = 16


def exact_lower_tail(population: int, successes: int, draws: int,
                     observed: int) -> Fraction:
    """Pr(X <= observed) for X hypergeometric, as an exact fraction.

    The binomial coefficients are stepped exactly from x = lo upward, so a
    tail over x terms costs x big-integer multiplications and divisions."""
    failures = population - successes
    lo = max(0, draws - failures)
    hi = min(observed, draws, successes)
    a = comb(successes, lo)             # C(successes, x)
    b = comb(failures, draws - lo)      # C(failures, draws - x)
    numerator = 0
    for x in range(lo, hi + 1):
        numerator += a * b
        a = a * (successes - x) // (x + 1)
        if draws - x > 0:
            b = b * (draws - x) // (failures - draws + x + 1)
    return Fraction(numerator, comb(population, draws))


def _read_csv(text: str) -> dict[str, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    cells = np.array(rows[1:], dtype=object)
    return {name: np.array([c.strip() for c in cells[:, i]])
            for i, name in enumerate(header)}


def check_report(csv_text: str, doc: dict, seed: int,
                 band_extent: tuple[float, float] | None = None) -> list[str]:
    """Problems found in ``doc``; empty when the report checks out.

    ``band_extent`` is given for planted data: the written num_main extent
    of the band fault, which some interval slice must cover; the categorical
    fault must be reported as exactly ``cat_a = v``."""
    columns = _read_csv(csv_text)
    correct = (columns["label"].astype(float) == columns["pred"].astype(float))
    n = correct.size
    population, successes = n, int(correct.sum())
    problems = []
    if doc["dataset"]["records"] != population:
        problems.append(f"records {doc['dataset']['records']} != {population}")
    if doc["dataset"]["correct"] != successes:
        problems.append(f"correct {doc['dataset']['correct']} != {successes}")

    numeric = {}
    filters = doc["filters"]
    slices = doc["slices"]
    kinds = {name: entry["kind"] for name, entry in doc["features"].items()}
    for i, s in enumerate(slices):
        member = np.ones(n, dtype=bool)
        for feature, rendered in s["predicates"].items():
            if kinds[feature] == "categorical":
                body = (rendered[1:-1] if rendered.startswith("(")
                        and rendered.endswith(")") else rendered)
                member &= np.isin(columns[feature], body.split(", "))
                continue
            if feature not in numeric:
                numeric[feature] = columns[feature].astype(float)
            values = numeric[feature]
            inside = np.zeros(n, dtype=bool)
            for span in rendered.split(UNION):
                low, _, high = span.partition(DASH)
                inside |= (values >= float(low)) & (values <= float(high))
            member &= inside
        support = int(member.sum())
        right = int(correct[member].sum())
        if (support, right) != (s["support"], s["correct"]):
            problems.append(f"slice {i}: counts ({s['support']}, {s['correct']})"
                            f" recomputed as ({support}, {right})")
            continue
        if (support < filters["min_support"]
                or right / support > filters["perf_threshold"] + 1e-12
                or not s["p_value"] < filters["p_value_max"]):
            problems.append(f"slice {i}: reported but fails a gate")

    if slices:
        reported = np.array([s["p_value"] for s in slices])
        cdf = hypergeom.cdf([s["correct"] for s in slices], population,
                            successes, [s["support"] for s in slices])
        for i in np.flatnonzero(np.abs(reported - cdf)
                                > np.maximum(1e-9 * cdf, 1e-300)):
            problems.append(f"slice {i}: p-value {float(reported[i])!r}, "
                            f"scipy {float(cdf[i])!r}")
    sample = sorted(random.Random(seed).sample(range(len(slices)),
                                               min(PVALUE_SAMPLE, len(slices))))
    for i in sample:
        s = slices[i]
        want = float(exact_lower_tail(population, successes,
                                      s["support"], s["correct"]))
        if abs(s["p_value"] - want) > max(1e-9 * want, 1e-300):
            problems.append(f"slice {i}: p-value {s['p_value']!r}, exact {want!r}")

    if band_extent is not None:
        if not any(s["features"] == ["cat_a"] and s["predicates"]["cat_a"] == "v"
                   and s["heuristic"] == "categorical" for s in slices):
            problems.append("planted categorical fault cat_a = v not reported")
        lo, hi = band_extent
        covered = False
        for s in slices:
            span = s["predicates"].get("num_main")
            if s["heuristic"] not in ("hpd", "dt") or span is None:
                continue
            for piece in span.split(UNION):
                low, _, high = piece.partition(DASH)
                covered |= float(low) <= lo and float(high) >= hi
        if not covered:
            problems.append(f"planted band fault [{lo}, {hi}] not covered")
    return problems
