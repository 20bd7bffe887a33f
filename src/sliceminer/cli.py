"""Command-line entry point: ingestion -> slicing -> report.

Every knob has a flag; defaults can also be overridden through environment
variables prefixed SLICEMINER_ (e.g. SLICEMINER_PVALUE=0.01 changes the
default of --pvalue).  Exit codes: 0 success (zero slices found is success),
1 usage or configuration error, 2 data error.  Configuration is checked
before any input is read, so a bad knob exits 1 even when the input is bad.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import _kernels, oracle, stats
from .dataset import (ConfigError, DataError, FeatureKind, IngestConfig,
                      load_table)
from .dtree import gini
from .hpd import HpdConfig, shortest_interval
from .model import Heuristic, Interval
from .report import FORMATS, build_report, render
from .slicer import AnalysisConfig, run_analysis

__all__ = ["run", "self_check", "main"]

_HEURISTIC_NAMES = tuple(sorted(h.value for h in Heuristic))
_ANALYSIS = AnalysisConfig()
_INGEST = {f.name: f.default for f in fields(IngestConfig)}


class _EnvValue(str):
    """A default read from a SLICEMINER_* variable.  argparse converts
    string defaults with the flag's ``type`` and quotes the value's repr when
    that fails, so the repr names the variable."""

    def __new__(cls, variable: str, raw: str):
        value = super().__new__(cls, raw)
        value.variable = variable
        return value

    def __repr__(self) -> str:
        return f"{super().__repr__()} from {self.variable}"


def _env(name: str, fallback):
    variable = f"SLICEMINER_{name}"
    raw = os.environ.get(variable)
    return fallback if raw is None else _EnvValue(variable, raw)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sliceminer",
        description="Mine a labeled ML test dataset for explainable, "
                    "statistically significant under-performing slices.",
        epilog="Defaults may be overridden via SLICEMINER_<FLAG> environment "
               "variables, e.g. SLICEMINER_PVALUE=0.01.")
    parser.add_argument("input", nargs="?", default=None,
                        help="delimited input file with a header row, or - for stdin")
    parser.add_argument("-g", "--ground-truth", default=_env("GROUND_TRUTH", None),
                        help="name of the ground-truth column")
    parser.add_argument("-p", "--prediction", default=_env("PREDICTION", None),
                        help="name of the model-prediction column")
    parser.add_argument("--heuristics",
                        default=_env("HEURISTICS", ",".join(sorted(
                            h.value for h in _ANALYSIS.heuristics))),
                        help="comma-separated subset of categorical,dt,hpd "
                             "(default: %(default)s)")
    parser.add_argument("--max-order", type=int,
                        default=_env("MAX_ORDER", _ANALYSIS.max_order),
                        help="largest feature interaction, 1-3 (default: %(default)s)")
    parser.add_argument("--pvalue", type=float,
                        default=_env("PVALUE", _ANALYSIS.p_value_max),
                        help="significance threshold (default: %(default)s)")
    parser.add_argument("--gap", type=float, default=_env("GAP", _ANALYSIS.gap),
                        help="under-performance gap below the CI lower bound, "
                             "absolute points (default: %(default)s)")
    parser.add_argument("--support-fraction", type=float,
                        default=_env("SUPPORT_FRACTION", _ANALYSIS.support_fraction),
                        help="minimal support as a fraction of mispredicted "
                             "records (default: %(default)s)")
    parser.add_argument("--support-floor", type=int,
                        default=_env("SUPPORT_FLOOR", _ANALYSIS.support_floor),
                        help="absolute minimal support floor (default: %(default)s)")
    parser.add_argument("--epsilon", type=float,
                        default=_env("EPSILON", _ANALYSIS.hpd.epsilon),
                        help="density step of the interval shrink loop "
                             "(default: %(default)s)")
    parser.add_argument("--initial-density", type=float,
                        default=_env("INITIAL_DENSITY", _ANALYSIS.hpd.initial_density),
                        help="starting density of the interval search "
                             "(default: %(default)s)")
    parser.add_argument("--min-density-floor", type=float,
                        default=_env("MIN_DENSITY_FLOOR",
                                     _ANALYSIS.hpd.min_density_floor),
                        help="stop once fewer than this fraction of records "
                             "remains (default: %(default)s)")
    parser.add_argument("--ci-level", type=float,
                        default=_env("CI_LEVEL", _ANALYSIS.ci_level),
                        help="confidence level of the dataset interval "
                             "(default: %(default)s)")
    parser.add_argument("--categorical", action="append", default=None,
                        metavar="COLUMN", help="force a column to categorical "
                        "(repeatable; overrides inference)")
    parser.add_argument("--continuous", action="append", default=None,
                        metavar="COLUMN", help="force a column to continuous "
                        "(repeatable; overrides inference)")
    parser.add_argument("--all-numeric", action="store_true",
                        default=_env("ALL_NUMERIC", "") == "1",
                        help="treat every numeric-parseable column as continuous")
    parser.add_argument("--categorical-threshold", type=int,
                        default=_env("CATEGORICAL_THRESHOLD",
                                     _INGEST["categorical_threshold"]),
                        help="max distinct values for a numeric column to count "
                             "as categorical (default: %(default)s)")
    parser.add_argument("--delimiter",
                        default=_env("DELIMITER", _INGEST["delimiter"]),
                        help="field delimiter (default: ',')")
    parser.add_argument("--missing-token",
                        default=_env("MISSING_TOKEN", _INGEST["missing_token"]),
                        help="extra token treated as missing besides the empty "
                             "field (default: empty)")
    parser.add_argument("--format", default=_env("FORMAT", "json"),
                        choices=FORMATS, help="output format (default: %(default)s)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--workers", type=int,
                        default=_env("WORKERS", _ANALYSIS.workers),
                        help="parallel workers for candidate generation; 1 is "
                             "fully sequential (default: %(default)s)")
    parser.add_argument("--self-check", action="store_true",
                        help="verify the built-in worked examples and exit")
    return parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def run(path: str, ingest: IngestConfig, analysis: AnalysisConfig,
        format: str, out: str | None = None) -> int:
    """Execute one analysis run; returns the process exit code."""
    dataset = load_table(path, ingest)
    if dataset.rejected_rows:
        rows = ", ".join(str(r) for r in dataset.rejected_rows[:20])
        more = "" if len(dataset.rejected_rows) <= 20 else ", ..."
        print(f"sliceminer: rejected {len(dataset.rejected_rows)} rows with "
              f"missing ground truth or prediction (lines {rows}{more})",
              file=sys.stderr)

    result = run_analysis(dataset, analysis)

    for (heuristic, order) in sorted(set(result.candidate_counts)
                                     | set(result.reported_counts)):
        cand = result.candidate_counts.get((heuristic, order), 0)
        rep = result.reported_counts.get((heuristic, order), 0)
        print(f"sliceminer: {heuristic} order {order}: "
              f"{cand} candidates, {rep} reported", file=sys.stderr)

    report = build_report(result, dataset, extra_config={
        "ground_truth": ingest.ground_truth,
        "prediction": ingest.prediction,
        "all_numeric": ingest.all_numeric,
        "categorical_threshold": ingest.categorical_threshold,
    })
    text = render(report, format)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _configs(args: argparse.Namespace) -> tuple[IngestConfig, AnalysisConfig]:
    """Check the parsed flags and build the run's configs; reads no input."""
    if args.format not in FORMATS:  # argparse skips choices for defaults
        raise ConfigError(f"unknown format {args.format!r}; "
                          f"choose from {', '.join(FORMATS)}")
    heuristics = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    if not heuristics or set(heuristics) - set(_HEURISTIC_NAMES):
        raise ConfigError(f"heuristics must be a nonempty subset of "
                          f"{', '.join(_HEURISTIC_NAMES)}")
    categorical = args.categorical or ()
    continuous = args.continuous or ()
    overlap = set(categorical) & set(continuous)
    if overlap:
        raise ConfigError(f"columns marked both categorical and continuous: "
                          f"{', '.join(sorted(overlap))}")
    if args.categorical_threshold < 0:
        raise ConfigError("categorical threshold must be >= 0")
    overrides = {name: FeatureKind.CATEGORICAL for name in categorical}
    overrides.update({name: FeatureKind.CONTINUOUS for name in continuous})
    ingest = IngestConfig(
        ground_truth=args.ground_truth,
        prediction=args.prediction,
        delimiter=args.delimiter,
        missing_token=args.missing_token,
        categorical_threshold=args.categorical_threshold,
        overrides=overrides,
        all_numeric=args.all_numeric,
    )
    analysis = AnalysisConfig(
        heuristics=frozenset(Heuristic(h) for h in heuristics),
        max_order=args.max_order,
        hpd=HpdConfig(initial_density=args.initial_density,
                      epsilon=args.epsilon,
                      min_density_floor=args.min_density_floor),
        p_value_max=args.pvalue,
        gap=args.gap,
        support_fraction=args.support_fraction,
        support_floor=args.support_floor,
        ci_level=args.ci_level,
        workers=args.workers,
    )
    return ingest, analysis


def self_check(verbose: bool = True) -> int:
    """Field verification of the numerics against built-in worked examples."""
    checks: list[tuple[str, bool]] = []

    def add(name: str, ok: bool) -> None:
        checks.append((name, ok))

    p = stats.hypergeom_lower_pvalue(300, 230, 21, 14)
    add("lower tail (300,230,21,14) ~ 0.193", 0.188 <= p <= 0.198)
    largest = max(k for k in range(0, 22)
                  if stats.hypergeom_lower_pvalue(300, 230, 21, k) < 0.05)
    add("largest significant correct count at n=21 is 12", largest == 12)
    exact = float(oracle.exact_hypergeom_pvalue(10, 5, 4, 1))
    fast = stats.hypergeom_lower_pvalue(10, 5, 4, 1)
    add("tail (10,5,4,1) matches exact 55/210",
        abs(fast - exact) <= 1e-10 * exact)
    exact_big = float(oracle.exact_hypergeom_pvalue(300, 230, 21, 14))
    add("tail (300,230,21,14) matches exact rational",
        abs(p - exact_big) <= 1e-10 * exact_big)
    low, high = stats.wilson_interval(230, 300, 0.95)
    add("wilson 230/300 ~ [0.7156, 0.8110]",
        abs(low - 0.715619) < 1e-5 and abs(high - 0.810972) < 1e-5)
    values = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
    fast_iv = shortest_interval(values, 0.6)
    add("shortest interval [0,1,2,3,10]@0.6 is [0,2]",
        fast_iv == Interval(0.0, 2.0)
        and fast_iv == oracle.exhaustive_shortest_interval(values, 0.6))
    add("gini(3,1) = 0.375", gini(3, 1) == 0.375)

    rng = np.random.default_rng(7)
    agree = True
    for _ in range(50):
        population = int(rng.integers(2, 61))
        successes = int(rng.integers(0, population + 1))
        draws = int(rng.integers(1, population + 1))
        lo = max(0, draws - (population - successes))
        hi = min(draws, successes)
        if hi < lo:
            continue
        observed = int(rng.integers(lo, hi + 1))
        want = float(oracle.exact_hypergeom_pvalue(population, successes,
                                                   draws, observed))
        got = stats.hypergeom_lower_pvalue(population, successes, draws, observed)
        if abs(got - want) > 1e-10 * max(want, 1e-300):
            agree = False
            break
    add("random sweep matches exact oracle (N<=60)", agree)

    failures = 0
    for name, ok in checks:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        if verbose:
            print(f"self-check [{_kernels.BACKEND}]: {name}: {status}")
    if verbose:
        print(f"self-check: {len(checks) - failures}/{len(checks)} passed")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.input is None:
        parser.error("input file is required (use - for stdin)")
    if not args.ground_truth:
        parser.error("--ground-truth is required")
    if not args.prediction:
        parser.error("--prediction is required")
    try:
        ingest, analysis = _configs(args)
        return run(args.input, ingest, analysis, args.format, args.out)
    except ConfigError as exc:
        print(f"sliceminer: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"sliceminer: data error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except ValueError as exc:
        print(f"sliceminer: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
