"""Command-line entry point: ingestion -> slicing -> report.

Every knob is a flag.  Exit codes: 0 success (zero slices found is success),
1 usage or configuration error, 2 data error.  Configuration is checked
before any input is read, so a bad knob exits 1 even when the input is bad.
An input that cannot be read (a directory, no permission, not UTF-8) is a
data error; a report that cannot be written, to --out or stdout, exits 1,
as does a run that runs out of memory.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .dataset import (ConfigError, DataError, FeatureKind, IngestConfig,
                      load_table)
from .hpd import HpdConfig
from .model import Heuristic
from .report import FORMATS, build_report, render
from .slicer import AnalysisConfig, run_analysis

__all__ = ["run", "main"]

_HEURISTIC_NAMES = tuple(sorted(h.value for h in Heuristic))
_ANALYSIS = AnalysisConfig()
_INGEST = IngestConfig._field_defaults
_CHUNK = 1 << 16  # report characters encoded and written at a time


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sliceminer",
        description="Mine a labeled ML test dataset for explainable, "
                    "statistically significant under-performing slices.")
    parser.add_argument("input", nargs="?", default=None,
                        help="delimited input file with a header row, or - for stdin")
    parser.add_argument("-g", "--ground-truth", default=None,
                        help="name of the ground-truth column")
    parser.add_argument("-p", "--prediction", default=None,
                        help="name of the model-prediction column")
    parser.add_argument("--heuristics", default=",".join(sorted(
                            h.value for h in _ANALYSIS.heuristics)),
                        help="comma-separated subset of categorical,dt,hpd "
                             "(default: %(default)s)")
    parser.add_argument("--max-order", type=int, default=_ANALYSIS.max_order,
                        help="largest feature interaction, 1-3 (default: %(default)s)")
    parser.add_argument("--pvalue", type=float, default=_ANALYSIS.p_value_max,
                        help="significance threshold (default: %(default)s)")
    parser.add_argument("--gap", type=float, default=_ANALYSIS.gap,
                        help="under-performance gap below the CI lower bound, "
                             "absolute points (default: %(default)s)")
    parser.add_argument("--support-fraction", type=float,
                        default=_ANALYSIS.support_fraction,
                        help="minimal support as a fraction of mispredicted "
                             "records (default: %(default)s)")
    parser.add_argument("--support-floor", type=int,
                        default=_ANALYSIS.support_floor,
                        help="absolute minimal support floor (default: %(default)s)")
    parser.add_argument("--epsilon", type=float, default=_ANALYSIS.hpd.epsilon,
                        help="density step of the interval shrink loop "
                             "(default: %(default)s)")
    parser.add_argument("--initial-density", type=float,
                        default=_ANALYSIS.hpd.initial_density,
                        help="starting density of the interval search "
                             "(default: %(default)s)")
    parser.add_argument("--min-density-floor", type=float,
                        default=_ANALYSIS.hpd.min_density_floor,
                        help="stop once fewer than this fraction of records "
                             "remains (default: %(default)s)")
    parser.add_argument("--ci-level", type=float, default=_ANALYSIS.ci_level,
                        help="confidence level of the dataset interval "
                             "(default: %(default)s)")
    parser.add_argument("--categorical", action="append", default=None,
                        metavar="COLUMN", help="force a column to categorical "
                        "(repeatable; overrides inference)")
    parser.add_argument("--continuous", action="append", default=None,
                        metavar="COLUMN", help="force a column to continuous "
                        "(repeatable; overrides inference)")
    parser.add_argument("--all-numeric", action="store_true",
                        help="treat every numeric-parseable column as continuous")
    parser.add_argument("--categorical-threshold", type=int,
                        default=_INGEST["categorical_threshold"],
                        help="max distinct values for a numeric column to count "
                             "as categorical (default: %(default)s)")
    parser.add_argument("--delimiter", default=_INGEST["delimiter"],
                        help="field delimiter (default: ',')")
    parser.add_argument("--missing-token", default=_INGEST["missing_token"],
                        help="extra token treated as missing besides the empty "
                             "field (default: empty)")
    parser.add_argument("--format", default="json",
                        choices=FORMATS, help="output format (default: %(default)s)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
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
    """Execute one analysis run; returns the process exit code.

    The report's one sink, ``out`` (created or truncated as by ``> out``;
    refused when it names the input file) or stdout, is opened before any
    input is read and gets the text in UTF-8 chunks of ``_CHUNK``
    characters.  The run holds the cyclic collector off, then restores the
    caller's setting: its objects are mostly acyclic, and its few cycles
    (tree closures, the parser) are small."""
    if (out and path != "-" and os.path.exists(path) and os.path.exists(out)
            and os.path.samefile(path, out)):
        raise ConfigError(f"--out {out} names the input file")
    try:
        sink = open(out, "wb") if out else sys.stdout.buffer
    except OSError as exc:
        raise ConfigError(f"cannot write report to {out}: "
                          f"{exc.strerror or exc}") from None
    collecting = gc.isenabled()
    gc.disable()
    try:
        text = _report(path, ingest, analysis, format)
        try:
            if not out:  # text printed before the report goes first
                sys.stdout.flush()
            for start in range(0, len(text), _CHUNK):
                sink.write(text[start:start + _CHUNK].encode("utf-8"))
            sink.flush()
        except OSError as exc:  # leftovers would fail again at close or exit
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sink.fileno())
            os.close(null)
            if isinstance(exc, BrokenPipeError):
                raise
            raise ConfigError(f"cannot write report to {out or 'stdout'}: "
                              f"{exc.strerror or exc}") from None
        return 0
    finally:
        if out:
            sink.close()
        if collecting:
            gc.enable()


def _report(path: str, ingest: IngestConfig, analysis: AnalysisConfig,
            format: str) -> str:
    dataset = load_table(path, ingest)
    if dataset.rejected_rows:
        rows = ", ".join(str(r) for r in dataset.rejected_rows[:20])
        more = "" if len(dataset.rejected_rows) <= 20 else ", ..."
        print(f"sliceminer: rejected {len(dataset.rejected_rows)} rows with "
              f"missing ground truth or prediction (lines {rows}{more})",
              file=sys.stderr)
    for name, cell, line in dataset.mixed_columns:
        print(f"sliceminer: column {name!r} is categorical: {cell!r} on line "
              f"{line} is not a number (if it marks a missing value, pass "
              f"--missing-token)", file=sys.stderr)

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
    return render(report, format)


def _configs(args: argparse.Namespace) -> tuple[IngestConfig, AnalysisConfig]:
    """Check the parsed flags and build the run's configs; reads no input."""
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
    )
    return ingest, analysis


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.self_check:
        from .oracle import self_check  # only the self-check needs it
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
    except DataError as exc:
        print(f"sliceminer: data error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except ValueError as exc:
        print(f"sliceminer: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("sliceminer: error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
