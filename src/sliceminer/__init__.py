"""sliceminer: find explainable, statistically significant under-performing
slices in labeled ML test data."""

from .dataset import (ConfigError, DataError, Dataset, DatasetSummary,
                      Feature, FeatureKind, IngestConfig, load_table,
                      summarize)
from .hpd import HpdConfig
from .model import Filters, Heuristic, Interval, Slice, SliceStats, ValueSet
from .report import RunReport, build_report, render
from .slicer import (AnalysisConfig, AnalysisResult, evaluate_slice,
                     filter_and_rank, generate_higher_order, generate_one_way,
                     min_support, perf_threshold, run_analysis)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "ConfigError",
    "DataError",
    "Dataset",
    "DatasetSummary",
    "Feature",
    "FeatureKind",
    "Filters",
    "Heuristic",
    "HpdConfig",
    "IngestConfig",
    "Interval",
    "RunReport",
    "Slice",
    "SliceStats",
    "ValueSet",
    "build_report",
    "evaluate_slice",
    "filter_and_rank",
    "generate_higher_order",
    "generate_one_way",
    "load_table",
    "min_support",
    "perf_threshold",
    "render",
    "run_analysis",
    "summarize",
    "__version__",
]
